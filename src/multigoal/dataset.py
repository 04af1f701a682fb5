"""Two-goal labeled dataset generation: maps, goal pairs, region labels, distances.

Each sample holds a random map, two goals in its largest free component, a
binary label mask made by dilating the optimal grid path, and the exact path
length. Samples split 6:2:2 into train/val/test. Generation is a pure
function of the seed, so regeneration is byte-identical.
"""

from __future__ import annotations

import json
import os

from .errors import (
    FormatError,
    GenerationFailed,
    InvalidArgument,
    PlacementFailed,
    Unreachable,
    naming,
)
from .estimators import default_dilation_radius, dilate_path_to_region, grid_shortest_path
from .grid import (
    ObstacleSpec,
    check_integer,
    check_map_size,
    generate_map,
    load_goals,
    load_map,
    place_goals,
    read_json_object,
    read_table,
    save_goals,
    save_map,
    write_lines,
    write_rows,
)
from .pgm import read_pgm, write_pgm
from .pipeline import derive_seed

_SAMPLE_RETRIES = 50
_SPLIT_RATIO = "6:2:2"


def generate_dataset(
    n_maps: int,
    seed: int,
    out_dir,
    width: int = 64,
    height: int = 64,
    min_separation: float | None = None,
) -> dict:
    """Generate n_maps labeled samples under out_dir and return the manifest."""
    if n_maps < 1:
        raise InvalidArgument("n_maps must be at least 1")
    check_map_size(width, height)
    spec = ObstacleSpec(count_range=(4, 64), density_range=(0.10, 0.30))
    if min_separation is None:
        min_separation = max(width, height) / 8.0

    samples = []
    dist_rows = []
    for i in range(n_maps):
        sample_id = f"sample_{i:05d}"
        grid, goals, path, length = _make_sample(seed, i, width, height, spec, min_separation)
        mask = dilate_path_to_region(grid, path, default_dilation_radius(grid))
        if i == 0:  # a run that cannot make one sample leaves no tree behind
            for sub in ("maps", "goals", "masks"):
                os.makedirs(os.path.join(out_dir, sub), exist_ok=True)

        map_rel = f"maps/{sample_id}.map"
        goals_rel = f"goals/{sample_id}.csv"
        mask_rel = f"masks/{sample_id}.pgm"
        save_map(os.path.join(out_dir, map_rel), grid)
        save_goals(os.path.join(out_dir, goals_rel), goals)
        write_pgm(os.path.join(out_dir, mask_rel), mask.to_u8())
        dist_rows.append((sample_id, length))
        samples.append(
            {
                "id": sample_id,
                "map": map_rel,
                "goals": goals_rel,
                "mask": mask_rel,
                "distance": length,
                "split": _split_of(i, n_maps),
            }
        )

    write_rows(os.path.join(out_dir, "distances.csv"), dist_rows)

    manifest = {
        "seed": int(seed),
        "n": n_maps,
        "width": width,
        "height": height,
        "split_ratio": _SPLIT_RATIO,
        "samples": samples,
    }
    write_lines(
        os.path.join(out_dir, "manifest.json"), [json.dumps(manifest, indent=2, sort_keys=True)]
    )
    return manifest


def _make_sample(seed, index, width, height, spec, min_separation):
    last_error = "no attempt"
    for attempt in range(_SAMPLE_RETRIES):
        try:
            grid = generate_map(derive_seed(seed, 10, index, attempt), width, height, spec)
            goals = place_goals(grid, 2, derive_seed(seed, 11, index, attempt), min_separation)
            path, length = grid_shortest_path(grid, goals[0], goals[1])
            return grid, goals, path, length
        except (GenerationFailed, PlacementFailed, Unreachable) as exc:
            last_error = f"{type(exc).__name__}: {exc}"
    raise GenerationFailed(
        f"sample {index}: no valid map/goal pair after {_SAMPLE_RETRIES} attempts ({last_error})"
    )


def _split_of(index: int, n: int) -> str:
    n_train = 6 * n // 10
    n_val = 2 * n // 10
    if index < n_train:
        return "train"
    if index < n_train + n_val:
        return "val"
    return "test"


def _distance_row(fields) -> tuple[str, float]:
    sample_id, value = fields
    return sample_id, float(value)


def _sample_file(out_dir, manifest_path, entry: dict, key: str) -> str:
    """The path of a sample's map, goals or mask file, which must lie inside out_dir."""
    name = entry[key]
    local = os.path.normpath(name)
    if os.path.isabs(name) or local == os.pardir or local.startswith(os.pardir + os.sep):
        raise FormatError(
            f"{manifest_path}: {entry['id']} {key} {name!r} is outside the dataset directory"
        )
    return os.path.join(out_dir, name)


def validate_dataset(out_dir) -> int:
    """Re-check every sample: its manifest entry and distances.csv row agree, its
    files lie inside out_dir, its map has the manifest's width and height, the
    mask covers the optimal path, and the distance matches the oracle; the
    manifest's n counts the samples, and its seed and split ratio are the kind
    that generate_dataset writes.

    Returns the number of validated samples; raises InvalidArgument, still a
    ValueError, on the first violation, and FormatError on a malformed file.
    Every refusal names the file it found at fault.
    """
    manifest_path = os.path.join(out_dir, "manifest.json")
    manifest = read_json_object(manifest_path, "samples", ("id", "map", "goals", "mask"))
    samples = manifest["samples"]
    dist_path = os.path.join(out_dir, "distances.csv")
    distances = dict(value for _, value in read_table(dist_path, _distance_row, key=lambda v: v[0]))
    listed = set()
    for entry in samples:
        if entry["id"] in listed:
            raise FormatError(f"{manifest_path}: {entry['id']} listed twice")
        listed.add(entry["id"])
    for sample_id in distances:
        if sample_id not in listed:
            raise FormatError(f"{dist_path}: {sample_id} is not a manifest sample")
    with naming(manifest_path, FormatError):
        for field in ("seed", "n", "width", "height"):
            check_integer(manifest.get(field), field)
    if manifest.get("split_ratio") != _SPLIT_RATIO:
        raise FormatError(
            f"{manifest_path}: split_ratio {manifest.get('split_ratio')!r} != {_SPLIT_RATIO!r}"
        )
    if manifest["n"] != len(samples):
        raise FormatError(f"{manifest_path}: n {manifest['n']} != {len(samples)} samples")
    width, height = manifest["width"], manifest["height"]

    for k, entry in enumerate(samples):
        sample_id = entry["id"]
        if sample_id not in distances:
            raise FormatError(f"{dist_path}: no row for {sample_id}")
        split = _split_of(k, len(samples))
        if entry.get("split") != split:
            raise FormatError(
                f"{manifest_path}: {sample_id} split {entry.get('split')!r} != {split!r}"
            )
        stored = distances[sample_id]
        map_path, goals_path, mask_path = (
            _sample_file(out_dir, manifest_path, entry, key) for key in ("map", "goals", "mask")
        )
        grid = load_map(map_path)
        if (grid.width, grid.height) != (width, height):
            raise FormatError(
                f"{manifest_path}: {sample_id} map is {grid.width}x{grid.height}, "
                f"not {width}x{height}"
            )
        goals = load_goals(goals_path)
        if len(goals) != 2:
            raise FormatError(f"{goals_path}: a sample needs 2 goals, got {len(goals)}")
        raster = read_pgm(mask_path)
        if raster.shape != grid.cells.shape:
            raise FormatError(
                f"{mask_path}: mask is {raster.shape[1]}x{raster.shape[0]}, "
                f"map is {grid.width}x{grid.height}"
            )
        with naming(f"{goals_path}: {sample_id}"):
            # the stored distance bounds the search; a wrong one still gets the true path
            path, length = grid_shortest_path(grid, goals[0], goals[1], stored)
        for x, y in path:
            if raster[y, x] != 255:
                raise InvalidArgument(
                    f"{mask_path}: {sample_id} mask misses optimal path cell ({x}, {y})"
                )
        if stored != length:
            raise InvalidArgument(
                f"{dist_path}: {sample_id} stored distance {stored} != oracle {length}"
            )
        if entry.get("distance") != stored:
            raise FormatError(
                f"{manifest_path}: {sample_id} distance {entry.get('distance')!r} != {stored} "
                f"in {dist_path}"
            )
    return len(samples)


__all__ = ["generate_dataset", "validate_dataset"]
