"""Two-goal labeled dataset generation: maps, goal pairs, region labels, distances.

Each sample holds a random map, two goals in its largest free component, a
binary label mask made by dilating the optimal grid path, and the exact path
length. Samples split 6:2:2 into train/val/test. Generation is a pure
function of the seed, so regeneration is byte-identical.
"""

from __future__ import annotations

import json
import os

from .errors import FormatError, GenerationFailed, InvalidArgument, PlacementFailed, Unreachable
from .estimators import default_dilation_radius, dilate_path_to_region, grid_shortest_path
from .grid import (
    ObstacleSpec,
    check_map_size,
    generate_map,
    load_goals,
    load_map,
    place_goals,
    read_json_entries,
    read_rows,
    save_goals,
    save_map,
    write_lines,
    write_rows,
)
from .pgm import read_pgm, write_pgm
from .pipeline import derive_seed

_SAMPLE_RETRIES = 50


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
        "split_ratio": "6:2:2",
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


def validate_dataset(out_dir) -> int:
    """Re-check every sample: mask covers the optimal path, distance matches the oracle.

    Returns the number of validated samples; raises InvalidArgument, still a
    ValueError, on the first violation, and FormatError on a malformed file.
    """
    samples = read_json_entries(
        os.path.join(out_dir, "manifest.json"), "samples", ("id", "map", "goals", "mask")
    )
    dist_path = os.path.join(out_dir, "distances.csv")
    distances = {}
    for row, line in read_rows(dist_path):
        try:
            sample_id, value = line.split(",")
            distances[sample_id] = float(value)
        except ValueError:
            raise FormatError(f"{dist_path} row {row}: bad entry {line!r}") from None

    for entry in samples:
        if entry["id"] not in distances:
            raise FormatError(f"{dist_path}: no row for {entry['id']}")
        grid = load_map(os.path.join(out_dir, entry["map"]))
        goals = load_goals(os.path.join(out_dir, entry["goals"]))
        raster = read_pgm(os.path.join(out_dir, entry["mask"]))
        path, length = grid_shortest_path(grid, goals[0], goals[1])
        for x, y in path:
            if raster[y, x] != 255:
                raise InvalidArgument(f"{entry['id']}: mask misses optimal path cell ({x}, {y})")
        if distances[entry["id"]] != length:
            raise InvalidArgument(
                f"{entry['id']}: stored distance {distances[entry['id']]} != oracle {length}"
            )
    return len(samples)


__all__ = ["generate_dataset", "validate_dataset"]
