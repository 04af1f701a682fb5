"""Binary PGM (P5) reading and writing for maps and grayscale masks."""

from __future__ import annotations

import numpy as np

from .errors import FormatError, InvalidArgument


def write_pgm(path, values: np.ndarray) -> None:
    """Write a 2D uint8 array as a binary PGM (P5) file, row 0 first."""
    arr = np.asarray(values, dtype=np.uint8)
    if arr.ndim != 2:
        raise InvalidArgument("PGM data must be 2D")
    height, width = arr.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{width} {height}\n255\n".encode("ascii"))
        f.write(arr.tobytes())


def read_pgm(path) -> np.ndarray:
    """Read a binary PGM (P5) file into a (height, width) uint8 array."""
    with open(path, "rb") as f:
        data = f.read()

    fields: list[bytes] = []
    pos = 0
    # Header is 4 whitespace-separated tokens: magic, width, height, maxval.
    # Comment lines starting with '#' may appear between tokens.
    while len(fields) < 4:
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if pos < len(data) and data[pos : pos + 1] == b"#":
            end = data.find(b"\n", pos)
            if end < 0:
                raise FormatError(f"{path}: unterminated comment at byte {pos}")
            pos = end + 1
            continue
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        if start == pos:
            raise FormatError(f"{path}: truncated PGM header at byte {pos}")
        fields.append(data[start:pos])

    if fields[0] != b"P5":
        raise FormatError(f"{path}: expected P5 magic, got {fields[0]!r}")
    try:
        width, height, maxval = (int(t) for t in fields[1:])
    except ValueError:
        raise FormatError(f"{path}: non-integer PGM header fields {fields[1:]!r}") from None
    if width <= 0 or height <= 0:
        raise FormatError(f"{path}: bad PGM dimensions {width}x{height}")
    if maxval != 255:
        raise FormatError(f"{path}: only maxval 255 supported, got {maxval}")

    pos += 1  # single whitespace byte after maxval
    raster = data[pos : pos + width * height]
    if len(raster) != width * height:
        raise FormatError(
            f"{path}: expected {width * height} raster bytes, got {len(raster)}"
        )
    extra = len(data) - pos - width * height
    if extra:
        raise FormatError(f"{path}: {extra} bytes after the {width}x{height} raster")
    return np.frombuffer(raster, dtype=np.uint8).reshape(height, width).copy()
