"""Field serialization: a flat binary container.

Layout: a 32-byte header (magic "TORF", then uint32 version, dim and N, all
little-endian, zero-padded to 32 bytes) followed by the samples as
little-endian float64 in row-major order, axes x1..xd.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .grid import ScalarField, TorusGrid

__all__ = ["MAGIC", "VERSION", "field_bytes", "read_field"]

MAGIC = b"TORF"
VERSION = 1
_HEADER = struct.Struct("<4sIII16x")


def field_bytes(f: ScalarField) -> bytes:
    header = _HEADER.pack(MAGIC, VERSION, f.grid.dim, f.grid.points_per_axis)
    return header + np.ascontiguousarray(f.values, dtype="<f8").tobytes()


def read_field(path) -> ScalarField:
    path = Path(path)
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) != _HEADER.size:
            raise ValueError(f"{path}: truncated header")
        magic, version, dim, n = _HEADER.unpack(header)
        if magic != MAGIC:
            raise ValueError(f"{path}: bad magic {magic!r}")
        if version != VERSION:
            raise ValueError(f"{path}: unsupported version {version}")
        grid = TorusGrid(dim, n)
        raw = fh.read(8 * grid.size)
        if len(raw) != 8 * grid.size:
            raise ValueError(f"{path}: truncated payload")
        if fh.read(1):
            raise ValueError(f"{path}: trailing data")
    values = np.frombuffer(raw, dtype="<f8").reshape(grid.shape)
    return ScalarField(grid, values.astype(np.float64))

