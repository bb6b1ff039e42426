import numpy as np
import pytest

from advdiff.fieldio import field_bytes, read_field
from advdiff.grid import ScalarField, TorusGrid

from conftest import random_field


def test_roundtrip_exact(tmp_path, grid32):
    f = random_field(grid32, seed=3)
    path = tmp_path / "field.torf"
    path.write_bytes(field_bytes(f))
    back = read_field(path)
    assert back.grid == grid32
    assert np.array_equal(back.values, f.values)


def test_roundtrip_3d(tmp_path):
    g = TorusGrid(3, 8)
    f = random_field(g, seed=4, max_mode=2)
    (tmp_path / "f.torf").write_bytes(field_bytes(f))
    assert np.array_equal(read_field(tmp_path / "f.torf").values, f.values)


def test_header_size_and_magic(tmp_path, grid32):
    path = tmp_path / "field.torf"
    path.write_bytes(field_bytes(ScalarField.constant(grid32, 1.0)))
    blob = path.read_bytes()
    assert blob[:4] == b"TORF"
    assert len(blob) == 32 + 8 * grid32.size


def test_rejects_bad_magic(tmp_path):
    path = tmp_path / "junk.torf"
    path.write_bytes(b"JUNK" + b"\x00" * 60)
    with pytest.raises(ValueError, match="magic"):
        read_field(path)


def test_rejects_truncated_payload(tmp_path, grid32):
    path = tmp_path / "field.torf"
    path.write_bytes(field_bytes(ScalarField.constant(grid32, 1.0)))
    path.write_bytes(path.read_bytes()[:-16])
    with pytest.raises(ValueError, match="truncated"):
        read_field(path)


def test_rejects_trailing_data(tmp_path):
    path = tmp_path / "field.torf"
    path.write_bytes(field_bytes(ScalarField.constant(TorusGrid(2, 8), 1.0)) + b"\x00" * 64)
    with pytest.raises(ValueError, match="trailing data"):
        read_field(path)
