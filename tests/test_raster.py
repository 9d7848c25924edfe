import json

import numpy as np
import pytest

from exrange import DomainMask, RasterStack, StackFormatError, load_map, load_stack, save_map, save_stack
from exrange.raster import map_to_csv_rows


def test_round_trip_bit_exact(tmp_path):
    values = np.array(
        [[[1.5, -2.25, 3.0, 0.1], [4.0, 5.0, 6.5, -0.0], [7.0, 8.0, 9.0, 1e-30]],
         [[0.5, 0.25, 0.125, 2.0], [1.0, 2.0, 3.0, 4.0], [5.0, 6.0, 7.0, 8.0]]],
        dtype=np.float32,
    )
    stack = RasterStack(values, dx=1.0)
    save_stack(tmp_path / "s.f32", stack)
    back = load_stack(tmp_path / "s.f32")
    assert back.values.tobytes() == stack.values.tobytes()
    assert back.dx == stack.dx
    assert back.nodata == stack.nodata


def test_round_trip_random_stacks(tmp_path):
    rng = np.random.default_rng(0)
    for trial in range(5):
        values = rng.standard_normal((3, 4, 5)).astype(np.float32)
        stack = RasterStack(values, dx=float(rng.uniform(0.5, 8.0)))
        save_stack(tmp_path / f"t{trial}.f32", stack)
        back = load_stack(tmp_path / f"t{trial}.f32")
        assert np.array_equal(back.values, stack.values)


def test_missing_sidecar(tmp_path):
    (tmp_path / "s.f32").write_bytes(b"\x00" * 16)
    with pytest.raises(StackFormatError, match="sidecar"):
        load_stack(tmp_path / "s.f32")


def test_byte_count_mismatch(tmp_path):
    stack = RasterStack(np.zeros((2, 3, 4), dtype=np.float32))
    save_stack(tmp_path / "s.f32", stack)
    sidecar = tmp_path / "s.f32.json"
    sidecar.write_text(sidecar.read_text().replace('"nt": 2', '"nt": 3'))
    with pytest.raises(StackFormatError, match="bytes"):
        load_stack(tmp_path / "s.f32")


def test_inconsistent_nodata_rejected(tmp_path):
    values = np.ones((2, 2, 2), dtype=np.float32)
    values[0, 0, 0] = -9999.0
    with pytest.raises(StackFormatError, match="time invariant"):
        RasterStack(values)


def test_nan_rejected():
    values = np.ones((1, 2, 2), dtype=np.float32)
    values[0, 0, 0] = np.nan
    with pytest.raises(StackFormatError, match="NaN"):
        RasterStack(values)


@pytest.mark.parametrize("value", [np.inf, -np.inf])
def test_infinite_value_rejected(tmp_path, value):
    values = np.ones((2, 2, 2), dtype=np.float32)
    values[1, 0, 1] = value
    with pytest.raises(StackFormatError, match="NaN or an infinite value"):
        RasterStack(values)
    # a file holding one is malformed too
    save_stack(tmp_path / "s.f32", RasterStack(np.ones((2, 2, 2), dtype=np.float32)))
    (tmp_path / "s.f32").write_bytes(values.astype("<f4").tobytes())
    with pytest.raises(StackFormatError, match="infinite"):
        load_stack(tmp_path / "s.f32")


@pytest.mark.parametrize("key, text", [
    ("nx", '"16x"'), ("nt", "null"), ("dx", '"abc"'), ("nodata", '"none"'),
    ("dx", "0.0"), ("dx", "-1.5"), ("dx", "Infinity"),
    ("nodata", "NaN"), ("nodata", '"nan"'), ("nodata", "Infinity"), ("nodata", "-Infinity"),
    ("nx", "4.5"), ("nx", "Infinity"),
])
def test_malformed_sidecar_number_rejected(tmp_path, key, text):
    save_stack(tmp_path / "s.f32", RasterStack(np.ones((2, 3, 4), dtype=np.float32)))
    sidecar = tmp_path / "s.f32.json"
    meta = json.loads(sidecar.read_text())
    meta[key] = json.loads(text)
    sidecar.write_text(json.dumps(meta))
    with pytest.raises(StackFormatError, match="sidecar"):
        load_stack(tmp_path / "s.f32")


def test_domain_identical_across_slices():
    rng = np.random.default_rng(1)
    values = rng.standard_normal((4, 6, 7)).astype(np.float32)
    values[:, 2, 3] = -9999.0
    values[:, 0, 0] = -9999.0
    stack = RasterStack(values)
    base = stack.domain().inside
    assert not base[2, 3] and not base[0, 0]
    assert stack.domain().n_pixels == 6 * 7 - 2


def test_save_map_round_trip(tmp_path):
    grid = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32)
    save_map(tmp_path / "m.f32", grid)
    back, meta = load_map(tmp_path / "m.f32")
    assert np.array_equal(back, grid)
    assert meta.nt == 1


def test_save_map_sentinel_is_nodata(tmp_path):
    grid = np.array([[1.0, -9999.0], [3.0, 4.0]], dtype=np.float32)
    save_map(tmp_path / "m.f32", grid)
    _, stack = load_map(tmp_path / "m.f32")
    assert not stack.domain().inside[0, 1]
    assert stack.domain().inside[0, 0]


def test_save_map_unwritable_path(tmp_path):
    target = tmp_path / "not_a_dir"
    target.write_text("file, not a directory")
    with pytest.raises(OSError):
        save_map(target / "m.f32", np.zeros((2, 2), dtype=np.float32))


def test_map_csv_rows_skip_nodata():
    grid = np.array([[1.0, 2.0], [3.0, 4.0]])
    domain = DomainMask(np.array([[True, False], [True, True]]))
    rows = list(map_to_csv_rows(grid, domain))
    assert rows == [(0, 0, 1.0), (0, 1, 3.0), (1, 1, 4.0)]


def test_empty_domain_rejected():
    with pytest.raises(ValueError, match="no inside pixel"):
        DomainMask(np.zeros((3, 3), dtype=bool))
