"""The pooled regression samples: 12 bytes a sample, per-sample fields
computed from the cells and small tables, and the fits reading the cells."""

import math
import tracemalloc

import numpy as np
import pytest

from exrange import (
    DegenerateFitError,
    RangeSamples,
    RasterStack,
    SamplePool,
    SplineMerModel,
    collect_samples,
    fit_mer_pixel_map,
    loglog_level,
    quantile_fields,
    range_entries,
)
from exrange.tailfit import choose_penalty

FIELDS = {"pixel_y": np.int32, "pixel_x": np.int32, "x": np.float64, "y": np.float64,
          "block": np.int64}
LEVELS = (0.6, 0.75, 0.9)
# slices 0 and 1 exceed nowhere, so their block, 4, holds no sample
BLOCKS = np.array([4, 4, 8, 8, 8, 1, 1, 6, 6, 3, 3, 9])


def _stack(seed=81, nt=12, ny=9, nx=7):
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((nt, ny, nx)).astype(np.float32)
    values[:2] = -5.0
    values[:, 0, :2] = -9999.0   # nodata
    return RasterStack(values, dx=0.5)


def _per_sample_arrays(stack, levels, blocks, min_range):
    """Each field as one array per sample, built slice by slice in (level,
    slice, row, column) order with the dtypes of a 32-byte sample."""
    blocks = np.arange(stack.nt) if blocks is None else blocks
    fields = {name: [] for name in FIELDS}
    for thr in quantile_fields(stack, levels):
        entries = range_entries(stack, thr, "fill-exceed")
        for t in range(stack.nt):
            a, b = entries.bounds[t], entries.bounds[t + 1]
            y = np.log(entries.value[a:b])
            keep = y >= math.log(min_range) if min_range > 0 else slice(None)
            iy, ix = np.divmod(entries.pixel[a:b][keep].astype(np.int64), stack.nx)
            fields["pixel_y"].append(iy)
            fields["pixel_x"].append(ix)
            fields["y"].append(y[keep])
            fields["x"].append(np.full(iy.size, loglog_level(thr.p)))
            fields["block"].append(np.full(iy.size, blocks[t]))
    return {name: np.concatenate(parts).astype(FIELDS[name])
            for name, parts in fields.items()}


def _pooled(stack, levels, blocks=None, min_range=0.0):
    thrs = quantile_fields(stack, levels)
    pool = SamplePool.for_thresholds(stack, thrs)
    parts = [collect_samples({thr.p: range_entries(stack, thr, "fill-exceed")},
                             stack.domain(), blocks, min_range, pool) for thr in thrs]
    return pool, parts


def _equal_fields(got, want):
    for name, dtype in FIELDS.items():
        value = getattr(got, name)
        assert value.dtype == dtype, name
        assert np.array_equal(value, want[name] if isinstance(want, dict)
                              else getattr(want, name)), name


@pytest.mark.parametrize("min_range", [0.0, 0.6])
@pytest.mark.parametrize("blocks", [None, BLOCKS], ids=["slices", "blocks-by"])
def test_pool_takes_12_bytes_a_sample_and_computes_the_other_fields(blocks, min_range):
    stack = _stack()
    pool, parts = _pooled(stack, LEVELS, blocks, min_range)
    samples = pool.samples()
    _equal_fields(samples, _per_sample_arrays(stack, LEVELS, blocks, min_range))
    for p, part in zip(LEVELS, parts):
        _equal_fields(part, _per_sample_arrays(stack, [p], blocks, min_range))
    # the cut drops some samples, and at 0.9 every one: that level gets no index
    assert min_range == 0 or samples.n < pool._y.size and parts[-1].n == 0
    # the per-sample arrays, 12 bytes each; the tables hold a level or a
    # (level, slice) run an entry
    assert pool._cell.nbytes + pool._y.nbytes == 12 * pool._y.size
    assert samples.cell.dtype == np.int32 and samples.y.dtype == np.float64
    assert samples.cell.nbytes + samples.y.nbytes == 12 * samples.n
    assert samples.level_x.size == samples.level_n.size == len(LEVELS) - (min_range > 0)
    assert (samples.level_n > 0).all()
    assert samples.run_block.size == samples.runs.size - 1 <= len(LEVELS) * stack.nt
    # the pool's levels arrive ascending: the fits read its cells as they are
    assert samples.on_grid((stack.ny, stack.nx)) is samples
    assert pool.n == samples.n == sum(part.n for part in parts)


def test_pool_cut_to_no_sample_has_nothing_to_fit():
    pool, parts = _pooled(_stack(), LEVELS, min_range=1e9)
    assert pool.n == 0 and [part.n for part in parts] == [0, 0, 0]
    with pytest.raises(DegenerateFitError, match="no positive range"):
        pool.samples()


def test_levels_arriving_unsorted_are_fitted_as_sorted():
    # a library caller's levels in any order, and samples built from one
    # array per field, give the fits the same cells in ascending level order
    stack = _stack()
    shape = (stack.ny, stack.nx)
    entries = {thr.p: range_entries(stack, thr, "fill-exceed")
               for thr in quantile_fields(stack, LEVELS)}
    arrival = (0.9, 0.6, 0.75)
    unsorted = collect_samples({p: entries[p] for p in arrival}, stack.domain(), BLOCKS)
    assert unsorted.level_x.tolist() == [loglog_level(p) for p in arrival]
    arrays = RangeSamples(*(getattr(unsorted, name) for name in FIELDS))
    assert arrays.level_x.tolist() == [loglog_level(p) for p in LEVELS]
    grid = unsorted.on_grid(shape)
    assert grid is not unsorted and grid.level_x.tolist() == arrays.level_x.tolist()
    for samples in (grid, arrays):
        _equal_fields(samples, unsorted)
        assert np.array_equal(samples.cell, grid.cell)
    model = SplineMerModel(knots_x=4, knots_y=4, penalty=0.5, iters=6)
    coef = [np.r_[m.coef_beta_, m.coef_theta_]
            for m in (model.fit(s, shape) for s in (unsorted, arrays, grid))]
    assert np.array_equal(coef[0], coef[1]) and np.array_equal(coef[0], coef[2])
    maps = [fit_mer_pixel_map(s, shape) for s in (unsorted, arrays)]
    assert np.array_equal(maps[0].beta, maps[1].beta, equal_nan=True)
    assert np.array_equal(maps[0].theta, maps[1].theta, equal_nan=True)


def test_samples_on_a_larger_grid_or_a_later_level_are_encoded_anew():
    stack = _stack()
    _, parts = _pooled(stack, LEVELS, BLOCKS)
    later = parts[1]   # level index 1 of the pool, alone in this part
    assert later.level_n.tolist() == [0, later.n]   # no third level yet
    wide = later.on_grid((stack.ny + 2, stack.nx + 3))
    assert wide.shape == (stack.ny + 2, stack.nx + 3)
    assert wide.level_x.tolist() == [loglog_level(LEVELS[1])]
    _equal_fields(wide, later)
    with pytest.raises(ValueError, match="outside the 9x6 grid"):
        later.on_grid((stack.ny, stack.nx - 1))


def test_five_array_samples_check_their_fields():
    ok = dict(pixel_y=[0, 1], pixel_x=[2, 0], x=[0.5, 0.7], y=[0.1, 0.2], block=[3, 3])
    samples = RangeSamples(**ok)
    assert samples.shape == (2, 3) and samples.runs.tolist() == [0, 2]
    for name, bad, match in (("y", [0.1], "one length"), ("x", [0.5, np.inf], "finite"),
                             ("y", [0.1, np.nan], "finite"), ("block", [0.0, 1.0], "integers"),
                             ("pixel_x", [-1, 0], "non-negative")):
        with pytest.raises(ValueError, match=match):
            RangeSamples(**{**ok, name: bad})


def test_penalty_cv_folds_follow_the_block_runs(monkeypatch):
    # one fold per (level, slice) run, from the blocks that hold a sample:
    # the folds of the per-sample block ids, without an 8-byte array per sample
    stack = _stack()
    samples = _pooled(stack, LEVELS, BLOCKS)[0].samples()
    block = samples.block
    assert 4 not in block and 4 in samples.run_block
    want = np.searchsorted(np.unique(block), block) % 5
    trains = []
    fit = SplineMerModel.fit

    def recording(self, s, shape, train=None):
        trains.append(train)
        return fit(self, s, shape, train)

    monkeypatch.setattr(SplineMerModel, "fit", recording)
    choose_penalty(samples, (stack.ny, stack.nx), 4, 4, 9)
    assert len(trains) == 25
    for k, train in enumerate(trains):
        assert np.array_equal(train, want != k % 5), k


def test_penalty_cv_takes_two_bytes_a_sample_before_its_first_fit(monkeypatch):
    rng = np.random.default_rng(82)
    n, ny, nx = 300_000, 16, 16
    samples = RangeSamples(pixel_y=rng.integers(0, ny, n), pixel_x=rng.integers(0, nx, n),
                           x=np.repeat([0.3, 0.6, 0.9, 1.2], n // 4), y=rng.normal(size=n),
                           block=np.repeat(np.arange(40), n // 40))

    class FirstFit(Exception):
        pass

    def first_fit(self, s, shape, train=None):
        raise FirstFit(tracemalloc.get_traced_memory()[1])

    monkeypatch.setattr(SplineMerModel, "fit", first_fit)
    tracemalloc.start()
    try:
        with pytest.raises(FirstFit) as stop:
            choose_penalty(samples, (ny, nx), 4, 4, 9)
    finally:
        tracemalloc.stop()
    # the uint8 folds and the fold's boolean training mask
    assert stop.value.args[0] < 2.5 * n, stop.value.args[0] / n
