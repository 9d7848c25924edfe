"""The pooled regression samples: 12 bytes a sample, per-sample fields
computed from the cells and small tables, a pool made with its levels and
sized from their order statistics, and the fits reading the cells as stored."""

import math
import tracemalloc

import numpy as np
import pytest

from exrange import (
    DegenerateFitError,
    GaussianSimConfig,
    RangeField,
    RangeSamples,
    RasterStack,
    SamplePool,
    SplineMerModel,
    collect_samples,
    exceedance_stack,
    fit_mer_pixel_map,
    loglog_level,
    quantile_fields,
    range_entries,
    simulate_gaussian,
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
    pool = SamplePool.for_levels(stack, levels)
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
    # the cut drops some samples, and at 0.9 every one: that level keeps its
    # index and holds no cell
    assert min_range == 0 or samples.n < pool._y.size and parts[-1].n == 0
    # the per-sample arrays, 12 bytes each; the tables hold a level or a
    # (level, slice) run an entry
    assert pool._cell.nbytes + pool._y.nbytes == 12 * pool._y.size
    assert samples.cell.dtype == np.int32 and samples.y.dtype == np.float64
    assert samples.cell.nbytes + samples.y.nbytes == 12 * samples.n
    assert samples.run_block.size == samples.runs.size - 1 <= len(LEVELS) * stack.nt
    # every view holds the pool's levels, ascending, and its grid: the fits
    # read the cells as they are
    for view in (samples, *parts):
        assert view.level_x.tolist() == [loglog_level(p) for p in LEVELS]
        assert view.shape == (stack.ny, stack.nx)
    assert np.array_equal(np.unique(samples.level), np.arange(len(LEVELS) - (min_range > 0)))
    assert pool.n == samples.n == sum(part.n for part in parts)


def test_pool_cut_to_no_sample_has_nothing_to_fit():
    pool, parts = _pooled(_stack(), LEVELS, min_range=1e9)
    assert pool.n == 0 and [part.n for part in parts] == [0, 0, 0]
    with pytest.raises(DegenerateFitError, match="no positive range"):
        pool.samples()


def _in_domain_exceedances(stack, thrs):
    return sum(int(np.count_nonzero(exceedance_stack(stack, thr, "erode"))) for thr in thrs)


def test_pool_capacity_is_the_exceedance_count_without_ties():
    # a domain pixel exceeds its k-th order statistic in nt - k slices when
    # no value ties it: the order statistics size the pool exactly
    stack = simulate_gaussian(GaussianSimConfig(nx=24, ny=20, n_slices=50, ell=4.0, seed=83))
    for levels in ((0.8, 0.9, 0.95), (0.85, 0.9, 0.93, 0.97, 0.99)):
        thrs = quantile_fields(stack, levels)
        pool = SamplePool.for_levels(stack, levels)
        assert pool._y.size == _in_domain_exceedances(stack, thrs)
        for thr in thrs:
            collect_samples({thr.p: range_entries(stack, thr, "erode")}, stack.domain(),
                            pool=pool)
        assert pool.n == pool._y.size
    # with nodata pixels too
    stack = _stack()
    thrs = quantile_fields(stack, LEVELS)
    assert SamplePool.for_levels(stack, LEVELS)._y.size == _in_domain_exceedances(stack, thrs)


def test_pool_capacity_bounds_the_samples_with_ties():
    # a value that ties its pixel's threshold does not exceed it
    rng = np.random.default_rng(84)
    stack = RasterStack(np.round(rng.standard_normal((100, 20, 20)), 1).astype(np.float32))
    levels = (0.9, 0.95, 0.98)
    thrs = quantile_fields(stack, levels)
    pool = SamplePool.for_levels(stack, levels)
    assert pool._y.size == 20 * 20 * (10 + 5 + 2)
    for thr in thrs:
        collect_samples({thr.p: range_entries(stack, thr, "fill-exceed")}, stack.domain(),
                        pool=pool)
    assert pool.n == _in_domain_exceedances(stack, thrs) < pool._y.size


def _fits(samples):
    """The spline coefficients, the chosen penalty and the pixel map."""
    model = SplineMerModel(knots_x=4, knots_y=4, penalty=0.5, iters=6).fit(samples)
    pixel = fit_mer_pixel_map(samples)
    return (np.r_[model.coef_beta_, model.coef_theta_], choose_penalty(samples, 4, 4, 9),
            pixel.beta, pixel.theta)


def _equal_fits(got, want):
    assert np.array_equal(got[0], want[0]) and got[1] == want[1]
    assert np.array_equal(got[2], want[2], equal_nan=True)
    assert np.array_equal(got[3], want[3], equal_nan=True)


@pytest.mark.parametrize("min_range", [0.0, 4.2])
def test_empty_declared_levels_leave_the_fits_bit_identical(min_range):
    # levels without a sample, below (a negative covariate), between and
    # above the filled ones, or emptied by the min_range cut (every range at
    # 0.9 is below 4.2 here), add rows of empty cells: each fit is
    # bit-identical to one on the filled levels alone
    stack = simulate_gaussian(GaussianSimConfig(nx=12, ny=10, n_slices=20, ell=5.0, seed=85))
    shape = (stack.ny, stack.nx)
    thrs = quantile_fields(stack, LEVELS)
    entries = {thr.p: range_entries(stack, thr, "fill-exceed") for thr in thrs}
    pool = SamplePool(sum(e.value.size for e in entries.values()), shape,
                      (0.5, *LEVELS, 0.8, 0.99))
    assert loglog_level(0.5) < 0 and len(pool._level_x) == len(LEVELS) + 3
    collect_samples(entries, stack.domain(), np.arange(stack.nt) // 4, min_range, pool)
    samples = pool.samples()
    filled = RangeSamples(*(getattr(samples, name) for name in FIELDS), shape=shape)
    assert filled.level_x.size == len(LEVELS) - (min_range > 0)
    assert np.array_equal(filled.y, samples.y) and not np.array_equal(filled.cell, samples.cell)
    assert filled.shape == samples.shape == shape
    _equal_fits(_fits(samples), _fits(filled))


def test_levels_arriving_unsorted_are_fitted_as_sorted():
    # a pool's levels take their indices in ascending covariate order, so a
    # level's cells do not depend on the order the levels arrive in
    stack = _stack()
    shape = (stack.ny, stack.nx)
    entries = {thr.p: range_entries(stack, thr, "fill-exceed")
               for thr in quantile_fields(stack, LEVELS)}
    parts = {}
    for arrival in (LEVELS, (0.9, 0.6, 0.75)):
        pool = SamplePool(sum(e.value.size for e in entries.values()), shape, arrival)
        parts[arrival] = {p: collect_samples({p: entries[p]}, stack.domain(), BLOCKS, 0.0, pool)
                          for p in arrival}
        unsorted = collect_samples({p: entries[p] for p in arrival}, stack.domain(), BLOCKS)
        assert unsorted.level_x.tolist() == [loglog_level(p) for p in LEVELS]
        _equal_fields(unsorted, pool.samples())
    for p in LEVELS:
        got, want = parts[(0.9, 0.6, 0.75)][p], parts[LEVELS][p]
        assert np.array_equal(got.cell, want.cell) and np.array_equal(got.y, want.y)
        _equal_fields(got, want)
    # a cell's samples keep their order within the pool, so the spline fit's
    # cell sums, and with them its coefficients, are bit-identical too
    model = SplineMerModel(knots_x=4, knots_y=4, penalty=0.5, iters=6)
    coef = [np.r_[m.coef_beta_, m.coef_theta_] for m in (
        model.fit(collect_samples({p: entries[p] for p in arrival}, stack.domain(), BLOCKS))
        for arrival in (LEVELS, (0.9, 0.6, 0.75)))]
    assert np.array_equal(coef[0], coef[1])


def test_pool_rejects_a_level_it_was_not_made_with_or_another_grid():
    stack = _stack()
    thrs = quantile_fields(stack, LEVELS)
    pool = SamplePool.for_levels(stack, LEVELS[:2])
    collect_samples({thrs[0].p: range_entries(stack, thrs[0], "fill-exceed")}, stack.domain(),
                    pool=pool)
    n = pool.n
    with pytest.raises(ValueError, match=r"level 0.9 on the grid \(9, 7\) is not one of the "
                                         r"pool's levels on \(9, 7\)"):
        collect_samples({thrs[2].p: range_entries(stack, thrs[2], "fill-exceed")},
                        stack.domain(), pool=pool)
    narrow = RasterStack(stack.values[:, :, 1:], dx=stack.dx)
    with pytest.raises(ValueError, match=r"level 0.75 on the grid \(9, 6\)"):
        collect_samples({0.75: range_entries(narrow, quantile_fields(narrow, [0.75])[0],
                                             "fill-exceed")}, narrow.domain(), pool=pool)
    assert pool.n == n


def test_samples_take_their_grid_and_fits_read_it():
    stack = _stack()
    shape, wide_shape = (stack.ny, stack.nx), (stack.ny + 2, stack.nx + 3)
    samples = _pooled(stack, LEVELS, BLOCKS)[0].samples()
    fields = [getattr(samples, name) for name in FIELDS]
    # five arrays on the smallest grid that holds their pixels, or on a larger one
    left = samples.pixel_x < stack.nx - 1
    smallest = RangeSamples(*(field[left] for field in fields))
    assert smallest.shape == (stack.ny, stack.nx - 1)
    with pytest.raises(ValueError, match="outside the 9x6 grid"):
        RangeSamples(*fields, shape=smallest.shape)
    wide = RangeSamples(*fields, shape=wide_shape)
    assert wide.shape == wide_shape
    _equal_fields(wide, samples)
    # the pixel fits do not depend on the grid: the wide map holds the
    # stack's, and NaN beyond it
    want = fit_mer_pixel_map(samples)
    got = fit_mer_pixel_map(wide)
    assert want.beta.shape == shape and got.beta.shape == wide_shape
    assert np.array_equal(got.beta[:stack.ny, :stack.nx], want.beta, equal_nan=True)
    assert np.isnan(got.theta[stack.ny:]).all() and np.isnan(got.theta[:, stack.nx:]).all()
    model = SplineMerModel(knots_x=4, knots_y=4, penalty=0.5, iters=6)
    surface = model.fit(wide).to_surface()
    assert surface.beta.shape == surface.theta.shape == wide_shape
    assert model.fit(smallest).to_surface().beta.shape == smallest.shape


def test_five_array_samples_check_their_fields():
    ok = dict(pixel_y=[0, 1], pixel_x=[2, 0], x=[0.5, 0.7], y=[0.1, 0.2], block=[3, 3])
    samples = RangeSamples(**ok)
    assert samples.shape == (2, 3) and samples.runs.tolist() == [0, 2]
    for name, bad, match in (("y", [0.1], "one length"), ("x", [0.5, np.inf], "finite"),
                             ("y", [0.1, np.nan], "finite"), ("block", [0.0, 1.0], "integers"),
                             ("pixel_x", [-1, 0], "non-negative")):
        with pytest.raises(ValueError, match=match):
            RangeSamples(**{**ok, name: bad})


@pytest.mark.parametrize("min_range", [0.0, 1.5])
def test_an_infinite_range_is_refused_as_it_enters_the_pool(min_range):
    # a library caller's ranges may hold +inf, whose log no cut drops: the
    # pool checks the log ranges it keeps as it writes them, with or without
    # a pool passed in, and a pool passed in keeps none of that call's samples
    stack = _stack()
    cube = np.zeros((stack.nt, stack.ny, stack.nx))
    cube[3, 4, 5] = 2.0
    cube[5, 4, 4] = np.inf
    ranges = [RangeField(r=r, dx=stack.dx) for r in cube]
    given = SamplePool(cube.size, (stack.ny, stack.nx), [0.9])
    for pool in (None, given):
        with pytest.raises(ValueError, match="finite"):
            collect_samples({0.9: ranges}, stack.domain(), None, min_range, pool)
    assert given.n == 0


def test_penalty_cv_folds_follow_the_block_runs(monkeypatch):
    # one fold per (level, slice) run, from the blocks that hold a sample:
    # each fold fit gets the samples outside the fold of the per-sample block
    # ids, fold by fold, without an 8-byte array per sample
    stack = _stack()
    samples = _pooled(stack, LEVELS, BLOCKS)[0].samples()
    block = samples.block
    assert 4 not in block and 4 in samples.run_block
    want = np.searchsorted(np.unique(block), block) % 5
    folds = []
    fit = SplineMerModel.fit

    def recording(self, s):
        folds.append(s)
        return fit(self, s)

    monkeypatch.setattr(SplineMerModel, "fit", recording)
    choose_penalty(samples, 4, 4, 9)
    assert len(folds) == 25
    for k, fold in enumerate(folds):
        train = want != k // 5
        assert np.array_equal(fold.cell, samples.cell[train]), k
        assert np.array_equal(fold.y, samples.y[train]), k
        assert np.array_equal(fold.block, block[train]), k


def test_penalty_cv_over_fewer_than_two_blocks_raises_before_a_fit(monkeypatch):
    # no sample, or samples in one block, leave no fold with both a block to
    # train on and one to hold out: no penalty can be scored, so none is fitted
    calls = []
    fit = SplineMerModel.fit

    def recording(self, s):
        calls.append(s)
        return fit(self, s)

    monkeypatch.setattr(SplineMerModel, "fit", recording)
    e = np.zeros(0, np.int64)
    empty = RangeSamples(e, e, np.zeros(0), np.zeros(0), e, shape=(4, 4))
    stack = _stack()
    one = _pooled(stack, LEVELS, np.full(stack.nt, 5))[0].samples()
    assert empty.n == 0 and one.n > 0 and one.run_block.tolist() == [5] * one.run_block.size
    for samples, n_blocks in ((empty, 0), (one, 1)):
        with pytest.raises(DegenerateFitError, match=rf"over {n_blocks} block\(s\)"):
            choose_penalty(samples, 4, 4, 9)
    assert calls == []


def test_penalty_cv_peaks_below_23_bytes_a_sample():
    # a fold fit holds its training samples' intp cells, responses and IRLS
    # weights, 24 bytes each on 4/5 of the samples: 19.2 bytes a sample, and
    # the held-out samples are gathered only after it. An 8-byte array over
    # every sample, or a fold's copy kept past the next fold's gathers, passes 23.
    rng = np.random.default_rng(82)
    n, ny, nx = 300_000, 16, 16
    samples = RangeSamples(pixel_y=rng.integers(0, ny, n), pixel_x=rng.integers(0, nx, n),
                           x=np.repeat([0.3, 0.6, 0.9, 1.2], n // 4), y=rng.normal(size=n),
                           block=np.repeat(np.arange(40), n // 40))
    tracemalloc.start()
    try:
        choose_penalty(samples, 4, 4, 9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 23 * n, peak / n
