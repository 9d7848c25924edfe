import numpy as np
import pytest

from exrange import (BoundaryPolicy, RasterStack, exceedance_stack, excursion_mask,
                     quantile_field, quantile_fields)
from exrange.thresholds import order_statistic_index


def _stack_from_series(series):
    """One-pixel-per-column stack whose pixel series are the given lists."""
    arr = np.asarray(series, dtype=np.float32).T  # (nt, npix)
    return RasterStack(arr[:, None, :], dx=1.0)


def brute_quantile(values, p):
    """inf{r : #(values <= r)/n >= p} evaluated over the sample values."""
    values = sorted(values)
    n = len(values)
    for v in values:
        if sum(1 for w in values if w <= v) / n >= p:
            return v
    return values[-1]


def test_median_odd_count():
    stack = _stack_from_series([[1, 2, 3, 4, 5]])
    assert quantile_field(stack, 0.5).u[0, 0] == 3


def test_median_even_count_inf_convention():
    stack = _stack_from_series([[1, 2, 3, 4]])
    assert quantile_field(stack, 0.5).u[0, 0] == brute_quantile([1, 2, 3, 4], 0.5) == 2


def test_constant_series():
    stack = _stack_from_series([[7, 7, 7, 7, 7]])
    for p in (0.1, 0.5, 0.93):
        assert quantile_field(stack, p).u[0, 0] == 7


def test_quantile_matches_brute_force():
    rng = np.random.default_rng(5)
    for _ in range(30):
        n = int(rng.integers(2, 40))
        vals = rng.standard_normal(n).astype(np.float32)
        p = float(rng.uniform(0.01, 0.99))
        stack = _stack_from_series([vals])
        assert quantile_field(stack, p).u[0, 0] == np.float32(brute_quantile(vals, p))


def test_order_statistic_index_float_roundoff():
    # p * n hitting an integer must not be pushed up by binary roundoff
    assert order_statistic_index(0.85, 200) == 170
    assert order_statistic_index(0.9, 200) == 180
    assert order_statistic_index(0.99, 200) == 198
    assert order_statistic_index(0.5, 4) == 2
    assert order_statistic_index(0.5, 5) == 3
    # 0.07 * 100 is 7.000000000000001, so the ceiling, 8, steps down to 7
    assert 0.07 * 100 > 7
    assert order_statistic_index(0.07, 100) == 7


def test_order_statistic_index_p_just_above_k_over_n():
    # p * n rounding down onto an integer k must not keep a k with k/n < p
    for p, k in ((0.33333333333333337, 2), (0.6666666666666667, 3)):
        assert (k - 1) / 3 < p <= k / 3
        assert order_statistic_index(p, 3) == k
        stack = _stack_from_series([[1, 2, 3]])
        assert quantile_field(stack, p).u[0, 0] == brute_quantile([1, 2, 3], p) == k


def test_quantile_validation():
    stack = _stack_from_series([[1, 2, 3]])
    with pytest.raises(ValueError):
        quantile_field(stack, 0.0)
    with pytest.raises(ValueError):
        quantile_field(stack, 1.0)
    single = RasterStack(np.zeros((1, 2, 2), dtype=np.float32))
    with pytest.raises(ValueError, match="nt"):
        quantile_field(single, 0.5)


def test_quantile_fields_match_brute_force_and_single_levels():
    rng = np.random.default_rng(14)
    nt = 100
    # few distinct values, so every series has ties
    values = rng.integers(0, 7, size=(nt, 4, 5)).astype(np.float32)
    values[:, 0] = rng.standard_normal((nt, 5)).astype(np.float32)
    values[:, 3, 4] = -9999.0
    stack = RasterStack(values)
    # unsorted and repeated; 0.981 and 0.985 share the 99th order statistic
    levels = [0.985, 0.5, 0.981, 0.02, 0.5, 0.999, 0.75]
    assert order_statistic_index(0.981, nt) == order_statistic_index(0.985, nt) == 99
    fields = quantile_fields(stack, levels)
    assert [f.p for f in fields] == levels
    inside = stack.domain().inside
    for p, field in zip(levels, fields):
        assert np.array_equal(field.u, quantile_field(stack, p).u, equal_nan=True)
        assert np.isnan(field.u[3, 4]) and not np.isnan(field.u[inside]).any()
        for i, j in zip(*np.nonzero(inside)):
            assert field.u[i, j] == np.float32(brute_quantile(values[:, i, j].tolist(), p))
    assert np.array_equal(fields[0].u, fields[2].u, equal_nan=True)


def test_quantile_fields_check_every_level_before_sorting(monkeypatch):
    import exrange.thresholds as thresholds

    def no_sort(*args, **kwargs):
        raise AssertionError("sorted before the levels were checked")

    monkeypatch.setattr(thresholds.np, "sort", no_sort)
    stack = _stack_from_series([[1, 2, 3]])
    for levels in ([0.5, 1.0], [0.9, 0.0, 0.5], [0.5, float("nan")]):
        with pytest.raises(ValueError, match="p must be"):
            quantile_fields(stack, levels)
    single = RasterStack(np.zeros((1, 2, 2), dtype=np.float32))
    with pytest.raises(ValueError, match="nt"):
        quantile_fields(single, [0.5, 0.9])


def test_monotone_in_p():
    rng = np.random.default_rng(11)
    stack = RasterStack(rng.standard_normal((25, 6, 7)).astype(np.float32))
    levels = [0.1, 0.3, 0.5, 0.7, 0.85, 0.9, 0.95]
    fields = [quantile_field(stack, p).u for p in levels]
    for lo, hi in zip(fields, fields[1:]):
        assert np.all(lo <= hi)


def test_exceedance_fraction_near_1_minus_p():
    rng = np.random.default_rng(12)
    nt = 200
    stack = RasterStack(rng.standard_normal((nt, 12, 12)).astype(np.float32))
    for p in (0.8, 0.9, 0.95):
        thr = quantile_field(stack, p)
        frac = np.mean(stack.values > thr.u[None])
        assert abs(frac - (1 - p)) <= 1.0 / nt


def test_per_pixel_exceedance_count_bound():
    rng = np.random.default_rng(13)
    nt = 50
    stack = RasterStack(rng.standard_normal((nt, 5, 5)).astype(np.float32))
    for p in (0.6, 0.9):
        thr = quantile_field(stack, p)
        counts = (stack.values > thr.u[None]).sum(axis=0)
        assert np.all(counts <= nt * (1 - p) + 1)


def test_strict_exceedance_at_threshold():
    stack = _stack_from_series([[2, 2, 2]])
    thr = quantile_field(stack, 0.5)
    mask = excursion_mask(stack, 0, thr, BoundaryPolicy.ERODE)
    assert not mask.exceed.any()


def test_single_exceedance_pixel():
    values = np.array([[[5.0, 1.0], [1.0, 1.0]], [[0.0, 0.0], [0.0, 0.0]]], dtype=np.float32)
    stack = RasterStack(values)
    thr = quantile_field(stack, 0.5)
    thr2 = type(thr)(p=0.5, u=np.full((2, 2), 2.0, dtype=np.float32))
    mask = excursion_mask(stack, 0, thr2, BoundaryPolicy.ERODE)
    assert mask.exceed[0, 0] and mask.exceed.sum() == 1


def test_fill_exceed_marks_nodata_true():
    values = np.zeros((3, 3, 3), dtype=np.float32)
    values[:, 1, 1] = -9999.0
    stack = RasterStack(values)
    thr = quantile_field(stack, 0.5)
    fill = excursion_mask(stack, 0, thr, BoundaryPolicy.FILL_EXCEED)
    erode = excursion_mask(stack, 0, thr, BoundaryPolicy.ERODE)
    assert fill.exceed[1, 1]
    assert not erode.exceed[1, 1]


@pytest.mark.parametrize("policy", list(BoundaryPolicy))
def test_exceedance_stack_is_every_slice_mask(policy):
    rng = np.random.default_rng(5)
    values = rng.standard_normal((6, 5, 7)).astype(np.float32)
    values[:, 0, :2] = values[:, 3, 4] = -9999.0
    stack = RasterStack(values)
    thr = quantile_field(stack, 0.7)
    exceed = exceedance_stack(stack, thr, policy)
    assert exceed.shape == (6, 5, 7) and exceed.dtype == bool
    for t in range(6):
        assert np.array_equal(exceed[t], excursion_mask(stack, t, thr, policy).exceed)
    with pytest.raises(ValueError, match="match"):
        exceedance_stack(RasterStack(values[:, :4]), thr, policy)


def test_dimension_mismatch():
    stack = RasterStack(np.zeros((2, 3, 3), dtype=np.float32))
    other = RasterStack(np.zeros((2, 4, 4), dtype=np.float32))
    thr = quantile_field(other, 0.5)
    with pytest.raises(ValueError, match="match"):
        excursion_mask(stack, 0, thr, BoundaryPolicy.ERODE)
