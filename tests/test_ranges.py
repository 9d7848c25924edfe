import numpy as np
import pytest

from exrange import (
    BoundaryPolicy,
    DomainMask,
    ExcursionMask,
    RasterStack,
    domain_inradius,
    ecdf,
    erode,
    eroded_domain,
    gaussian_cdf_approx,
    matern_alpha,
    median_range,
    median_range_map,
    range_field,
    tail_dependence,
)
from exrange.morphology import RangeField


def _mask(m, policy=BoundaryPolicy.FILL_EXCEED, p=0.9, t=0):
    return ExcursionMask(exceed=np.asarray(m, dtype=bool), policy=policy, p=p, t_index=t)


def full_domain(ny, nx):
    return DomainMask(np.ones((ny, nx), dtype=bool))


def brute_nearest_false(mask, dx=1.0):
    mask = np.asarray(mask, dtype=bool)
    ny, nx = mask.shape
    fy, fx = np.nonzero(~mask)
    out = np.zeros((ny, nx))
    for y in range(ny):
        for x in range(nx):
            if mask[y, x]:
                out[y, x] = dx * np.sqrt(((fy - y) ** 2 + (fx - x) ** 2).min())
    return out


def test_empty_mask_all_zero():
    dom = full_domain(5, 5)
    rf = range_field(_mask(np.zeros((5, 5))), dom, dx=1.0)
    assert np.all(rf.r == 0)


def test_block_matches_brute_force():
    m = np.zeros((9, 9), dtype=bool)
    m[3:6, 3:6] = True
    dom = full_domain(9, 9)
    rf = range_field(_mask(m), dom, dx=1.0)
    assert np.array_equal(rf.r, brute_nearest_false(m))
    assert rf.r[4, 4] == 2.0  # center of a 3x3 block


def test_full_exceedance_needs_fallback():
    dom = full_domain(10, 10)
    with pytest.raises(ValueError, match="fallback"):
        range_field(_mask(np.ones((10, 10))), dom, dx=1.0)
    rf = range_field(_mask(np.ones((10, 10))), dom, dx=1.0, edge_fallback=True)
    # distances to the virtual exterior ring
    yy, xx = np.mgrid[0:10, 0:10]
    expected = np.minimum.reduce([yy + 1, xx + 1, 10 - yy, 10 - xx]).astype(float)
    assert np.array_equal(rf.r, expected)


def test_policy_changes_distances_near_domain_boundary():
    inside = np.zeros((7, 7), dtype=bool)
    inside[1:6, 1:6] = True
    dom = DomainMask(inside)
    exceed_inside = inside.copy()
    fill = _mask(exceed_inside | ~inside, BoundaryPolicy.FILL_EXCEED)
    erode_pol = _mask(exceed_inside & inside, BoundaryPolicy.ERODE)
    r_fill = range_field(fill, dom, dx=1.0, edge_fallback=True)
    r_erode = range_field(erode_pol, dom, dx=1.0)
    # FILL_EXCEED measures to the grid edge, ERODE stops at the domain edge
    assert r_fill.r[3, 3] == 4.0
    assert r_erode.r[3, 3] == 3.0


def test_single_pixel_cdf_hand_case():
    # one exceedance pixel in a large domain: its range is exactly dx
    n = 11
    m = np.zeros((n, n), dtype=bool)
    m[5, 5] = True
    dom = full_domain(n, n)
    rf = range_field(_mask(m), dom, dx=1.0)
    assert rf.r[5, 5] == 1.0
    est_half = ecdf([rf], dom, [0.5], dx=1.0)
    assert est_half.F[0] == 0.0
    est_one = ecdf([rf], dom, [1.0], dx=1.0)
    assert est_one.F[0] == 1.0


def test_no_exceedances_gives_zero():
    dom = full_domain(8, 8)
    rf = range_field(_mask(np.zeros((8, 8))), dom, dx=1.0)
    est = ecdf([rf], dom, [1.0, 2.0], dx=1.0)
    assert np.all(est.F == 0.0)
    assert np.all(est.n_exceed == 0)


def test_erosion_identity_pixel_exact():
    # F(r) = 1 - #(erode(E,r) & T_-r) / #(E & T_-r), summed over slices
    rng = np.random.default_rng(31)
    dom = full_domain(24, 24)
    fields = []
    masks = []
    for _ in range(6):
        m = rng.random((24, 24)) < 0.55
        masks.append(m)
        fields.append(range_field(_mask(m), dom, dx=1.0))
    radii = [1.0, 2.0, np.sqrt(8), 3.0]
    est = ecdf(fields, dom, radii, dx=1.0)
    for j, r in enumerate(radii):
        t_er = eroded_domain(dom, r, 1.0)
        num = 0
        den = 0
        for m in masks:
            er = erode(m, r, 1.0)
            den += np.count_nonzero(m & t_er)
            num += np.count_nonzero(er & m & t_er)
        expected = 1.0 - num / den
        assert est.F[j] == pytest.approx(expected, abs=0)


@pytest.mark.parametrize("dx", [1.0, 2.5])
def test_ecdf_counts_on_ragged_domain_with_holes(dx):
    # one shared domain transform must give the counts of eroded_domain at
    # every radius, on a ragged outline with nodata holes and dx != 1
    rng = np.random.default_rng(33)
    ny, nx = 30, 34
    inside = np.ones((ny, nx), dtype=bool)
    for y in range(ny):
        inside[y, : rng.integers(0, 5)] = False
        inside[y, nx - rng.integers(0, 5):] = False
    inside[: rng.integers(1, 4)] = False
    inside[[12, 12, 13, 20, 21], [10, 11, 10, 24, 24]] = False
    dom = DomainMask(inside)
    fields = []
    for _ in range(5):
        m = (rng.random((ny, nx)) < 0.7) | ~inside
        fields.append(range_field(_mask(m), dom, dx=dx))
    radii = sorted({dx * 1.0, np.sqrt(8), dx * 2.0, dx * np.sqrt(8), dx * 3.0})
    est = ecdf(fields, dom, radii, dx=dx)
    assert est.r_max == domain_inradius(dom, dx)
    for j, r in enumerate(radii):
        t_er = eroded_domain(dom, r, dx)
        den = sum(np.count_nonzero(t_er & (rf.r > 0)) for rf in fields)
        num = sum(np.count_nonzero(t_er & (rf.r > 0) & (rf.r <= r)) for rf in fields)
        assert est.n_exceed[j] == den > 0
        assert est.F[j] == num / den


def test_cdf_monotone_and_bounded():
    rng = np.random.default_rng(32)
    dom = full_domain(30, 30)
    fields = [
        range_field(_mask(rng.random((30, 30)) < 0.6), dom, dx=1.0) for _ in range(5)
    ]
    est = ecdf(fields, dom, [1.0, 2.0, 3.0, 4.0, 5.0], dx=1.0)
    assert np.all(np.diff(est.F) >= 0)
    assert np.all((est.F >= 0) & (est.F <= 1))
    assert np.all(np.diff(est.n_exceed) <= 0)


def test_radius_validation():
    dom = full_domain(10, 10)
    rf = range_field(_mask(np.zeros((10, 10))), dom, dx=1.0)
    r_max = domain_inradius(dom, 1.0)
    assert r_max == 5.0
    with pytest.raises(ValueError, match="inradius"):
        ecdf([rf], dom, [r_max], dx=1.0)
    with pytest.raises(ValueError, match="positive"):
        ecdf([rf], dom, [0.0, 1.0], dx=1.0)


def test_median_conventions():
    def field(vals):
        arr = np.zeros((1, len(vals)))
        arr[0, :] = vals
        return RangeField(r=arr, dx=1.0)

    dom = full_domain(1, 3)
    assert median_range([field([1, 2, 9])], dom) == 2.0
    dom2 = full_domain(1, 2)
    # even count: lower endpoint of the argmin interval
    assert median_range([RangeField(r=np.array([[1.0, 3.0]]), dx=1.0)], dom2) == 1.0
    assert median_range([RangeField(r=np.zeros((1, 2)), dx=1.0)], dom2) == 0.0


def test_median_ignores_zeros_and_pools():
    dom = full_domain(2, 2)
    f1 = RangeField(r=np.array([[0.0, 2.0], [0.0, 0.0]]), dx=1.0)
    f2 = RangeField(r=np.array([[5.0, 0.0], [1.0, 0.0]]), dx=1.0)
    assert median_range([f1, f2], dom) == 2.0


def test_median_equivariance_under_increasing_transform():
    rng = np.random.default_rng(33)
    dom = full_domain(6, 6)
    fields = [RangeField(r=np.abs(rng.standard_normal((6, 6))), dx=1.0) for _ in range(3)]
    med = median_range(fields, dom)
    transformed = [RangeField(r=np.exp(f.r) - 1.0, dx=1.0) for f in fields]
    assert median_range(transformed, dom) == pytest.approx(np.exp(med) - 1.0)


def test_median_map_matches_pooled_per_pixel():
    rng = np.random.default_rng(34)
    dom = full_domain(4, 5)
    fields = [
        RangeField(r=np.round(np.abs(rng.standard_normal((4, 5))), 2), dx=1.0)
        for _ in range(7)
    ]
    med_map = median_range_map(fields, dom)
    for y in range(4):
        for x in range(5):
            vals = np.sort([f.r[y, x] for f in fields if f.r[y, x] > 0])
            if vals.size == 0:
                assert med_map[y, x] == 0.0
            elif vals.size % 2 == 1:
                assert med_map[y, x] == vals[vals.size // 2]
            else:
                assert med_map[y, x] == vals[vals.size // 2 - 1]


def test_tail_dependence_lag_zero_is_one():
    rng = np.random.default_rng(35)
    stack = RasterStack(rng.standard_normal((40, 8, 8)).astype(np.float32))
    assert tail_dependence(stack, 0.9, (0, 0)) == 1.0


def test_tail_dependence_independent_noise():
    rng = np.random.default_rng(36)
    stack = RasterStack(rng.standard_normal((400, 20, 20)).astype(np.float32))
    p = 0.9
    chi = tail_dependence(stack, p, (0, 3))
    n_ref = 400 * 20 * 17 * (1 - p)
    se = np.sqrt((1 - p) * p / n_ref)
    assert abs(chi - (1 - p)) < 3 * se + 2e-3


def test_tail_dependence_per_pixel_mode():
    rng = np.random.default_rng(38)
    values = rng.standard_normal((60, 6, 6)).astype(np.float32)
    values[:, 2, 2] = -9999.0
    stack = RasterStack(values)
    chi_map = tail_dependence(stack, 0.8, (0, 0), per_pixel=True)
    inside = stack.domain().inside
    assert np.all(chi_map[inside] == 1.0)
    assert np.isnan(chi_map[2, 2])
    lag_map = tail_dependence(stack, 0.8, (0, 1), per_pixel=True)
    ok = ~np.isnan(lag_map)
    assert np.all((lag_map[ok] >= 0) & (lag_map[ok] <= 1))
    # pairs whose partner is the nodata pixel are undefined
    assert np.isnan(lag_map[2, 1])
    # pooled value is the exceedance-weighted mean of per-pixel values
    pooled = tail_dependence(stack, 0.8, (0, 1))
    assert 0 <= pooled <= 1


def test_tail_dependence_errors():
    rng = np.random.default_rng(37)
    stack = RasterStack(rng.standard_normal((10, 4, 4)).astype(np.float32))
    with pytest.raises(ValueError, match="grid"):
        tail_dependence(stack, 0.9, (0, 10))


def test_gaussian_cdf_approx():
    assert gaussian_cdf_approx(2 / np.pi, 1.0, 0.5) == pytest.approx(0.5)
    assert gaussian_cdf_approx(1.0, 10.0, 10.0) == 1.0  # clipped
    assert gaussian_cdf_approx(0.3, 2.0, 0.0) == 0.0
    assert matern_alpha(2.0, 1.0) == pytest.approx(2.0)
    assert matern_alpha(2.0, 2.0) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        gaussian_cdf_approx(-1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        gaussian_cdf_approx(1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        matern_alpha(1.0, 1.0)
