import math

import numpy as np
import pytest
from scipy import ndimage

from exrange import (
    DomainMask,
    RasterStack,
    ThresholdField,
    cdf_slope,
    euler_characteristic,
    intrinsic_densities,
    level_curve_length,
)

STREL_8 = np.ones((3, 3), dtype=int)


def euler_oracle(mask):
    """Flood-fill components (8-connected) minus holes (4-connected
    complement components not touching the outside)."""
    mask = np.asarray(mask, dtype=bool)
    n_comp = ndimage.label(mask, structure=STREL_8)[1]
    pad = np.pad(~mask, 1, constant_values=True)
    lab, n_bg = ndimage.label(pad)  # 4-connectivity default
    outside = lab[0, 0]
    n_holes = n_bg - 1 if n_bg else 0
    # any background label other than the outside one is a hole
    labels = set(np.unique(lab)) - {0, outside}
    n_holes = len(labels)
    return n_comp - n_holes


def _stack_of_masks(masks, dx=1.0):
    """A stack whose values are the masks and a threshold field at 0.5,
    so that each slice's excursion set is its mask."""
    values = np.asarray(masks, dtype=np.float32)
    thr = ThresholdField(p=0.9, u=np.full(values.shape[1:], 0.5, dtype=np.float32))
    return RasterStack(values, dx=dx), thr


def full_domain(ny, nx):
    return DomainMask(np.ones((ny, nx), dtype=bool))


def test_solid_block_chi_one():
    m = np.zeros((12, 12), dtype=bool)
    m[1:11, 1:11] = True
    assert euler_characteristic(m) == 1


def test_annulus_chi_zero():
    m = np.zeros((7, 7), dtype=bool)
    m[1:6, 1:6] = True
    m[3, 3] = False
    assert euler_characteristic(m) == 0


def test_diagonal_pixels_are_connected():
    m = np.zeros((4, 4), dtype=bool)
    m[0, 0] = m[1, 1] = True
    assert euler_characteristic(m) == 1  # 8-connected foreground


def test_chi_matches_flood_fill_oracle():
    rng = np.random.default_rng(21)
    for _ in range(100):
        ny, nx = rng.integers(3, 24, size=2)
        m = rng.random((ny, nx)) < rng.uniform(0.25, 0.75)
        assert euler_characteristic(m) == euler_oracle(m)


def test_chi_additive_over_far_components():
    a = np.zeros((20, 20), dtype=bool)
    a[2:6, 2:6] = True
    b = np.zeros((20, 20), dtype=bool)
    b[12:17, 12:17] = True
    b[14, 14] = False
    assert euler_characteristic(a | b) == euler_characteristic(a) + euler_characteristic(b)


def test_euler_density_normalization():
    m = np.zeros((10, 10), dtype=bool)
    m[2:5, 2:5] = True
    stack, thr = _stack_of_masks([m], dx=2.0)
    assert intrinsic_densities(stack, thr).c0 == pytest.approx(1 / (100 * 4.0))


def test_area_density_counting():
    full = np.ones((10, 10), dtype=bool)
    quarter = np.zeros((10, 10), dtype=bool)
    quarter[:5, :5] = True
    assert intrinsic_densities(*_stack_of_masks([full])).c2 == 1.0
    assert intrinsic_densities(*_stack_of_masks([quarter])).c2 == 0.25
    assert intrinsic_densities(*_stack_of_masks([full, quarter])).c2 == pytest.approx(0.625)


def test_densities_refuse_a_domain_without_a_cell_and_a_nan_threshold():
    # nodata at every other pixel of every other row leaves no 2x2 cell of
    # domain pixels, so c1 has no cell to average over
    values = np.random.default_rng(4).standard_normal((5, 6, 6)).astype(np.float32)
    flat = ThresholdField(p=0.5, u=np.zeros((6, 6), dtype=np.float32))
    holed = values.copy()
    holed[:, ::2, ::2] = -9999.0
    with pytest.raises(ValueError, match="domain has no interior 2x2 cell"):
        intrinsic_densities(RasterStack(holed), flat)
    # a NaN threshold at a domain pixel makes its cells' lengths NaN: the
    # densities' one check, finiteness, refuses it
    u = flat.u.copy()
    u[2, 3] = np.nan
    with pytest.raises(ValueError, match="c1 is not finite"):
        intrinsic_densities(RasterStack(values), ThresholdField(p=0.5, u=u))


def test_perimeter_disk_within_one_percent():
    n = 512
    yy, xx = np.mgrid[0:n, 0:n]
    radius = 150.0
    f = radius - np.hypot(yy - (n - 1) / 2, xx - (n - 1) / 2)
    length, _ = level_curve_length(f, 0.0, domain=full_domain(n, n), dx=1.0)
    assert abs(length - 2 * np.pi * radius) / (2 * np.pi * radius) < 0.01


def test_perimeter_refinement_study():
    # halving the spacing changes the estimated length by well under 0.5%
    radius = 0.3

    def disk_length(n):
        coords = (np.arange(n) + 0.5) / n
        f = radius - np.hypot(*np.meshgrid(coords - 0.5, coords - 0.5, indexing="ij"))
        length, _ = level_curve_length(f, 0.0, domain=full_domain(n, n), dx=1.0 / n)
        return length

    l1 = disk_length(256)
    l2 = disk_length(512)
    assert abs(l2 - l1) / l1 < 0.005


def test_perimeter_no_crossings_is_zero():
    f = np.full((8, 8), 3.0)
    dom = full_domain(8, 8)
    assert level_curve_length(f, 0.0, domain=dom)[0] == 0.0
    assert level_curve_length(f, 10.0, domain=dom)[0] == 0.0


def test_perimeter_excludes_domain_boundary():
    # a plateau filling the domain exactly: the set boundary coincides with
    # the domain boundary and must not be counted
    f = np.ones((6, 6))
    inside = np.zeros((6, 6), dtype=bool)
    inside[1:5, 1:5] = True
    dom = DomainMask(inside)
    length, n_cells = level_curve_length(f, 0.0, domain=dom)
    assert length == 0.0
    assert n_cells == 9  # 3x3 interior cells


def test_perimeter_affine_invariance():
    rng = np.random.default_rng(22)
    f = ndimage.gaussian_filter(rng.standard_normal((40, 40)), 3)
    dom = full_domain(40, 40)
    u = 0.1
    base, _ = level_curve_length(f, u, domain=dom)
    scaled, _ = level_curve_length(3.5 * f + 2.0, 3.5 * u + 2.0, domain=dom)
    assert scaled == pytest.approx(base, rel=1e-12)


def test_perimeter_density_pairs_with_threshold_field():
    rng = np.random.default_rng(23)
    f = ndimage.gaussian_filter(rng.standard_normal((30, 30)), 2).astype(np.float32)
    thr = ThresholdField(p=0.5, u=np.zeros((30, 30), dtype=np.float32))
    c1 = intrinsic_densities(RasterStack(f[None]), thr).c1
    assert c1 > 0
    length, n_cells = level_curve_length(f, 0.0, domain=full_domain(30, 30), dx=1.0)
    assert c1 == length / (2.0 * n_cells)


def _ragged_stack():
    """A ragged 6x26x21 stack with holes in its domain and a threshold field:
    slice 3 has no exceedance, every in-domain pixel of slice 4 exceeds, and
    slice 5 has a block of saddle cells."""
    rng = np.random.default_rng(24)
    nt, ny, nx, dx = 6, 26, 21, 2.5
    inside = rng.random((ny, nx)) > 0.1  # ragged, with holes
    inside[:4, :5] = False
    values = ndimage.gaussian_filter(rng.standard_normal((nt, ny, nx)), (0, 1.5, 1.5))
    values[3] = -5.0  # no exceedance
    values[4] = 5.0  # every in-domain pixel exceeds
    sign = (-1.0) ** np.add.outer(np.arange(8), np.arange(8))
    values[5, 10:18, 8:16] = sign * rng.uniform(0.5, 1.5, (8, 8))  # saddle cells
    values = values.astype(np.float32)
    values[:, ~inside] = -9999.0
    stack = RasterStack(values, dx=dx)
    thr = ThresholdField(p=0.7, u=np.where(inside, 0.05, np.nan).astype(np.float32))
    return stack, thr


def test_batched_densities_equal_slice_by_slice():
    stack, thr = _ragged_stack()
    values, nt, dx = stack.values, stack.nt, stack.dx
    domain = stack.domain()
    inside = domain.inside
    exceed = (values > thr.u) & inside
    chi = [euler_characteristic(exceed[t]) for t in range(nt)]
    assert all(type(c) is int for c in chi)
    assert euler_characteristic(exceed).tolist() == chi
    c0 = c1 = c2 = 0.0
    for t in range(nt):
        length, n_cells = level_curve_length(values[t], thr.u, domain=domain, dx=dx)
        c0 += chi[t] / domain.area(dx)
        c1 += length / (2.0 * n_cells * dx * dx)
        c2 += np.count_nonzero(exceed[t]) / domain.n_pixels
    dens = intrinsic_densities(stack, thr)
    assert (dens.c0, dens.c1, dens.c2) == (c0 / nt, c1 / nt, c2 / nt)
    assert 0.0 < dens.c2 < 1.0 and dens.c1 > 0


def _reference_curve_length(values, u, inside):
    """Marching-squares length of {values = u} on one slice, in plain Python,
    summed as the ``geometry`` docstring fixes it: for each ``_CASE_TABLE``
    row in order, a numpy ``.sum()`` of the first segments of that row's
    cells in row-major order and one of their second segments, the two added
    to each other and then to the length, from 0.0. Also the set of table
    rows met."""
    from exrange.geometry import _CASE_TABLE

    ny, nx = values.shape

    def crossing(edge, f00, f01, f10, f11):
        return {"T": (f00 / (f00 - f01), 0.0), "R": (1.0, f01 / (f01 - f11)),
                "B": (f10 / (f10 - f11), 1.0), "L": (0.0, f00 / (f00 - f10))}[edge]

    segments = {r: ([], []) for r in range(len(_CASE_TABLE))}
    for i in range(ny - 1):
        for j in range(nx - 1):
            corners = [(i, j), (i, j + 1), (i + 1, j), (i + 1, j + 1)]
            if not all(inside[c] for c in corners):
                continue
            f00, f01, f10, f11 = (float(values[c]) - float(u[c]) for c in corners)
            case = (f00 > 0) + 2 * (f01 > 0) + 4 * (f11 > 0) + 8 * (f10 > 0)
            center = f00 + f01 + f10 + f11 > 0
            for r, (c, pos, segs) in enumerate(_CASE_TABLE):
                if c == case and pos in (None, center):
                    for (e1, e2), out in zip(segs, segments[r]):
                        (x1, y1) = crossing(e1, f00, f01, f10, f11)
                        (x2, y2) = crossing(e2, f00, f01, f10, f11)
                        out.append(math.sqrt((x1 - x2) ** 2 + (y1 - y2) ** 2))
                    break
    length = 0.0
    for first, second in segments.values():
        length += np.array(first).sum() + np.array(second).sum()
    return length, {r for r, (first, _) in segments.items() if first}


def test_curve_lengths_match_a_plain_reference_bit_for_bit():
    from exrange.geometry import _CASE_TABLE, _curve_lengths

    stack, thr = _ragged_stack()
    inside = stack.domain().inside
    lengths, _ = _curve_lengths(stack.values, thr.u, (stack.values > thr.u) & inside, inside)
    rows_met = set()
    for t, got in enumerate(lengths.tolist()):
        want, rows = _reference_curve_length(stack.values[t], thr.u, inside)
        assert float(got).hex() == float(want).hex(), t
        rows_met |= rows
    assert lengths[3] == lengths[4] == 0.0 < lengths[[0, 1, 2, 5]].min()
    assert rows_met == set(range(len(_CASE_TABLE)))  # every row, both saddle signs included


def test_saddle_rule_is_deterministic():
    # alternating corners force the saddle branch; the center average decides
    f = np.array([[1.0, -1.0], [-1.0, 3.0]])
    dom = full_domain(2, 2)
    length_pos, _ = level_curve_length(f, 0.0, domain=dom)
    f_neg = np.array([[1.0, -3.0], [-3.0, 1.0]])
    length_neg, _ = level_curve_length(f_neg, 0.0, domain=dom)
    assert length_pos > 0 and length_neg > 0
    # both connect two opposite corner arcs: lengths of the two segment pairs
    assert length_pos != pytest.approx(length_neg)


def test_cdf_slope():
    assert cdf_slope(0.05, 0.10) == pytest.approx(1.0)
    assert cdf_slope(0.05, 0.05) == pytest.approx(2.0)
    # halving c2 at fixed c1 doubles the slope
    assert cdf_slope(0.03, 0.05) == pytest.approx(2 * cdf_slope(0.03, 0.10))
    with pytest.raises(ValueError):
        cdf_slope(0.1, 0.0)


def test_run_sums_are_bitwise_per_run_sums():
    # numpy's pairwise .sum() changes its blocking at 8 and 128 elements, so
    # the runs straddle both, and run to thousands
    from exrange.geometry import _run_sums

    rng = np.random.default_rng(48)
    sizes = [*range(1, 10), 127, 128, 129, 1000, 4099, 70_001]
    sizes = [sizes[i] for i in rng.permutation(len(sizes))]
    n = sum(sizes)
    values = np.stack([rng.random(n) * 10.0 ** rng.integers(-3, 4, n), rng.standard_normal(n)])
    bounds = np.cumsum([0, *sizes])
    sums = _run_sums(values, bounds[:-1])
    for v, got in zip(values, sums):
        want = np.array([v[a:b].sum() for a, b in zip(bounds, bounds[1:])])
        assert got.view(np.int64).tolist() == want.view(np.int64).tolist()
        assert np.array_equal(_run_sums(v, bounds[:-1]), got)  # one array as one row
        bare = np.add.reduceat(v, bounds[:-1])
        assert not np.array_equal(bare, want)  # the 0.0 ahead of each run matters
