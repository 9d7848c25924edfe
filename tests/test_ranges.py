import math
import numpy as np
import pytest

from exrange import (
    BoundaryPolicy,
    DomainMask,
    ExcursionMask,
    RasterStack,
    collect_samples,
    domain_distance,
    ecdf,
    erode,
    exceedance_stack,
    matern_alpha,
    median_range,
    median_range_map,
    quantile_field,
    range_entries,
    range_field,
    tail_dependence,
)
from exrange.thresholds import excursion_mask
from exrange.morphology import RangeField


def _mask(m):
    return ExcursionMask(exceed=np.asarray(m, dtype=bool))


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
    # each mask holds its policy in its out-of-domain pixels
    fill = _mask(exceed_inside | ~inside)
    erode_pol = _mask(exceed_inside & inside)
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
        t_er = domain_distance(dom, 1.0) > r
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
    # one shared domain transform must give the counts of T_{-r} at
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
    with pytest.raises(ValueError, match="inradius"):
        ecdf(fields, dom, [domain_distance(dom, dx).max()], dx=dx)
    for j, r in enumerate(radii):
        t_er = domain_distance(dom, dx) > r
        den = sum(np.count_nonzero(t_er & (rf.r > 0)) for rf in fields)
        num = sum(np.count_nonzero(t_er & (rf.r > 0) & (rf.r <= r)) for rf in fields)
        assert est.n_exceed[j] == den > 0
        assert est.F[j] == num / den


def test_domain_is_transformed_once(monkeypatch):
    # ecdf at every level and domain_distance share one transform of a
    # domain, at any dx; the domain's pixels are read-only
    import exrange.raster

    calls = []
    original = exrange.raster.distance_transform_squared
    monkeypatch.setattr(exrange.raster, "distance_transform_squared",
                        lambda *a, **k: calls.append(1) or original(*a, **k))
    inside = np.ones((12, 12), dtype=bool)
    inside[:3, :5] = False
    dom = DomainMask(inside)
    inside[:] = False  # the mask keeps its own copy
    fields = [range_field(_mask(np.eye(12, dtype=bool) | ~dom.inside), dom, dx=1.0)]
    for dx in (1.0, 2.0, 1.0):
        ecdf(fields, dom, [1.0], dx=dx)
        assert domain_distance(dom, dx).max() == dx * domain_distance(dom, 1.0).max()
        n_eroded = (domain_distance(dom, dx) > 2.0 * dx).sum()
        assert n_eroded == (domain_distance(dom, 1.0) > 2.0).sum()
    assert len(calls) == 1
    with pytest.raises(ValueError):
        dom.inside[0, 0] = True


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
    r_max = domain_distance(dom, 1.0).max()
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


def full_sort_median_map(cube, inside):
    """Lower median of each domain pixel's positive ranges, by sorting its
    whole series; 0 where there is none and outside the domain."""
    out = np.zeros(inside.shape)
    for iy, ix in zip(*np.nonzero(inside)):
        series = np.sort(cube[:, iy, ix])
        positive = series[series > 0]
        if positive.size:
            out[iy, ix] = positive[(positive.size - 1) // 2]
    return out


@pytest.mark.parametrize("policy", list(BoundaryPolicy))
def test_median_range_map_matches_full_sort_on_ragged_cases(policy):
    rng = np.random.default_rng(36)
    nt, ny, nx = 9, 6, 7
    inside = np.ones((ny, nx), dtype=bool)
    inside[0, 4:] = inside[3:5, 2] = False
    values = rng.standard_normal((nt, ny, nx)).astype(np.float32)
    values[:, ~inside] = -9999.0
    stack = RasterStack(values)
    dom = stack.domain()
    thr = quantile_field(stack, 0.6)
    cube = stacked_range_fields(stack, thr, policy)
    assert np.array_equal(dense(range_entries(stack, thr, policy)), cube)
    assert not cube[:, ~inside].any()
    # positive ranges written in at the nodata pixels, which the medians ignore
    cube[:, ~inside] = rng.uniform(1.0, 5.0, size=(nt, np.count_nonzero(~inside)))
    cube[:, 1, 1] = 0.0                                  # no positive range
    cube[:, 1, 2] = [0, 2, 0, 2, 1, 0, 0, 3, 0]          # even count, tied median
    cube[:, 1, 3] = [0, 0, 5, 0, 1, 0, 1, 0, 0]          # odd count, tied median
    cube[:, 2, 1] = [0, 0, 0, 0, 0, 0, 0, 0, 4]          # one positive range
    assert np.unique(cube[cube > 0]).size < np.count_nonzero(cube > 0)   # ties
    for c in (cube, cube[:1], cube[4:5]):                # and single slices
        want = full_sort_median_map(c, inside)
        assert (median_range_map(c, dom) == want).all()
        assert (median_range_map([RangeField(r=r, dx=1.0) for r in c], dom) == want).all()
    assert full_sort_median_map(cube, inside)[1, 2:4].tolist() == [2.0, 1.0]


def test_median_range_map_memory_follows_positive_ranges():
    # only the positive ranges are sorted: a sorted copy of the cube, as a
    # full sort makes, is the cube's size
    import tracemalloc

    rng = np.random.default_rng(37)
    shape = (200, 64, 64)
    cube = np.where(rng.random(shape) < 0.1, np.sqrt(rng.integers(1, 50, shape)), 0.0)
    dom = full_domain(64, 64)
    tracemalloc.start()
    try:
        got = median_range_map(cube, dom)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < cube.nbytes / 4
    assert (got == full_sort_median_map(cube, dom.inside)).all()


def dense(entries):
    """The (nt, ny, nx) range array the entries stand for: 0 off the entries,
    outside the domain included."""
    nt, ny, nx = entries.shape
    cube = np.zeros((nt, ny * nx))
    for t in range(nt):
        run = slice(entries.bounds[t], entries.bounds[t + 1])
        cube[t, entries.pixel[run]] = entries.value[run]
    return cube.reshape(entries.shape)


def flat_positions(entries):
    """The flat (slice, row, column) position of each entry."""
    nt, ny, nx = entries.shape
    return np.repeat(np.arange(nt), np.diff(entries.bounds)) * (ny * nx) + entries.pixel


def check_layout(entries, pixel_dtype):
    """Slice runs that tile the entries, ascending pixels within each run,
    and positive values."""
    assert entries.pixel.dtype == pixel_dtype and entries.value.dtype == np.float64
    assert entries.bounds[0] == 0 and entries.bounds[-1] == entries.value.size
    assert (np.diff(entries.bounds) >= 0).all() and (entries.value > 0).all()
    assert (np.diff(flat_positions(entries)) > 0).all()


def stacked_range_fields(stack, thr, policy):
    """Each slice's ``range_field``, with the edge fallback, stacked."""
    dom = stack.domain()
    return np.stack([range_field(excursion_mask(stack, t, thr, policy), dom, stack.dx,
                                 edge_fallback=True).r for t in range(stack.nt)])


@pytest.mark.parametrize("holes", [False, True], ids=["full", "holes"])
@pytest.mark.parametrize("policy", list(BoundaryPolicy))
def test_range_cube_mixed_slices_match_range_field_and_brute_force(policy, holes):
    # the range cube the level's entries stand for, and each slice's range
    # field, pixel for pixel at the domain pixels against the brute force on
    # the whole mask, and 0 outside; one stack, dx != 1, with slices that exceed
    # nowhere, somewhere and everywhere; on the full grid an everywhere slice
    # takes the edge fallback under both policies, with holes only under
    # fill-exceed
    rng = np.random.default_rng(44)
    nt, ny, nx, dx = 9, 11, 13, 2.5
    inside = np.ones((ny, nx), dtype=bool)
    if holes:
        inside[0, :3] = inside[5:7, 6] = inside[-1, -1] = False
    values = rng.standard_normal((nt, ny, nx)).astype(np.float32)
    values[[0, 4]] = -10.0
    values[[2, 7]] = 10.0
    values[:, ~inside] = -9999.0
    stack = RasterStack(values, dx=dx)
    thr = quantile_field(stack, 0.6)
    entries = range_entries(stack, thr, policy, n_threads=2)
    assert entries.shape == (nt, ny, nx)
    check_layout(entries, np.uint8)
    cube = dense(entries)
    dom = stack.domain()
    fill = BoundaryPolicy(policy) is BoundaryPolicy.FILL_EXCEED
    for t in range(nt):
        with np.errstate(invalid="ignore"):
            exceed = values[t] > thr.u
        exceed = exceed | ~inside if fill else exceed & inside
        if exceed.all():
            expected = brute_nearest_false(np.pad(exceed, 1), dx)[1:-1, 1:-1]
        else:
            expected = brute_nearest_false(exceed, dx)
        rf = range_field(excursion_mask(stack, t, thr, policy), dom, dx, edge_fallback=True)
        assert np.array_equal(rf.r, np.where(inside, expected, 0))
        assert np.array_equal(cube[t], rf.r)
    assert np.array_equal(flat_positions(entries), np.flatnonzero(cube))
    assert not cube[[0, 4]][:, inside].any() and cube[[2, 7]][:, inside].all()


@pytest.mark.parametrize("policy", list(BoundaryPolicy))
def test_range_cube_matches_list_of_range_fields(policy):
    # the entries' range cube, at the domain pixels, and their consumers
    # against a list of range fields; a ragged domain with holes; slice 0 has no exceedance, and slice 1
    # exceeds at every domain pixel (an edge-fallback slice under fill-exceed)
    rng = np.random.default_rng(43)
    nt, ny, nx = 7, 14, 17
    inside = np.ones((ny, nx), dtype=bool)
    inside[:2, :4] = False
    inside[6, 5:8] = False
    inside[10:, 13:] = False
    values = rng.standard_normal((nt, ny, nx)).astype(np.float32)
    values[0], values[1] = -10.0, 10.0
    values[:, ~inside] = -9999.0
    stack = RasterStack(values)
    dom = stack.domain()
    level_entries, lists = {}, {}
    for p in (0.7, 0.85):
        thr = quantile_field(stack, p)
        level_entries[p] = range_entries(stack, thr, policy, n_threads=3)
        lists[p] = [range_field(excursion_mask(stack, t, thr, policy), dom, stack.dx,
                                edge_fallback=True) for t in range(nt)]
        cube = dense(level_entries[p])
        assert np.array_equal(cube, np.where(inside, np.stack([rf.r for rf in lists[p]]), 0))
        assert not cube[0][inside].any() and cube[1][inside].all()
    entries, fields = level_entries[0.7], lists[0.7]

    radii = [1.0, np.sqrt(2), 2.0, 3.0]
    est_entries, est_list = ecdf(entries, dom, radii, 1.0), ecdf(fields, dom, radii, 1.0)
    assert (est_entries.F == est_list.F).all() and est_entries.F.any()
    assert (est_entries.n_exceed == est_list.n_exceed).all()
    assert median_range(entries, dom) == median_range(fields, dom) > 0
    assert (median_range_map(entries, dom) == median_range_map(fields, dom)).all()

    blocks = [3, 3, 5, 5, 8, 8, 9]
    s_entries = collect_samples(level_entries, dom, blocks=blocks)
    s_list = collect_samples(lists, dom, blocks=blocks)
    # (level, slice, row, column) order, each sample carrying its slice's block
    ref = {"pixel_y": [], "pixel_x": [], "block": [], "y": []}
    for p in (0.7, 0.85):
        for t, rf in enumerate(lists[p]):
            iy, ix = np.nonzero((rf.r > 0) & inside)
            ref["pixel_y"] += iy.tolist()
            ref["pixel_x"] += ix.tolist()
            ref["block"] += [blocks[t]] * iy.size
            ref["y"] += np.log(rf.r[iy, ix]).tolist()
    for name, want in ref.items():
        assert getattr(s_entries, name).tolist() == want
        assert (getattr(s_entries, name) == getattr(s_list, name)).all()
    assert (s_entries.x == s_list.x).all()
    assert s_entries.block.dtype == np.int64
    assert s_entries.pixel_y.dtype == s_entries.pixel_x.dtype == np.int32


@pytest.mark.parametrize("n_threads", [1, 2, 3])
@pytest.mark.parametrize("ragged", [False, True], ids=["full", "ragged"])
@pytest.mark.parametrize("policy", list(BoundaryPolicy))
def test_range_entries_are_the_exceedances_and_serve_every_consumer(policy, ragged,
                                                                    n_threads):
    # slices 0 and 5 exceed nowhere; slice 3 exceeds at every domain pixel,
    # which on the full grid, or under fill-exceed, is an all-True mask that
    # takes the edge fallback; fill-exceed makes the nodata pixels exceedances
    # in every mask, and the range fields and entries hold 0 there
    from exrange.cli import _hist_rows

    rng = np.random.default_rng(45)
    nt, ny, nx = 8, 12, 10
    inside = np.ones((ny, nx), dtype=bool)
    if ragged:
        inside[:3, :2] = inside[4:6, 7] = inside[-2:, -3:] = False
    values = rng.standard_normal((nt, ny, nx)).astype(np.float32)
    values[[0, 5]] = -10.0
    values[3] = 10.0
    values[:, ~inside] = -9999.0
    stack = RasterStack(values, dx=1.5)
    dom = stack.domain()
    fill = BoundaryPolicy(policy) is BoundaryPolicy.FILL_EXCEED
    by_level, dense_by_level = {}, {}
    for thr in (quantile_field(stack, 0.55), quantile_field(stack, 0.8)):
        entries = range_entries(stack, thr, policy, n_threads=n_threads)
        check_layout(entries, np.uint8)
        cube = stacked_range_fields(stack, thr, policy)
        exceed = cube > 0
        masks = np.stack([excursion_mask(stack, t, thr, policy).exceed for t in range(nt)])
        assert np.array_equal(flat_positions(entries), np.flatnonzero(exceed))
        assert np.array_equal(flat_positions(entries), np.flatnonzero(masks & inside))
        assert np.array_equal(entries.value, cube[exceed])
        assert not exceed[[0, 5]][:, inside].any() and masks[3].all() == (fill or not ragged)
        assert masks[:, ~inside].all() if fill else not masks[:, ~inside].any()
        assert not cube[:, ~inside].any()
        by_level[thr.p], dense_by_level[thr.p] = entries, cube

        radii = [1.5, 2.0, 3.0, 4.5]
        est, want = ecdf(entries, dom, radii, stack.dx), ecdf(cube, dom, radii, stack.dx)
        assert (est.F == want.F).all() and (est.n_exceed == want.n_exceed).all()
        assert median_range(entries, dom) == median_range(cube, dom)
        assert (median_range_map(entries, dom) == median_range_map(cube, dom)).all()
        assert (median_range_map(entries, dom) == full_sort_median_map(cube, inside)).all()
        edges = np.arange(0.0, 9.0, stack.dx)
        rows = _hist_rows(thr.p, entries, edges)
        counts, _ = np.histogram(cube[exceed], bins=edges)
        assert [row[3] for row in rows] == counts.tolist()
        assert [row[1:3] for row in rows] == [[lo, hi] for lo, hi in zip(edges, edges[1:])]
    got = collect_samples(by_level, dom, blocks=list(range(10, 10 + nt)), min_range=2.0)
    want = collect_samples(dense_by_level, dom, blocks=list(range(10, 10 + nt)),
                           min_range=2.0)
    for name in ("pixel_y", "pixel_x", "x", "y", "block"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


@pytest.mark.parametrize("policy", list(BoundaryPolicy))
def test_range_entries_on_a_grid_past_65536_pixels_take_uint32_pixels(policy):
    # 257 x 256 pixels with a nodata block: the restricted range fields, and
    # the samples' rows and columns, from pixels that overflow 16 bits
    rng = np.random.default_rng(48)
    values = rng.standard_normal((4, 257, 256)).astype(np.float32)
    values[:, 200:, 180:] = -9999.0
    stack = RasterStack(values, dx=0.5)
    inside = stack.domain().inside
    thr = quantile_field(stack, 0.5)
    entries = range_entries(stack, thr, policy, n_threads=2)
    check_layout(entries, np.uint32)
    assert entries.pixel.max() > np.iinfo(np.uint16).max
    cube = np.where(inside, stacked_range_fields(stack, thr, policy), 0)
    assert np.array_equal(dense(entries), cube)
    samples = collect_samples({thr.p: entries}, stack.domain())
    _, iy, ix = np.nonzero(cube)
    assert samples.pixel_y.tolist() == iy.tolist() and samples.pixel_x.tolist() == ix.tolist()


def test_dense_and_listed_ranges_convert_to_the_same_entries():
    # the positive cells at the domain pixels become entries; negative
    # cells and every cell outside the domain are dropped
    from exrange.ranges import RangeEntries, _as_entries

    rng = np.random.default_rng(46)
    cube = np.where(rng.random((4, 5, 6)) < 0.3, rng.random((4, 5, 6)) + 0.5, 0.0)
    cube[1, 2, 3] = -1.0
    inside = np.ones((5, 6), dtype=bool)
    inside[0, :2] = inside[3, 4] = False
    cube[:, 3, 4] = 2.0
    for dom in (full_domain(5, 6), DomainMask(inside)):
        kept = (cube > 0) & dom.inside
        entries = _as_entries(cube, dom)
        listed = _as_entries([RangeField(r=r, dx=1.0) for r in cube], dom)
        assert _as_entries(entries, dom) is entries
        for e in (entries, listed):
            assert e.shape == (4, 5, 6)
            check_layout(e, np.uint8)
            assert np.array_equal(flat_positions(e), np.flatnonzero(kept))
            assert np.array_equal(e.value, cube[kept])
            assert np.array_equal(dense(e), np.where(kept, cube, 0))
    with pytest.raises(ValueError, match="at least one"):
        _as_entries([], dom)
    with pytest.raises(ValueError, match="nt >= 1"):
        _as_entries(np.zeros((0, 3, 3)), dom)
    with pytest.raises(ValueError, match="one length"):
        RangeEntries(pixel=np.arange(3), value=np.ones(2), bounds=np.array([0, 2]),
                     shape=(1, 2, 2))
    with pytest.raises(ValueError, match="slice bounds"):
        RangeEntries(pixel=np.arange(2), value=np.ones(2), bounds=np.array([0, 2]),
                     shape=(2, 2, 2))
    with pytest.raises(ValueError, match="domain grid"):
        median_range_map(entries, full_domain(5, 5))
    with pytest.raises(ValueError, match="domain grid"):
        median_range_map(cube, full_domain(6, 6))


def test_range_entries_never_build_the_dense_range_array():
    # producer and consumers of a level at p = 0.9 together stay below half
    # of the float64 (nt, ny, nx) array they used to pass around: 10% of the
    # pixel-slices exceed, at 16 bytes an entry
    import tracemalloc

    from exrange import SamplePool
    from exrange.cli import _hist_rows

    rng = np.random.default_rng(47)
    stack = RasterStack(rng.standard_normal((200, 64, 64)).astype(np.float32))
    thr = quantile_field(stack, 0.9)
    dom = stack.domain()
    domain_distance(dom, stack.dx)                # the domain's transform, kept on it
    pool = SamplePool.for_levels(stack, [thr.p])  # the samples are output
    dense_bytes = 8 * stack.values.size
    tracemalloc.start()
    try:
        entries = range_entries(stack, thr, "fill-exceed", n_threads=2)
        ecdf(entries, dom, [1.0, 2.0, 4.0], stack.dx)
        median_range(entries, dom)
        median_range_map(entries, dom)
        _hist_rows(thr.p, entries, np.arange(0.0, 33.0))
        collect_samples({thr.p: entries}, dom, pool=pool)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert entries.value.size == stack.values.size // 10
    assert pool.n == entries.value.size
    assert peak < dense_bytes / 2, peak


def _chi(stack: RasterStack, p: float, lag: tuple[int, int], per_pixel: bool = False):
    """``tail_dependence`` at level ``p`` of ``stack``, from the level's exceedances."""
    exceed = exceedance_stack(stack, quantile_field(stack, p), "erode")
    return tail_dependence(exceed, stack.domain().inside, lag, per_pixel)


def test_tail_dependence_lag_zero_is_one():
    rng = np.random.default_rng(35)
    stack = RasterStack(rng.standard_normal((40, 8, 8)).astype(np.float32))
    assert _chi(stack, 0.9, (0, 0)) == 1.0


def test_tail_dependence_independent_noise():
    rng = np.random.default_rng(36)
    stack = RasterStack(rng.standard_normal((400, 20, 20)).astype(np.float32))
    p = 0.9
    chi = _chi(stack, p, (0, 3))
    n_ref = 400 * 20 * 17 * (1 - p)
    se = np.sqrt((1 - p) * p / n_ref)
    assert abs(chi - (1 - p)) < 3 * se + 2e-3


def test_tail_dependence_per_pixel_mode():
    rng = np.random.default_rng(38)
    values = rng.standard_normal((60, 6, 6)).astype(np.float32)
    values[:, 2, 2] = -9999.0
    stack = RasterStack(values)
    exceed = exceedance_stack(stack, quantile_field(stack, 0.8), "erode")
    inside = stack.domain().inside
    chi_map = tail_dependence(exceed, inside, (0, 0), per_pixel=True)
    assert np.all(chi_map[inside] == 1.0)
    assert np.isnan(chi_map[2, 2])
    lag_map = tail_dependence(exceed, inside, (0, 1), per_pixel=True)
    ok = ~np.isnan(lag_map)
    assert np.all((lag_map[ok] >= 0) & (lag_map[ok] <= 1))
    # pairs whose partner is the nodata pixel are undefined
    assert np.isnan(lag_map[2, 1])
    # pooled value is the exceedance-weighted mean of per-pixel values
    pooled = tail_dependence(exceed, inside, (0, 1))
    assert 0 <= pooled <= 1


def test_tail_dependence_without_reference_pair_is_nan():
    rng = np.random.default_rng(39)
    values = rng.standard_normal((20, 4, 3)).astype(np.float32)
    stack = RasterStack(values)
    # the 0.99 quantile of 20 values is the largest: nothing exceeds it
    assert math.isnan(_chi(stack, 0.99, (0, 1)))
    assert np.isnan(_chi(stack, 0.99, (0, 1), per_pixel=True)).all()
    # a one-column domain has no in-domain pair at a horizontal lag
    values[:, :, 1:] = -9999.0
    column = RasterStack(values)
    assert math.isnan(_chi(column, 0.5, (0, 1)))
    assert np.isnan(_chi(column, 0.5, (0, 1), per_pixel=True)).all()
    assert _chi(column, 0.5, (1, 0)) <= 1.0


def test_tail_dependence_errors():
    rng = np.random.default_rng(37)
    stack = RasterStack(rng.standard_normal((10, 4, 4)).astype(np.float32))
    with pytest.raises(ValueError, match="grid"):
        _chi(stack, 0.9, (0, 10))


def test_matern_alpha():
    assert matern_alpha(2.0, 1.0) == pytest.approx(2.0)
    assert matern_alpha(2.0, 2.0) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        matern_alpha(1.0, 1.0)


def _stencil_stack(seed: int, ragged: bool) -> RasterStack:
    """simulate's 40x32x60 Gaussian stack at ell 6; when ``ragged``, with the
    nodata notch and hole of the CLI's ragged-stack test."""
    from exrange.simgrf import GaussianSimConfig, simulate_gaussian

    stack = simulate_gaussian(GaussianSimConfig(nx=40, ny=32, n_slices=60, ell=6.0, seed=seed))
    if not ragged:
        return stack
    values = stack.values.copy()
    values[:, :5, 30:] = values[:, 14:17, 10:13] = stack.nodata
    return RasterStack(values, dx=stack.dx)


# (row, column) offsets of the four edge neighbours, then of the four corner ones
_EDGE_LAGS = [(0, 1), (0, -1), (1, 0), (-1, 0)]
_CORNER_LAGS = [(1, 1), (1, -1), (-1, 1), (-1, -1)]


def _shifted(exceed: np.ndarray, lag: tuple[int, int]) -> np.ndarray:
    """Whether each pixel's neighbour at ``lag`` exceeds; False past the grid edge."""
    dy, dx = lag
    ny, nx = exceed.shape[1:]
    out = np.zeros_like(exceed)
    out[:, max(0, -dy):ny - max(0, dy), max(0, -dx):nx - max(0, dx)] = \
        exceed[:, max(0, dy):ny - max(0, -dy), max(0, dx):nx - max(0, -dx)]
    return out


@pytest.mark.parametrize("ragged", [False, True], ids=["full", "ragged"])
@pytest.mark.parametrize("policy", list(BoundaryPolicy))
def test_ecdf_at_one_and_root_two_pixels_counts_full_stencils(policy, ragged):
    # an exceedance at a pixel of T_{-r} has range above r = dx exactly when
    # its four edge neighbours exceed, and above r = sqrt(2) dx when all eight
    # neighbours do; they lie in the domain, so n_exceed (1 - F(r)) is a count
    # of shifted ANDs, with no transform and under either policy. At r = dx the
    # pairs of each unit lag, counted by the per-pixel tail dependence, bound
    # that count: sum_h J_h - 3 n_exceed <= n_exceed (1 - F(dx)) <= min_h J_h
    for seed, p in [(3, 0.85), (3, 0.95), (5, 0.85), (5, 0.95)]:
        stack = _stencil_stack(seed, ragged)
        dom = stack.domain()
        thr = quantile_field(stack, p)
        exceed = exceedance_stack(stack, thr, BoundaryPolicy.ERODE)
        radii = [stack.dx, math.sqrt(2.0) * stack.dx]
        est = ecdf(range_entries(stack, thr, policy), dom, radii, stack.dx)
        stencil = exceed.copy()
        for j, lags in enumerate((_EDGE_LAGS, _CORNER_LAGS)):
            for lag in lags:
                stencil &= _shifted(exceed, lag)
            interior = domain_distance(dom, stack.dx) > radii[j]
            n = np.count_nonzero(exceed & interior)
            above = np.count_nonzero(stencil & interior)
            assert 0 < above < n
            assert est.n_exceed[j] == n, (seed, p, j)
            assert est.F[j] == (n - above) / n, (seed, p, j)
            if j == 0:
                n_ref = exceed.sum(axis=0)
                joint = [np.nansum(tail_dependence(exceed, dom.inside, lag, per_pixel=True)
                                   * n_ref * interior) for lag in _EDGE_LAGS]
                joint = [int(np.rint(jh)) for jh in joint]
                assert joint == [np.count_nonzero(exceed & _shifted(exceed, lag) & interior)
                                 for lag in _EDGE_LAGS]
                assert sum(joint) - 3 * n <= above <= min(joint), (seed, p)


def test_pmap_hands_each_worker_its_run():
    # contiguous runs of near-equal length, each on a worker thread; one
    # item or one thread is a single call on the calling thread
    import threading

    from exrange.ranges import _pmap

    def recorder():
        calls = []
        return calls, lambda run: calls.append((list(run), threading.current_thread()))

    calls, record = recorder()
    assert _pmap(record, range(10), 3) is None
    assert sorted(run for run, _ in calls) == [[0, 1, 2], [3, 4, 5], [6, 7, 8, 9]]
    assert all(thread is not threading.main_thread() for _, thread in calls)
    for items, n_threads in ((range(1), 3), (range(10), 1)):
        calls, record = recorder()
        _pmap(record, items, n_threads)
        assert calls == [(list(items), threading.current_thread())]
