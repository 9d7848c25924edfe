import numpy as np
import pytest

from exrange import distance_transform, distance_transform_squared, erode, morphology


def brute_force_sq(mask):
    """O(n^2) nearest-false squared distance in integer arithmetic."""
    mask = np.asarray(mask, dtype=bool)
    ny, nx = mask.shape
    fy, fx = np.nonzero(~mask)
    yy, xx = np.mgrid[0:ny, 0:nx]
    d2 = (yy.ravel()[:, None] - fy[None, :]) ** 2 + (xx.ravel()[:, None] - fx[None, :]) ** 2
    out = d2.min(axis=1).reshape(ny, nx)
    out[~mask] = 0
    return out


def disk_mask(n, cy, cx, radius):
    yy, xx = np.mgrid[0:n, 0:n]
    return (yy - cy) ** 2 + (xx - cx) ** 2 <= radius * radius


def brute_erode(mask, radius):
    """Structuring-element sweep: keep a pixel iff every pixel center of the
    disk around it lies in the mask (off-grid positions are not pixels)."""
    mask = np.asarray(mask, dtype=bool)
    ny, nx = mask.shape
    rr = int(np.floor(radius))
    offs = [
        (dy, dxp)
        for dy in range(-rr, rr + 1)
        for dxp in range(-rr, rr + 1)
        if dy * dy + dxp * dxp <= radius * radius
    ]
    out = np.zeros_like(mask)
    for y in range(ny):
        for x in range(nx):
            if not mask[y, x]:
                continue
            ok = True
            for dy, dxp in offs:
                yy, xx = y + dy, x + dxp
                if 0 <= yy < ny and 0 <= xx < nx and not mask[yy, xx]:
                    ok = False
                    break
            out[y, x] = ok
    return out


def test_three_by_three_center_false():
    mask = np.ones((3, 3), dtype=bool)
    mask[1, 1] = False
    r = distance_transform(mask, dx=1.0).r
    assert r[1, 1] == 0
    assert r[0, 1] == r[1, 0] == r[1, 2] == r[2, 1] == 1.0
    assert r[0, 0] == r[0, 2] == r[2, 0] == r[2, 2] == pytest.approx(np.sqrt(2))


def edge_shape_masks():
    """1xn, nx1 and 1x1 masks, and one False pixel at each corner."""
    rng = np.random.default_rng(43)
    masks = [np.zeros((1, 1), dtype=bool)]
    for n in (2, 3, 8, 31):
        for j in (0, n // 2, n - 1):
            row = np.ones((1, n), dtype=bool)
            row[0, j] = False
            masks += [row, row.T]
        row = rng.random((1, n)) < 0.6
        row[0, rng.integers(n)] = False
        masks += [row, row.T, np.zeros((1, n), dtype=bool)]
    for ny, nx in ((2, 2), (2, 9), (7, 3), (13, 17)):
        for cy, cx in ((0, 0), (0, nx - 1), (ny - 1, 0), (ny - 1, nx - 1)):
            mask = np.ones((ny, nx), dtype=bool)
            mask[cy, cx] = False
            masks.append(mask)
    return masks


def test_matches_brute_force_on_random_masks():
    rng = np.random.default_rng(42)
    for _ in range(50):
        ny, nx = rng.integers(3, 33, size=2)
        mask = rng.random((ny, nx)) < rng.uniform(0.1, 0.95)
        if mask.all():
            mask[0, 0] = False
        assert np.array_equal(distance_transform_squared(mask), brute_force_sq(mask))
    for mask in edge_shape_masks():
        assert np.array_equal(distance_transform_squared(mask), brute_force_sq(mask))


def brute_force_sq_by_row(mask):
    """brute_force_sq one row at a time, for masks too large for one block."""
    mask = np.asarray(mask, dtype=bool)
    fy, fx = np.nonzero(~mask)
    x = np.arange(mask.shape[1])[:, None]
    out = np.stack([((y - fy) ** 2 + (x - fx) ** 2).min(axis=1) for y in range(mask.shape[0])])
    out[~mask] = 0
    return out


def long_range_masks():
    """Masks with distances above 144 (the most offsets the row pass takes
    before the lower envelope), each with its ``edge_is_false`` flag."""
    rng = np.random.default_rng(46)
    yy, xx = np.mgrid[0:260, 0:300]
    # a small domain under fill-exceed: false pixels only inside a disk
    disk = (yy - 30) ** 2 + (xx - 40) ** 2 < 12 ** 2
    yield ~(disk & (rng.random(disk.shape) < 0.3)), False
    # an edge-fallback slice: no false pixel, distance to the grid edge
    yield np.ones((300, 320), dtype=bool), True
    # a wide domain next to a strip of nodata, measured with the edge ring
    yield np.mgrid[0:320, 0:330][1] < 320, True
    # false pixels scattered over the left quarter only, with ties
    scattered = np.ones((260, 300), dtype=bool)
    scattered[rng.integers(0, 260, 40), rng.integers(0, 75, 40)] = False
    scattered[::37, 10] = False
    yield scattered, False


def test_long_ranges_take_the_lower_envelope_and_match_brute_force(monkeypatch):
    calls = []
    envelope = morphology._lower_envelope
    monkeypatch.setattr(morphology, "_lower_envelope",
                        lambda *args: calls.append(args[0].shape) or envelope(*args))
    for mask, edge in long_range_masks():
        expected = (brute_force_sq_by_row(np.pad(mask, 1))[1:-1, 1:-1] if edge
                    else brute_force_sq_by_row(mask))
        assert expected.max() > 144 ** 2
        n_calls = len(calls)
        d2 = distance_transform_squared(mask, edge_is_false=edge)
        assert d2.dtype == np.int64 and np.array_equal(d2, expected)
        assert len(calls) == n_calls + 1


def test_lower_envelope_matches_brute_force():
    # min over j of h[:, j] + (x - cols[j])^2, with ties, a single column,
    # skipped columns and some values far above the rest
    rng = np.random.default_rng(47)
    for _ in range(300):
        nx = int(rng.integers(1, 30))
        cols = np.sort(rng.choice(nx, size=int(rng.integers(1, nx + 1)), replace=False))
        h = rng.integers(0, int(rng.integers(1, 900)), size=(int(rng.integers(1, 7)), len(cols)))
        h[rng.random(h.shape) < 0.2] *= 50
        x = np.arange(nx)
        expected = (h[:, None, :] + (x[:, None] - cols[None, :]) ** 2).min(axis=2)
        got = morphology._lower_envelope(h, cols, nx)
        assert np.array_equal(got, expected)


@pytest.mark.parametrize("shape", [(1, 1), (1, 6), (6, 1), (2, 2), (5, 8)],
                         ids=lambda s: f"{s[0]}x{s[1]}")
def test_all_true_edge_is_false_matches_padded_brute_force(shape):
    mask = np.ones(shape, dtype=bool)
    padded = np.pad(mask, 1, constant_values=False)
    expected = brute_force_sq(padded)[1:-1, 1:-1]
    assert np.array_equal(distance_transform_squared(mask, edge_is_false=True), expected)


def test_dx_homogeneity():
    rng = np.random.default_rng(7)
    mask = rng.random((20, 24)) < 0.8
    mask[0, 0] = False
    r1 = distance_transform(mask, dx=1.0).r
    r8 = distance_transform(mask, dx=8.0).r
    assert np.array_equal(r8, 8.0 * r1)


def test_lipschitz_on_grid():
    rng = np.random.default_rng(8)
    mask = rng.random((16, 16)) < 0.7
    mask[3, 3] = False
    r = distance_transform(mask, dx=1.0).r
    # 1-Lipschitz along rows and columns and diagonals
    assert np.all(np.abs(np.diff(r, axis=0)) <= 1 + 1e-12)
    assert np.all(np.abs(np.diff(r, axis=1)) <= 1 + 1e-12)
    diag = r[1:, 1:] - r[:-1, :-1]
    assert np.all(np.abs(diag) <= np.sqrt(2) + 1e-12)


def test_all_true_requires_fallback():
    mask = np.ones((4, 4), dtype=bool)
    with pytest.raises(ValueError, match="edge_is_false"):
        distance_transform(mask)
    r = distance_transform(mask, edge_is_false=True).r
    assert r[0, 0] == 1.0
    assert r[1, 1] == 2.0


def test_erode_zero_is_identity():
    rng = np.random.default_rng(9)
    mask = rng.random((10, 12)) < 0.6
    assert np.array_equal(erode(mask, 0.0), mask)


def test_erode_disk_matches_structuring_element_sweep():
    mask = disk_mask(15, 7, 7, 5)
    for radius in (1.0, 2.0, 2.5):
        assert np.array_equal(erode(mask, radius), brute_erode(mask, radius))


def test_erode_random_masks_match_sweep():
    rng = np.random.default_rng(10)
    for _ in range(10):
        mask = rng.random((12, 14)) < 0.75
        radius = float(rng.uniform(0.5, 3.5))
        assert np.array_equal(erode(mask, radius), brute_erode(mask, radius))


def test_erode_domain_mask_past_inradius_is_empty():
    # a domain strictly inside the grid: erosion by more than its inradius empties it
    mask = np.zeros((12, 12), dtype=bool)
    mask[2:10, 2:10] = True
    inradius = distance_transform(mask, dx=1.0).r.max()
    assert erode(mask, inradius, dx=1.0).sum() == 0
    assert erode(mask, inradius - 1.0, dx=1.0).sum() > 0


def test_erode_count_identity():
    # #{distance > r} equals the erosion cardinality, exactly, for every r
    rng = np.random.default_rng(11)
    mask = rng.random((20, 20)) < 0.8
    mask[0, 0] = False
    r = distance_transform(mask, dx=1.0).r
    for radius in (0.5, 1.0, 1.5, 2.0, np.sqrt(2)):
        assert np.count_nonzero(r > radius) == erode(mask, radius).sum()


def test_erode_monotone_in_radius():
    rng = np.random.default_rng(13)
    mask = rng.random((18, 18)) < 0.85
    prev = erode(mask, 0.5)
    for radius in (1.0, 1.5, 2.5, 4.0):
        cur = erode(mask, radius)
        assert np.all(prev | ~cur)  # cur subset of prev
        prev = cur


def test_opening_is_anti_extensive():
    # a dilation is the erosion of the complement, complemented
    mask = disk_mask(15, 7, 7, 5)
    opened = ~erode(~erode(mask, 2.0), 2.0)
    assert np.all(mask | ~opened)


def test_negative_radius_rejected():
    mask = np.ones((3, 3), dtype=bool)
    with pytest.raises(ValueError):
        erode(mask, -1.0)
