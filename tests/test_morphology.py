import numpy as np
import pytest

from exrange import dilate, distance_transform, distance_transform_squared, erode


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


def test_duality_exact():
    rng = np.random.default_rng(12)
    for _ in range(10):
        mask = rng.random((15, 17)) < rng.uniform(0.2, 0.8)
        radius = float(rng.uniform(0.0, 4.0))
        assert np.array_equal(
            erode(mask, radius), ~dilate(~mask, radius)
        )


def test_erode_monotone_in_radius():
    rng = np.random.default_rng(13)
    mask = rng.random((18, 18)) < 0.85
    prev = erode(mask, 0.5)
    for radius in (1.0, 1.5, 2.5, 4.0):
        cur = erode(mask, radius)
        assert np.all(prev | ~cur)  # cur subset of prev
        prev = cur


def test_opening_is_anti_extensive():
    mask = disk_mask(15, 7, 7, 5)
    opened = dilate(erode(mask, 2.0), 2.0)
    assert np.all(mask | ~opened)


def test_dilate_single_pixel_gives_disk():
    mask = np.zeros((11, 11), dtype=bool)
    mask[5, 5] = True
    out = dilate(mask, 3.0)
    assert np.array_equal(out, disk_mask(11, 5, 5, 3))


def test_dilate_empty_is_empty():
    mask = np.zeros((6, 6), dtype=bool)
    assert not dilate(mask, 2.0).any()


def test_negative_radius_rejected():
    mask = np.ones((3, 3), dtype=bool)
    with pytest.raises(ValueError):
        erode(mask, -1.0)
    with pytest.raises(ValueError):
        dilate(mask, -0.5)
