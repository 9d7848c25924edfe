"""Extremal-range fields, their empirical CDF, pooled and per-pixel
medians, the pairwise tail-dependence coefficient, and the closed-form
Gaussian small-radius approximation.

The range value of an exceedance pixel is the distance to the nearest
non-exceedance pixel center, so the estimator, the eroded-area identity
and the erosion routine all agree pixel for pixel. CDF counts are
restricted to the eroded domain T_{-r}, so a pixel only contributes at
radii for which the whole disk around it stays inside the domain.

A pixel's range is positive exactly where its slice exceeds the threshold
and 0 elsewhere, so a level's ranges are kept as its exceedances only: a
``RangeEntries`` holds the flat (slice, row, column) index of every positive
range, ascending, and its value. ``range_entries`` builds it, and ``ecdf``,
``median_range`` and ``median_range_map`` read it. They also accept a dense
(nt, ny, nx) array or a sequence of ``RangeField``, converted once. An entry
takes 16 bytes (int64 index, float64 value) where a dense float64 array takes
8 per pixel-slice, so entries are the smaller while fewer than half of the
pixel-slices exceed: at every level p > 0.5.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .morphology import RangeField, distance_transform, distance_transform_squared
from .raster import DomainMask, RasterStack
from .thresholds import (BoundaryPolicy, ExcursionMask, ThresholdField, exceedance_stack,
                         quantile_field)


@dataclass(frozen=True)
class CdfEstimate:
    """Empirical CDF of the extremal range on a radius grid.

    ``n_exceed[i]`` is the denominator count (exceedance pixel-days inside
    the eroded domain) behind ``F[i]``; ``r_max`` is the largest radius at
    which the eroded domain is nonempty.
    """

    radii: np.ndarray
    F: np.ndarray
    n_exceed: np.ndarray
    r_max: float

    def __post_init__(self):
        radii = np.asarray(self.radii, dtype=np.float64)
        F = np.asarray(self.F, dtype=np.float64)
        n_exceed = np.asarray(self.n_exceed, dtype=np.int64)
        if not (radii.shape == F.shape == n_exceed.shape):
            raise ValueError("radii, F and n_exceed must have matching shapes")
        if radii.size and np.any(np.diff(radii) <= 0):
            raise ValueError("radii must be strictly increasing")
        if np.any((F < 0) | (F > 1)):
            raise ValueError("F values must lie in [0,1]")
        object.__setattr__(self, "radii", radii)
        object.__setattr__(self, "F", F)
        object.__setattr__(self, "n_exceed", n_exceed)


def _domain_distance(domain: DomainMask, dx: float) -> np.ndarray:
    """Distance from each pixel center to the nearest center outside the
    domain, the region outside the grid counting as outside the domain.
    The squared distances are computed once per domain and kept on it."""
    d2 = domain._distance2
    if d2 is None:
        d2 = distance_transform_squared(domain.inside, edge_is_false=True)
        object.__setattr__(domain, "_distance2", d2)
    return dx * np.sqrt(d2.astype(np.float64))


def domain_inradius(domain: DomainMask, dx: float) -> float:
    """Largest radius r with a nonempty eroded domain T_{-r}.

    The region outside the grid counts as outside the domain, matching a
    compact study domain embedded in the plane.
    """
    return float(_domain_distance(domain, dx).max())


def eroded_domain(domain: DomainMask, radius: float, dx: float) -> np.ndarray:
    """Pixels of T_{-r}: centers strictly farther than r from the domain
    complement (grid exterior included)."""
    if radius < 0:
        raise ValueError(f"radius must be non-negative, got {radius}")
    return _domain_distance(domain, dx) > radius


def range_field(mask: ExcursionMask, domain: DomainMask, dx: float,
                edge_fallback: bool = False) -> RangeField:
    """Distance from each pixel to the nearest non-exceedance pixel.

    The stored mask already encodes the boundary policy (outside-domain
    pixels appear as exceedances under FILL_EXCEED and as non-exceedances
    under ERODE), so one transform serves both. A mask with no
    non-exceedance pixel anywhere has undefined distances unless
    ``edge_fallback`` caps them at the grid edge.
    """
    exceed = mask.exceed
    if exceed.shape != domain.inside.shape:
        raise ValueError(f"mask shape {exceed.shape} != domain shape {domain.inside.shape}")
    if exceed.all() and not edge_fallback:
        raise ValueError(
            "mask has no non-exceedance pixel; pass edge_fallback=True to "
            "measure distances to the grid edge"
        )
    return distance_transform(exceed, dx=dx, edge_is_false=exceed.all())


def _pmap(fn, items, n_threads: int) -> list:
    """``[fn(x) for x in items]`` on up to ``n_threads`` threads. Each worker
    takes one contiguous run of items: one task per item costs more than a
    small range field."""
    items = list(items)
    n_workers = min(n_threads, len(items))
    if n_workers <= 1:
        return [fn(x) for x in items]
    bounds = [len(items) * k // n_workers for k in range(n_workers + 1)]
    runs = [items[a:b] for a, b in zip(bounds, bounds[1:])]
    with ThreadPoolExecutor(max_workers=n_workers) as ex:
        return [r for run in ex.map(lambda run: [fn(x) for x in run], runs) for r in run]


@dataclass(frozen=True)
class RangeEntries:
    """The positive extremal ranges of one level of an (nt, ny, nx) stack.

    ``index`` holds the flat positions t*ny*nx + iy*nx + ix of the positive
    ranges, ascending, and ``value`` their ranges; every other pixel-slice
    has range 0. Under FILL_EXCEED the out-of-domain pixels are exceedances
    with positive ranges, and they are kept like any other.
    """

    index: np.ndarray      # (n,) int64, ascending
    value: np.ndarray      # (n,) float64, positive
    shape: tuple[int, int, int]

    def __post_init__(self):
        shape = tuple(int(n) for n in self.shape)
        if len(shape) != 3 or shape[0] < 1:
            raise ValueError(f"need an (nt, ny, nx) shape with nt >= 1, got {shape}")
        if self.index.ndim != 1 or self.index.shape != self.value.shape:
            raise ValueError("index and value must be 1-d arrays of one length")
        object.__setattr__(self, "shape", shape)


def _slice_bounds(index: np.ndarray, shape: tuple[int, int, int]) -> np.ndarray:
    """Where each slice's entries start in an ascending flat ``index``, and
    where the last one's end: slice t owns index[bounds[t]:bounds[t + 1]]."""
    nt, ny, nx = shape
    return np.searchsorted(index, np.arange(nt + 1) * (ny * nx))


def range_entries(stack: RasterStack, thr: ThresholdField, policy: BoundaryPolicy | str,
                  n_threads: int = 1) -> RangeEntries:
    """The positive ranges of every slice at one threshold: slice t's are
    those of ``range_field`` of slice t's excursion mask under ``policy``,
    with ``edge_fallback``.

    A pixel's range is positive exactly where its mask is True, so the
    entries are the exceedances, found by one comparison over the stack
    before any transform. Up to ``n_threads`` workers each take the range
    fields of their own slices and copy the exceedances' ranges into their
    own part of the preallocated values.
    """
    policy = BoundaryPolicy(policy)
    exceed = exceedance_stack(stack, thr, policy)
    domain = stack.domain()
    index = np.flatnonzero(exceed)
    value = np.empty(index.size)
    bounds = _slice_bounds(index, exceed.shape)
    npix = stack.ny * stack.nx

    def fill(t: int) -> None:
        mask = ExcursionMask(exceed=exceed[t], policy=policy, p=thr.p, t_index=t)
        r = range_field(mask, domain, stack.dx, edge_fallback=True).r
        a, b = bounds[t], bounds[t + 1]
        np.take(r, index[a:b] - t * npix, out=value[a:b])

    _pmap(fill, range(stack.nt), n_threads)
    return RangeEntries(index=index, value=value, shape=exceed.shape)


def _slice_maps(entries: RangeEntries, dtype) -> Iterator[np.ndarray]:
    """Each slice's (ny, nx) ranges in turn, as ``dtype``: the slice's
    entries scattered into a zeroed map."""
    nt, ny, nx = entries.shape
    bounds = _slice_bounds(entries.index, entries.shape)
    for t in range(nt):
        r = np.zeros(ny * nx, dtype=dtype)
        a, b = bounds[t], bounds[t + 1]
        r[entries.index[a:b] - t * ny * nx] = entries.value[a:b]
        yield r.reshape(ny, nx)


def _as_entries(ranges) -> RangeEntries:
    """A level's ranges as ``RangeEntries``: entries are taken as they are,
    and the positive cells of a dense (nt, ny, nx) array, or of a sequence
    of ``RangeField`` stacked once, become entries."""
    if isinstance(ranges, RangeEntries):
        return ranges
    if not isinstance(ranges, np.ndarray):
        ranges = [rf.r for rf in ranges]
        if not ranges:
            raise ValueError("need at least one range field")
        ranges = np.stack(ranges)
    cube = np.asarray(ranges, dtype=np.float64)
    if cube.ndim != 3 or cube.shape[0] == 0:
        raise ValueError(f"need an (nt, ny, nx) range array with nt >= 1, got {cube.shape}")
    index = np.flatnonzero(cube)
    value = cube.reshape(-1)[index]
    positive = value > 0
    if not positive.all():
        index, value = index[positive], value[positive]
    return RangeEntries(index=index, value=value, shape=cube.shape)


def _entry_pixels(entries: RangeEntries, domain: DomainMask) -> np.ndarray:
    """The flat pixel iy*nx + ix of each entry, on ``domain``'s grid, in the
    narrowest unsigned dtype: numpy's stable sort radix-sorts 8- and 16-bit
    keys, and a 16-bit pixel takes a quarter of an int64."""
    if entries.shape[1:] != domain.inside.shape:
        raise ValueError("range field does not match the domain grid")
    npix = domain.inside.size
    pixel = np.empty(entries.index.size, np.min_scalar_type(npix - 1))
    return np.remainder(entries.index, npix, out=pixel, casting="unsafe")


def _domain_values(ranges, domain: DomainMask) -> np.ndarray:
    """A level's positive ranges at domain pixels, in entry order."""
    entries = _as_entries(ranges)
    return entries.value[domain.inside.reshape(-1)[_entry_pixels(entries, domain)]]


def ecdf(range_fields, domain: DomainMask, radii, dx: float) -> CdfEstimate:
    """Pooled empirical CDF of the extremal range over many slices.

    F(r) = sum_i #{t in T_{-r} : 0 < R_i(t) <= r} / sum_i #{t in T_{-r} :
    R_i(t) > 0}, with F(r) = 0 where the denominator vanishes. Radii must
    lie strictly inside (0, r_max). ``range_fields`` is a level's
    ``RangeEntries``, (nt, ny, nx) range array or sequence of ``RangeField``.
    """
    radii = np.asarray(radii, dtype=np.float64)
    if radii.size == 0:
        raise ValueError("need at least one radius")
    if np.any(np.diff(radii) <= 0):
        raise ValueError("radii must be strictly increasing")
    domain_dist = _domain_distance(domain, dx)
    r_max = float(domain_dist.max())
    if radii[0] <= 0:
        raise ValueError(f"radii must be positive, got {radii[0]}")
    if radii[-1] >= r_max:
        raise ValueError(f"radius {radii[-1]} is not below the domain inradius {r_max}")
    entries = _as_entries(range_fields)
    values = entries.value
    # the domain distance of each positive observation's pixel: it lies in
    # T_{-r} iff that distance exceeds r
    dist = domain_dist.reshape(-1)[_entry_pixels(entries, domain)]
    den = np.array([np.count_nonzero(dist > r) for r in radii], dtype=np.int64)
    num = np.array([np.count_nonzero((dist > r) & (values <= r)) for r in radii],
                   dtype=np.int64)
    with np.errstate(invalid="ignore"):
        F = np.where(den > 0, num / np.maximum(den, 1), 0.0)
    return CdfEstimate(radii=radii, F=F, n_exceed=den, r_max=r_max)


def _median_lower(sorted_values: np.ndarray) -> float:
    """Empirical median, lower midpoint endpoint for even counts."""
    k = sorted_values.size
    if k == 0:
        return 0.0
    if k % 2 == 1:
        return float(sorted_values[k // 2])
    return float(sorted_values[k // 2 - 1])


def median_range(range_fields, domain: DomainMask) -> float:
    """Pooled median of the positive range values of domain pixels across
    slices; 0 when there is no positive observation at all."""
    return _median_lower(np.sort(_domain_values(range_fields, domain)))


def median_range_map(range_fields, domain: DomainMask) -> np.ndarray:
    """Per-pixel lower median of the positive range values of domain
    pixels; 0 where a pixel has none, and outside the domain.

    Only the in-domain entries are sorted, by (pixel, value), and the
    per-pixel counts place pixel i's lower median at
    start_i + (count_i - 1) // 2 of that order.
    """
    entries = _as_entries(range_fields)
    npix = domain.inside.size
    pixel = _entry_pixels(entries, domain)
    values = entries.value
    del entries  # the index of entries converted here is not needed again
    keep = domain.inside.reshape(-1)[pixel]
    if not keep.all():
        values, pixel = values[keep], pixel[keep]
    del keep
    counts = np.bincount(pixel, minlength=npix)
    order = np.lexsort((values, pixel))
    del pixel
    has = counts > 0
    lower_median = (np.cumsum(counts) - counts + (counts - 1) // 2)[has]
    med = np.zeros(npix)
    med[has] = values[order[lower_median]]
    return med.reshape(domain.inside.shape)


def tail_dependence(stack: RasterStack, p: float, lag: tuple[int, int],
                    per_pixel: bool = False):
    """Tail-dependence coefficient at one pixel lag.

    chi_p = #{days and pairs with both pixels exceeding} / #{days and
    pairs with the reference pixel exceeding}. By default every in-domain
    pair at the given (row, column) offset is pooled (stationarity
    assumed), and chi_p is NaN when no pair has an exceeding reference
    pixel (0/0); with ``per_pixel`` the ratio is computed per reference
    pixel over time only, returning a map with NaN where the pair leaves
    the domain or the reference pixel never exceeds.
    """
    exceed = exceedance_stack(stack, quantile_field(stack, p), BoundaryPolicy.ERODE)
    return _tail_dependence(exceed, stack.domain().inside, lag, per_pixel)


def _tail_dependence(exceed: np.ndarray, inside: np.ndarray, lag: tuple[int, int],
                     per_pixel: bool = False):
    """``tail_dependence`` from one level's in-domain exceedances, the
    (nt, ny, nx) ``exceedance_stack`` under ERODE, which every lag of the
    level can share."""
    dy, dxp = int(lag[0]), int(lag[1])
    ny, nx = inside.shape
    if abs(dy) >= ny or abs(dxp) >= nx:
        raise ValueError(f"lag {lag} exceeds the grid size")
    ref_rows = slice(max(0, -dy), ny - max(0, dy))
    ref_cols = slice(max(0, -dxp), nx - max(0, dxp))
    oth_rows = slice(max(0, dy), ny - max(0, -dy))
    oth_cols = slice(max(0, dxp), nx - max(0, -dxp))
    pair_ok = inside[ref_rows, ref_cols] & inside[oth_rows, oth_cols]
    ref = exceed[:, ref_rows, ref_cols] & pair_ok[None]
    oth = exceed[:, oth_rows, oth_cols] & pair_ok[None]
    if per_pixel:
        n_ref = ref.sum(axis=0)
        joint = (ref & oth).sum(axis=0)
        with np.errstate(invalid="ignore"):
            chi = np.where(n_ref > 0, joint / np.maximum(n_ref, 1), np.nan)
        chi[~pair_ok] = np.nan
        out = np.full((ny, nx), np.nan)
        out[ref_rows, ref_cols] = chi
        return out
    n_ref = int(np.count_nonzero(ref))
    return int(np.count_nonzero(ref & oth)) / n_ref if n_ref else math.nan


def gaussian_cdf_approx(alpha: float, u: float, r: float) -> float:
    """Closed-form small-radius CDF approximation sqrt(pi*alpha/2)*u*r for
    smooth Gaussian fields, clipped at 1."""
    if alpha <= 0 or u <= 0:
        raise ValueError(f"alpha and u must be positive, got alpha={alpha}, u={u}")
    if r < 0:
        raise ValueError(f"r must be non-negative, got {r}")
    return min(math.sqrt(math.pi * alpha / 2.0) * u * r, 1.0)
