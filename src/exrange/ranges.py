"""Extremal-range fields, their empirical CDF, pooled and per-pixel
medians, and the pairwise tail-dependence coefficient.

The range value of an exceedance pixel is the distance to the nearest
non-exceedance pixel center, so the estimator, the eroded-area identity
and the erosion routine all agree pixel for pixel. CDF counts are
restricted to the eroded domain T_{-r}, so a pixel only contributes at
radii for which the whole disk around it stays inside the domain.

A range field is positive exactly at the domain pixels where its slice
exceeds the threshold, and 0 elsewhere, so a level's ranges are kept as
its in-domain exceedances: a ``RangeEntries`` holds, slice after slice,
the flat pixel iy*nx + ix of each in-domain positive range, ascending, its
value, and where each slice's run starts. ``range_entries``
builds it, and ``ecdf``, ``median_range`` and ``median_range_map`` read it.
They also accept a sequence of ``RangeField``, one per slice, converted
once. An entry takes 2 bytes for its pixel (4 on grids of more
than 65,536 pixels, 1 on grids of at most 256) plus 8 for its float64
value, at domain exceedances only, where a dense float64 array takes 8 per
pixel-slice.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .morphology import RangeField, distance_transform
from .raster import DomainMask, RasterStack
from .thresholds import BoundaryPolicy, ExcursionMask, ThresholdField, exceedance_stack


@dataclass(frozen=True)
class CdfEstimate:
    """Empirical CDF of the extremal range on a radius grid.

    ``n_exceed[i]`` is the denominator count (exceedance pixel-days inside
    the eroded domain) behind ``F[i]``. Nothing is checked here: ``ecdf``
    takes the radii from ``check_radii``, and F = num / max(den, 1), num <= den.
    """

    radii: np.ndarray
    F: np.ndarray
    n_exceed: np.ndarray


def domain_distance(domain: DomainMask, dx: float) -> np.ndarray:
    """Distance from each pixel center to the nearest center outside the
    domain, the region outside the grid counting as outside the domain, as
    for a compact study domain embedded in the plane. The eroded domain
    T_{-r} is where it exceeds r, and its maximum, the domain inradius, is
    the largest r with a nonempty T_{-r}. The squared distances are
    computed once per domain and kept on it."""
    return dx * np.sqrt(domain.distance2.astype(np.float64))


def range_field(mask: ExcursionMask, domain: DomainMask, dx: float,
                edge_fallback: bool = False) -> RangeField:
    """Distance from each domain pixel to the nearest non-exceedance pixel;
    0 outside the domain.

    The stored mask already encodes the boundary policy (outside-domain
    pixels appear as exceedances under FILL_EXCEED and as non-exceedances
    under ERODE), so one transform serves both. A mask with no
    non-exceedance pixel anywhere has undefined distances unless
    ``edge_fallback`` caps them at the grid edge.
    """
    exceed = mask.exceed
    if exceed.shape != domain.inside.shape:
        raise ValueError(f"mask shape {exceed.shape} != domain shape {domain.inside.shape}")
    everywhere = exceed.all()
    if everywhere and not edge_fallback:
        raise ValueError(
            "mask has no non-exceedance pixel; pass edge_fallback=True to "
            "measure distances to the grid edge"
        )
    return distance_transform(exceed, dx=dx, edge_is_false=everywhere, targets=domain.inside)


def _pmap(fn, items, n_threads: int) -> None:
    """``fn(run)`` on each of up to ``n_threads`` contiguous runs of the
    sequence ``items``, a worker-thread task per run, or ``fn(items)`` on the
    calling thread for one worker: a task per item costs more than a small
    range field."""
    n_workers = min(n_threads, len(items))
    if n_workers <= 1:
        fn(items)
        return
    bounds = [len(items) * k // n_workers for k in range(n_workers + 1)]
    with ThreadPoolExecutor(max_workers=n_workers) as ex:
        for _ in ex.map(fn, [items[a:b] for a, b in zip(bounds, bounds[1:])]):
            pass   # each result is None; taking it raises the run's exception


@dataclass(frozen=True)
class RangeEntries:
    """The positive extremal ranges at the domain pixels of one level of an
    (nt, ny, nx) stack.

    Slice t's entries are ``pixel[bounds[t]:bounds[t + 1]]``, the flat
    pixels iy*nx + ix of its positive ranges, ascending, and the same run of
    ``value``, their ranges; every other domain pixel-slice has range 0.
    ``pixel`` takes the narrowest unsigned dtype: numpy's stable sort
    radix-sorts 8- and 16-bit keys, and a 16-bit pixel takes a quarter of
    an int64. Nothing is checked here: ``_entries`` builds the arrays.
    """

    pixel: np.ndarray      # (n,) uint8/16/32/64, ascending within a slice
    value: np.ndarray      # (n,) float64, positive
    bounds: np.ndarray     # (nt + 1,) int64 offsets of the slices' runs
    shape: tuple[int, int, int]


def _entries(flat: np.ndarray, shape: tuple[int, int, int],
             value: np.ndarray | None = None) -> RangeEntries:
    """Entries at the ascending flat (slice, row, column) positions ``flat``
    with ranges ``value``, or with ranges yet to be written."""
    nt, ny, nx = shape
    npix = ny * nx
    pixel = np.empty(flat.size, np.min_scalar_type(npix - 1))
    np.remainder(flat, npix, out=pixel, casting="unsafe")
    return RangeEntries(pixel=pixel, value=np.empty(flat.size) if value is None else value,
                        bounds=np.searchsorted(flat, np.arange(nt + 1) * npix), shape=shape)


def range_entries(stack: RasterStack, thr: ThresholdField, policy: BoundaryPolicy | str,
                  n_threads: int = 1) -> RangeEntries:
    """The positive in-domain ranges of every slice at one threshold: slice
    t's are those of ``range_field`` of slice t's excursion mask under
    ``policy``, with ``edge_fallback``, at the domain pixels.

    A domain pixel's range is positive exactly where it exceeds, under
    either policy, so the entries are the in-domain exceedances, found by
    one comparison over the stack before any transform. Up to ``n_threads``
    workers each take the range fields of their own run of slices, filling
    the out-of-domain pixels by ``policy``, and copy the entries' ranges
    into their own part of the preallocated values.
    """
    policy = BoundaryPolicy(policy)
    exceed = exceedance_stack(stack, thr, BoundaryPolicy.ERODE)
    domain = stack.domain()
    entries = _entries(np.flatnonzero(exceed), exceed.shape)
    # the out-of-domain pixels that ``policy`` makes exceedances
    outside = ~domain.inside if policy is BoundaryPolicy.FILL_EXCEED else False

    def fill(run: range) -> None:
        for t in run:
            r = range_field(ExcursionMask(exceed[t] | outside), domain, stack.dx,
                            edge_fallback=True).r
            a, b = entries.bounds[t], entries.bounds[t + 1]
            np.take(r, entries.pixel[a:b], out=entries.value[a:b])

    _pmap(fill, range(stack.nt), n_threads)
    return entries


def _slice_maps(entries: RangeEntries, dtype) -> Iterator[np.ndarray]:
    """Each slice's (ny, nx) ranges in turn, as ``dtype``: the slice's
    entries scattered into a zeroed map, 0 outside the domain."""
    nt, ny, nx = entries.shape
    for t in range(nt):
        r = np.zeros(ny * nx, dtype=dtype)
        a, b = entries.bounds[t], entries.bounds[t + 1]
        r[entries.pixel[a:b]] = entries.value[a:b]
        yield r.reshape(ny, nx)


def _as_entries(ranges, domain: DomainMask) -> RangeEntries:
    """A level's ranges as ``RangeEntries`` on ``domain``: entries are taken
    as they are, and the positive domain cells of a sequence of
    ``RangeField``, stacked once, become entries."""
    if not isinstance(ranges, RangeEntries):
        ranges = [rf.r for rf in ranges]
        if not ranges:
            raise ValueError("need at least one range field")
        ranges = np.stack(ranges)
    if ranges.shape[1:] != domain.inside.shape:
        raise ValueError("range field does not match the domain grid")
    if isinstance(ranges, RangeEntries):
        return ranges
    flat = np.flatnonzero(ranges)  # holds the entries, and is smaller than a mask of the cube
    entries = _entries(flat, ranges.shape, ranges.reshape(-1)[flat])
    del flat
    keep = (entries.value > 0) & domain.inside.reshape(-1)[entries.pixel]
    if keep.all():
        return entries
    return RangeEntries(pixel=entries.pixel[keep], value=entries.value[keep],
                        bounds=np.r_[0, np.cumsum(keep)][entries.bounds], shape=entries.shape)


def check_radii(radii, r_max: float) -> np.ndarray:
    """``radii`` as float64 if they are finite, strictly increasing, positive
    and below the domain inradius ``r_max``, so each has a nonempty T_{-r}."""
    radii = np.asarray(radii, dtype=np.float64)
    if radii.size == 0:
        raise ValueError("need at least one radius")
    if not np.isfinite(radii).all():
        raise ValueError(f"radii must be finite, got {radii.tolist()}")
    if np.any(np.diff(radii) <= 0):
        raise ValueError("radii must be strictly increasing")
    if radii[0] <= 0:
        raise ValueError(f"radii must be positive, got {radii[0]}")
    if radii[-1] >= r_max:
        raise ValueError(f"radius {radii[-1]} is not below the domain inradius {r_max}")
    return radii


def ecdf(range_fields, domain: DomainMask, radii, dx: float) -> CdfEstimate:
    """Pooled empirical CDF of the extremal range over many slices.

    F(r) = sum_i #{t in T_{-r} : 0 < R_i(t) <= r} / sum_i #{t in T_{-r} :
    R_i(t) > 0}, with F(r) = 0 where the denominator vanishes; T_{-r} is
    where ``domain_distance`` exceeds r, and ``check_radii`` refuses radii
    outside (0, its maximum). ``range_fields`` is a level's
    ``RangeEntries`` or a sequence of ``RangeField``, one per slice.
    """
    domain_dist = domain_distance(domain, dx)
    radii = check_radii(radii, float(domain_dist.max()))
    entries = _as_entries(range_fields, domain)
    values = entries.value
    # the domain distance of each positive observation's pixel: it lies in
    # T_{-r} iff that distance exceeds r
    dist = domain_dist.reshape(-1)[entries.pixel]
    den = np.array([np.count_nonzero(dist > r) for r in radii], dtype=np.int64)
    num = np.array([np.count_nonzero((dist > r) & (values <= r)) for r in radii],
                   dtype=np.int64)
    # num <= den, so F is 0 where den is
    return CdfEstimate(radii=radii, F=num / np.maximum(den, 1), n_exceed=den)


def median_range(range_fields, domain: DomainMask) -> float:
    """Pooled lower median of the positive range values of domain pixels
    across slices; 0 when there is no positive observation at all."""
    values = np.sort(_as_entries(range_fields, domain).value)
    return float(values[(values.size - 1) // 2]) if values.size else 0.0


def median_range_map(range_fields, domain: DomainMask) -> np.ndarray:
    """Per-pixel lower median of the positive range values of domain
    pixels; 0 where a pixel has none, and outside the domain.

    The entries are sorted by (pixel, value), and the per-pixel counts place
    pixel i's lower median at start_i + (count_i - 1) // 2 of that order.
    """
    entries = _as_entries(range_fields, domain)
    values = entries.value
    counts = np.bincount(entries.pixel, minlength=domain.inside.size)
    order = np.lexsort((values, entries.pixel))
    del entries  # the pixels of entries converted here are not needed again
    has = counts > 0
    lower_median = (np.cumsum(counts) - counts + (counts - 1) // 2)[has]
    med = np.zeros(counts.size)
    med[has] = values[order[lower_median]]
    return med.reshape(domain.inside.shape)


def tail_dependence(exceed: np.ndarray, inside: np.ndarray, lag: tuple[int, int],
                    per_pixel: bool = False):
    """Tail-dependence coefficient at one pixel lag, from one level's
    in-domain exceedances: the (nt, ny, nx) ``exceedance_stack`` under ERODE,
    which every lag of the level can share.

    Each in-domain pair at the (row, column) offset ``lag`` counts the
    slices where its reference pixel exceeds and those where both pixels
    do. chi_p is the ratio of the two counts summed over every pair
    (stationarity assumed), NaN when no pair has an exceeding reference
    pixel (0/0); with ``per_pixel`` it is their ratio at each reference
    pixel, a map with NaN where the pair leaves the domain or the reference
    pixel never exceeds.
    """
    dy, dxp = int(lag[0]), int(lag[1])
    ny, nx = inside.shape
    if abs(dy) >= ny or abs(dxp) >= nx:
        raise ValueError(f"lag {lag} exceeds the grid size")
    ref_rows = slice(max(0, -dy), ny - max(0, dy))
    ref_cols = slice(max(0, -dxp), nx - max(0, dxp))
    oth_rows = slice(max(0, dy), ny - max(0, -dy))
    oth_cols = slice(max(0, dxp), nx - max(0, -dxp))
    pair_ok = inside[ref_rows, ref_cols] & inside[oth_rows, oth_cols]
    ref = exceed[:, ref_rows, ref_cols] & pair_ok
    n_ref = np.count_nonzero(ref, axis=0)
    joint = np.count_nonzero(ref & exceed[:, oth_rows, oth_cols], axis=0)
    if not per_pixel:
        total = int(n_ref.sum())
        return int(joint.sum()) / total if total else math.nan
    out = np.full((ny, nx), np.nan)
    with np.errstate(invalid="ignore"):
        # 0/0, nan, where the reference pixel never exceeds or its pair leaves the domain
        out[ref_rows, ref_cols] = joint / n_ref
    return out
