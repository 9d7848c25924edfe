"""Extremal-range fields, their empirical CDF, pooled and per-pixel
medians, the pairwise tail-dependence coefficient, and the closed-form
Gaussian small-radius approximation.

The range value of an exceedance pixel is the distance to the nearest
non-exceedance pixel center, so the estimator, the eroded-area identity
and the erosion routine all agree pixel for pixel. CDF counts are
restricted to the eroded domain T_{-r}, so a pixel only contributes at
radii for which the whole disk around it stays inside the domain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .morphology import RangeField, distance_transform, distance_transform_squared
from .raster import DomainMask, RasterStack
from .thresholds import ExcursionMask, quantile_field


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
    domain, the region outside the grid counting as outside the domain."""
    d2 = distance_transform_squared(domain.inside, edge_is_false=True)
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
    field = distance_transform(exceed, dx=dx, edge_is_false=exceed.all())
    return RangeField(r=field.r, dx=dx, p=mask.p, t_index=mask.t_index,
                      policy=mask.policy.value)


def ecdf(range_fields, domain: DomainMask, radii, dx: float) -> CdfEstimate:
    """Pooled empirical CDF of the extremal range over many slices.

    F(r) = sum_i #{t in T_{-r} : 0 < R_i(t) <= r} / sum_i #{t in T_{-r} :
    R_i(t) > 0}, with F(r) = 0 where the denominator vanishes. Radii must
    lie strictly inside (0, r_max).
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
    t_eroded = [domain_dist > r for r in radii]
    num = np.zeros(radii.size, dtype=np.int64)
    den = np.zeros(radii.size, dtype=np.int64)
    n_fields = 0
    for rf in range_fields:
        rr = rf.r
        if rr.shape != domain.inside.shape:
            raise ValueError("range field does not match the domain grid")
        pos = rr > 0
        for j, r in enumerate(radii):
            sel = t_eroded[j] & pos
            den[j] += np.count_nonzero(sel)
            num[j] += np.count_nonzero(sel & (rr <= r))
        n_fields += 1
    if n_fields == 0:
        raise ValueError("need at least one range field")
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


def median_range(range_fields, domain: DomainMask | None = None) -> float:
    """Pooled median of the positive range values across fields and pixels.

    Returns 0 when there is no positive observation at all.
    """
    chunks = []
    for rf in range_fields:
        rr = rf.r
        if domain is not None:
            rr = rr[domain.inside]
        rr = rr[rr > 0]
        if rr.size:
            chunks.append(rr)
    if not chunks:
        return 0.0
    return _median_lower(np.sort(np.concatenate(chunks)))


def median_range_map(range_fields, domain: DomainMask) -> np.ndarray:
    """Per-pixel median of positive range values; 0 where none exist."""
    fields = list(range_fields)
    if not fields:
        raise ValueError("need at least one range field")
    cube = np.stack([rf.r for rf in fields])
    nt = cube.shape[0]
    flat = cube.reshape(nt, -1)
    flat = np.sort(flat, axis=0)
    counts = (flat > 0).sum(axis=0)
    first_pos = nt - counts
    med_idx = np.where(
        counts == 0, 0, first_pos + np.where(counts % 2 == 1, counts // 2, counts // 2 - 1)
    )
    med = flat[med_idx, np.arange(flat.shape[1])]
    med = np.where(counts == 0, 0.0, med).reshape(cube.shape[1:])
    med[~domain.inside] = 0.0
    return med


def tail_dependence(stack: RasterStack, p: float, lag: tuple[int, int],
                    per_pixel: bool = False):
    """Tail-dependence coefficient at one pixel lag.

    chi_p = #{days and pairs with both pixels exceeding} / #{days and
    pairs with the reference pixel exceeding}. By default every in-domain
    pair at the given (row, column) offset is pooled (stationarity
    assumed); with ``per_pixel`` the ratio is computed per reference pixel
    over time only, returning a map with NaN where the pair leaves the
    domain.
    """
    thr = quantile_field(stack, p)
    dy, dxp = int(lag[0]), int(lag[1])
    ny, nx = stack.ny, stack.nx
    if abs(dy) >= ny or abs(dxp) >= nx:
        raise ValueError(f"lag {lag} exceeds the grid size")
    with np.errstate(invalid="ignore"):
        exceed = stack.values > thr.u[None, :, :]
    inside = stack.domain().inside
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
    if n_ref == 0:
        raise ValueError(f"no reference exceedances at p={p}")
    return int(np.count_nonzero(ref & oth)) / n_ref


def gaussian_cdf_approx(alpha: float, u: float, r: float) -> float:
    """Closed-form small-radius CDF approximation sqrt(pi*alpha/2)*u*r for
    smooth Gaussian fields, clipped at 1."""
    if alpha <= 0 or u <= 0:
        raise ValueError(f"alpha and u must be positive, got alpha={alpha}, u={u}")
    if r < 0:
        raise ValueError(f"r must be non-negative, got {r}")
    return min(math.sqrt(math.pi * alpha / 2.0) * u * r, 1.0)
