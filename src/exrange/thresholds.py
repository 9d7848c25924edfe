"""Per-pixel empirical quantile thresholds and excursion-mask extraction."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .raster import RasterStack


class BoundaryPolicy(str, enum.Enum):
    """How pixels outside the domain enter an excursion mask.

    ERODE marks them as non-exceedances, so distances get clipped at the
    domain boundary. FILL_EXCEED marks them as exceedances (the excursion
    set united with the domain complement), so distances are measured to
    the nearest in-domain non-exceedance.
    """

    ERODE = "erode"
    FILL_EXCEED = "fill-exceed"


def order_statistic_index(p: float, n: int) -> int:
    """Smallest k (1-based) with k/n >= p, i.e. the left-continuous
    inverse-ECDF order statistic. Robust to float roundoff in p*n."""
    k = int(math.ceil(p * n))
    k = min(max(k, 1), n)
    while k < n and k / n < p:
        k += 1
    while k > 1 and (k - 1) / n >= p:
        k -= 1
    return k


def distinct_order_statistics(levels, n: int) -> list[int]:
    """``order_statistic_index(p, n)`` of each p of ``levels``; ValueError when
    two levels share a k, as a fit would then count one threshold's exceedances twice."""
    ks = {}
    for p in levels:
        k = order_statistic_index(p, n)
        if k in ks:
            raise ValueError(f"levels {ks[k]} and {p} both select order statistic k = {k} of "
                             f"nt = {n}, so their thresholds are equal; a fit needs distinct k")
        ks[k] = p
    return list(ks)


@dataclass(frozen=True)
class ThresholdField:
    """Per-pixel threshold u_p(s): the empirical p-quantile of each pixel
    series. NaN outside the domain."""

    p: float
    u: np.ndarray  # (ny, nx) float32, NaN outside the domain

    def __post_init__(self):
        if not 0.0 < self.p < 1.0:
            raise ValueError(f"p must be in (0,1), got {self.p}")
        u = np.asarray(self.u, dtype=np.float32)
        if u.ndim != 2:
            raise ValueError(f"threshold grid must be 2-d, got shape {u.shape}")
        object.__setattr__(self, "u", u)


@dataclass(frozen=True)
class ExcursionMask:
    """Binary exceedance grid for one time slice; its out-of-domain pixels
    already hold the boundary policy that made it."""

    exceed: np.ndarray  # (ny, nx) bool

    def __post_init__(self):
        exceed = np.asarray(self.exceed, dtype=bool)
        if exceed.ndim != 2:
            raise ValueError(f"mask must be 2-d, got shape {exceed.shape}")
        object.__setattr__(self, "exceed", exceed)


# bytes of the stack that ``quantile_fields`` sorts at a time
_SORT_BLOCK = 1 << 20


def quantile_fields(stack: RasterStack, levels) -> list[ThresholdField]:
    """Pixelwise empirical p-quantile of the stack at each of ``levels``, in order.

    Uses the left-continuous inverse ECDF: the ceil(p*nt)-th order
    statistic of each pixel series, with no interpolation, so the
    threshold always equals one of the observed values. Every level is
    checked before one sort along time serves them all. The stack is
    sorted in blocks of about ``_SORT_BLOCK`` bytes of rows, so no sorted
    copy of the whole stack is made.
    """
    for p in levels:
        if not 0.0 < p < 1.0:
            raise ValueError(f"p must be in (0,1), got {p}")
    if stack.nt < 2:
        raise ValueError(f"need at least 2 time slices for a quantile, got nt={stack.nt}")
    ks = [order_statistic_index(p, stack.nt) - 1 for p in levels]
    u = np.empty((len(ks), stack.ny, stack.nx), dtype=stack.values.dtype)
    rows = max(1, _SORT_BLOCK // (stack.values[:, :1].nbytes))
    for r in range(0, stack.ny, rows):
        u[:, r:r + rows] = np.sort(stack.values[:, r:r + rows], axis=0)[ks]
    u[:, ~stack.domain().inside] = np.nan
    return [ThresholdField(p=p, u=u[i]) for i, p in enumerate(levels)]


def quantile_field(stack: RasterStack, p: float) -> ThresholdField:
    """Pixelwise empirical p-quantile of the stack: ``quantile_fields`` at one level."""
    return quantile_fields(stack, [p])[0]


def _exceedances(stack: RasterStack, slices, thr: ThresholdField,
                 policy: BoundaryPolicy) -> np.ndarray:
    """{X > u} on ``stack.values[slices]``, nodata pixels filled by ``policy``."""
    if thr.u.shape != (stack.ny, stack.nx):
        raise ValueError(
            f"threshold grid {thr.u.shape} does not match stack grid {(stack.ny, stack.nx)}"
        )
    inside = stack.domain().inside
    with np.errstate(invalid="ignore"):
        exceed = stack.values[slices] > thr.u
    if policy is BoundaryPolicy.FILL_EXCEED:
        exceed |= ~inside
    else:
        exceed &= inside
    return exceed


def excursion_mask(stack: RasterStack, t_index: int, thr: ThresholdField,
                   policy: BoundaryPolicy | str = BoundaryPolicy.FILL_EXCEED) -> ExcursionMask:
    """Strict-exceedance mask {X(t) > u} of one slice.

    A value exactly equal to the threshold is a non-exceedance. Nodata
    pixels are filled according to the boundary policy.
    """
    policy = BoundaryPolicy(policy)
    if not 0 <= t_index < stack.nt:
        raise ValueError(f"slice index {t_index} outside [0, {stack.nt})")
    return ExcursionMask(exceed=_exceedances(stack, t_index, thr, policy))


def exceedance_stack(stack: RasterStack, thr: ThresholdField,
                     policy: BoundaryPolicy | str) -> np.ndarray:
    """The excursion masks of every slice as one (nt, ny, nx) bool array:
    slice t is ``excursion_mask(stack, t, thr, policy).exceed``."""
    return _exceedances(stack, slice(None), thr, BoundaryPolicy(policy))
