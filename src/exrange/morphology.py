"""Exact Euclidean distance transforms and binary erosion.

Distances are measured between pixel centers: the distance value of a true
pixel is the exact Euclidean distance to the nearest false pixel center,
computed as the square root of an exactly-accumulated integer squared
distance. Erosion keeps a pixel iff its distance value strictly exceeds the
radius, so the cardinality identity

    #{distance > r} == #erode(mask, r)

holds exactly for every radius, which downstream CDF estimation relies on.

The squared transform is separable (Saito & Toriwaki, 1994; Meijster et
al., 2000): the squared distance to the nearest false pixel is

    d^2(y, x) = min over x' of  g(y, x')^2 + (x - x')^2,

where g(y, x') is the distance along column x' from row y to the nearest
false pixel of that column. The column pass finds g from running maxima
and minima of the false pixels' row indices, over the whole mask. The row
pass takes the minimum over offsets k = 1, 2, ... in place, on rows that
hold a true target pixel, and stops once k^2 reaches the largest value
still pending at a target, since no offset at or beyond it can lower any
value. Pixels that are not targets read 0 and never hold the row pass
open, though they still carry the column pass's values to their
neighbours. The work is O(N * D) for N pixels, where D is the largest
distance at a target. Every step adds, multiplies and compares integers,
so d^2 is exact, not rounded; the temporaries are int32 while no sum can
reach 2^31 (ny + nx below about 23,000) and int64 beyond.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class RangeField:
    """Distance, in physical units, from each pixel center to the nearest
    non-exceedance pixel center. Zero on non-exceedance pixels, and on the
    pixels the transform was not asked for (``range_field``: outside the
    domain)."""

    r: np.ndarray          # (ny, nx) float64
    dx: float

    def __post_init__(self):
        r = np.asarray(self.r, dtype=np.float64)
        if r.ndim != 2:
            raise ValueError(f"range field must be 2-d, got shape {r.shape}")
        object.__setattr__(self, "r", r)


def distance_transform_squared(mask: np.ndarray, edge_is_false: bool = False,
                               targets: np.ndarray | None = None) -> np.ndarray:
    """Exact int64 squared pixel distance to the nearest False pixel.

    With ``edge_is_false`` the grid is treated as surrounded by a virtual
    ring of False pixels, so distances are additionally capped by the
    distance to just outside the grid. Without it, a mask containing no
    False pixel is an error (the distance is undefined). With a bool
    ``targets`` grid, distances are computed at the True targets only and
    every other pixel reads 0; the whole mask still supplies the False
    pixels.
    """
    mask = np.asarray(mask, dtype=bool)
    if mask.ndim != 2:
        raise ValueError(f"mask must be 2-d, got shape {mask.shape}")
    if targets is not None:
        targets = np.asarray(targets, dtype=bool)
        if targets.shape != mask.shape:
            raise ValueError(f"targets shape {targets.shape} != mask shape {mask.shape}")
    if edge_is_false:
        padded_targets = None if targets is None else np.pad(targets, 1)
        return distance_transform_squared(np.pad(mask, 1), targets=padded_targets)[1:-1, 1:-1]
    if mask.all():
        raise ValueError(
            "mask has no False pixel; distance is undefined "
            "(pass edge_is_false=True to measure distance to the grid edge)"
        )
    d2 = np.zeros(mask.shape, dtype=np.int64)
    hit = mask if targets is None else mask & targets
    rows = hit.any(axis=1)
    if not rows.any():
        return d2
    ny, nx = mask.shape
    # a column with no False pixel gets a gap of at least ny + nx, which no
    # true distance reaches; every sum below stays under (2 (ny + nx))^2
    far = ny + nx
    dtype = np.int32 if (2 * far) ** 2 < 2 ** 31 else np.int64
    y = np.arange(ny, dtype=dtype)[:, None]
    above = np.maximum.accumulate(np.where(mask, -far, y), axis=0)
    below = np.minimum.accumulate(np.where(mask, ny + far, y)[::-1], axis=0)
    gap = np.minimum(y - above, below[::-1] - y)[rows]
    gap *= gap
    # each row padded by nx pixels of far^2 on both sides, so a shift by k
    # is a slice; best(x) ends as the min over |k| < nx of gap(x + k) + k^2
    padded = np.full((len(gap), 3 * nx), far * far, dtype=dtype)
    padded[:, nx:2 * nx] = gap
    best, shifted = gap, np.empty_like(gap)
    if targets is not None:
        best[~targets[rows]] = 0
    k = 1
    while k < nx and k * k < best.max():
        np.minimum(padded[:, nx - k:2 * nx - k], padded[:, nx + k:2 * nx + k], out=shifted)
        shifted += k * k
        np.minimum(best, shifted, out=best)
        k += 1
    d2[rows] = best
    return d2


def distance_transform(mask: np.ndarray, dx: float = 1.0, edge_is_false: bool = False,
                       targets: np.ndarray | None = None) -> RangeField:
    """Exact Euclidean distance transform in physical units (pixel centers),
    0 off ``targets`` when given."""
    if not dx > 0:
        raise ValueError(f"dx must be positive, got {dx}")
    d2 = distance_transform_squared(mask, edge_is_false=edge_is_false, targets=targets)
    return RangeField(r=dx * np.sqrt(d2.astype(np.float64)), dx=dx)


def erode(mask: np.ndarray, radius: float, dx: float = 1.0,
          edge_is_false: bool = False) -> np.ndarray:
    """Binary erosion by a disk of the given physical radius.

    A pixel survives iff every pixel center within the radius is true,
    equivalently iff its distance-transform value strictly exceeds the
    radius. An all-true mask erodes to itself (vacuously, no complement
    exists on the grid) unless ``edge_is_false`` caps distances at the
    grid edge.
    """
    if radius < 0:
        raise ValueError(f"radius must be non-negative, got {radius}")
    mask = np.asarray(mask, dtype=bool)
    if radius == 0 or (mask.all() and not edge_is_false):
        return mask.copy()
    return distance_transform(mask, dx=dx, edge_is_false=edge_is_false).r > radius
