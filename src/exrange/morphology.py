"""Exact Euclidean distance transforms and binary erosion/dilation.

Distances are measured between pixel centers: the distance value of a true
pixel is the exact Euclidean distance to the nearest false pixel center,
computed as the square root of an exactly-accumulated integer squared
distance. Erosion keeps a pixel iff its distance value strictly exceeds the
radius, so the cardinality identity

    #{distance > r} == #erode(mask, r)

holds exactly for every radius, which downstream CDF estimation relies on.

The transform is the feature transform of ``scipy.ndimage.distance_transform_edt``
(the linear-time algorithm of Maurer et al., 2003), which returns, for every
pixel, the indices (iy, ix) of a nearest false pixel. Its float distances
are not used: the squared distance is rebuilt in int64 from the indices,
(y - iy)^2 + (x - ix)^2. The feature transform's Voronoi tests combine
integer pixel coordinates only (products of order side^3, exact in float64
for sides up to about 10^5 pixels), so the returned feature is a true
nearest one. All nearest features of a pixel lie at the same squared
distance, so d^2 is the exact integer minimum whatever the tie-break
between equidistant features. Work is O(nx*ny).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class RangeField:
    """Distance, in physical units, from each pixel center to the nearest
    non-exceedance pixel center. Zero exactly on non-exceedance pixels."""

    r: np.ndarray          # (ny, nx) float64
    dx: float
    p: float | None = None
    t_index: int | None = None
    policy: str | None = None

    def __post_init__(self):
        r = np.asarray(self.r, dtype=np.float64)
        if r.ndim != 2:
            raise ValueError(f"range field must be 2-d, got shape {r.shape}")
        object.__setattr__(self, "r", r)


def distance_transform_squared(mask: np.ndarray, edge_is_false: bool = False) -> np.ndarray:
    """Exact integer squared pixel distance to the nearest False pixel.

    With ``edge_is_false`` the grid is treated as surrounded by a virtual
    ring of False pixels, so distances are additionally capped by the
    distance to just outside the grid. Without it, a mask containing no
    False pixel is an error (the distance is undefined).
    """
    mask = np.asarray(mask, dtype=bool)
    if mask.ndim != 2:
        raise ValueError(f"mask must be 2-d, got shape {mask.shape}")
    if edge_is_false:
        return distance_transform_squared(np.pad(mask, 1), edge_is_false=False)[1:-1, 1:-1]
    if mask.all():
        raise ValueError(
            "mask has no False pixel; distance is undefined "
            "(pass edge_is_false=True to measure distance to the grid edge)"
        )
    from scipy import ndimage  # here, not at start-up: ~70 ms and 1.5 MB other commands skip
    iy, ix = ndimage.distance_transform_edt(mask, return_distances=False,
                                            return_indices=True)
    yy = np.arange(mask.shape[0], dtype=np.int64)[:, None]
    xx = np.arange(mask.shape[1], dtype=np.int64)[None, :]
    return (yy - iy) ** 2 + (xx - ix) ** 2


def distance_transform(mask: np.ndarray, dx: float = 1.0,
                       edge_is_false: bool = False) -> RangeField:
    """Exact Euclidean distance transform in physical units (pixel centers)."""
    if not dx > 0:
        raise ValueError(f"dx must be positive, got {dx}")
    d2 = distance_transform_squared(mask, edge_is_false=edge_is_false)
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


def dilate(mask: np.ndarray, radius: float, dx: float = 1.0) -> np.ndarray:
    """Binary dilation by a disk, via complement-erode-complement duality."""
    if radius < 0:
        raise ValueError(f"radius must be non-negative, got {radius}")
    mask = np.asarray(mask, dtype=bool)
    return ~erode(~mask, radius, dx=dx)
