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
and minima of the false pixels' row indices. The row pass first takes the
minimum over offsets k = 1, 2, ... in place, on rows that hold a true
pixel, and stops once k^2 reaches the largest value still pending, since
no offset at or beyond it can lower any value. That is cheap while ranges
are short, but costs O(N * largest distance) for N pixels. So when values
above (16 + 128)^2 are still pending after 16 offsets, the rows that hold
them take the lower envelope of the parabolas g(x')^2 + (x - x')^2 over
the columns that have a false pixel (Felzenszwalb & Huttenlocher, 2012),
one stack per row advanced in lock step, which is O(N + rows * columns).
One envelope costs about as much as 50 to 300 offsets on the same rows
(measured from 16x16 to 1024x1024), so the row pass never runs more than
144 offsets and the whole transform is O(N). Every step adds, multiplies and compares integers, so d^2 is exact,
not rounded; the offset temporaries are int32 while no sum can reach 2^31
(ny + nx below about 23,000) and int64 beyond, and the envelope is int64.
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

    def __post_init__(self):
        r = np.asarray(self.r, dtype=np.float64)
        if r.ndim != 2:
            raise ValueError(f"range field must be 2-d, got shape {r.shape}")
        object.__setattr__(self, "r", r)


# after this many offsets, pending values above (_SHORT_RUN + _ENVELOPE_COST)^2
# go to the lower envelope, which costs about _ENVELOPE_COST offsets
_SHORT_RUN = 16
_ENVELOPE_COST = 128


def distance_transform_squared(mask: np.ndarray, edge_is_false: bool = False) -> np.ndarray:
    """Exact int64 squared pixel distance to the nearest False pixel.

    With ``edge_is_false`` the grid is treated as surrounded by a virtual
    ring of False pixels, so distances are additionally capped by the
    distance to just outside the grid. Without it, a mask containing no
    False pixel is an error (the distance is undefined).
    """
    mask = np.asarray(mask, dtype=bool)
    if mask.ndim != 2:
        raise ValueError(f"mask must be 2-d, got shape {mask.shape}")
    if edge_is_false:
        return distance_transform_squared(np.pad(mask, 1))[1:-1, 1:-1]
    if mask.all():
        raise ValueError(
            "mask has no False pixel; distance is undefined "
            "(pass edge_is_false=True to measure distance to the grid edge)"
        )
    d2 = np.zeros(mask.shape, dtype=np.int64)
    rows = mask.any(axis=1)
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
    k = 1
    while k < nx and k * k < (pending := best.max()):
        if k == _SHORT_RUN and pending > (k + _ENVELOPE_COST) ** 2:
            slow = np.flatnonzero(best.max(axis=1) > k * k)
            cols = np.flatnonzero(~mask.all(axis=0))
            best[slow] = _lower_envelope(padded[np.ix_(slow, nx + cols)], cols, nx)
            break
        np.minimum(padded[:, nx - k:2 * nx - k], padded[:, nx + k:2 * nx + k], out=shifted)
        shifted += k * k
        np.minimum(best, shifted, out=best)
        k += 1
    d2[rows] = best
    return d2


def _lower_envelope(h: np.ndarray, cols: np.ndarray, nx: int) -> np.ndarray:
    """min over j of h[:, j] + (x - cols[j])^2 for x in range(nx), exactly, for
    every row of h; ``cols`` are increasing column indices.

    Each row keeps a stack of the parabolas on its lower envelope so far;
    parabola j pops the top b (below it a) while the two meet no later than
    b meets a, (F_j - F_b) / 2(c_j - c_b) <= (F_b - F_a) / 2(c_b - c_a) with
    F = h + c^2, compared cross-multiplied in int64. All rows take parabola
    j together, and only the rows that pop loop further. A stack is kept as
    a link to the entry below (``below``) plus which entries are still on
    it (``kept``), both (columns, rows) so each step writes one contiguous
    line.
    """
    m, s = h.shape
    c = cols.astype(np.int64)
    F = (h.astype(np.int64) + c * c).T.copy()
    below = np.empty((s, m), dtype=np.intp)
    kept = np.zeros((s, m), dtype=bool)
    below[0] = -1
    kept[0] = True
    # the entry under the top (the top itself is always the last pushed)
    a, fa, ca = np.full(m, -1, dtype=np.intp), np.zeros(m, np.int64), np.zeros(m, np.int64)
    for j in range(1, s):
        fj, cj, fb, cb = F[j], c[j], F[j - 1], c[j - 1]
        pops = (a >= 0) & ((fj - fb) * (cb - ca) <= (fb - fa) * (cj - cb))
        r = np.flatnonzero(pops)
        if r.size:
            kept[j - 1, r] = False
            t, ft, ct, fjr = a[r], fa[r], ca[r], fj[r]
            while r.size:
                u = below[t, r]
                fu, cu = F[u, r], c[u]
                more = (u >= 0) & ((fjr - ft) * (ct - cu) <= (ft - fu) * (cj - ct))
                done = ~more
                a[r[done]], fa[r[done]], ca[r[done]] = t[done], ft[done], ct[done]
                r = r[more]
                kept[t[more], r] = False
                t, ft, ct, fjr = u[more], fu[more], cu[more], fjr[more]
        np.copyto(a, j - 1, where=~pops)
        np.copyto(fa, fb, where=~pops)
        np.copyto(ca, cb, where=~pops)
        below[j] = a
        kept[j] = True
    # parabola i of a row owns the pixels from ceil of where it meets the
    # one below it up to where the one above it takes over
    row, j = np.nonzero(kept.T)
    f, cj = F[j, row], c[j]
    i = np.flatnonzero(row[1:] == row[:-1])
    start = np.zeros(len(j), dtype=np.int64)
    start[i + 1] = np.clip((f[i + 1] - f[i] - 1) // (2 * (cj[i + 1] - cj[i])) + 1, 0, nx)
    stop = np.full(len(j), nx, dtype=np.int64)
    stop[i] = start[i + 1]
    owner_c = np.repeat(cj, stop - start).reshape(m, nx)
    owner_h = np.repeat(f - cj * cj, stop - start).reshape(m, nx)
    return (np.arange(nx) - owner_c) ** 2 + owner_h


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
