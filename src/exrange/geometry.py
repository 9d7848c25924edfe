"""Curvature densities of excursion sets: area fraction, half-perimeter
per unit area, and Euler characteristic per unit area.

The Euler characteristic treats the mask as a union of closed unit pixels
(8-connected foreground, 4-connected background) and evaluates
chi = V - E + F over that cell complex, which equals components minus
holes. The perimeter is the total length of the interpolated level curve
{X = u} from marching squares on the continuous field, which is free of
the 4/pi overestimation bias of boundary-edge counting. Saddle cells are
resolved by the sign of the cell-center average, deterministically.

A level's densities come from its (nt, ny, nx) stack in blocks of slices:
per block, one threshold comparison and marching squares over the block's
(slices, ny-1, nx-1) cells. The output bytes fix each slice's float sums:
for each table row, one numpy ``.sum()`` of the first segments of that
row's cells in the slice, in row-major order, and one of their second
segments (0.0 for a row of one segment); the two are added to each other
and then to the slice's length, from 0.0, in ``_CASE_TABLE`` order; the
slice densities are then added in slice order. A block's crossed cells are
sorted once, stably, by table row, so that each row's cells form one run
in (slice, row-major) order; each row's segments are measured on its run,
and every (table row, slice) group is summed by one zero-prefixed
``np.add.reduceat``, which gives each group the bits of its ``.sum()``, so
the blocks change no bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .raster import DomainMask, RasterStack
from .thresholds import BoundaryPolicy, ThresholdField, _exceedances

# pixel-slices of a level's stack that ``intrinsic_densities`` takes at a time
_SLICE_BLOCK = 1 << 18


@dataclass(frozen=True)
class IntrinsicDensities:
    """Estimated curvature densities of an excursion set.

    c0: Euler characteristic per unit area, c1: half boundary length per
    unit area, c2: area fraction. Averaged over the slices of a stack.
    Only finiteness is checked, which a NaN threshold in the domain breaks;
    c2 in [0, 1] and c1 >= 0 hold by construction.
    """

    c0: float
    c1: float
    c2: float

    def __post_init__(self):
        for name in ("c0", "c1", "c2"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} is not finite")


def euler_characteristic(mask: np.ndarray) -> int | np.ndarray:
    """chi = V - E + F of the union of closed pixels of each (ny, nx) mask.

    Equals (8-connected foreground components) - (4-connected holes). A 2-d
    mask gives an int; a (..., ny, nx) stack gives an int array over the
    leading axes.
    """
    mask = np.asarray(mask, dtype=bool)
    if mask.ndim < 2:
        raise ValueError(f"mask must be at least 2-d, got shape {mask.shape}")
    ny, nx = mask.shape[-2:]
    pad = np.zeros(mask.shape[:-2] + (ny + 2, nx + 2), dtype=bool)
    pad[..., 1:-1, 1:-1] = mask

    def count(a):
        return np.count_nonzero(a, axis=(-2, -1))

    faces = count(mask)
    # a lattice vertex exists if any of its 4 incident pixels is set
    vertices = count(pad[..., :-1, :-1] | pad[..., :-1, 1:] | pad[..., 1:, :-1] | pad[..., 1:, 1:])
    # a lattice edge exists if either pixel beside it is set (horizontal, vertical)
    edges = (count(pad[..., :-1, 1:-1] | pad[..., 1:, 1:-1])
             + count(pad[..., 1:-1, :-1] | pad[..., 1:-1, 1:]))
    chi = vertices - edges + faces
    return int(chi) if mask.ndim == 2 else chi


# Marching-squares case table. The case index is bit0*f00 + bit1*f01 +
# bit2*f11 + bit3*f10, where fab are the corners (row offset a, col offset
# b) and a corner is set iff field > threshold. Edges are named T (between
# 00 and 01), R (01 to 11), B (10 to 11), L (00 to 10). A row is (case,
# cell-center average > 0 or None for either sign, segments); the saddles
# 5 and 10 have a row per center sign. Rows are added to a slice's length
# in table order.
_CASE_TABLE = (
    (1, None, ("LT",)),
    (2, None, ("TR",)),
    (4, None, ("RB",)),
    (8, None, ("BL",)),
    (3, None, ("LR",)),
    (12, None, ("LR",)),
    (6, None, ("TB",)),
    (9, None, ("TB",)),
    (7, None, ("LB",)),
    (14, None, ("LT",)),
    (11, None, ("BR",)),
    (13, None, ("TR",)),
    (5, True, ("TR", "BL")),
    (5, False, ("LT", "RB")),
    (10, True, ("LT", "RB")),
    (10, False, ("TR", "BL")),
)
# table row of each key 2*case + (center > 0); cases 0 and 15 are never looked up
_ROW = np.array([next((r for r, (c, pos, _) in enumerate(_CASE_TABLE)
                       if c == key // 2 and pos in (None, key % 2 == 1)), 0)
                 for key in range(32)], dtype=np.uint8)


def _crossing(edge: str, f00, f01, f10, f11):
    """(x, y) in cell units, x along columns and y along rows, where the
    level curve crosses ``edge`` of cells with corner differences ``fab``.
    The curve crosses the edge, so one of its corners is > 0 and the other
    <= 0, and no denominator is 0."""
    if edge == "T":
        return f00 / (f00 - f01), 0.0
    if edge == "R":
        return 1.0, f01 / (f01 - f11)
    if edge == "B":
        return f10 / (f10 - f11), 1.0
    return 0.0, f00 / (f00 - f10)


def _curve_lengths(values: np.ndarray, u: np.ndarray, above: np.ndarray,
                   inside: np.ndarray) -> tuple[np.ndarray, int]:
    """Marching-squares length, in cell units, of {values[t] = u} in every
    slice t, and the number of cells per slice whose four corners are inside.

    ``values`` is (nt, ny, nx), ``u`` is (ny, nx) and ``above`` is
    ``values > u`` at least at the inside pixels. Corner differences are
    formed in float64 only for the cells the curve crosses.
    """
    valid = inside[:-1, :-1] & inside[:-1, 1:] & inside[1:, :-1] & inside[1:, 1:]
    a = above.view(np.uint8)
    case = a[:, :-1, :-1] + 2 * a[:, :-1, 1:] + 4 * a[:, 1:, 1:] + 8 * a[:, 1:, :-1]
    case *= valid
    case %= 15  # the uncrossed cases 0 and 15 both become 0, in place
    t, i, j = np.nonzero(case)
    lengths = np.zeros(values.shape[0])
    n_cells = int(np.count_nonzero(valid))
    if t.size == 0:
        return lengths, n_cells
    key = 2 * case[t, i, j]  # _ROW's key, before the center sign is added
    del case  # the cell block goes before the per-cell arrays come
    u = np.asarray(u, dtype=np.float64)
    f = [values[t, i + di, j + dj] - u[i + di, j + dj]
         for di, dj in ((0, 0), (0, 1), (1, 0), (1, 1))]
    row = _ROW[key + ((f[0] + f[1] + f[2] + f[3]) > 0)]
    del key, i, j
    # each table row's cells in one run, in (slice, row-major) order within it
    order = np.argsort(row, kind="stable")
    row, t = row[order], t[order]
    for k in range(4):
        f[k] = f[k][order]
    del order
    bounds = np.cumsum(np.bincount(row, minlength=len(_CASE_TABLE)))
    # the length of each cell's first and second segment; a one-segment row's
    # second is 0.0
    seg = np.zeros((2, t.size))
    for (_, _, segs), stop, start in zip(_CASE_TABLE, bounds, (0, *bounds)):
        if start == stop:
            continue
        for k, edges in enumerate(segs):
            (x1, y1), (x2, y2) = (_crossing(e, *(fk[start:stop] for fk in f)) for e in edges)
            ddx, ddy = x1 - x2, y1 - y2
            np.sqrt(ddx * ddx + ddy * ddy, out=seg[k, start:stop])
    del f
    # one group per (table row, slice)
    starts = np.flatnonzero(np.r_[True, (t[1:] != t[:-1]) | (row[1:] != row[:-1])])
    one, two = _run_sums(seg, starts)
    np.add.at(lengths, t[starts], one + two)  # each slice's groups added in table order
    return lengths, n_cells


def _run_sums(a: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """The ``.sum()`` of each run along the last axis of ``a`` that begins
    at one of the increasing ``starts`` (``starts[0]`` is 0) and ends at the
    next, bit for bit.

    One ``np.add.reduceat`` with a 0.0 put ahead of each run: a bare
    reduceat starts from the run's first element, which differs from
    ``.sum()`` in the last bit.
    """
    padded = np.insert(a, starts, 0.0, axis=-1)
    return np.add.reduceat(padded, starts + np.arange(starts.size), axis=-1)


def level_curve_length(field: np.ndarray, threshold: np.ndarray | float,
                       domain: DomainMask | None = None, dx: float = 1.0) -> tuple[float, int]:
    """Total marching-squares length of {field = threshold} and the number
    of cells evaluated.

    Only cells whose four corner pixels all lie inside the domain
    contribute, so segments of the domain boundary are never counted.
    """
    field = np.asarray(field, dtype=np.float64)
    if field.ndim != 2:
        raise ValueError(f"field must be 2-d, got shape {field.shape}")
    u = np.broadcast_to(np.asarray(threshold, dtype=np.float64), field.shape)
    inside = np.ones(field.shape, dtype=bool) if domain is None else domain.inside
    lengths, n_cells = _curve_lengths(field[None], u, (field > u)[None], inside)
    return float(lengths[0]) * dx, n_cells


def cdf_slope(c1: float, c2: float) -> float:
    """Predicted small-radius slope of the extremal-range CDF, 2*c1/c2."""
    if c2 <= 0:
        raise ValueError(f"c2 must be positive, got {c2}")
    return 2.0 * c1 / c2


def intrinsic_densities(stack: RasterStack, thr: ThresholdField) -> IntrinsicDensities:
    """Slice-averaged curvature densities of the in-domain excursion sets
    {X(t) > u} at one level.

    c1 is half the level-curve length per unit area of the cells whose four
    corners lie inside the domain.
    """
    domain = stack.domain()
    dx = stack.dx
    euler, area, lengths = (np.empty(stack.nt, dtype) for dtype in (np.int64, np.int64, float))
    # each slice's counts and length are its own, so blocks of slices bound
    # the transients without changing a bit
    step = max(1, _SLICE_BLOCK // stack.values[0].size)
    for t in range(0, stack.nt, step):
        part = slice(t, t + step)
        exceed = _exceedances(stack, part, thr, BoundaryPolicy.ERODE)
        euler[part] = euler_characteristic(exceed)
        area[part] = np.count_nonzero(exceed, axis=(1, 2))
        lengths[part], n_cells = _curve_lengths(stack.values[part], thr.u, exceed,
                                                domain.inside)
    if n_cells == 0:
        raise ValueError("domain has no interior 2x2 cell")
    c0 = euler / domain.area(dx)
    c2 = area / domain.n_pixels
    c1 = lengths * dx / (2.0 * n_cells * dx * dx)
    # each mean adds its slices left to right (a cumulative sum); the output
    # bytes depend on that order, which a pairwise or compensated sum changes
    c0, c1, c2 = (float(np.add.accumulate(c)[-1]) / stack.nt for c in (c0, c1, c2))
    return IntrinsicDensities(c0=c0, c1=c1, c2=c2)
