"""Tail decay rate estimation and median-extremal-range regression.

The two-level estimator ``theta_hat`` turns a pair of pooled medians into
the local slope of log median against log(-log(1-p)). The regression
model

    log R = beta_s - theta_s * log(-log(1-p)) + error

is fitted either per pixel by exact least-absolute-deviation or jointly
over space with tensor-product cubic B-spline surfaces for both
coefficients, minimizing a median pinball loss smoothed quadratically
inside a kappa band plus a squared-difference roughness penalty on each
coefficient grid. The smoothing width is annealed over three equal-length
stages and each stage descends by reweighted penalized least squares with
a fixed iteration budget, so a fit is a pure function of its inputs. The
samples of one (level, pixel) cell share their covariate and their design
row kron(By[iy], Bx[ix]), so the reweighted normal equations follow from
two sums per cell, of w and w*y. By and Bx are dense, from a numpy Cox-de
Boor recursion, and the roughness penalty is a dense Kronecker product, so
the fit needs no scipy. The tests hold a sample-wise sparse design and the
objective and gradient written on it, as the reference the fit is checked
against.

The per-pixel LAD needs no optimizer either: some optimal line interpolates
two samples, so the fit is the best line through a sample pair (smallest
theta, then smallest beta, among ties). Scoring all O(n^2) pair lines
against n samples costs O(n^3), so ``fit_mer_pixel`` first brackets the
slope on the convex profiled objective, in small rounds over the sorted pair
slopes, then scores only the distinct pair lines inside the bracket with the
float expression of the full enumeration; its docstring says why the winner
is bit-identical whatever the round size. Which pairs have distinct
covariates, and their covariate differences, depend on the covariates only,
so this pair design is cached keyed by the covariate vector
(``_pair_design``). A pixel map's fits mostly share one vector: each
threshold is an order statistic of the pixel's series, so every domain pixel
exceeds a level's threshold in the same number of slices, each exceedance
is one positive range under either boundary policy, and the map takes each
pixel's samples in pooled (level, slice) order. Ties within a series or a
``min_range`` cut give a pixel other covariates, and then its design is
built anew. The map finds the pixels it can fit (enough samples, two
distinct levels) in one vectorized pass, calling ``fit_mer_pixel`` once per
fitted pixel.

The pooled samples of many levels exist in one copy, 12 bytes a sample (see
``exrange.samples``): a ``SamplePool`` made with every level is sized from
the levels and nt, and ``collect_samples`` writes each level into it. The fits
read each sample's (level, pixel) cell index as it is stored. The spline fit
adds the IRLS weights and, unless the cells are intp already, an intp copy of
them for its gathers and bincounts. Cross-validation gathers a fold's
training samples once, cells as intp and responses, and fits every penalty
on them.

Uncertainty comes from a delete-one-block jackknife that reruns the whole
estimation chain per block.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DegenerateFitError
from .ranges import _as_entries
from .raster import DomainMask, RasterStack
from .samples import RangeSamples, SamplePool, loglog_level

_PENALTY_GRID = (0.01, 0.1, 1.0, 10.0, 100.0)  # roughness penalties ``choose_penalty`` tries
_CV_FOLDS = 5
_MIN_PIXEL_SAMPLES = 3  # samples a pixel needs for its LAD fit


# A plain np.unique and np.median ask numpy.ma whether their input is masked,
# and in numpy 2.4 that imports numpy.ma: 35 ms and about 1.2 MB in a
# process that has no other use for it. These two take the same values
# without it.

def _distinct(values) -> np.ndarray:
    """``np.unique(values)``: the sorted distinct values."""
    return np.unique(values, return_counts=True)[0]


def _median(values: np.ndarray) -> float:
    """``np.median`` of a NaN-free 1-d array: the middle order statistic, or
    the mean of the middle two."""
    k = values.size // 2
    if values.size % 2:
        return float(np.partition(values, k)[k])
    part = np.partition(values, (k - 1, k))
    return float((part[k - 1] + part[k]) / 2)


def theta_hat(m1, m2, p1: float, p2: float):
    """Two-level tail decay rate from pooled medians m1 at p1 and m2 at p2.

    The medians are scalars, or arrays of one shape such as median range
    maps, and theta takes their shape. Where either median is 0 (no
    positive range observation) theta is 0 by convention.
    """
    x_diff = loglog_level(p1) - loglog_level(p2)
    if p1 == p2:
        raise ValueError("the two probability levels must differ")
    m1, m2 = (np.asarray(m, dtype=np.float64) for m in (m1, m2))
    both = (m1 != 0.0) & (m2 != 0.0)
    if (m1[both] < 0).any() or (m2[both] < 0).any():
        raise ValueError("medians must be non-negative")
    theta = np.zeros_like(m1)
    theta[both] = (np.log(m2[both]) - np.log(m1[both])) / x_diff
    return float(theta) if theta.ndim == 0 else theta


def collect_samples(range_fields_by_level: dict[float, Sequence],
                    domain: DomainMask,
                    blocks: Sequence[int] | None = None,
                    min_range: float = 0.0,
                    pool: SamplePool | None = None) -> RangeSamples:
    """Build regression samples from each level's ranges: ``RangeEntries``
    or a sequence of ``RangeField``, one per slice.

    Only strictly positive ranges inside the domain become samples, in
    (level, slice, row, column) order, and a positive ``min_range`` drops
    those with log range below log(min_range). ``blocks`` assigns a block id
    to each slice index (defaults to the slice index itself).

    The samples are written into ``pool``, made with these levels, after
    those already in it, and this call's samples, possibly none, are
    returned as views of the pool. Without a pool, one is sized to the
    positive ranges and its samples are returned: DegenerateFitError when
    there are none.
    """
    if pool is None:
        levels = {p: _as_entries(r, domain) for p, r in range_fields_by_level.items()}
        pool = SamplePool(sum(e.value.size for e in levels.values()), domain.inside.shape,
                          levels)
        pool.add(levels.items(), blocks, min_range)
        return pool.samples()
    return pool.add(((p, _as_entries(r, domain)) for p, r in range_fields_by_level.items()),
                    blocks, min_range)


# ---------------------------------------------------------------------------
# exact per-pixel least absolute deviation
# ---------------------------------------------------------------------------

def lad_objective(beta: float, theta: float, x: np.ndarray, y: np.ndarray) -> float:
    return float(np.abs(y - (beta - theta * x)).sum())


# Elements (lines x samples) of one round of the LAD search: the profile
# samples of a bracketing round, the bracket small enough to stop at, and one
# block of line scoring. Any value gives the same fits (``fit_mer_pixel``).
_LAD_BLOCK = 1 << 12


def _lad_profile(x: np.ndarray, y: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """LAD objective with beta profiled out, sum |z - lower median(z)| for
    z = y + theta*x, at each theta."""
    z = y[None, :] + thetas[:, None] * x[None, :]
    k = (x.size - 1) // 2
    med = np.partition(z, k, axis=1)[:, k]
    return np.abs(z - med[:, None]).sum(axis=1)


def _lad_scores(x: np.ndarray, y: np.ndarray, thetas: np.ndarray,
                betas: np.ndarray) -> np.ndarray:
    """LAD objective of each line y = beta - theta*x, by the float expression
    of the full enumeration, |y - (beta - theta*x)|, in one buffer."""
    r = np.multiply(thetas[:, None], x[None, :])
    np.subtract(betas[:, None], r, out=r)
    np.subtract(y[None, :], r, out=r)
    return np.add.reduce(np.abs(r, out=r), axis=1)


@functools.lru_cache(maxsize=4)
def _pair_design(key: bytes) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The pair lines of the covariates x = ``np.frombuffer(key)``: the pairs
    i < j in ``np.triu_indices`` order with x[i] != x[j], as read-only int32
    ``ii``, ``jj`` and float64 ``x[jj] - x[ii]`` and ``x[ii]``. NaN differs
    from itself, but covariates that are all NaN carry one (unusable) value:
    no pairs.

    Keyed by the covariate vector, so fits with equal covariates share one
    entry whatever their responses: a pixel map's fits mostly do (see the
    module docstring), and a few entries serve it. One entry takes 24 bytes
    a pair, at most 12 n (n-1) bytes: 24 MB at n = 1400.
    """
    x = np.frombuffer(key)
    ii, jj = np.triu_indices(x.size, k=1)
    keep = (x[ii] != x[jj]) & ~np.isnan(x).all()
    ii, jj = ii[keep].astype(np.int32), jj[keep].astype(np.int32)
    xi = x[ii]
    dx = x[jj] - xi
    for a in (ii, jj, dx, xi):
        a.flags.writeable = False
    return ii, jj, dx, xi


def fit_mer_pixel(x, y) -> tuple[float, float]:
    """Exact LAD fit of y = beta - theta*x: the best line through a pair of
    samples with distinct covariates.

    Some optimal LAD line interpolates two samples, so the best pair line is
    exact; ties are broken by smallest theta then smallest beta, and lines
    equal in all three keep the first pair in ``np.triu_indices`` order.

    The pair lines are not all scored. With beta profiled out, the
    objective g(theta) = sum |z - median(z)|, z = y + theta*x, is convex, so
    {g <= g* + tol} is an interval around its minimizers. The pair slopes
    are sorted once, and the bracket is a range of indices into them. While
    it holds more than ``_LAD_BLOCK`` / n slopes, g is sampled at
    m = max(3, ``_LAD_BLOCK`` // n) evenly spaced slopes of the bracket; the
    bracket shrinks to the outer neighbours of the samples within ``tol`` of
    the sampled minimum, and the search stops when a round does not shrink
    it (a flat profile). Every pair line whose slope lies in the bracket is
    then scored with the expression of the full enumeration, in blocks of
    ``_LAD_BLOCK`` elements. A flat profile can leave many lines, most of
    them repeats of a few: lines of equal theta and beta score equally, so
    only the first of each, in pair order, is scored when they fill more
    than one block.

    The result is bit-identical to scoring every pair line, for any round
    size m >= 3. The line that full scoring picks has an exact profile value
    at most its exact line objective; that is within float error of its
    computed objective, which is at most the computed objective of an
    exactly optimal pair line, in turn within float error of g*. So its
    slope lies in {g <= g* + slack}. With M = max|y| + max|theta|*max|x|
    over the candidates, each of those errors, and the error of a computed
    g, is below about 6*n^2*eps*M, and tol = 32*n^2*eps*M exceeds the slack
    plus twice the error of a computed g. A dropped sample therefore has g
    above g* + slack, and convexity puts the minimizers, and with them that
    line's slope, between the dropped samples. The final bracket thus holds
    that line. Every line in it, or the first in pair order of each set of
    equal lines, is scored with the same float expression, and the lexmin
    picks that line again.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("x and y must be 1-d arrays of equal length")
    if x.size < 2:
        raise DegenerateFitError("need at least two samples")
    n = x.size
    ii, jj, dx, xi = _pair_design(x.tobytes())
    if not ii.size:
        raise DegenerateFitError("all samples share one covariate value; slope unidentifiable")
    yi = y[ii]
    # -(y[jj] - y[ii]) / dx op by op, so a flat pair keeps its zero's sign
    theta_c = y[jj] - yi
    np.negative(theta_c, out=theta_c)
    theta_c /= dx
    bracketed = False
    if theta_c.size * n > _LAD_BLOCK:
        slopes = np.sort(theta_c)
        scale = np.abs(y).max() + max(-slopes[0], slopes[-1]) * np.abs(x).max()
        tol = 32.0 * n * n * np.finfo(np.float64).eps * scale
        # an overflowing slope (or a non-finite sample) makes tol non-finite:
        # then every line is scored, as by the full enumeration
        bracketed = bool(np.isfinite(tol))
        lo, hi = 0, slopes.size - 1
        while bracketed and hi > lo and (hi - lo + 1) * n > _LAD_BLOCK:
            m = min(max(3, _LAD_BLOCK // n), hi - lo + 1)
            idx = lo + np.arange(m) * (hi - lo) // (m - 1)
            g = _lad_profile(x, y, slopes[idx])
            near = np.flatnonzero(g <= g.min() + tol)
            new_lo = idx[near[0] - 1] if near[0] > 0 else lo
            new_hi = idx[near[-1] + 1] if near[-1] < m - 1 else hi
            if (new_lo, new_hi) == (lo, hi):
                break
            lo, hi = new_lo, new_hi
        if bracketed:
            inside = (theta_c >= slopes[lo]) & (theta_c <= slopes[hi])
            theta_c, yi, xi = theta_c[inside], yi[inside], xi[inside]
    beta_c = yi + theta_c * xi
    chunk = max(1, _LAD_BLOCK // n)
    if bracketed and theta_c.size > chunk:
        # the first in pair order of each set of equal lines (every line is
        # finite here, and equal lines are equal complex numbers); no two
        # lines left are equal, so their order no longer matters
        lines = np.empty(theta_c.size, np.complex128)
        lines.real, lines.imag = theta_c, beta_c
        first = np.unique(lines, return_index=True)[1]
        theta_c, beta_c = theta_c[first], beta_c[first]
    best = (math.inf, math.inf, math.inf)
    for start in range(0, theta_c.size, chunk):
        tc = theta_c[start:start + chunk]
        bc = beta_c[start:start + chunk]
        obj = _lad_scores(x, y, tc, bc)
        k = int(np.lexsort((bc, tc, obj))[0])
        cand = (float(obj[k]), float(tc[k]), float(bc[k]))
        if cand < best:
            best = cand
    _, theta, beta = best
    return beta, theta


# ---------------------------------------------------------------------------
# spline surfaces
# ---------------------------------------------------------------------------

def _clamped_knots(lo: float, hi: float, n_basis: int, degree: int = 3) -> np.ndarray:
    if hi <= lo:
        hi = lo + 1.0
    interior = np.linspace(lo, hi, n_basis - degree + 1)[1:-1]
    return np.r_[[lo] * (degree + 1), interior, [hi] * (degree + 1)]


def _basis_1d(coords: np.ndarray, lo: float, hi: float, n_basis: int) -> np.ndarray:
    """Dense (len(coords), n_basis) cubic B-spline basis on ``_clamped_knots``,
    by the Cox-de Boor recursion (de Boor, A Practical Guide to Splines, 1978).

    Coordinates are clipped to [lo, hi], and the last span is closed at hi,
    so every row sums to 1. Degree d is built from degree d-1 as
    B[i] / (t[i+d] - t[i]) * (x - t[i]) + B[i+1] / (t[i+d+1] - t[i+1]) * (t[i+d+1] - x),
    the operation order of scipy's ``BSpline.design_matrix``, whose values it
    reproduces; a term over an empty knot span is 0.
    """
    t = _clamped_knots(lo, hi, n_basis)
    x = np.clip(np.asarray(coords, dtype=np.float64), lo, hi)[:, None]
    b = ((t[:-1] <= x) & (x < t[1:])).astype(np.float64)   # degree 0: span indicators
    b[x[:, 0] == t[n_basis], n_basis - 1] = 1.0
    for d in range(1, 4):
        width = t[d:] - t[:-d]
        scaled = b / np.where(width > 0, width, 1.0)
        b = scaled[:, :-1] * (x - t[:-d - 1]) + scaled[:, 1:] * (t[d + 1:] - x)
    return b


def _difference_operator(n: int, order: int) -> np.ndarray:
    return np.diff(np.eye(n), order, axis=0)


def _roughness_penalty(nby: int, nbx: int) -> np.ndarray:
    """Gram matrix of first and second differences along the rows and
    columns of an nby-by-nbx coefficient grid.

    Including first differences makes the null space exactly the constant
    surfaces, so an infinite penalty reproduces the pooled constant fit.
    """
    total = np.zeros((nby * nbx, nby * nbx))
    for order in (1, 2):
        drow = np.kron(np.eye(nby), _difference_operator(nbx, order))
        dcol = np.kron(_difference_operator(nby, order), np.eye(nbx))
        total += drow.T @ drow + dcol.T @ dcol
    return total


@dataclass(frozen=True)
class MerSurface:
    """Fitted coefficient maps of the median-extremal-range model.

    ``beta`` and ``theta`` are per-pixel evaluations of the fitted
    surfaces (or the raw per-pixel estimates of the pixel fit).
    """

    beta: np.ndarray
    theta: np.ndarray

    def __post_init__(self):
        if self.beta.shape != self.theta.shape:
            raise ValueError("beta and theta maps must share a shape")


def predict_mer_map(surface: MerSurface, p: float) -> np.ndarray:
    """Median-extremal-range map at level p from fitted coefficient maps."""
    return np.exp(surface.beta - surface.theta * loglog_level(p))


def _surface(by: np.ndarray, bx: np.ndarray, coef: np.ndarray) -> np.ndarray:
    """Surface By C Bx^T of a flat coefficient grid C at the pixel centers."""
    return by @ coef.reshape(by.shape[1], bx.shape[1]) @ bx.T


def _pixel_normal_equations(by: np.ndarray, bx: np.ndarray, xl: np.ndarray, cw: np.ndarray,
                            cwy: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Weighted normal equations D^T W D and D^T W z of the model
    y = D b - x * (D c), with D the sample design whose row for a sample at
    pixel (iy, ix) is kron(by[iy], bx[ix]), from per-cell sums: ``cw[l, p]``
    and ``cwy[l, p]`` sum w and w*y over the samples at level covariate
    ``xl[l]`` and flat pixel index p = iy*nx + ix.

    Samples at one pixel share that row, so each Gram block is
    Phi^T diag(s) Phi, Phi = by kron bx the pixel basis and s the per-pixel
    sum of w, w*x or w*x^2, that is of cw, xl*cw or xl^2*cw over levels,
    added row by row so that a level of empty cells changes no bit. With
    S = s reshaped to (ny, nx), the row-tensor identity of array models
    (Currie, Durban & Eilers, 2006) gives it as
    sum_iy (by[iy] by[iy]^T) kron (bx^T diag(S[iy]) bx) without forming Phi.
    The right-hand side is by^T R bx, R the per-pixel sums of w*y and w*x*y.
    Returns the (2nb, 2nb) data block and the (2nb,) right-hand side.
    """
    (ny, ky), (nx, kx) = by.shape, bx.shape
    # row iy holds the outer product by[iy] by[iy]^T, flattened
    by_outer = (by[:, :, None] * by[:, None, :]).reshape(ny, ky * ky)

    def gram(s: np.ndarray) -> np.ndarray:
        row_grams = (bx.T * s.reshape(ny, 1, nx)) @ bx   # (ny, kx, kx)
        g = (by_outer.T @ row_grams.reshape(ny, kx * kx)).reshape(ky, ky, kx, kx)
        return g.transpose(0, 2, 1, 3).reshape(ky * kx, ky * kx)

    def project(s: np.ndarray) -> np.ndarray:
        return (by.T @ s.reshape(ny, nx) @ bx).ravel()

    xl = xl[:, None]
    m_bc = -gram((xl * cw).sum(0))
    block = np.block([[gram(cw.sum(0)), m_bc], [m_bc.T, gram((xl * xl * cw).sum(0))]])
    return block, np.concatenate([project(cwy.sum(0)), -project((xl * cwy).sum(0))])


def check_fit_options(knots_y: int, knots_x: int, iters: int,
                      penalty: float | None = None) -> None:
    """Raise ValueError unless knots >= 4 per axis (cubic), iters >= 3 (one per
    smoothing stage) and penalty is finite and >= 0 or None (``choose_penalty``)."""
    if min(knots_y, knots_x) < 4:
        raise ValueError(f"knots must be at least 4 per axis, got {knots_y}x{knots_x}")
    if iters < 3:
        raise ValueError(f"iters must be at least 3, one per smoothing stage, got {iters}")
    if penalty is not None and not (math.isfinite(penalty) and penalty >= 0):
        raise ValueError(f"penalty must be a finite value >= 0, got {penalty}")


class SplineMerModel:
    """Spatially smooth median regression of log range on log(-log(1-p)).

    Estimator-style interface: construct with hyperparameters, ``fit`` on
    samples, then ``to_surface`` for the fitted beta and theta maps on the
    samples' grid (``predict_mer_map`` turns a surface into medians at a
    level).
    """

    def __init__(self, knots_x: int = 8, knots_y: int = 8, penalty: float = 1.0,
                 iters: int = 60):
        check_fit_options(knots_y, knots_x, iters, penalty)
        self.knots_x = knots_x
        self.knots_y = knots_y
        self.penalty = penalty
        self.iters = iters

    def _grid_bases(self, shape: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
        """Row basis By (ny, knots_y) and column basis Bx (nx, knots_x) at
        the pixel centers."""
        ny, nx = shape
        return (_basis_1d(np.arange(ny), 0.0, float(ny - 1), self.knots_y),
                _basis_1d(np.arange(nx), 0.0, float(nx - 1), self.knots_x))

    def fit(self, samples: RangeSamples) -> "SplineMerModel":
        """Minimize the annealed smoothed-pinball objective by
        majorize-minimize: each iteration reweights the quadratic
        majorizer of the smoothed pinball at the current residuals and
        solves the penalized normal equations exactly. Every step
        decreases the objective, stiff penalties are handled exactly, and
        a fixed iteration budget keeps the fit deterministic.

        An iteration gathers each sample's prediction from its (level,
        pixel) cell, sums w and w*y per cell with two bincounts and forms
        the normal equations from those sums (``_pixel_normal_equations``).
        """
        nb = self.knots_x * self.knots_y
        if samples.n < 2 * nb:
            raise DegenerateFitError(
                f"{samples.n} samples cannot identify {2 * nb} spline coefficients"
            )
        beta0, theta0 = _pooled_median_line(samples)
        params = np.concatenate([np.full(nb, beta0), np.full(nb, theta0)])
        by, bx = self._grid_bases(samples.shape)
        pen_block = np.kron(np.eye(2), _roughness_penalty(self.knots_y, self.knots_x))
        xl = samples.level_x   # ascending level covariates, empty levels included
        cells = (xl.size, math.prod(samples.shape))
        # take and bincount index with intp: one copy serves every iteration,
        # and a cross-validation fold's cells need none
        cell, y = samples.cell.astype(np.intp, copy=False), samples.y
        w = np.empty(cell.size)   # with ``cell``, the fit's per-sample arrays
        for kappa, n_iter in _kappa_stages(self.iters):
            for _ in range(n_iter):
                b = _surface(by, bx, params[:nb]).ravel()
                c = _surface(by, bx, params[nb:]).ravel()
                # each sample's cell prediction b - x*c in w, then over it the residual e
                # and the majorizer weight 1 / (2 max(|e|, kappa)) = 0.5 / max(|e|, kappa);
                # take's default mode would buffer its output, the bincounts check cells
                np.take(b - xl[:, None] * c, cell, out=w, mode="clip")
                np.subtract(y, w, out=w)
                np.maximum(np.abs(w, out=w), kappa, out=w)
                np.divide(0.5, w, out=w)
                cw = np.bincount(cell, w, math.prod(cells)).reshape(cells)
                np.multiply(w, y, out=w)
                cwy = np.bincount(cell, w, math.prod(cells)).reshape(cells)
                data_block, rhs = _pixel_normal_equations(by, bx, xl, cw, cwy)
                mat = data_block + 2.0 * self.penalty * pen_block
                # tiny ridge at the data scale only; the penalty trace can be
                # arbitrarily large and must not leak into the null space
                mat[np.diag_indices(2 * nb)] += 1e-10 * float(np.trace(data_block)) / (2 * nb)
                params = np.linalg.solve(mat, rhs)
        self.shape_ = samples.shape
        self.coef_beta_ = params[:nb].copy()
        self.coef_theta_ = params[nb:].copy()
        return self

    def to_surface(self) -> MerSurface:
        """The fitted surfaces evaluated at every pixel center."""
        by, bx = self._grid_bases(self.shape_)
        return MerSurface(beta=_surface(by, bx, self.coef_beta_),
                          theta=_surface(by, bx, self.coef_theta_))


def choose_penalty(samples: RangeSamples, ky: int, kx: int, iters: int) -> float:
    """Pick the roughness penalty from ``_PENALTY_GRID`` by block-wise
    cross-validated pinball loss over ``_CV_FOLDS`` folds. Each fold's
    training samples are gathered once and every penalty is fitted on them,
    with ``max(60, iters // 3)`` iterations, so never fewer than 60; each
    penalty's held-out losses add up in fold order, and the smallest sum
    wins, the smaller penalty on a tie. DegenerateFitError before any fit
    when fewer than two blocks hold a sample, since a fold then trains on
    nothing or holds nothing out, and at the first fold whose training
    samples are too few or at one level, which no penalty mends."""
    run_n = np.diff(samples.runs)
    blocks = _distinct(samples.run_block[run_n > 0])
    prefix = f"penalty cross-validation over {blocks.size} block(s)"
    if blocks.size < 2:
        raise DegenerateFitError(f"{prefix}: a fold needs a block to train on and one to "
                                 "hold out")
    # the i-th smallest block id goes to fold i mod _CV_FOLDS, one fold per run of samples
    run_fold = np.searchsorted(blocks, samples.run_block) % _CV_FOLDS
    totals = [0.0] * len(_PENALTY_GRID)
    for f in range(min(_CV_FOLDS, blocks.size)):  # every fold holds a block out
        kept = run_fold != f
        train = np.repeat(kept, run_n)
        fold = RangeSamples._of(samples.cell[train].astype(np.intp), samples.y[train],
                                samples.shape, samples.level_x,
                                np.r_[0, np.cumsum(run_n[kept])], samples.run_block[kept])
        del train
        for i, lam in enumerate(_PENALTY_GRID):
            try:
                surface = SplineMerModel(knots_x=kx, knots_y=ky, penalty=lam,
                                         iters=max(60, iters // 3)).fit(fold).to_surface()
            except DegenerateFitError as exc:
                raise DegenerateFitError(f"{prefix}: fold {f}: {exc}") from None
            # the held-out mask and gathers end with the call, so only the
            # fold outlives a fit
            totals[i] += _pinball_loss(samples, surface, np.repeat(~kept, run_n))
        del fold   # before the next fold's gathers
    return min(zip(totals, _PENALTY_GRID))[1]


def _pinball_loss(samples: RangeSamples, surface: MerSurface, at: np.ndarray) -> float:
    """Median pinball loss of the samples that ``at`` marks, each predicted
    from its cell as the spline fit gathers it."""
    pred = surface.beta.ravel() - samples.level_x[:, None] * surface.theta.ravel()
    return float(np.abs(samples.y[at] - np.take(pred, samples.cell[at])).sum()) * 0.5


def _pooled_median_line(samples: RangeSamples) -> tuple[float, float]:
    """Warm start: exact LAD line through the per-level response medians,
    DegenerateFitError on a single level. With one covariate value per
    level, the pair enumeration stays trivial regardless of sample count."""
    level = samples.level
    lines = []
    for k, x in enumerate(samples.level_x):
        at = level == k
        if at.any():
            lines.append((x, _median(samples.y[at])))
    if len(lines) < 2:
        raise DegenerateFitError("all samples share one level; slope unidentifiable")
    return fit_mer_pixel(*np.array(lines).T)


def _kappa_stages(iters: int) -> list[tuple[float, int]]:
    # iters >= 3 (check_fit_options), so every stage runs
    third = iters // 3
    return [(0.1, third), (0.01, third), (0.001, iters - 2 * third)]


def fit_mer_pixel_map(samples: RangeSamples) -> MerSurface:
    """Independent exact LAD fit at every pixel of the samples' grid with
    enough observations.

    Pixels with fewer than ``_MIN_PIXEL_SAMPLES`` observations or a single
    distinct level get NaN coefficients; DegenerateFitError when no pixel
    is left to fit.
    """
    ny, nx = samples.shape
    beta = np.full(samples.shape, np.nan)
    theta = np.full(samples.shape, np.nan)
    npix = ny * nx
    # each pixel's samples in pooled order, from one stable sort of the pixels
    # in their narrowest dtype, which numpy radix-sorts up to 16 bits
    pixel = np.empty(samples.n, np.min_scalar_type(npix - 1))
    np.remainder(samples.cell, npix, out=pixel, casting="unsafe")
    order = np.argsort(pixel, kind="stable")
    pixel = pixel[order]
    ys = samples.y[order]
    level = samples.cell[order]
    level //= npix
    del order
    head = np.empty(pixel.size, dtype=bool)   # where each pixel's run starts
    head[:1] = True
    np.not_equal(pixel[1:], pixel[:-1], out=head[1:])
    starts = np.flatnonzero(head)
    ends = np.append(starts[1:], pixel.size)
    # a pixel is fitted with enough samples at two or more distinct levels
    fitted = ((ends - starts >= _MIN_PIXEL_SAMPLES)
              & (np.minimum.reduceat(level, starts) != np.maximum.reduceat(level, starts)))
    xs = samples.level_x[level]   # each sample's covariate, gathered once
    beta_px, theta_px = beta.reshape(-1), theta.reshape(-1)   # views of the maps
    for pix, s, e in zip(pixel[starts[fitted]], starts[fitted], ends[fitted]):
        beta_px[pix], theta_px[pix] = fit_mer_pixel(xs[s:e], ys[s:e])
    if np.isnan(beta).all():
        raise DegenerateFitError(
            f"no pixel has min_samples={_MIN_PIXEL_SAMPLES} samples at two distinct levels"
        )
    return MerSurface(beta=beta, theta=theta)


# ---------------------------------------------------------------------------
# block jackknife
# ---------------------------------------------------------------------------

def jackknife_estimates(stack: RasterStack, block_ids: Sequence[int],
                        estimator: Callable[[RasterStack, np.ndarray], np.ndarray]
                        ) -> np.ndarray:
    """Delete-one-block estimates of a full-chain estimator, one row per
    block (useful for sign diagnostics on top of the standard errors).

    The blocks are left out in sorted order: row i is ``estimator(sub,
    kept)`` on the slices outside the i-th smallest block id, in slice
    order, and their block ids ``kept``.
    """
    block_ids = np.asarray(block_ids)
    if block_ids.shape != (stack.nt,):
        raise ValueError(f"need one block id per slice, got {block_ids.shape}")
    blocks = _distinct(block_ids)
    if blocks.size < 3:
        raise ValueError(f"need at least 3 blocks, got {blocks.size}")
    keeps = (np.flatnonzero(block_ids != b) for b in blocks)
    return np.stack([np.asarray(estimator(stack.subset(k), block_ids[k]), dtype=np.float64)
                     for k in keeps])


def jackknife(stack: RasterStack, block_ids: Sequence[int],
              estimator: Callable[[RasterStack, np.ndarray], np.ndarray]) -> np.ndarray:
    """Delete-one-block jackknife standard error of a full-chain estimator.

    ``estimator(sub, kept)`` maps the slices outside one block and their
    block ids to an array of estimates; the returned array holds the
    jackknife SE per component: sqrt((B-1)/B * sum_b (est_b - mean)^2).
    """
    est = jackknife_estimates(stack, block_ids, estimator)
    n_blocks = est.shape[0]
    mean = est.mean(axis=0)
    return np.sqrt((n_blocks - 1) / n_blocks * ((est - mean) ** 2).sum(axis=0))

