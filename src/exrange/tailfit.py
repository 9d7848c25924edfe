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
the fit needs no scipy. The sample-wise sparse design ``_design`` stays as
the reference the objective, its gradient and the tests are written on, and
only it imports ``scipy.sparse``.

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

The pooled samples of many levels exist in one copy: ``SamplePool`` sizes
them from the in-domain exceedance counts, and ``collect_samples`` writes
each level into it. The spline fit adds two per-sample arrays, the cell
index and the IRLS weights, and copies no sample.

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
from .ranges import _as_entries, _entry_pixels, median_range, range_entries
from .raster import DomainMask, RasterStack
from .thresholds import BoundaryPolicy, exceedance_stack, quantile_fields

_PENALTY_GRID = (0.01, 0.1, 1.0, 10.0, 100.0)  # roughness penalties ``choose_penalty`` tries
_CV_FOLDS = 5
_MIN_PIXEL_SAMPLES = 3  # samples a pixel needs for its LAD fit


def loglog_level(p: float) -> float:
    """The regression covariate log(-log(1-p))."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must be in (0,1), got {p}")
    return math.log(-math.log(1.0 - p))


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


@dataclass(frozen=True)
class RangeSamples:
    """Flat sample arrays for the regression: one entry per positive range
    observation (pixel, slice, level)."""

    pixel_y: np.ndarray   # int, row index (int32 from ``collect_samples``)
    pixel_x: np.ndarray   # int, column index (int32 from ``collect_samples``)
    x: np.ndarray         # log(-log(1-p))
    y: np.ndarray         # log range (physical units)
    block: np.ndarray     # block id of the originating slice

    def __post_init__(self):
        n = self.y.shape[0]
        for name in ("pixel_y", "pixel_x", "x", "block"):
            if getattr(self, name).shape != (n,):
                raise ValueError("sample arrays must share one length")
        if not np.isfinite(self.x).all() or not np.isfinite(self.y).all():
            raise ValueError("sample covariates and responses must be finite")

    @property
    def n(self) -> int:
        return self.y.shape[0]


# dtype of each RangeSamples field as ``collect_samples`` stores it: the grid
# bounds the pixel indices, while a block id is any integer
_SAMPLE_DTYPES = {"pixel_y": np.int32, "pixel_x": np.int32, "x": np.float64,
                  "y": np.float64, "block": np.int64}


class SamplePool:
    """Arrays sized once that ``collect_samples`` fills level by level, so the
    pooled samples of many levels exist in one copy only.

    A domain pixel has a positive range exactly where it exceeds the
    threshold, under either boundary policy, so before any ``min_range``
    cut a level has as many samples as in-domain exceedances:
    ``for_thresholds`` sizes a pool from the thresholds alone, before any
    range is computed.
    """

    def __init__(self, capacity: int):
        self._arrays = {name: np.empty(capacity, dtype)
                        for name, dtype in _SAMPLE_DTYPES.items()}
        self.n = 0

    @classmethod
    def for_thresholds(cls, stack: RasterStack, thrs) -> "SamplePool":
        """A pool for every sample of ``stack`` at the thresholds ``thrs``."""
        erode = BoundaryPolicy.ERODE
        return cls(sum(int(np.count_nonzero(exceedance_stack(stack, thr, erode)))
                       for thr in thrs))

    def _claim(self, k: int) -> dict[str, np.ndarray]:
        """Views of the next ``k`` free entries of every field."""
        if self.n + k > self._arrays["y"].size:
            raise ValueError(f"{self.n + k} samples overflow a pool of "
                             f"{self._arrays['y'].size}")
        part = {name: a[self.n:self.n + k] for name, a in self._arrays.items()}
        self.n += k
        return part

    def samples(self) -> RangeSamples:
        """The samples written so far, in order, viewing the pool's arrays."""
        if self.n == 0:
            raise DegenerateFitError("no positive range observations to fit")
        return RangeSamples(**{name: a[:self.n] for name, a in self._arrays.items()})


def collect_samples(range_fields_by_level: dict[float, Sequence],
                    domain: DomainMask,
                    blocks: Sequence[int] | None = None,
                    min_range: float = 0.0,
                    pool: SamplePool | None = None) -> RangeSamples:
    """Build regression samples from each level's ranges: ``RangeEntries``,
    an (nt, ny, nx) range array or a sequence of range fields.

    Only strictly positive ranges inside the domain become samples, in
    (level, slice, row, column) order, and a positive ``min_range`` drops
    those with log range below log(min_range). ``blocks`` assigns a block id
    to each slice index (defaults to the slice index itself).

    The samples are written into ``pool`` after those already in it, and
    this call's samples, possibly none, are returned as views of the pool.
    Without a pool, one is sized to the positive ranges and its samples are
    returned: DegenerateFitError when there are none.
    """
    inside = domain.inside.reshape(-1)
    if pool is None:
        levels = {p: _as_entries(r) for p, r in range_fields_by_level.items()}
        pool = SamplePool(sum(int(np.count_nonzero(inside[_entry_pixels(e, domain)]))
                              for e in levels.values()))
        collect_samples(levels, domain, blocks, min_range, pool)
        return pool.samples()
    start = pool.n
    for p, level_ranges in range_fields_by_level.items():
        entries = _as_entries(level_ranges)
        pixel = _entry_pixels(entries, domain)
        keep = inside[pixel]
        t, pixel = entries.index[keep], pixel[keep]
        t //= inside.size
        part = pool._claim(t.size)
        np.log(entries.value[keep], out=part["y"])
        del keep
        part["x"][:] = loglog_level(p)
        np.divmod(pixel, domain.inside.shape[1], out=(part["pixel_y"], part["pixel_x"]))
        part["block"][:] = t if blocks is None else np.asarray(blocks)[t]
        if min_range > 0:
            keep = part["y"] >= math.log(min_range)
            kept = int(np.count_nonzero(keep))
            for a in part.values():
                a[:kept] = a[keep]
            pool.n -= t.size - kept  # hand the dropped entries back
    return RangeSamples(**{name: a[start:pool.n] for name, a in pool._arrays.items()})


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
    of the full enumeration."""
    return np.abs(y[None, :] - (betas[:, None] - thetas[:, None] * x[None, :])).sum(axis=1)


@functools.lru_cache(maxsize=4)
def _pair_design(key: bytes) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The pair lines of the covariates x = ``np.frombuffer(key)``: the pairs
    i < j in ``np.triu_indices`` order with x[i] != x[j], as read-only int32
    ``ii``, ``jj`` and float64 ``x[jj] - x[ii]``. NaN differs from itself,
    but covariates that are all NaN carry one (unusable) value: no pairs.

    Keyed by the covariate vector, so fits with equal covariates share one
    entry whatever their responses: a pixel map's fits mostly do (see the
    module docstring), and a few entries serve it. One entry takes 16 bytes
    a pair, at most 8 n (n-1) bytes: 16 MB at n = 1400.
    """
    x = np.frombuffer(key)
    ii, jj = np.triu_indices(x.size, k=1)
    keep = (x[ii] != x[jj]) & ~np.isnan(x).all()
    ii, jj = ii[keep].astype(np.int32), jj[keep].astype(np.int32)
    dx = x[jj] - x[ii]
    for a in (ii, jj, dx):
        a.flags.writeable = False
    return ii, jj, dx


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
    ii, jj, dx = _pair_design(x.tobytes())
    if not ii.size:
        raise DegenerateFitError("all samples share one covariate value; slope unidentifiable")
    theta_c = -(y[jj] - y[ii]) / dx
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
            theta_c, ii = theta_c[inside], ii[inside]
    beta_c = y[ii] + theta_c * x[ii]
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
    samples, then ``coefficient_maps`` or ``to_surface`` for the fitted
    beta and theta maps (``predict_mer_map`` turns a surface into medians
    at a level).
    """

    def __init__(self, knots_x: int = 8, knots_y: int = 8, penalty: float = 1.0,
                 iters: int = 60):
        check_fit_options(knots_y, knots_x, iters, penalty)
        self.knots_x = knots_x
        self.knots_y = knots_y
        self.penalty = penalty
        self.iters = iters

    def _design(self, samples: RangeSamples, shape: tuple[int, int]):
        """Sample-wise design, a scipy.sparse CSR matrix whose row for a sample
        at (iy, ix) is kron(By[iy], Bx[ix]): the reference that
        ``objective_and_grad`` and the tests are written on."""
        from scipy import sparse

        by, bx = self._grid_bases(shape)
        rows = by[samples.pixel_y][:, :, None] * bx[samples.pixel_x][:, None, :]
        return sparse.csr_matrix(rows.reshape(samples.n, -1))

    def _data_loss_and_grad(self, params: np.ndarray, design,
                            x: np.ndarray, y: np.ndarray,
                            kappa: float) -> tuple[float, np.ndarray]:
        """Smoothed median pinball loss with its exact gradient. The
        pinball |e|/2 is replaced by e^2/(4 kappa) inside |e| <= kappa,
        keeping the loss C1."""
        nb = design.shape[1]
        b = params[:nb]
        c = params[nb:]
        pred = design @ b - x * (design @ c)
        e = y - pred
        abse = np.abs(e)
        inband = abse <= kappa
        loss = float(np.where(inband, e * e / (4.0 * kappa), 0.5 * abse - kappa / 4.0).sum())
        w = np.where(inband, e / (2.0 * kappa), 0.5 * np.sign(e))
        grad_b = -(design.T @ w)
        grad_c = design.T @ (w * x)
        return loss, np.concatenate([grad_b, grad_c])

    def objective_and_grad(self, params: np.ndarray, design,
                           x: np.ndarray, y: np.ndarray, kappa: float,
                           penalty_mat: np.ndarray) -> tuple[float, np.ndarray]:
        """Full objective (smoothed pinball plus roughness penalty) and its
        exact gradient."""
        loss, grad = self._data_loss_and_grad(params, design, x, y, kappa)
        nb = design.shape[1]
        b = params[:nb]
        c = params[nb:]
        pb = penalty_mat @ b
        pc = penalty_mat @ c
        loss += self.penalty * float(b @ pb + c @ pc)
        grad[:nb] += 2.0 * self.penalty * pb
        grad[nb:] += 2.0 * self.penalty * pc
        return loss, grad

    def _grid_bases(self, shape: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
        """Row basis By (ny, knots_y) and column basis Bx (nx, knots_x) at
        the pixel centers."""
        ny, nx = shape
        return (_basis_1d(np.arange(ny), 0.0, float(ny - 1), self.knots_y),
                _basis_1d(np.arange(nx), 0.0, float(nx - 1), self.knots_x))

    def fit(self, samples: RangeSamples, shape: tuple[int, int],
            train: np.ndarray | None = None) -> "SplineMerModel":
        """Minimize the annealed smoothed-pinball objective by
        majorize-minimize: each iteration reweights the quadratic
        majorizer of the smoothed pinball at the current residuals and
        solves the penalized normal equations exactly. Every step
        decreases the objective, stiff penalties are handled exactly, and
        a fixed iteration budget keeps the fit deterministic.

        An iteration gathers each sample's prediction from its (level,
        pixel) cell, sums w and w*y per cell with two bincounts and forms
        the normal equations from those sums (``_pixel_normal_equations``).

        ``train``, a boolean mask of length ``samples.n``, fits only the
        samples it marks, as a cross-validation fold does: the others get
        weight 0, and the warm start takes the training samples' medians.
        The cell sums then add exact zeros to the training sums, so the
        coefficients are bit-identical to a fit on the training samples
        alone, without copying them.
        """
        nb = self.knots_x * self.knots_y
        if train is not None and (train.dtype != np.bool_ or train.shape != (samples.n,)):
            raise ValueError(f"train must be a boolean mask of length {samples.n}")
        n_train = samples.n if train is None else int(np.count_nonzero(train))
        if n_train < 2 * nb:
            raise DegenerateFitError(
                f"{n_train} samples cannot identify {2 * nb} spline coefficients"
            )
        beta0, theta0 = _pooled_median_line(samples, train)
        params = np.concatenate([np.full(nb, beta0), np.full(nb, theta0)])
        by, bx = self._grid_bases(shape)
        pen_block = np.kron(np.eye(2), _roughness_penalty(self.knots_y, self.knots_x))
        xl = np.unique(samples.x)   # level covariates, held-out levels included
        cells = (xl.size, shape[0] * shape[1])
        cell = np.searchsorted(xl, samples.x)   # level * ny*nx + iy * nx + ix, built in place
        for size, index in zip(shape, (samples.pixel_y, samples.pixel_x)):
            cell *= size
            cell += index
        w = np.empty(samples.n)   # with ``cell``, the only per-sample arrays of the fit
        for kappa, n_iter in _kappa_stages(self.iters):
            for _ in range(n_iter):
                b = _surface(by, bx, params[:nb]).ravel()
                c = _surface(by, bx, params[nb:]).ravel()
                # each sample's cell prediction b - x*c in w, then over it the residual e
                # and the majorizer weight 1 / (2 max(|e|, kappa)) = 0.5 / max(|e|, kappa);
                # take's default mode would buffer its output, the bincounts check cells
                np.take(b - xl[:, None] * c, cell, out=w, mode="clip")
                np.subtract(samples.y, w, out=w)
                np.maximum(np.abs(w, out=w), kappa, out=w)
                np.divide(0.5, w, out=w)
                if train is not None:
                    np.multiply(w, train, out=w)   # held-out weights to +0.0
                cw = np.bincount(cell, w, math.prod(cells)).reshape(cells)
                np.multiply(w, samples.y, out=w)
                cwy = np.bincount(cell, w, math.prod(cells)).reshape(cells)
                data_block, rhs = _pixel_normal_equations(by, bx, xl, cw, cwy)
                mat = data_block + 2.0 * self.penalty * pen_block
                # tiny ridge at the data scale only; the penalty trace can be
                # arbitrarily large and must not leak into the null space
                mat[np.diag_indices(2 * nb)] += 1e-10 * float(np.trace(data_block)) / (2 * nb)
                params = np.linalg.solve(mat, rhs)
        self.shape_ = shape
        self.coef_beta_ = params[:nb].copy()
        self.coef_theta_ = params[nb:].copy()
        return self

    def coefficient_maps(self) -> tuple[np.ndarray, np.ndarray]:
        """Evaluate the fitted surfaces at every pixel center."""
        by, bx = self._grid_bases(self.shape_)
        return _surface(by, bx, self.coef_beta_), _surface(by, bx, self.coef_theta_)

    def to_surface(self) -> MerSurface:
        beta, theta = self.coefficient_maps()
        return MerSurface(beta=beta, theta=theta)


def choose_penalty(samples: RangeSamples, shape: tuple[int, int], ky: int, kx: int,
                   iters: int) -> float:
    """Pick the roughness penalty from ``_PENALTY_GRID`` by block-wise
    cross-validated pinball loss over ``_CV_FOLDS`` folds; each fold fits the
    pooled samples under its training mask, copying none. DegenerateFitError
    when every penalty has a degenerate fold fit, as one block always gives."""
    blocks = np.unique(samples.block)
    # the i-th smallest block id goes to fold i mod _CV_FOLDS, in the narrowest dtype
    folds = np.searchsorted(blocks, samples.block)
    folds = np.remainder(folds, _CV_FOLDS, out=folds).astype(np.min_scalar_type(_CV_FOLDS))
    best = (math.inf, _PENALTY_GRID[0])
    for lam in _PENALTY_GRID:
        total = 0.0
        for f in range(min(_CV_FOLDS, blocks.size)):  # every fold holds a block out
            train = folds != f
            model = SplineMerModel(knots_x=kx, knots_y=ky, penalty=lam,
                                   iters=max(60, iters // 3))
            try:
                model.fit(samples, shape, train)
            except DegenerateFitError:
                total = math.inf
                break
            beta, theta = model.coefficient_maps()
            hold = ~train
            iy, ix = samples.pixel_y[hold], samples.pixel_x[hold]
            pred = beta[iy, ix] - theta[iy, ix] * samples.x[hold]
            total += float(np.abs(samples.y[hold] - pred).sum()) * 0.5
        if (total, lam) < best:
            best = (total, lam)
    if best[0] == math.inf:
        raise DegenerateFitError(f"penalty cross-validation over {blocks.size} block(s): "
                                 "every penalty has a degenerate fold fit")
    return best[1]


def _pooled_median_line(samples: RangeSamples,
                        train: np.ndarray | None = None) -> tuple[float, float]:
    """Warm start: exact LAD line through the per-level response medians of
    the samples ``train`` marks (all by default), DegenerateFitError on a
    single level. With one covariate value per level, the pair enumeration
    stays trivial regardless of sample count."""
    lines = []
    for x in np.unique(samples.x):
        at = samples.x == x
        if train is not None:
            at &= train
        if at.any():
            lines.append((x, np.median(samples.y[at])))
    if len(lines) < 2:
        raise DegenerateFitError("all samples share one level; slope unidentifiable")
    return fit_mer_pixel(*np.array(lines).T)


def _kappa_stages(iters: int) -> list[tuple[float, int]]:
    # iters >= 3 (check_fit_options), so every stage runs
    third = iters // 3
    return [(0.1, third), (0.01, third), (0.001, iters - 2 * third)]


def fit_mer_pixel_map(samples: RangeSamples, shape: tuple[int, int]) -> MerSurface:
    """Independent exact LAD fit at every pixel with enough observations.

    Pixels with fewer than ``_MIN_PIXEL_SAMPLES`` observations or a single
    distinct level get NaN coefficients; DegenerateFitError when no pixel
    is left to fit.
    """
    ny, nx = shape
    beta = np.full(shape, np.nan)
    theta = np.full(shape, np.nan)
    flat = samples.pixel_y.astype(np.int64) * nx + samples.pixel_x.astype(np.int64)
    order = np.argsort(flat, kind="stable")
    flat = flat[order]
    xs = samples.x[order]
    ys = samples.y[order]
    # each pixel's run in the sorted ids; -1 differs from every id
    bounds = np.flatnonzero(np.diff(flat, prepend=-1, append=-1))
    starts, ends = bounds[:-1], bounds[1:]
    # a pixel is fitted with enough samples at two or more distinct levels
    fitted = ((ends - starts >= _MIN_PIXEL_SAMPLES)
              & (np.minimum.reduceat(xs, starts) != np.maximum.reduceat(xs, starts)))
    for s, e in zip(starts[fitted], ends[fitted]):
        b, t = fit_mer_pixel(xs[s:e], ys[s:e])
        pix = flat[s]
        beta[pix // nx, pix % nx] = b
        theta[pix // nx, pix % nx] = t
    if np.isnan(beta).all():
        raise DegenerateFitError(
            f"no pixel has min_samples={_MIN_PIXEL_SAMPLES} samples at two distinct levels"
        )
    return MerSurface(beta=beta, theta=theta)


# ---------------------------------------------------------------------------
# block jackknife
# ---------------------------------------------------------------------------

def jackknife_estimates(stack: RasterStack, block_ids: Sequence[int],
                        estimator: Callable[[RasterStack], np.ndarray]) -> np.ndarray:
    """Delete-one-block estimates of a full-chain estimator, one row per
    block (useful for sign diagnostics on top of the standard errors).

    The blocks are left out in sorted order: the i-th call of ``estimator``
    gets the slices outside the i-th smallest block id, in slice order.
    """
    block_ids = np.asarray(block_ids)
    if block_ids.shape != (stack.nt,):
        raise ValueError(f"need one block id per slice, got {block_ids.shape}")
    blocks = np.unique(block_ids)
    if blocks.size < 3:
        raise ValueError(f"need at least 3 blocks, got {blocks.size}")
    estimates = []
    for b in blocks:
        keep = np.flatnonzero(block_ids != b)
        estimates.append(np.asarray(estimator(stack.subset(keep)), dtype=np.float64))
    return np.stack(estimates)


def jackknife(stack: RasterStack, block_ids: Sequence[int],
              estimator: Callable[[RasterStack], np.ndarray]) -> np.ndarray:
    """Delete-one-block jackknife standard error of a full-chain estimator.

    ``estimator`` maps a stack (a subset of slices) to an array of
    estimates; the returned array holds the jackknife SE per component:
    sqrt((B-1)/B * sum_b (est_b - mean)^2).
    """
    est = jackknife_estimates(stack, block_ids, estimator)
    n_blocks = est.shape[0]
    mean = est.mean(axis=0)
    return np.sqrt((n_blocks - 1) / n_blocks * ((est - mean) ** 2).sum(axis=0))


# ---------------------------------------------------------------------------
# consistency harness for the two-level estimator
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ThetaConsistencyRow:
    n: int
    p_n: float
    theta: float


def consistency_check_theta(simulate: Callable[[int], RasterStack],
                            n_values: Sequence[int], gamma: float,
                            p0: float = 0.9) -> list[ThetaConsistencyRow]:
    """Tabulate theta_hat(p0, 1 - n^-gamma) against the number of slices.

    ``simulate`` maps a slice count to a stack; the level sequence
    p_n = 1 - n^-gamma keeps n*(1-p_n) growing for gamma in (0,1).
    """
    if not 0.0 < gamma < 1.0:
        raise ValueError(f"gamma must be in (0,1), got {gamma}")
    rows = []
    for n in n_values:
        if n < 2:
            raise ValueError(f"need at least 2 slices, got {n}")
        p_n = 1.0 - float(n) ** (-gamma)
        if not p_n > p0:
            raise ValueError(f"p_n={p_n} must exceed p0={p0}; increase n or gamma")
        stack = simulate(n)
        medians = {
            thr.p: median_range(range_entries(stack, thr, BoundaryPolicy.FILL_EXCEED),
                                stack.domain())
            for thr in quantile_fields(stack, (p0, p_n))
        }
        rows.append(ThetaConsistencyRow(
            n=n, p_n=p_n, theta=theta_hat(medians[p0], medians[p_n], p0, p_n)
        ))
    return rows
