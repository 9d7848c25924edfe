"""Random-field simulators used as ground truth for the asymptotic checks.

Gaussian fields with Matern covariance are sampled exactly in distribution
by circulant embedding: the covariance is wrapped onto a torus large enough
that its FFT is positive semi-definite, white complex noise is colored in
the spectral domain, and the real and imaginary parts of each inverse
transform give two independent unit-variance slices. The asymptotically
dependent field multiplies independent Gaussian slices by a per-slice
heavy-tailed scalar.

The embedding's covariance depends on a torus cell only through its
integer squared lag ky^2 + kx^2, so the Matern function is evaluated once per
distinct squared lag and gathered onto the torus: a 512^2 torus holds about
22,000 of them.

Slices are generated pairwise from counter-derived seeds, so a stack is
reproducible no matter how generation is scheduled. Two worker threads each
draw one contiguous run of the pairs into a noise buffer of their own; the
normal draws and the FFTs release the GIL, and each pair's bytes are the
same on either worker.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ranges import _pmap
from .raster import RasterStack


def matern_alpha(nu: float, ell: float) -> float:
    """Second spectral moment nu / (ell^2 (nu - 1)) of the Matern model.

    Requires nu > 1; the moment diverges as nu decreases to 1.
    """
    if nu <= 1:
        raise ValueError(f"nu must exceed 1 for a finite second spectral moment, got {nu}")
    if ell <= 0:
        raise ValueError(f"ell must be positive, got {ell}")
    return nu / (ell * ell * (nu - 1.0))


def matern_correlation(h, nu: float, ell: float) -> np.ndarray:
    """Matern correlation at distance h (1 at h = 0); ValueError where its
    float64 evaluation is not finite, as at a large nu or a tiny ell."""
    if not (0 < nu < math.inf and 0 < ell < math.inf):
        raise ValueError(f"nu and ell must be finite and positive, got nu={nu}, ell={ell}")
    from scipy.special import gamma as gamma_fn, kv  # here, not at start-up: `pipeline` skips it

    h = np.asarray(h, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        x = math.sqrt(2.0 * nu) * h / ell
        out = np.ones_like(x)
        pos = x > 0
        xp = x[pos]
        out[pos] = (2.0 ** (1.0 - nu) / gamma_fn(nu)) * (xp ** nu) * kv(nu, xp)
    if not np.isfinite(out).all():
        raise ValueError(f"the Matern correlation at nu={nu}, ell={ell} is not finite at "
                         f"distance {h[~np.isfinite(out)].flat[0]}")
    return out


@dataclass(frozen=True)
class GaussianSimConfig:
    """Stationary isotropic unit-variance Gaussian field with Matern
    covariance on an nx-by-ny grid with spacing dx."""

    nx: int
    ny: int
    n_slices: int
    nu: float = 2.0
    ell: float = 20.0
    dx: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if min(self.nx, self.ny, self.n_slices) < 1:
            raise ValueError("nx, ny and n_slices must be at least 1")
        if not 1 < self.nu < math.inf:
            raise ValueError(f"nu (--nu) must be finite and exceed 1, got {self.nu}")
        for name, value in (("ell", self.ell), ("dx", self.dx)):
            if not 0 < value < math.inf:
                raise ValueError(f"{name} (--{name}) must be finite and positive, got {value}")


@dataclass(frozen=True)
class AdSimConfig:
    """Scale mixture X = W * G: per-slice Pareto(a_mix) scalar W times an
    independent Gaussian slice, giving asymptotic dependence at all lags.
    a_mix = inf degenerates to the plain Gaussian field (W identically 1).
    """

    base: GaussianSimConfig
    a_mix: float = 1.0

    def __post_init__(self):
        if not self.a_mix > 0:
            raise ValueError(f"a_mix must be positive, got {self.a_mix}")


def _next_pow2(n: int) -> int:
    return 1 << max(0, (n - 1)).bit_length()


def _embedding_sqrt_eigs(config: GaussianSimConfig) -> tuple[np.ndarray, int, int]:
    """Torus size and sqrt eigenvalues of a positive circulant embedding.

    The torus starts at the grid size plus several correlation lengths of
    padding and doubles (up to 8x) until the wrapped covariance has a
    non-negative spectrum; roundoff-scale negatives are clipped.
    """
    pad = int(math.ceil(6.0 * config.ell / config.dx))
    base_my = _next_pow2(config.ny + pad)
    base_mx = _next_pow2(config.nx + pad)
    factor = 1
    while True:
        my, mx = base_my * factor, base_mx * factor
        # the torus-sized array first, so that a torus too large to hold is
        # refused before any other allocation
        lag2 = np.empty((my, mx), dtype=np.int64)
        ky = np.minimum(np.arange(my), my - np.arange(my))
        kx = np.minimum(np.arange(mx), mx - np.arange(mx))
        np.add(ky[:, None] ** 2, kx[None, :] ** 2, out=lag2)
        distinct, inverse = np.unique(lag2, return_inverse=True)
        try:
            cov = matern_correlation(config.dx * np.sqrt(distinct), config.nu, config.ell)
        except ValueError as exc:
            raise ValueError(f"{exc} (grid spacing dx={config.dx})") from None
        lam = np.fft.fft2(cov[inverse.reshape(my, mx)]).real
        if lam.min() > -1e-8 * lam.max():
            lam = np.maximum(lam, 0.0)
            return np.sqrt(lam / (my * mx)), my, mx
        factor *= 2
        if factor > 8:
            raise ValueError(
                f"no positive circulant embedding up to enlargement factor 8 "
                f"(nu={config.nu}, ell={config.ell}, grid {config.ny}x{config.nx})"
            )


def _slice_rng(seed: int, stream: int, index: int) -> np.random.Generator:
    return np.random.default_rng((seed, stream, index))


def simulate_gaussian(config: GaussianSimConfig) -> RasterStack:
    """n_slices independent unit-variance Matern Gaussian slices."""
    sqrt_eig, my, mx = _embedding_sqrt_eigs(config)
    ny, nx, n = config.ny, config.nx, config.n_slices
    out = np.empty((n, ny, nx), dtype=np.float32)

    def draw(pairs: range) -> None:
        z = np.empty((my, mx))
        w = np.empty((my, mx), dtype=np.complex128)
        for pair in pairs:
            rng = _slice_rng(config.seed, 0, pair)
            # sqrt_eig * (a + 1j*b) for two normal fields a, b drawn in turn,
            # the complex product's bits up to the sign of an exact zero
            for part in (w.real, w.imag):
                rng.standard_normal(out=z)
                np.multiply(sqrt_eig, z, out=part)
            # fft2's two passes in its order, along rows then along columns, the
            # column pass only on the nx columns the window keeps: bit for bit
            # fft2(.)[:ny, :nx]
            f = np.fft.fft(np.fft.fft(w, axis=-1)[:, :nx], axis=-2)[:ny]
            out[2 * pair] = f.real
            if 2 * pair + 1 < n:
                out[2 * pair + 1] = f.imag

    _pmap(draw, range((n + 1) // 2), 2)
    return RasterStack(out, dx=config.dx, unit="px")


def pareto_scales(config: AdSimConfig) -> np.ndarray:
    """The per-slice mixing scalars W, ones at a_mix = inf (u ** -0.0 is 1)."""
    n = config.base.n_slices
    w = np.empty(n)
    for i in range(n):
        rng = _slice_rng(config.base.seed, 1, i)
        try:
            w[i] = rng.random() ** (-1.0 / config.a_mix)
        except OverflowError:  # beyond float64: an overflow like any other
            w[i] = math.inf
    return w


def simulate_ad_field(config: AdSimConfig) -> RasterStack:
    """Asymptotically dependent scale-mixture stack W * G; ValueError when a
    heavy tail takes W * G out of float32's range."""
    gauss = simulate_gaussian(config.base)
    w = pareto_scales(config)
    with np.errstate(over="ignore", invalid="ignore"):
        values = gauss.values * w[:, None, None].astype(np.float32)
    n_bad = values.size - np.count_nonzero(np.isfinite(values))
    if n_bad:
        raise ValueError(f"a_mix (--a-mix) {config.a_mix}: W * G leaves float32's range "
                         f"at {n_bad} values; a larger a_mix has a lighter tail")
    return RasterStack(values, dx=config.base.dx, unit=gauss.unit)
