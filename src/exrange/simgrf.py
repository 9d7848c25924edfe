"""Random-field simulators used as ground truth for the asymptotic checks.

Gaussian fields with Matern covariance are sampled exactly in distribution
by circulant embedding: the covariance is wrapped onto a torus large enough
that its FFT is positive semi-definite, white complex noise is colored in
the spectral domain, and the real and imaginary parts of each inverse
transform give two independent unit-variance slices. The asymptotically
dependent field multiplies independent Gaussian slices by a per-slice
heavy-tailed scalar.

Slices are generated pairwise from counter-derived seeds, so a stack is
reproducible no matter how generation is scheduled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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
    """Matern correlation at distance h (1 at h = 0)."""
    if nu <= 0 or ell <= 0:
        raise ValueError(f"nu and ell must be positive, got nu={nu}, ell={ell}")
    from scipy.special import gamma as gamma_fn, kv  # here, not at start-up: `pipeline` skips it

    h = np.asarray(h, dtype=np.float64)
    x = math.sqrt(2.0 * nu) * h / ell
    out = np.ones_like(x)
    pos = x > 0
    xp = x[pos]
    out[pos] = (2.0 ** (1.0 - nu) / gamma_fn(nu)) * (xp ** nu) * kv(nu, xp)
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
        if self.nu <= 1:
            raise ValueError(f"nu must exceed 1, got {self.nu}")
        if self.ell <= 0 or self.dx <= 0:
            raise ValueError("ell and dx must be positive")

    @property
    def alpha(self) -> float:
        return matern_alpha(self.nu, self.ell)


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
        ky = np.minimum(np.arange(my), my - np.arange(my))
        kx = np.minimum(np.arange(mx), mx - np.arange(mx))
        h = config.dx * np.sqrt(ky[:, None] ** 2 + kx[None, :] ** 2)
        cov = matern_correlation(h, config.nu, config.ell)
        lam = np.fft.fft2(cov).real
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
    out = np.empty((config.n_slices, config.ny, config.nx), dtype=np.float32)
    for pair in range((config.n_slices + 1) // 2):
        rng = _slice_rng(config.seed, 0, pair)
        w = rng.standard_normal((my, mx)) + 1j * rng.standard_normal((my, mx))
        # fft2's two passes in its order, along rows then along columns, the
        # column pass only on the nx columns the window keeps: bit for bit
        # fft2(.)[:ny, :nx]
        f = np.fft.fft(np.fft.fft(sqrt_eig * w, axis=-1)[:, : config.nx], axis=-2)[: config.ny]
        out[2 * pair] = f.real
        if 2 * pair + 1 < config.n_slices:
            out[2 * pair + 1] = f.imag
    return RasterStack(out, dx=config.dx, unit="px")


def pareto_scales(config: AdSimConfig) -> np.ndarray:
    """The per-slice mixing scalars W (ones when a_mix is infinite)."""
    n = config.base.n_slices
    if math.isinf(config.a_mix):
        return np.ones(n)
    w = np.empty(n)
    for i in range(n):
        rng = _slice_rng(config.base.seed, 1, i)
        w[i] = rng.random() ** (-1.0 / config.a_mix)
    return w


def simulate_ad_field(config: AdSimConfig) -> RasterStack:
    """Asymptotically dependent scale-mixture stack W * G."""
    gauss = simulate_gaussian(config.base)
    w = pareto_scales(config)
    values = gauss.values * w[:, None, None].astype(np.float32)
    return RasterStack(values, dx=config.base.dx, unit=gauss.unit)
