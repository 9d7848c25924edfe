import numpy as np
import pytest
from scipy import stats

from exrange import (
    AdSimConfig,
    GaussianSimConfig,
    matern_alpha,
    matern_correlation,
    simulate_ad_field,
    simulate_gaussian,
)


def test_matern_alpha_values():
    assert matern_alpha(2.0, 1.0) == pytest.approx(2.0)
    assert matern_alpha(2.0, 2.0) == pytest.approx(0.5)
    assert matern_alpha(1.001, 1.0) > 500  # diverges toward nu = 1
    with pytest.raises(ValueError):
        matern_alpha(1.0, 1.0)
    with pytest.raises(ValueError):
        matern_alpha(2.0, 0.0)


def test_config_validation():
    with pytest.raises(ValueError):
        GaussianSimConfig(nx=8, ny=8, n_slices=2, nu=0.9)
    with pytest.raises(ValueError):
        GaussianSimConfig(nx=0, ny=8, n_slices=2)
    base = GaussianSimConfig(nx=8, ny=8, n_slices=2)
    with pytest.raises(ValueError):
        AdSimConfig(base=base, a_mix=0.0)
    assert base.alpha == pytest.approx(matern_alpha(base.nu, base.ell))


def test_determinism_bit_for_bit():
    cfg = GaussianSimConfig(nx=24, ny=20, n_slices=5, nu=2.0, ell=4.0, seed=99)
    a = simulate_gaussian(cfg)
    b = simulate_gaussian(cfg)
    assert a.values.tobytes() == b.values.tobytes()
    c = simulate_gaussian(GaussianSimConfig(nx=24, ny=20, n_slices=5, nu=2.0, ell=4.0, seed=100))
    assert a.values.tobytes() != c.values.tobytes()


def test_windowed_transform_matches_fft2_bit_for_bit():
    # the full-torus fft2 cropped to the window is the oracle
    from exrange.simgrf import _embedding_sqrt_eigs, _slice_rng

    cfg = GaussianSimConfig(nx=13, ny=9, n_slices=5, nu=2.5, ell=3.0, dx=0.5, seed=4)
    sqrt_eig, my, mx = _embedding_sqrt_eigs(cfg)
    expected = []
    for pair in range(3):
        rng = _slice_rng(cfg.seed, 0, pair)
        w = rng.standard_normal((my, mx)) + 1j * rng.standard_normal((my, mx))
        f = np.fft.fft2(sqrt_eig * w)[: cfg.ny, : cfg.nx]
        expected += [f.real, f.imag]
    expected = np.stack(expected[: cfg.n_slices]).astype(np.float32)
    assert simulate_gaussian(cfg).values.tobytes() == expected.tobytes()


def test_pixel_variance():
    cfg = GaussianSimConfig(nx=16, ny=16, n_slices=1000, nu=2.0, ell=3.0, seed=1)
    stack = simulate_gaussian(cfg)
    tol = 3 * np.sqrt(2.0 / 1000)
    for y, x in ((0, 0), (8, 8), (15, 3)):
        assert abs(stack.values[:, y, x].var() - 1.0) < tol


def test_correlation_matches_closed_matern_form():
    # nu = 2 closed Bessel form evaluated numerically is the oracle
    cfg = GaussianSimConfig(nx=40, ny=40, n_slices=400, nu=2.0, ell=6.0, seed=2)
    stack = simulate_gaussian(cfg)
    x = stack.values.astype(np.float64)
    for lag in (3, 6):
        prods = (x[:, :, :-lag] * x[:, :, lag:]).mean(axis=(1, 2))
        emp = prods.mean()
        se = prods.std(ddof=1) / np.sqrt(prods.size)
        rho = matern_correlation(lag * cfg.dx, cfg.nu, cfg.ell)[()]
        assert abs(emp - rho) < 3 * se


def test_marginals_pass_ks():
    # pool weakly dependent values: wide pixel stride relative to ell
    cfg = GaussianSimConfig(nx=64, ny=64, n_slices=400, nu=2.0, ell=2.0, seed=3)
    stack = simulate_gaussian(cfg)
    vals = stack.values[:, ::8, ::8].ravel()[:10_000].astype(np.float64)
    assert vals.size == 10_000
    assert stats.kstest(vals, "norm").pvalue > 0.01


def test_ad_reduces_to_gaussian_when_w_is_one():
    base = GaussianSimConfig(nx=16, ny=16, n_slices=6, nu=2.0, ell=3.0, seed=5)
    gauss = simulate_gaussian(base)
    ad = simulate_ad_field(AdSimConfig(base=base, a_mix=np.inf))
    assert ad.values.tobytes() == gauss.values.tobytes()


def test_ad_scales_are_heavy_tailed_and_deterministic():
    base = GaussianSimConfig(nx=8, ny=8, n_slices=200, nu=2.0, ell=3.0, seed=6)
    a = simulate_ad_field(AdSimConfig(base=base, a_mix=1.0))
    b = simulate_ad_field(AdSimConfig(base=base, a_mix=1.0))
    assert a.values.tobytes() == b.values.tobytes()
    gauss = simulate_gaussian(base)
    w = np.abs(a.values).max(axis=(1, 2)) / np.abs(gauss.values).max(axis=(1, 2))
    assert w.min() >= 1.0 - 1e-6
    assert w.max() > 10  # Pareto(1) over 200 slices reaches large scales


def test_embedding_enlarges_but_stays_exact():
    # long range forces a big torus; variance must still be unit
    cfg = GaussianSimConfig(nx=24, ny=24, n_slices=400, nu=2.0, ell=12.0, seed=7)
    stack = simulate_gaussian(cfg)
    assert abs(stack.values.var() - 1.0) < 0.1
