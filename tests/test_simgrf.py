import hashlib
import math

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
from exrange.cli import main


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


@pytest.mark.parametrize("name, value", [
    ("nu", math.nan), ("nu", math.inf), ("ell", math.nan), ("ell", math.inf),
    ("dx", math.nan), ("dx", math.inf),
])
def test_config_rejects_non_finite_parameters(name, value):
    # a NaN nu made every lag's correlation 1, a constant field
    with pytest.raises(ValueError, match=f"--{name}.*finite"):
        GaussianSimConfig(nx=8, ny=8, n_slices=2, **{name: value})
    if name != "dx":
        with pytest.raises(ValueError, match="finite"):
            matern_correlation(np.arange(3.0), **{"nu": 2.0, "ell": 3.0, name: value})


@pytest.mark.parametrize("flag, value", [
    ("--nu", "nan"), ("--nu", "inf"), ("--ell", "nan"), ("--ell", "inf"),
    ("--dx", "nan"), ("--dx", "inf"),
])
def test_simulate_rejects_non_finite_parameters(tmp_path, capsys, flag, value):
    out = tmp_path / "sim"
    assert main(["simulate", "--nx", "4", "--ny", "4", "--n", "2", flag, value,
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "validation" in err and f"({flag}) must be finite" in err
    assert not out.exists()


@pytest.mark.parametrize("nu, ell", [(150.0, 20.0), (171.0, 20.0), (2.0, 1e-300)])
def test_non_finite_matern_correlation_raises(tmp_path, capsys, nu, ell):
    # kv overflows at a large nu, gamma at nu >= 171, and h / ell at a tiny
    # ell: an error naming nu, ell and dx, with no RuntimeWarning (an error
    # under this suite's filter) and no search for a larger torus
    with pytest.raises(ValueError, match=f"nu={nu}, ell={ell} is not finite at distance 1.0"):
        matern_correlation(np.array([0.0, 1.0, 2.0]), nu, ell)
    out = tmp_path / "sim"
    assert main(["simulate", "--nx", "4", "--ny", "4", "--n", "2", "--nu", str(nu),
                 "--ell", str(ell), "--dx", "0.5", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"exrange: error: validation: the Matern correlation at nu={nu}, "
                          f"ell={ell} is not finite")
    assert err.rstrip().endswith("(grid spacing dx=0.5)") and "circulant" not in err
    assert not out.exists()


def test_simulate_refused_allocation_exits_compute(tmp_path, capsys):
    # ell = 1e7 asks for a 2^26-square torus, 32 PiB: past any 64-bit address
    # space, so numpy refuses it whatever the overcommit setting
    out = tmp_path / "sim"
    assert main(["simulate", "--nx", "4", "--ny", "4", "--n", "2", "--ell", "1e7",
                 "--out", str(out)]) == 5
    err = capsys.readouterr().err
    assert err.startswith("exrange: error: compute: ") and "PiB" in err
    assert not out.exists()


def test_determinism_bit_for_bit():
    cfg = GaussianSimConfig(nx=24, ny=20, n_slices=5, nu=2.0, ell=4.0, seed=99)
    a = simulate_gaussian(cfg)
    b = simulate_gaussian(cfg)
    assert a.values.tobytes() == b.values.tobytes()
    c = simulate_gaussian(GaussianSimConfig(nx=24, ny=20, n_slices=5, nu=2.0, ell=4.0, seed=100))
    assert a.values.tobytes() != c.values.tobytes()


def test_windowed_transform_matches_fft2_bit_for_bit():
    # the full-torus fft2 cropped to the window is the oracle; at 7 slices the
    # two workers take 2 + 2 pairs and the last pair's imaginary half is dropped
    from exrange.simgrf import _embedding_sqrt_eigs, _slice_rng

    for n_slices in (1, 2, 5, 7):
        cfg = GaussianSimConfig(nx=13, ny=9, n_slices=n_slices, nu=2.5, ell=3.0, dx=0.5, seed=4)
        sqrt_eig, my, mx = _embedding_sqrt_eigs(cfg)
        expected = []
        for pair in range((n_slices + 1) // 2):
            rng = _slice_rng(cfg.seed, 0, pair)
            w = rng.standard_normal((my, mx)) + 1j * rng.standard_normal((my, mx))
            f = np.fft.fft2(sqrt_eig * w)[: cfg.ny, : cfg.nx]
            expected += [f.real, f.imag]
        expected = np.stack(expected[: cfg.n_slices]).astype(np.float32)
        assert simulate_gaussian(cfg).values.tobytes() == expected.tobytes(), n_slices


def _full_grid_sqrt_eigs(config):
    # the embedding with the Matern function evaluated at every torus cell
    pad = int(math.ceil(6.0 * config.ell / config.dx))
    factor = 1
    while True:
        my = (1 << (config.ny + pad - 1).bit_length()) * factor
        mx = (1 << (config.nx + pad - 1).bit_length()) * factor
        ky = np.minimum(np.arange(my), my - np.arange(my))
        kx = np.minimum(np.arange(mx), mx - np.arange(mx))
        h = config.dx * np.sqrt(ky[:, None] ** 2 + kx[None, :] ** 2)
        cov = matern_correlation(h, config.nu, config.ell)
        lam = np.fft.fft2(cov).real
        if lam.min() > -1e-8 * lam.max():
            lam = np.maximum(lam, 0.0)
            return np.sqrt(lam / (my * mx)), my, mx, factor
        factor *= 2


def test_embedding_from_distinct_lags_equals_full_grid():
    from exrange.simgrf import _embedding_sqrt_eigs

    cfg = GaussianSimConfig(nx=20, ny=10, n_slices=1, nu=3.0, ell=6.0, dx=0.7)
    expected, my, mx, factor = _full_grid_sqrt_eigs(cfg)
    assert factor > 1  # the first torus has a negative spectrum
    sqrt_eig, my2, mx2 = _embedding_sqrt_eigs(cfg)
    assert (my2, mx2) == (my, mx)
    assert np.array_equal(sqrt_eig, expected)


# sha256 of the stack that `simulate` writes, recorded from the serial
# full-grid simulator: the benchmark's three inputs and the 128x128x100 stack;
# then stacks of one, two and three slices (one pair on the calling thread,
# a pair per worker, an odd last slice), recorded before the simulator left
# the split of its pairs to ``_pmap``
@pytest.mark.parametrize("argv, digest", [
    ("--nx 64 --ny 64 --n 200 --ell 20 --seed 7",
     "f8aff824131a5357cb9cf0513965a544eae55a7730d0950b4e6d87420711271c"),
    ("--nx 16 --ny 16 --n 100 --ell 8 --seed 7",
     "036c2050c1789f190fa5d99b0ee4ab223d11d78a7b9ae2db7631a3d7880bd96c"),
    ("--model admix --nx 12 --ny 12 --n 100 --ell 8 --seed 31",
     "2c044696960b9d0eb708c32387771f842ec1a10f60ccf4945b758e16e1abd9a1"),
    ("--nx 128 --ny 128 --n 100 --ell 20 --seed 7",
     "29c1426cc48020e22d6c7592a76cef2f025ed9f297a9f363c77e7e1fea64cc47"),
    ("--nx 20 --ny 12 --n 1 --ell 4 --seed 9",
     "76f5b3263808e85de83bde40f2f13f55b1f10c1d80ae39e88267a5c6f76d1b38"),
    ("--nx 20 --ny 12 --n 2 --ell 4 --seed 9",
     "9cf275b1006ff968e9d857ecb39fda356371b29a8912b1fe386e909c44ee7846"),
    ("--nx 20 --ny 12 --n 3 --ell 4 --seed 9",
     "443111070e2bf00583b9653864f643ac4cee4d04787802939b3d9eb341b9e867"),
], ids=["grid-g64", "spline-g16", "pixel-admix12", "128x128x100", "n1", "n2", "n3"])
def test_simulate_writes_pinned_bytes(tmp_path, argv, digest):
    assert main(["simulate", "--nu", "2", *argv.split(), "--out", str(tmp_path)]) == 0
    assert hashlib.sha256((tmp_path / "stack.f32").read_bytes()).hexdigest() == digest


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
