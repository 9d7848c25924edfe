"""Acceptance suite: quantitative checks of the estimation chain against
closed forms and exact oracles on simulated fields.

Each test prints one line "Ax: PASS/FAIL <detail>" and asserts its stated
tolerance. A1 and A2 encode finite-level targets that pixel-center
distance quantization and slowly-converging normal quantiles place out of
reach at the pinned configuration; they are implemented exactly as stated
and report their measured values (see docs/acceptance.md for the
analysis, with reproducer scripts).
"""

import csv
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from scipy import ndimage
from scipy.stats import norm

import exrange
from exrange import (
    AdSimConfig,
    GaussianSimConfig,
    SplineMerModel,
    ThresholdField,
    distance_transform_squared,
    domain_distance,
    ecdf,
    erode,
    euler_characteristic,
    exceedance_stack,
    excursion_mask,
    fit_mer_pixel,
    jackknife,
    level_curve_length,
    loglog_level,
    median_range,
    quantile_field,
    range_field,
    simulate_ad_field,
    simulate_gaussian,
    tail_dependence,
    theta_hat,
)
from exrange.cli import main as cli_main
from exrange.morphology import RangeField
from exrange.tailfit import RangeSamples, _roughness_penalty, lad_objective
from exrange.thresholds import BoundaryPolicy
from spline_reference import objective_and_grad, sample_design

GRID = 256
ELL = 20.0
N_SLICES = 200
ALPHA = 2.0 / (ELL * ELL)


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"{name}: {'PASS' if ok else 'FAIL'} {detail}")


@pytest.fixture(scope="module")
def gaussian_stack():
    return simulate_gaussian(GaussianSimConfig(
        nx=GRID, ny=GRID, n_slices=N_SLICES, nu=2.0, ell=ELL, seed=29,
    ))


@pytest.fixture(scope="module")
def range_cubes(gaussian_stack):
    """Lazy cache of range-field cubes keyed by threshold spec."""
    cache = {}

    def get(kind: str, p: float) -> np.ndarray:
        key = (kind, p)
        if key not in cache:
            stack = gaussian_stack
            if kind == "const":
                u = np.full((stack.ny, stack.nx), norm.ppf(p), dtype=np.float32)
                thr = ThresholdField(p=p, u=u)
            else:
                thr = quantile_field(stack, p)
            dom = stack.domain()
            cube = np.empty((stack.nt, stack.ny, stack.nx), dtype=np.float32)
            for t in range(stack.nt):
                mask = excursion_mask(stack, t, thr, BoundaryPolicy.FILL_EXCEED)
                cube[t] = range_field(mask, dom, stack.dx, edge_fallback=True).r
            cache[key] = cube
        return cache[key]

    return get


def _fields(cube):
    return [RangeField(r=cube[t].astype(np.float64), dx=1.0) for t in range(cube.shape[0])]


def closed_form_slope(u: float) -> float:
    return math.sqrt(ALPHA) * math.exp(-u * u / 2) / (2 * (1 - norm.cdf(u)))


def test_a1_gaussian_small_radius_slope(gaussian_stack, range_cubes):
    t0 = time.time()
    u = float(norm.ppf(0.99))
    cube = range_cubes("const", 0.99)
    est = ecdf(_fields(cube), gaussian_stack.domain(), [1.0, 2.0, 3.0], 1.0)
    slope = float(np.mean(est.F / est.radii))
    target = closed_form_slope(u)
    rel = abs(slope - target) / target
    ok = rel <= 0.15
    _report("A1", ok, f"slope={slope:.4f} target={target:.4f} rel={rel:.3f} "
                      f"(tol 0.15) [{time.time()-t0:.0f}s]")
    assert ok, f"mean F(r)/r over r in {{1,2,3}} px: {slope:.4f} vs {target:.4f} ({rel:.1%})"


def _pooled_median(cube, domain):
    vals = cube[:, domain.inside]
    vals = np.sort(vals[vals > 0].astype(np.float64))
    if vals.size == 0:
        return 0.0
    k = vals.size
    return float(vals[k // 2] if k % 2 == 1 else vals[k // 2 - 1])


def test_a2_theta_consistency_gaussian(gaussian_stack, range_cubes):
    t0 = time.time()
    dom = gaussian_stack.domain()
    m1 = _pooled_median(range_cubes("quantile", 0.9), dom)
    m2 = _pooled_median(range_cubes("quantile", 0.99), dom)
    theta = theta_hat(m1, m2, 0.9, 0.99)
    ok = 0.35 <= theta <= 0.65
    _report("A2a", ok, f"gaussian theta(0.9,0.99)={theta:.3f} window [0.35,0.65] "
                       f"[{time.time()-t0:.0f}s]")
    assert ok, f"two-level theta on the Gaussian simulation: {theta:.3f} not in [0.35, 0.65]"


def test_a2_theta_consistency_scale_mixture():
    t0 = time.time()
    base = GaussianSimConfig(nx=GRID, ny=GRID, n_slices=N_SLICES, nu=2.0, ell=ELL, seed=31)
    stack = simulate_ad_field(AdSimConfig(base=base, a_mix=1.0))
    dom = stack.domain()
    medians = {}
    for p in (0.9, 0.99):
        thr = quantile_field(stack, p)
        fields = [
            range_field(excursion_mask(stack, t, thr, BoundaryPolicy.FILL_EXCEED),
                        dom, 1.0, edge_fallback=True)
            for t in range(stack.nt)
        ]
        medians[p] = median_range(fields, dom)
    theta = theta_hat(medians[0.9], medians[0.99], 0.9, 0.99)
    ok = theta <= 0.10
    _report("A2b", ok, f"scale-mixture theta(0.9,0.99)={theta:.3f} target <= 0.10 "
                       f"[{time.time()-t0:.0f}s]")
    assert ok, f"two-level theta on the scale-mixture simulation: {theta:.3f} > 0.10"


def brute_force_sq(mask):
    fy, fx = np.nonzero(~mask)
    ny, nx = mask.shape
    yy, xx = np.mgrid[0:ny, 0:nx]
    d2 = (yy.ravel()[:, None] - fy[None, :]) ** 2 + (xx.ravel()[:, None] - fx[None, :]) ** 2
    out = d2.min(axis=1).reshape(ny, nx)
    out[~mask] = 0
    return out


def test_a3_edt_exact_oracle():
    t0 = time.time()
    rng = np.random.default_rng(101)
    for _ in range(50):
        mask = rng.random((32, 32)) < rng.uniform(0.1, 0.95)
        if mask.all():
            mask[0, 0] = False
        assert np.array_equal(distance_transform_squared(mask), brute_force_sq(mask))
    _report("A3", True, f"50 masks, integer-exact [{time.time()-t0:.2f}s]")


def test_a4_erosion_identity():
    t0 = time.time()
    rng = np.random.default_rng(102)
    from exrange import DomainMask, ExcursionMask

    dom = DomainMask(np.ones((32, 32), dtype=bool))
    for _ in range(50):
        m = rng.random((32, 32)) < rng.uniform(0.2, 0.9)
        em = ExcursionMask(exceed=m)
        rf = range_field(em, dom, 1.0, edge_fallback=True)
        for r in range(1, 9):
            t_in = domain_distance(dom, 1.0) > float(r)
            lhs = int(np.count_nonzero((rf.r > r) & t_in))
            rhs = int(np.count_nonzero(erode(m, float(r)) & t_in))
            assert lhs == rhs
    _report("A4", True, f"50 masks x radii 1..8, exact [{time.time()-t0:.1f}s]")


def test_a5_tail_dependence_inequality(gaussian_stack, range_cubes):
    t0 = time.time()
    dom = gaussian_stack.domain()
    failures = []
    for p in (0.9, 0.95):
        cube = range_cubes("quantile", p)
        radii = [1.0, 2.0, 4.0, 8.0]
        est = ecdf(_fields(cube), dom, radii, 1.0)
        exceed = exceedance_stack(gaussian_stack, quantile_field(gaussian_stack, p), "erode")
        for j, lag in enumerate((1, 2, 4, 8)):
            chi = tail_dependence(exceed, dom.inside, (0, lag))
            n_ref = N_SLICES * GRID * (GRID - lag) * (1 - p)
            se_chi = math.sqrt(max(chi * (1 - chi), 1e-12) / n_ref)
            f_val = float(est.F[j])
            se_f = math.sqrt(max(f_val * (1 - f_val), 1e-12) / max(int(est.n_exceed[j]), 1))
            margin = 3.0 * math.sqrt(se_chi ** 2 + se_f ** 2)
            if 1 - chi > f_val + margin:
                failures.append((p, lag, 1 - chi, f_val + margin))
    ok = not failures
    _report("A5", ok, f"8 level-lag pairs checked [{time.time()-t0:.0f}s]"
            + (f" violations: {failures}" if failures else ""))
    assert ok, failures


def test_a6_curvature_density_closed_form(gaussian_stack):
    t0 = time.time()
    dom = gaussian_stack.domain()
    worst = 0.0
    for u in (1.5, 2.0, 2.5):
        total_len = 0.0
        n_cells = 0
        n_exceed = 0
        for t in range(gaussian_stack.nt):
            length, nc = level_curve_length(gaussian_stack.values[t], u, domain=dom, dx=1.0)
            total_len += length
            n_cells += nc
            n_exceed += np.count_nonzero(gaussian_stack.values[t] > u)
        c1 = total_len / (2.0 * n_cells)
        c2 = n_exceed / (gaussian_stack.nt * dom.n_pixels)
        ratio = 2.0 * c1 / c2
        target = closed_form_slope(u)
        worst = max(worst, abs(ratio - target) / target)
    ok = worst <= 0.10
    _report("A6", ok, f"worst rel err {worst:.3f} over u in {{1.5, 2.0, 2.5}} "
                      f"(tol 0.10) [{time.time()-t0:.0f}s]")
    assert ok


def euler_oracle(mask):
    n_comp = ndimage.label(mask, structure=np.ones((3, 3), dtype=int))[1]
    lab, n_bg = ndimage.label(np.pad(~mask, 1, constant_values=True))
    outside = lab[0, 0]
    holes = len(set(np.unique(lab)) - {0, outside})
    return n_comp - holes


def test_a7_geometry_oracles():
    t0 = time.time()
    rng = np.random.default_rng(103)
    for _ in range(100):
        ny, nx = rng.integers(4, 28, size=2)
        mask = rng.random((ny, nx)) < rng.uniform(0.2, 0.8)
        assert euler_characteristic(mask) == euler_oracle(mask)
    n = 512
    yy, xx = np.mgrid[0:n, 0:n]
    radius = 150.0
    f = radius - np.hypot(yy - (n - 1) / 2, xx - (n - 1) / 2)
    from exrange import DomainMask

    length, _ = level_curve_length(f, 0.0, domain=DomainMask(np.ones((n, n), bool)), dx=1.0)
    rel = abs(length - 2 * math.pi * radius) / (2 * math.pi * radius)
    ok = rel < 0.01
    _report("A7", ok, f"chi exact on 100 masks; disk perimeter rel err {rel:.5f} "
                      f"(tol 0.01) [{time.time()-t0:.1f}s]")
    assert ok


def lad_oracle(x, y):
    best = (math.inf, math.inf, math.inf)
    n = len(x)
    for i in range(n):
        for j in range(i + 1, n):
            if x[i] == x[j]:
                continue
            th = -(y[j] - y[i]) / (x[j] - x[i])
            be = y[i] + th * x[i]
            obj = sum(abs(y[k] - (be - th * x[k])) for k in range(n))
            cand = (obj, th, be)
            if cand < best:
                best = cand
    return best


def test_a8_regression_correctness():
    t0 = time.time()
    rng = np.random.default_rng(104)
    # exact lines are recovered with zero loss
    for _ in range(10):
        beta_true = float(rng.normal())
        theta_true = float(rng.normal())
        x = rng.normal(size=12)
        y = beta_true - theta_true * x
        beta, theta = fit_mer_pixel(x, y)
        assert beta == pytest.approx(beta_true, abs=1e-9)
        assert theta == pytest.approx(theta_true, abs=1e-9)
        assert lad_objective(beta, theta, x, y) < 1e-9
    # 100 random 20-sample problems against the pair-enumeration oracle
    for _ in range(100):
        x = np.round(rng.normal(size=20), 4)
        y = np.round(rng.normal(size=20), 4)
        beta, theta = fit_mer_pixel(x, y)
        obj_o, theta_o, beta_o = lad_oracle(list(x), list(y))
        assert lad_objective(beta, theta, x, y) == pytest.approx(obj_o, rel=1e-12)
        assert (theta, beta) == pytest.approx((theta_o, beta_o), rel=1e-9)
    # spline gradient against central finite differences
    ny = nx = 10
    yy, xx = np.mgrid[0:ny, 0:nx]
    parts = []
    for p in (0.85, 0.9, 0.95):
        cov = loglog_level(p)
        parts.append((yy.ravel(), xx.ravel(), np.full(yy.size, cov),
                      1.0 - 0.5 * cov + 0.3 * rng.laplace(size=yy.size)))
    samples = RangeSamples(
        pixel_y=np.concatenate([a[0] for a in parts]).astype(np.int64),
        pixel_x=np.concatenate([a[1] for a in parts]).astype(np.int64),
        x=np.concatenate([a[2] for a in parts]),
        y=np.concatenate([a[3] for a in parts]),
        block=np.zeros(3 * ny * nx, dtype=np.int64),
    )
    model = SplineMerModel(knots_x=4, knots_y=4, penalty=0.8, iters=5)
    design = sample_design(model, samples, (ny, nx))
    pen = _roughness_penalty(4, 4)
    params = rng.normal(size=32) * 0.4
    _, grad = objective_and_grad(model, params, design, samples.x, samples.y, 1e-3, pen)
    h = 1e-6
    worst = 0.0
    for k in range(params.size):
        ek = np.zeros_like(params)
        ek[k] = h
        fp, _ = objective_and_grad(model, params + ek, design, samples.x, samples.y, 1e-3,
                                   pen)
        fm, _ = objective_and_grad(model, params - ek, design, samples.x, samples.y, 1e-3,
                                   pen)
        fd = (fp - fm) / (2 * h)
        worst = max(worst, abs(grad[k] - fd) / max(abs(fd), abs(grad[k]), 1e-8))
    assert worst < 1e-5
    # jackknife SE vanishes on duplicated blocks
    from exrange import RasterStack

    block = rng.normal(size=(5, 8, 8)).astype(np.float32)
    stack = RasterStack(np.concatenate([block] * 4))
    ids = np.repeat(np.arange(4), 5)
    se = jackknife(stack, ids, lambda s, kept: np.array([float(s.values.mean())]))
    assert np.allclose(se, 0.0, atol=1e-12)
    _report("A8", True, f"LAD oracle, gradient (worst {worst:.2e}), jackknife "
                        f"[{time.time()-t0:.0f}s]")


def test_a9_pipeline_determinism(tmp_path):
    t0 = time.time()
    sim = tmp_path / "sim"
    assert cli_main(["simulate", "--model", "gaussian", "--nx", "64", "--ny", "64",
                     "--n", "60", "--nu", "2", "--ell", "8", "--seed", "7",
                     "--out", str(sim)]) == 0
    args = ["pipeline", "--in", str(sim), "--levels", "0.85:0.95:0.05",
            "--knots", "4x4", "--iters", "30", "--predict-p", "0.989"]
    outs = []
    for name, threads in (("r1", "1"), ("r2", "8"), ("r3", "1")):
        out = tmp_path / name
        assert cli_main(args + ["--out", str(out), "--threads", threads]) == 0
        outs.append(out)
    names = sorted(p.name for p in outs[0].glob("*.csv"))
    assert names, "pipeline produced no CSV output"
    for name in names:
        b0 = (outs[0] / name).read_bytes()
        assert b0 == (outs[1] / name).read_bytes(), f"{name}: threads changed bytes"
        assert b0 == (outs[2] / name).read_bytes(), f"{name}: rerun changed bytes"
    with open(outs[0] / "cdf.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["p", "r", "F", "n_exceed"]
    _report("A9", True, f"{len(names)} CSVs byte-identical across reruns and "
                        f"thread counts [{time.time()-t0:.0f}s]")


def test_a9_pipeline_identical_across_blas_threads(tmp_path):
    # the float32 reference checks assume the fit does not depend on the BLAS
    # reduction order a caller's OPENBLAS_NUM_THREADS might pick
    t0 = time.time()
    sim = tmp_path / "sim"
    assert cli_main(["simulate", "--model", "gaussian", "--nx", "64", "--ny", "64",
                     "--n", "60", "--nu", "2", "--ell", "8", "--seed", "7",
                     "--out", str(sim)]) == 0
    src = str(Path(exrange.__file__).resolve().parents[1])
    outs = []
    for blas_threads in ("1", "2"):
        out = tmp_path / f"blas{blas_threads}"
        env = {k: v for k, v in os.environ.items() if k != "OMP_NUM_THREADS"}
        env.update(OPENBLAS_NUM_THREADS=blas_threads,
                   PYTHONPATH=src + os.pathsep + env.get("PYTHONPATH", ""))
        subprocess.run([sys.executable, "-m", "exrange.cli", "pipeline", "--in", str(sim),
                        "--out", str(out), "--fit", "spline", "--threads", "1",
                        "--levels", "0.85:0.95:0.05", "--predict-p", "0.989"],
                       env=env, check=True, capture_output=True, timeout=300)
        outs.append(out)
    names = sorted(p.name for p in outs[0].iterdir())
    assert any(name.startswith("mer_") for name in names)
    assert names == sorted(p.name for p in outs[1].iterdir())
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name
    _report("A9", True, f"{len(names)} files byte-identical on 1 and 2 BLAS threads "
                        f"[{time.time()-t0:.0f}s]")
