import math

import numpy as np
import pytest

from exrange import (
    DegenerateFitError,
    DomainMask,
    MerSurface,
    RasterStack,
    SplineMerModel,
    collect_samples,
    fit_mer_pixel,
    fit_mer_pixel_map,
    jackknife,
    loglog_level,
    predict_mer_map,
    theta_hat,
)
from exrange.morphology import RangeField
from exrange.tailfit import RangeSamples, lad_objective
from spline_reference import objective_and_grad, sample_design


def lad_oracle(x, y):
    """Plain-loop pair enumeration with the same tie-break."""
    best = (math.inf, math.inf, math.inf)
    n = len(x)
    for i in range(n):
        for j in range(i + 1, n):
            if x[i] == x[j]:
                continue
            slope = (y[j] - y[i]) / (x[j] - x[i])
            theta = -slope
            beta = y[i] + theta * x[i]
            obj = sum(abs(y[k] - (beta - theta * x[k])) for k in range(n))
            cand = (obj, theta, beta)
            if cand < best:
                best = cand
    return best[2], best[1]


def lad_enumeration_oracle(x, y):
    """Score every pair line against every sample in one block: the
    vectorized full enumeration, with the tie-break of ``fit_mer_pixel``."""
    ii, jj = np.triu_indices(x.size, k=1)
    keep = x[ii] != x[jj]
    ii, jj = ii[keep], jj[keep]
    tc = -(y[jj] - y[ii]) / (x[jj] - x[ii])
    bc = y[ii] + tc * x[ii]
    obj = np.abs(y[None, :] - (bc[:, None] - tc[:, None] * x[None, :])).sum(axis=1)
    k = int(np.lexsort((bc, tc, obj))[0])
    return float(bc[k]), float(tc[k])


def test_theta_hat_paper_arithmetic():
    # ln(-ln 0.1) = 0.834032, ln(-ln 0.01) = 1.527180; both differences
    # equal -0.693147, so the ratio is exactly 1
    assert theta_hat(2.0, 1.0, 0.9, 0.99) == pytest.approx(1.0, rel=1e-12)
    assert loglog_level(0.9) == pytest.approx(0.8340324452, rel=1e-9)
    assert loglog_level(0.99) == pytest.approx(1.5271796258, rel=1e-9)


def test_theta_hat_degenerate_clauses():
    assert theta_hat(2.0, 2.0, 0.9, 0.99) == 0.0
    assert theta_hat(0.0, 1.0, 0.9, 0.99) == 0.0
    assert theta_hat(1.0, 0.0, 0.9, 0.99) == 0.0
    with pytest.raises(ValueError):
        theta_hat(1.0, 2.0, 0.9, 0.9)


def test_theta_hat_on_median_maps_matches_scalar_calls():
    m1 = np.array([[2.0, 0.0, 1.5], [3.0, 1.0, 0.0]])
    m2 = np.array([[1.0, 1.0, 1.5], [0.0, 2.5, 0.0]])
    theta = theta_hat(m1, m2, 0.9, 0.99)
    assert theta.shape == m1.shape
    expected = [theta_hat(a, b, 0.9, 0.99) for a, b in zip(m1.ravel(), m2.ravel())]
    assert theta.ravel().tolist() == pytest.approx(expected, rel=1e-15)
    assert theta[0, 1] == theta[1, 0] == theta[1, 2] == 0.0
    with pytest.raises(ValueError):
        theta_hat(np.array([1.0, -1.0]), np.array([1.0, 2.0]), 0.9, 0.99)


def test_theta_hat_swap_invariance():
    a = theta_hat(2.0, 1.3, 0.9, 0.99)
    b = theta_hat(1.3, 2.0, 0.99, 0.9)
    assert a == pytest.approx(b, rel=1e-12)


def test_lad_exact_line_recovery():
    x = np.array([0.0, 0.5, 1.0, 2.0, 3.0])
    y = 3.0 - 0.5 * x
    beta, theta = fit_mer_pixel(x, y)
    assert beta == pytest.approx(3.0, abs=1e-12)
    assert theta == pytest.approx(0.5, abs=1e-12)
    assert lad_objective(beta, theta, x, y) == pytest.approx(0.0, abs=1e-12)


def test_lad_outlier_robustness():
    x = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
    y = 1.0 - 0.25 * x
    y_out = y.copy()
    y_out[2] += 50.0
    beta, theta = fit_mer_pixel(x, y_out)
    assert beta == pytest.approx(1.0, abs=1e-12)
    assert theta == pytest.approx(0.25, abs=1e-12)


def test_lad_matches_pair_oracle():
    rng = np.random.default_rng(41)
    for _ in range(25):
        n = int(rng.integers(3, 15))
        x = np.round(rng.standard_normal(n), 3)
        if np.unique(x).size < 2:
            continue
        y = np.round(rng.standard_normal(n), 3)
        beta, theta = fit_mer_pixel(x, y)
        beta_o, theta_o = lad_oracle(list(x), list(y))
        assert lad_objective(beta, theta, x, y) == pytest.approx(
            lad_objective(beta_o, theta_o, x, y), rel=1e-12
        )
        assert (theta, beta) == pytest.approx((theta_o, beta_o), rel=1e-12)


def test_lad_objective_certificate():
    # returned objective never exceeds any pair-defined candidate line
    rng = np.random.default_rng(42)
    x = rng.standard_normal(12)
    y = rng.standard_normal(12)
    beta, theta = fit_mer_pixel(x, y)
    obj = lad_objective(beta, theta, x, y)
    for i in range(12):
        for j in range(i + 1, 12):
            if x[i] == x[j]:
                continue
            th = -(y[j] - y[i]) / (x[j] - x[i])
            be = y[i] + th * x[i]
            assert obj <= lad_objective(be, th, x, y) + 1e-12


def _lad_problem(rng, kind, n):
    levels = np.log(-np.log(1.0 - np.round(np.arange(0.85, 0.99, 0.01), 2)))
    if kind == 0:   # ranges on the pixel lattice, sqrt(k)*dx, at 2-14 levels
        x = rng.choice(levels[:int(rng.integers(2, 15))], n)
        y = np.log(np.sqrt(rng.integers(1, 40, n)) * rng.choice([1.0, 0.5, 2.5]))
    elif kind == 1:  # few lattice values: long flat stretches of the profile
        x = rng.choice(levels[:int(rng.integers(2, 6))], n)
        y = rng.choice(np.log(np.sqrt([1.0, 2.0, 4.0, 5.0])), n)
    elif kind == 2:  # rounded normals: ties among covariates and responses
        x = np.round(rng.standard_normal(n), 2)
        y = np.round(rng.standard_normal(n), 1)
    elif kind == 3:  # wide scales
        x = rng.standard_normal(n) * 10.0 ** rng.uniform(-2, 2)
        y = rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 3)
    else:           # exact lines: the minimum objective is zero
        x = rng.choice(levels, n)
        y = rng.normal() - rng.normal() * x
    return x, y


@pytest.mark.parametrize("block", [128, 1024, None], ids=["block128", "block1024", "default"])
def test_lad_bit_identical_to_full_enumeration(monkeypatch, block):
    # small blocks force the bracket search on small problems
    from exrange import tailfit

    if block is not None:
        monkeypatch.setattr(tailfit, "_LAD_BLOCK", block)
    rng = np.random.default_rng({128: 61, 1024: 62, None: 63}[block])
    checked = bracketed = 0
    while checked < 1000:
        n = int(rng.integers(2, 41)) if block else int(rng.integers(2, 151))
        x, y = _lad_problem(rng, checked % 5, n)
        if np.unique(x).size < 2:
            continue
        beta, theta = fit_mer_pixel(x, y)
        beta_o, theta_o = lad_enumeration_oracle(x, y)
        assert (beta, theta) == (beta_o, theta_o), (checked, n)
        assert math.copysign(1.0, theta) == math.copysign(1.0, theta_o)
        checked += 1
        bracketed += n * (n - 1) // 2 * n > tailfit._LAD_BLOCK
    assert 500 < bracketed < checked


def test_pixel_map_fit_ragged_pixels_match_enumeration():
    rng = np.random.default_rng(64)
    levels = np.array([loglog_level(p) for p in (0.85, 0.9, 0.95, 0.98)])
    ny, nx = 5, 7
    counts = rng.integers(0, 130, size=ny * nx)
    counts[[3, 11]] = [1, 2]                     # below min_samples
    single = [5, 20]                             # one level only
    counts[single] = [40, 60]
    pix, xs = [], []
    for f, c in enumerate(counts):
        pix.append(np.full(c, f))
        xs.append(np.full(c, levels[1]) if f in single else rng.choice(levels, c))
    pix = np.concatenate(pix)
    order = rng.permutation(pix.size)            # samples arrive unsorted
    pix = pix[order]
    x = np.concatenate(xs)[order]
    y = np.log(np.sqrt(rng.integers(1, 30, pix.size)))
    samples = RangeSamples(pixel_y=pix // nx, pixel_x=pix % nx, x=x, y=y,
                           block=np.zeros(pix.size, dtype=np.int64))
    surf = fit_mer_pixel_map(samples)
    for f in range(ny * nx):
        b, t = surf.beta[f // nx, f % nx], surf.theta[f // nx, f % nx]
        sel = np.flatnonzero(pix == f)           # stable: the order the map fit sees
        if counts[f] < 3 or f in single:
            assert np.isnan(b) and np.isnan(t), f
        else:
            assert (b, t) == lad_enumeration_oracle(x[sel], y[sel]), f
    assert np.isnan(surf.beta).sum() == (counts < 3).sum() + len(single)


def test_pixel_map_fit_matches_enumeration_across_cached_pair_counts(monkeypatch):
    # one map whose pixels straddle the bracketing threshold, hold more
    # distinct covariate vectors than the pair-design cache keeps, and
    # include a single-level pixel and pixels below min_samples; every
    # fitted pixel costs exactly one fit_mer_pixel call
    from exrange import tailfit

    rng = np.random.default_rng(66)
    levels = np.array([loglog_level(p) for p in (0.85, 0.9, 0.95, 0.98)])
    ny, nx = 4, 6
    counts = np.r_[0, 1, 2, 40, 3, 4, 7, 12, 20, 26, 31, 36, 45, 60, 75, 90,
                   28, 33, 41, 52, 66, 9, 17, 110]
    single = 12                                 # 45 samples at one level
    pix = np.repeat(np.arange(ny * nx), counts)
    x = rng.choice(levels, pix.size)
    x[pix == single] = levels[2]
    y = np.log(np.sqrt(rng.integers(1, 40, pix.size)))
    order = rng.permutation(pix.size)
    pix, x, y = pix[order], x[order], y[order]
    samples = RangeSamples(pixel_y=pix // nx, pixel_x=pix % nx, x=x, y=y,
                           block=np.zeros(pix.size, dtype=np.int64))
    calls = []
    fit = tailfit.fit_mer_pixel

    def counting(xv, yv):
        calls.append(xv.tobytes())
        return fit(xv, yv)

    monkeypatch.setattr(tailfit, "fit_mer_pixel", counting)
    tailfit._pair_design.cache_clear()
    surf = fit_mer_pixel_map(samples)
    fitted = [f for f in range(ny * nx) if counts[f] >= 3 and f != single]
    sizes = [len(c) // 8 for c in calls]
    assert sorted(sizes) == sorted(counts[fitted].tolist())
    cache = tailfit._pair_design.cache_info()
    assert len(set(calls)) > cache.maxsize >= cache.currsize
    pairs = [n * (n - 1) // 2 * n for n in sizes]
    assert min(pairs) <= tailfit._LAD_BLOCK < max(pairs)
    for f in range(ny * nx):
        b, t = surf.beta[f // nx, f % nx], surf.theta[f // nx, f % nx]
        sel = np.flatnonzero(pix == f)           # stable: the order the map fit sees
        if f in fitted:
            assert (b, t) == lad_enumeration_oracle(x[sel], y[sel]), f
        else:
            assert np.isnan(b) and np.isnan(t), f


def test_pixel_map_fit_pair_design_cache_is_sound():
    # every pixel has 119 samples, as at 14 pipeline levels over 100 slices,
    # but the covariate vectors differ: pixels 0-4 share the pipeline's
    # vector (level by level, 15 down to 2 samples), pixels 5-8 have other
    # level mixes and pixels 9-11 the pipeline's levels in another order.
    # A shared pair design must never serve a pixel with other covariates
    from exrange import tailfit

    rng = np.random.default_rng(67)
    levels = np.array([loglog_level(p) for p in np.round(np.arange(0.85, 0.985, 0.01), 2)])
    pipeline = np.repeat(levels, np.arange(15, 1, -1))
    vectors = [pipeline] * 5
    vectors += [np.sort(rng.choice(levels, pipeline.size)) for _ in range(4)]
    vectors += [rng.permutation(pipeline) for _ in range(3)]
    ny, nx = 3, 4
    n = pipeline.size
    # samples arrive slice by slice, each pixel's in its own order
    pix = np.tile(np.arange(ny * nx), n)
    x = np.stack(vectors, axis=1).ravel()
    y = np.log(np.sqrt(rng.choice([1, 2, 4, 5, 8, 9, 10], pix.size)))
    samples = RangeSamples(pixel_y=pix // nx, pixel_x=pix % nx, x=x, y=y,
                           block=np.zeros(pix.size, dtype=np.int64))
    tailfit._pair_design.cache_clear()
    surf = fit_mer_pixel_map(samples)
    cache = tailfit._pair_design.cache_info()
    assert (cache.hits, cache.misses) == (4, 8)
    for f in range(ny * nx):
        sel = np.flatnonzero(pix == f)
        assert x[sel].tobytes() == vectors[f].tobytes()
        assert (surf.beta[f // nx, f % nx], surf.theta[f // nx, f % nx]) == \
            lad_enumeration_oracle(x[sel], y[sel]), f
    for a in tailfit._pair_design(pipeline.tobytes()):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = a[-1]


def test_lad_work_on_a_pipeline_shaped_pixel():
    # a pixel as the 14-level pipeline leaves it: 119 samples, 15 down to 2
    # per level, lattice responses log(sqrt(k)). Full enumeration scores
    # 6461 pair lines against 119 samples, 768,859 elements; the bracket
    # rounds and the scoring of the distinct lines left in the bracket must
    # stay far below that, whatever the time they take. The bound is about
    # 1.3 times the largest count measured on these problems, 16,898
    from exrange import tailfit

    bound = 22_000
    levels = np.array([loglog_level(p) for p in np.round(np.arange(0.85, 0.985, 0.01), 2)])
    per_level = np.arange(15, 1, -1)
    x = np.repeat(levels, per_level)
    work = []
    profile, scores = tailfit._lad_profile, tailfit._lad_scores

    def counted_profile(xv, yv, thetas):
        work[-1] += thetas.size * xv.size
        return profile(xv, yv, thetas)

    def counted_scores(xv, yv, thetas, betas):
        work[-1] += thetas.size * xv.size
        return scores(xv, yv, thetas, betas)

    rng = np.random.default_rng(7)
    problems = []
    for _ in range(12):
        # ranges shrinking with the level; few lattice values (a flat
        # profile); a skewed spread of lattice values
        problems.append(rng.integers(1, 1 + np.repeat(np.arange(30, 2, -2), per_level)))
        problems.append(rng.choice([1, 2, 4, 5], x.size))
        problems.append(rng.choice([1, 2, 4, 5, 8, 9, 10, 13, 16, 17], x.size,
                                   p=np.r_[0.3, 0.2, 0.1, 0.1, [0.05] * 6]))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tailfit, "_lad_profile", counted_profile)
        mp.setattr(tailfit, "_lad_scores", counted_scores)
        fits = []
        for k in problems:
            work.append(0)
            fits.append(fit_mer_pixel(x, np.log(np.sqrt(k))))
    assert max(work) <= bound, sorted(work)[-5:]
    for k, fitted in zip(problems, fits):
        assert fitted == lad_enumeration_oracle(x, np.log(np.sqrt(k)))


def test_lad_overflowing_slope_matches_enumeration():
    # x = 0 and the smallest subnormal: their pair slope overflows to inf,
    # so no bracket tolerance is finite and every line must be scored
    rng = np.random.default_rng(65)
    x = np.r_[0.0, 5e-324, rng.standard_normal(60)]
    y = rng.standard_normal(62)
    with np.errstate(all="ignore"):
        assert fit_mer_pixel(x, y) == lad_enumeration_oracle(x, y)


def test_lad_unidentifiable():
    with pytest.raises(DegenerateFitError):
        fit_mer_pixel(np.array([1.0, 1.0, 1.0]), np.array([1.0, 2.0, 3.0]))
    with pytest.raises(DegenerateFitError):
        fit_mer_pixel(np.array([1.0]), np.array([1.0]))
    # NaN differs from itself, yet NaN covariates give no slope either
    with pytest.raises(DegenerateFitError, match="one covariate value"):
        fit_mer_pixel(np.array([np.nan, np.nan, np.nan]), np.array([1.0, 2.0, 3.0]))


def _samples_from_surface(rng, ny, nx, beta_fn, theta_fn, levels, reps, noise=0.0):
    ys, xs, covs, resp, blocks = [], [], [], [], []
    for t, p in enumerate(np.tile(levels, reps)):
        cov = loglog_level(p)
        yy, xx = np.mgrid[0:ny, 0:nx]
        iy = yy.ravel()
        ix = xx.ravel()
        mu = beta_fn(iy, ix) - theta_fn(iy, ix) * cov
        eps = noise * rng.laplace(size=mu.size) if noise else 0.0
        ys.append(iy)
        xs.append(ix)
        covs.append(np.full(mu.size, cov))
        resp.append(mu + eps)
        blocks.append(np.full(mu.size, t // len(levels), dtype=np.int64))
    return RangeSamples(
        pixel_y=np.concatenate(ys).astype(np.int64),
        pixel_x=np.concatenate(xs).astype(np.int64),
        x=np.concatenate(covs),
        y=np.concatenate(resp),
        block=np.concatenate(blocks),
    )


def test_spline_gradient_matches_finite_differences():
    rng = np.random.default_rng(43)
    samples = _samples_from_surface(
        rng, 12, 12, lambda y, x: 2.0 + 0.01 * x, lambda y, x: 0.5 + 0.005 * y,
        levels=[0.85, 0.9, 0.95], reps=2, noise=0.3,
    )
    model = SplineMerModel(knots_x=5, knots_y=5, penalty=0.7, iters=10)
    design = sample_design(model, samples, (12, 12))
    from exrange.tailfit import _roughness_penalty

    pen = _roughness_penalty(5, 5)
    params = rng.standard_normal(2 * 25) * 0.5
    _, grad = objective_and_grad(model, params, design, samples.x, samples.y, 1e-3, pen)
    h = 1e-6
    for k in rng.choice(params.size, size=12, replace=False):
        ek = np.zeros_like(params)
        ek[k] = h
        f_plus, _ = objective_and_grad(model, params + ek, design, samples.x, samples.y, 1e-3,
                                       pen)
        f_minus, _ = objective_and_grad(model, params - ek, design, samples.x, samples.y, 1e-3,
                                        pen)
        fd = (f_plus - f_minus) / (2 * h)
        denom = max(abs(fd), abs(grad[k]), 1e-8)
        assert abs(grad[k] - fd) / denom < 1e-5


def test_spline_recovers_constant_truth():
    rng = np.random.default_rng(44)
    samples = _samples_from_surface(
        rng, 16, 16, lambda y, x: 2.0 + 0 * x, lambda y, x: 0.5 + 0 * x,
        levels=[0.7, 0.9, 0.97, 0.995], reps=5, noise=0.25,
    )
    model = SplineMerModel(knots_x=6, knots_y=6, penalty=1.0, iters=60)
    model.fit(samples)
    surface = model.to_surface()
    beta, theta = surface.beta, surface.theta
    assert np.all(np.abs(beta - 2.0) < 0.1)
    assert np.all(np.abs(theta - 0.5) < 0.1)


def test_spline_huge_penalty_approaches_pooled_constant_fit():
    # the roughness-dominated limit is the constant-coefficient fit: the
    # surfaces collapse to constants that solve the pooled problem
    rng = np.random.default_rng(45)
    samples = _samples_from_surface(
        rng, 10, 10, lambda y, x: 1.5 + 0 * x, lambda y, x: 0.8 + 0 * x,
        levels=[0.85, 0.92, 0.97], reps=3, noise=0.4,
    )
    model = SplineMerModel(knots_x=5, knots_y=5, penalty=1e9, iters=900)
    model.fit(samples)
    surface = model.to_surface()
    beta, theta = surface.beta, surface.theta
    assert beta.max() - beta.min() < 1e-6
    assert theta.max() - theta.min() < 1e-6
    # oracle: the constant-coefficient optimum of the same smoothed
    # objective, found by an independent derivative-free minimizer
    from scipy.optimize import minimize

    kappa = 1e-3

    def smoothed_pooled(q):
        e = samples.y - (q[0] - q[1] * samples.x)
        a = np.abs(e)
        return float(np.where(a <= kappa, e * e / (4 * kappa), 0.5 * a - kappa / 4).sum())

    beta_c, theta_c = fit_mer_pixel(samples.x, samples.y)
    res = minimize(smoothed_pooled, [beta_c, theta_c], method="Nelder-Mead",
                   options=dict(xatol=1e-12, fatol=1e-14, maxiter=20000))
    assert abs(beta[0, 0] - res.x[0]) < 1e-4
    assert abs(theta[0, 0] - res.x[1]) < 1e-4
    # and the smoothing floor keeps it near the exact LAD constants
    assert np.all(np.abs(beta - beta_c) < 1e-2)
    assert np.all(np.abs(theta - theta_c) < 1e-2)


def test_spline_smooth_truth_recovery():
    rng = np.random.default_rng(46)
    beta_fn = lambda y, x: 2.0 + 0.3 * np.sin(x / 8.0)
    theta_fn = lambda y, x: 0.5 + 0.2 * (y / 24.0)
    samples = _samples_from_surface(
        rng, 24, 24, beta_fn, theta_fn, levels=[0.85, 0.9, 0.95, 0.98], reps=4, noise=0.2,
    )
    model = SplineMerModel(knots_x=6, knots_y=6, penalty=0.5, iters=60)
    model.fit(samples)
    surface = model.to_surface()
    beta, theta = surface.beta, surface.theta
    yy, xx = np.mgrid[0:24, 0:24]
    assert np.abs(beta - beta_fn(yy, xx)).mean() < 0.08
    assert np.abs(theta - theta_fn(yy, xx)).mean() < 0.08


def test_spline_degenerate_inputs():
    rng = np.random.default_rng(47)
    few = _samples_from_surface(rng, 2, 2, lambda y, x: 1.0 + 0 * x,
                                lambda y, x: 0.5 + 0 * x, levels=[0.9], reps=1)
    model = SplineMerModel(knots_x=8, knots_y=8, penalty=1.0, iters=5)
    with pytest.raises(DegenerateFitError, match="coefficients"):
        model.fit(few)
    one_level = _samples_from_surface(rng, 20, 20, lambda y, x: 1.0 + 0 * x,
                                      lambda y, x: 0.5 + 0 * x, levels=[0.9], reps=3)
    model_small = SplineMerModel(knots_x=4, knots_y=4, penalty=1.0, iters=5)
    with pytest.raises(DegenerateFitError, match="level"):
        model_small.fit(one_level)
    # 2 * nb samples are enough, one fewer is not
    samples = _non_square_samples(rng)
    model = SplineMerModel(knots_x=6, knots_y=5, iters=3)
    with pytest.raises(DegenerateFitError, match="59 samples cannot identify 60"):
        model.fit(_select(samples, slice(0, 59)))
    model.fit(_select(samples, slice(0, 60)))


@pytest.mark.parametrize("params", [
    dict(knots_x=3), dict(knots_y=2), dict(iters=2), dict(penalty=-0.1),
    dict(penalty=float("nan")), dict(penalty=float("inf")),
])
def test_spline_rejects_unusable_settings(params):
    with pytest.raises(ValueError):
        SplineMerModel(**params)


def test_pixel_map_fit():
    rng = np.random.default_rng(48)
    samples = _samples_from_surface(
        rng, 6, 6, lambda y, x: 1.0 + 0.1 * x, lambda y, x: 0.3 + 0.05 * y,
        levels=[0.85, 0.9, 0.95], reps=2,
    )
    surf = fit_mer_pixel_map(samples)
    yy, xx = np.mgrid[0:6, 0:6]
    assert np.allclose(surf.beta, 1.0 + 0.1 * xx, atol=1e-9)
    assert np.allclose(surf.theta, 0.3 + 0.05 * yy, atol=1e-9)


def test_predict_mer_examples():
    flat = MerSurface(beta=np.zeros((2, 2)), theta=np.zeros((2, 2)))
    for p in (0.3, 0.9, 0.99):
        assert np.allclose(predict_mer_map(flat, p), 1.0)
    surf = MerSurface(beta=np.full((1, 1), np.log(2.0)), theta=np.ones((1, 1)))
    p_x0 = 1 - np.exp(-1.0)  # makes the covariate zero
    assert predict_mer_map(surf, p_x0)[0, 0] == pytest.approx(2.0)
    p_x1 = 1 - np.exp(-np.exp(1.0))
    assert predict_mer_map(surf, p_x1)[0, 0] == pytest.approx(2.0 / np.e)
    # theta = 1: one unit more of the covariate divides the range by e
    ratio = predict_mer_map(surf, p_x0) / predict_mer_map(surf, p_x1)
    assert ratio[0, 0] == pytest.approx(np.e)


def test_predict_monotone_iff_theta_positive():
    surf = MerSurface(beta=np.array([[0.5, 0.5]]), theta=np.array([[0.4, -0.4]]))
    ps = [0.86, 0.9, 0.95, 0.99]
    up, down = np.array([predict_mer_map(surf, p)[0] for p in ps]).T
    assert all(a > b for a, b in zip(up, up[1:]))
    assert all(a < b for a, b in zip(down, down[1:]))


def _tiny_stack(rng, nt=12, n=8):
    return RasterStack(rng.standard_normal((nt, n, n)).astype(np.float32))


def test_jackknife_identical_blocks_gives_zero_se():
    rng = np.random.default_rng(49)
    block = rng.standard_normal((4, 6, 6)).astype(np.float32)
    values = np.concatenate([block] * 5)
    stack = RasterStack(values)
    block_ids = np.repeat(np.arange(5), 4)
    se = jackknife(stack, block_ids, lambda s: np.array([s.values.mean(), s.values.var()]))
    assert np.allclose(se, 0.0, atol=1e-12)


def test_jackknife_relabel_invariance():
    rng = np.random.default_rng(50)
    stack = _tiny_stack(rng)
    ids = np.repeat(np.arange(4), 3)
    est = lambda s: np.array([float(np.median(s.values))])
    se_a = jackknife(stack, ids, est)
    relabeled = np.array([10, 10, 10, 3, 3, 3, 7, 7, 7, 1, 1, 1])
    se_b = jackknife(stack, relabeled, est)
    assert se_a == pytest.approx(se_b, rel=1e-12)


def test_jackknife_needs_three_blocks():
    rng = np.random.default_rng(51)
    stack = _tiny_stack(rng)
    with pytest.raises(ValueError, match="3 blocks"):
        jackknife(stack, np.repeat([0, 1], 6), lambda s: np.array([0.0]))


def test_jackknife_matches_hand_formula():
    rng = np.random.default_rng(52)
    stack = _tiny_stack(rng, nt=6)
    ids = np.array([0, 0, 1, 1, 2, 2])
    est = lambda s: np.array([float(s.values.mean())])
    se = jackknife(stack, ids, est)
    vals = []
    for b in range(3):
        keep = np.flatnonzero(ids != b)
        vals.append(float(stack.values[keep].mean()))
    vals = np.array(vals)
    expected = np.sqrt(2 / 3 * ((vals - vals.mean()) ** 2).sum())
    assert se[0] == pytest.approx(expected, rel=1e-12)


def test_collect_samples_filters_and_blocks():
    dom = DomainMask(np.array([[True, True], [True, False]]))
    f0 = RangeField(r=np.array([[1.0, 0.0], [2.0, 5.0]]), dx=1.0)
    f1 = RangeField(r=np.array([[0.0, 3.0], [0.0, 7.0]]), dx=1.0)
    samples = collect_samples({0.9: [f0, f1]}, dom, blocks=[4, 9])
    # the (1,1) pixel is outside the domain; zeros are dropped
    assert samples.n == 3
    assert set(samples.block.tolist()) == {4, 9}
    assert np.allclose(np.sort(np.exp(samples.y)), [1.0, 2.0, 3.0])
    assert np.all(samples.x == loglog_level(0.9))


def _non_square_samples(rng, ny=7, nx=11, n=400):
    """Samples on half of an ny-by-nx grid's pixels, several on most of
    them, so the per-pixel sums see repeats and empty pixels."""
    occupied = rng.choice(ny * nx, size=ny * nx // 2, replace=False)
    flat = rng.choice(occupied, size=n)
    x = np.array([loglog_level(p) for p in (0.85, 0.9, 0.95, 0.98)])[rng.integers(0, 4, n)]
    iy, ix = flat // nx, flat % nx
    y = 1.2 + 0.05 * ix - (0.4 + 0.02 * iy) * x + 0.3 * rng.laplace(size=n)
    samples = RangeSamples(pixel_y=iy, pixel_x=ix, x=x, y=y,
                           block=rng.integers(0, 5, n))
    counts = np.bincount(flat, minlength=ny * nx)
    assert (counts == 0).any() and (counts > 1).any()
    return samples


def _cell_sums(samples, xl, shape, w):
    """Per-(level, pixel) sums of w and w*y, levels indexed by ``xl``."""
    cell = (np.searchsorted(xl, samples.x) * shape[0] + samples.pixel_y) * shape[1] \
        + samples.pixel_x
    n_cells = xl.size * shape[0] * shape[1]
    return (np.bincount(cell, w, n_cells).reshape(xl.size, -1),
            np.bincount(cell, w * samples.y, n_cells).reshape(xl.size, -1))


def test_spline_pixel_normal_equations_match_sample_design():
    # non-square grid and knots: a By/Bx swap in the pixel basis would
    # fail here while passing on square problems
    from exrange.tailfit import _pixel_normal_equations

    rng = np.random.default_rng(53)
    ny, nx = 7, 11
    base = _non_square_samples(rng, ny, nx)
    # a fifth level at a dozen samples only, so most pixels lack it
    x = base.x.copy()
    x[rng.choice(base.n, size=12, replace=False)] = loglog_level(0.99)
    samples = RangeSamples(base.pixel_y, base.pixel_x, x, base.y, base.block)
    # and a level without any sample: a row of empty cells
    xl = np.union1d(x, [loglog_level(0.8)])
    model = SplineMerModel(knots_x=6, knots_y=5)
    w = rng.uniform(0.1, 5.0, samples.n)
    cw, cwy = _cell_sums(samples, xl, (ny, nx), w)
    assert cw.shape == (6, ny * nx) and not cw[0].any()
    assert (cw == 0).any(axis=1).all() and np.count_nonzero(cw[-1]) <= 12
    data_block, rhs = _pixel_normal_equations(*model._grid_bases((ny, nx)), xl, cw, cwy)
    d = sample_design(model, samples, (ny, nx)).toarray()
    dc = -samples.x[:, None] * d  # d(prediction)/dc
    full = np.hstack([d, dc])
    expected_block = full.T @ (w[:, None] * full)
    expected_rhs = full.T @ (w * samples.y)
    assert np.abs(data_block - expected_block).max() <= 1e-10 * np.abs(expected_block).max()
    assert np.abs(rhs - expected_rhs).max() <= 1e-10 * np.abs(expected_rhs).max()


def test_basis_matches_scipy_design_matrix():
    # the numpy Cox-de Boor basis against scipy's B-spline design matrix on
    # the same clamped knots: random spans, coordinates at lo, at hi, on the
    # knots and outside [lo, hi] (clipped), and a one-pixel axis
    from scipy.interpolate import BSpline

    from exrange.tailfit import _basis_1d, _clamped_knots

    rng = np.random.default_rng(57)
    for case in range(2000):
        n_basis = int(rng.integers(4, 25))
        if case % 4 == 0:           # a pixel axis 0..n-1, one pixel included
            lo, hi = 0.0, float(rng.integers(0, 130))
        else:
            lo = rng.uniform(-100.0, 100.0)
            hi = lo + rng.uniform(1e-3, 300.0)
        t = _clamped_knots(lo, hi, n_basis)
        coords = np.r_[lo, hi, t[3:-3], rng.uniform(lo - 10.0, hi + 10.0, 20),
                       np.arange(np.floor(lo), np.floor(hi) + 1.0)[:40]]
        basis = _basis_1d(coords, lo, hi, n_basis)
        expected = BSpline.design_matrix(np.clip(coords, lo, hi), t, 3).toarray()
        assert basis.shape == (coords.size, n_basis)
        assert np.abs(basis - expected).max() <= 1e-15, (case, lo, hi, n_basis)
        assert np.abs(basis.sum(axis=1) - 1.0).max() <= 1e-14


def test_roughness_penalty_matches_sparse_construction():
    from scipy import sparse

    from exrange.tailfit import _roughness_penalty

    def diff_op(n, order):
        stencil = {1: [-1.0, 1.0], 2: [1.0, -2.0, 1.0]}[order]
        return sparse.diags(stencil, range(order + 1), shape=(n - order, n))

    for nby, nbx in [(4, 4), (5, 6), (9, 4), (12, 12)]:
        expected = sparse.csr_matrix((nby * nbx, nby * nbx))
        for order in (1, 2):
            drow = sparse.kron(sparse.identity(nby), diff_op(nbx, order))
            dcol = sparse.kron(diff_op(nby, order), sparse.identity(nbx))
            expected = expected + drow.T @ drow + dcol.T @ dcol
        assert np.array_equal(_roughness_penalty(nby, nbx), expected.toarray())


def test_spline_mm_iterations_never_increase_objective(monkeypatch):
    # the MM guarantee, checked on the live fitter's iterates with the
    # sample-wise objective that the gradient tests validate
    from exrange.tailfit import _kappa_stages, _pooled_median_line, _roughness_penalty

    rng = np.random.default_rng(54)
    ny, nx = 7, 11
    samples = _non_square_samples(rng, ny, nx)
    model = SplineMerModel(knots_x=6, knots_y=5, penalty=0.3, iters=30)
    iterates = []
    solve = np.linalg.solve

    def recording_solve(a, b):
        iterates.append(solve(a, b))
        return iterates[-1]

    monkeypatch.setattr(np.linalg, "solve", recording_solve)
    model.fit(samples)
    monkeypatch.undo()
    assert len(iterates) == model.iters
    assert np.array_equal(iterates[-1], np.r_[model.coef_beta_, model.coef_theta_])

    design = sample_design(model, samples, (ny, nx))
    pen = _roughness_penalty(5, 6)
    beta0, theta0 = _pooled_median_line(samples)
    path = [np.r_[np.full(30, beta0), np.full(30, theta0)]] + iterates
    start = 0
    for kappa, n_iter in _kappa_stages(model.iters):
        # each stage starts from the previous stage's last iterate
        objective = [
            objective_and_grad(model, p, design, samples.x, samples.y, kappa, pen)[0]
            for p in path[start:start + n_iter + 1]
        ]
        start += n_iter
        for before, after in zip(objective, objective[1:]):
            assert after <= before + 1e-9 * abs(before)


def _select(samples, keep):
    """A copy of the samples that the boolean mask ``keep`` marks."""
    return RangeSamples(*(getattr(samples, f)[keep]
                          for f in ("pixel_y", "pixel_x", "x", "y", "block")))


def _fold_samples(rng, ny=7, nx=11):
    """Samples in 5 blocks, the top level's all in block 0."""
    s = _non_square_samples(rng, ny, nx)
    block = np.where(s.x == s.x.max(), 0, s.block)
    return RangeSamples(s.pixel_y, s.pixel_x, s.x, s.y, block)


def _coefficients(model):
    return np.r_[model.coef_beta_, model.coef_theta_]


def _recording_fits(monkeypatch):
    """The list that each ``SplineMerModel.fit`` call from now on appends its
    model and samples to."""
    calls = []
    fit = SplineMerModel.fit

    def recording(self, s):
        calls.append((self, s))
        return fit(self, s)

    monkeypatch.setattr(SplineMerModel, "fit", recording)
    return calls


def test_penalty_cv_fits_each_fold_on_its_training_copy(monkeypatch):
    # fold by fold, one gathered copy of the fold's training samples, with
    # intp cells, serves the fits of every penalty, also when it lacks a
    # level (fold 0 here); fits on copies made by hand give the same
    # coefficients, and their held-out losses pick the same penalty
    from exrange.tailfit import _PENALTY_GRID, choose_penalty

    rng = np.random.default_rng(55)
    samples = _fold_samples(rng)
    folds = np.searchsorted(np.unique(samples.block), samples.block) % 5
    top = samples.x == samples.x.max()
    assert np.unique(folds).tolist() == [0, 1, 2, 3, 4]
    assert not (top & (folds != 0)).any()
    fits = _recording_fits(monkeypatch)
    picked = choose_penalty(samples, 5, 6, 9)
    monkeypatch.undo()
    assert [model.penalty for model, _ in fits] == list(_PENALTY_GRID) * 5
    totals = dict.fromkeys(_PENALTY_GRID, 0.0)
    for k, (model, got) in enumerate(fits):
        f = k // 5
        train, held = _select(samples, folds != f), _select(samples, folds == f)
        assert got is fits[5 * f][1] and got.cell.dtype == np.intp, k
        for name in ("cell", "y", "block"):
            assert np.array_equal(getattr(got, name), getattr(train, name)), (k, name)
        copied = SplineMerModel(knots_x=6, knots_y=5, penalty=model.penalty, iters=60)
        surface = copied.fit(train).to_surface()
        assert np.array_equal(_coefficients(copied), _coefficients(model)), k
        at = (held.pixel_y, held.pixel_x)
        pred = surface.beta[at] - held.x * surface.theta[at]
        totals[model.penalty] += float(np.abs(held.y - pred).sum()) * 0.5
    assert picked == min(totals, key=lambda lam: (totals[lam], lam))


def test_choose_penalty_without_a_fold_fit_raises(monkeypatch):
    # one block leaves its one fold no training sample, and two blocks of one
    # level each leave every fold one level; a fold whose training samples
    # are too few, or lack a second level, is degenerate at every penalty, so
    # its first fit ends the cross-validation
    from exrange.tailfit import choose_penalty

    rng = np.random.default_rng(58)
    s = _samples_from_surface(rng, 6, 6, lambda y, x: 1.0 + 0.1 * x, lambda y, x: 0.5 + 0 * x,
                              levels=[0.9, 0.95], reps=1, noise=0.1)
    assert np.unique(s.block).tolist() == [0]
    fits = _recording_fits(monkeypatch)
    with pytest.raises(DegenerateFitError, match=r"over 1 block\(s\)"):
        choose_penalty(s, 4, 4, 9)
    assert fits == []
    by_level = RangeSamples(s.pixel_y, s.pixel_x, s.x, s.y, (s.x == s.x.max()).astype(np.int64))
    with pytest.raises(DegenerateFitError, match=r"over 2 block\(s\): fold 0: .* one level"):
        choose_penalty(by_level, 4, 4, 9)
    few = RangeSamples(s.pixel_y, s.pixel_x, s.x, s.y, (np.arange(s.n) < 10).astype(np.int64))
    with pytest.raises(DegenerateFitError,
                       match=r"over 2 block\(s\): fold 0: 10 samples cannot identify 32"):
        choose_penalty(few, 4, 4, 9)
    assert len(fits) == 2


def test_spline_fit_memory_is_two_per_sample_arrays():
    # the fit adds the cell index and the weights, 16 bytes a sample, plus
    # transients; 2.9 * 8 bytes a sample leaves no room for a third array
    import tracemalloc

    rng = np.random.default_rng(57)
    n, ny, nx = 400_000, 32, 32
    levels = np.array([loglog_level(p) for p in (0.85, 0.9, 0.95, 0.98)])
    x = levels[rng.integers(0, levels.size, n)]
    samples = RangeSamples(pixel_y=rng.integers(0, ny, n, dtype=np.int32),
                           pixel_x=rng.integers(0, nx, n, dtype=np.int32),
                           x=x, y=1.0 - 0.5 * x + 0.3 * rng.laplace(size=n),
                           block=np.zeros(n, dtype=np.int64))
    model = SplineMerModel(knots_x=6, knots_y=6, iters=3)
    model.fit(_select(samples, slice(0, 1000)))   # any first-use set-up
    tracemalloc.start()
    try:
        model.fit(samples)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.9 * 8 * n, peak / (8 * n)


def test_distinct_and_median_equal_numpy():
    # np.unique and np.median are the oracles, bit for bit, at odd and even
    # sizes, with ties and with signed values
    from exrange.tailfit import _distinct, _median

    rng = np.random.default_rng(61)
    for n in range(1, 12):
        for v in (rng.normal(size=n), rng.integers(-3, 3, size=n).astype(float),
                  np.full(n, 0.1)):
            assert np.array_equal(_distinct(v), np.unique(v))
            assert _median(v) == np.median(v)
            assert _median(v).hex() == float(np.median(v)).hex()
