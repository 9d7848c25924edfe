"""Command line front-end wiring the estimation pipeline.

Subcommands: simulate, quantiles, excursion, range, cdf, hist, chi,
ivdens, theta, mer, jackknife, pipeline. All tabular output is RFC-4180
CSV with a header row; maps use the raw float32 + JSON sidecar format.
Every output file is written to a temporary name and renamed, so files
are either complete or absent. All randomness derives from simulate --seed.

Exit codes: 0 success, 2 flag or value validation, 3 malformed input
files, 4 I/O failure, 5 any other computation error.

A process that imports this module before numpy runs numpy's OpenBLAS on
one thread, unless the caller set OPENBLAS_NUM_THREADS or OMP_NUM_THREADS:
the fit's matrices are too small for a second BLAS thread to save time, and
idle OpenBLAS workers spin on the CPU after every call.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import os
import sys
from pathlib import Path

# OpenBLAS sizes its pool as numpy loads it; more threads only spin on the fit's small matrices.
if "numpy" not in sys.modules and not any(
        v in os.environ for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np

from . import geometry, ranges, raster, simgrf, tailfit, thresholds
from .errors import ExrangeError, StackFormatError
from .thresholds import BoundaryPolicy

EXIT_VALIDATION = 2
EXIT_FORMAT = 3
EXIT_IO = 4
EXIT_COMPUTE = 5

DEFAULT_LEVELS = "0.85:0.98:0.01"
HIST_HEADER = ["p", "bin_left", "bin_right", "count"]
IVDENS_HEADER = ["p", "c0", "c1", "c2", "slope_pred"]


def _parse_grid(spec: str, name: str) -> list[float]:
    """Parse 'start:stop:step' or a comma list into a float list."""
    spec = spec.strip()
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise ValueError(f"{name}: expected start:stop:step, got {spec!r}")
        start, stop, step = (float(x) for x in parts)
        if step <= 0:
            raise ValueError(f"{name}: step must be positive")
        n = int(math.floor((stop - start) / step + 0.5))
        values = [round(start + i * step, 12) for i in range(n + 1)]
        values = [v for v in values if v <= stop + step * 1e-9]
    else:
        values = [float(x) for x in spec.split(",") if x.strip()]
    if not values:
        raise ValueError(f"{name}: empty list")
    if any(b <= a for a, b in zip(values, values[1:])):
        raise ValueError(f"{name}: values must be strictly increasing, got {values}")
    return values


def _parse_levels(spec: str) -> list[float]:
    levels = _parse_grid(spec, "levels")
    if levels[0] <= 0 or levels[-1] >= 1:
        raise ValueError(f"levels must lie strictly inside (0,1), got {levels}")
    return levels


def _parse_fit_levels(spec: str) -> list[float]:
    """Levels of a θ fit: θ is a slope over levels, so one level cannot identify it."""
    levels = _parse_levels(spec)
    if len(levels) < 2:
        raise ValueError(f"--levels needs at least two levels for a theta fit, got {levels}")
    return levels


def _parse_fit_options(args) -> tuple[int, int, float | None]:
    """--knots as (NY, NX) and --penalty (None for 'auto'), with --iters and
    --predict-p checked too, so that a bad value fails before any work."""
    try:
        ky, kx = (int(k) for k in args.knots.lower().split("x"))
        penalty = None if args.penalty == "auto" else float(args.penalty)
    except ValueError as exc:
        raise ValueError(f"--knots must look like 8x8 and --penalty be 'auto' or a "
                         f"number, got {args.knots!r} and {args.penalty!r}") from exc
    tailfit.check_fit_options(ky, kx, args.iters, penalty)
    predict_p = getattr(args, "predict_p", None)
    if predict_p is not None and not 0.0 < predict_p < 1.0:
        raise ValueError(f"--predict-p must lie strictly inside (0,1), got {predict_p}")
    return ky, kx, penalty


def _parse_lags(spec: str) -> list[tuple[int, int]]:
    lags = []
    for item in spec.split(","):
        item = item.strip()
        if not item:
            continue
        if ":" in item:
            a, b = item.split(":")
            lags.append((int(b), int(a)))  # stored as (row, col) from "x:y"
        else:
            lags.append((0, int(item)))
    if not lags:
        raise ValueError("empty lag list")
    return lags


def _resolve_input(path_arg: str) -> Path:
    p = Path(path_arg)
    if p.is_dir():
        candidates = sorted(p.glob("*.f32"))
        if len(candidates) != 1:
            raise ValueError(
                f"{p}: expected exactly one .f32 stack in the directory, "
                f"found {len(candidates)}"
            )
        return candidates[0]
    return p


def _threads(args) -> int:
    """--threads, else the EXRANGE_THREADS variable, else the cores this
    process may run on (its CPU-affinity mask, where the OS has one)."""
    if args.threads is not None:
        if args.threads < 1:
            raise ValueError(f"--threads must be at least 1, got {args.threads}")
        return args.threads
    env = os.environ.get("EXRANGE_THREADS")
    if not env:
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1
    try:
        n = int(env)
    except ValueError:
        n = 0
    if n < 1:
        raise ValueError(f"EXRANGE_THREADS must be an integer of at least 1, got {env!r}")
    return n


def _write_csv(path: Path, header: list[str], rows) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(buf.getvalue().encode())
    os.replace(tmp, path)


def _save_map_with_csv(out_dir: Path, name: str, grid: np.ndarray,
                       domain: raster.DomainMask, dx: float, unit: str) -> None:
    filled = np.asarray(grid, dtype=np.float64).copy()
    filled[~domain.inside] = raster.DEFAULT_NODATA
    filled[~np.isfinite(filled)] = raster.DEFAULT_NODATA
    grid32 = filled.astype(np.float32)
    raster.save_map(out_dir / f"{name}.f32", grid32, dx=dx, unit=unit)
    # every pixel outside the domain holds nodata, so the valued pixels lie inside it
    valued = raster.DomainMask(grid32 != np.float32(raster.DEFAULT_NODATA))
    _write_csv(out_dir / f"{name}.csv", ["x_index", "y_index", "value"],
               raster.map_to_csv_rows(grid32, valued))


def _fmt_p(p: float) -> str:
    return f"{p:g}"


def _default_radii(stack: raster.RasterStack) -> list[float]:
    r_max = ranges.domain_inradius(stack.domain(), stack.dx)
    radii = [k * stack.dx for k in range(1, 9)]
    radii = [r for r in radii if r < r_max]
    if not radii:
        raise ValueError(f"domain inradius {r_max} leaves no usable radius")
    return radii


def _cdf_rows(entries: ranges.RangeEntries, domain: raster.DomainMask, radii,
              dx: float) -> list:
    """One level's ECDF: r, F(r) and the exceedance count behind F(r); F is
    nan where that count is 0."""
    est = ranges.ecdf(entries, domain, radii, dx)
    return [[float(r), float(f) if n else math.nan, int(n)]
            for r, f, n in zip(est.radii, est.F, est.n_exceed)]


def _hist_edges(stack: raster.RasterStack) -> np.ndarray:
    r_max = ranges.domain_inradius(stack.domain(), stack.dx)
    return np.arange(0.0, r_max + stack.dx, stack.dx)


def _hist_rows(p: float, entries: ranges.RangeEntries, domain: raster.DomainMask,
               edges: np.ndarray) -> list:
    """One level's histogram of the pooled positive in-domain ranges."""
    counts, _ = np.histogram(ranges._domain_values(entries, domain), bins=edges)
    return [[_fmt_p(p), float(lo), float(hi), int(c)]
            for lo, hi, c in zip(edges[:-1], edges[1:], counts)]


def _ivdens_row(stack: raster.RasterStack, thr: thresholds.ThresholdField) -> list:
    """One level's intrinsic-volume densities of the in-domain excursion
    sets and the CDF slope they predict."""
    dens = geometry.intrinsic_densities(stack, thr)
    slope = geometry.cdf_slope(dens.c1, dens.c2) if dens.c2 > 0 else float("nan")
    return [_fmt_p(thr.p), dens.c0, dens.c1, dens.c2, slope]


def _save_theta_map(out: Path, stack: raster.RasterStack, p1: float, med1: np.ndarray,
                    p2: float, med2: np.ndarray) -> None:
    """Write θ from the median range maps at two levels, 0 where either is 0. A level
    without positive range leaves no θ (a map needs a value), which stderr reports."""
    for p, med in ((p1, med1), (p2, med2)):
        if not (med > 0).any():
            print(f"exrange: theta_map not written: level {_fmt_p(p)} has no positive range",
                  file=sys.stderr)
            return
    _save_map_with_csv(out, "theta_map", tailfit.theta_hat(med1, med2, p1, p2),
                       stack.domain(), stack.dx, "theta")


def _save_fit_maps(out: Path, surface: tailfit.MerSurface, stack: raster.RasterStack,
                   predict_p: float | None) -> None:
    domain = stack.domain()
    _save_map_with_csv(out, "mer_beta", surface.beta, domain, stack.dx, "log-range")
    _save_map_with_csv(out, "mer_theta", surface.theta, domain, stack.dx, "theta")
    if predict_p is not None:
        pred = tailfit.predict_mer_map(surface, predict_p)
        _save_map_with_csv(out, f"mer_p{_fmt_p(predict_p)}", pred, domain,
                           stack.dx, stack.unit)


def _load_blocks(path: str, nt: int) -> np.ndarray:
    ids = []
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if line:
            ids.append(int(line))
    if len(ids) != nt:
        raise ValueError(f"{path}: {len(ids)} block ids for {nt} slices")
    return np.asarray(ids)


# ---------------------------------------------------------------------------
# subcommand implementations
# ---------------------------------------------------------------------------

def _cmd_simulate(args) -> int:
    cfg = simgrf.GaussianSimConfig(
        nx=args.nx, ny=args.ny, n_slices=args.n, nu=args.nu, ell=args.ell,
        dx=args.dx, seed=args.seed,
    )
    if args.model == "gaussian":
        stack = simgrf.simulate_gaussian(cfg)
    else:
        stack = simgrf.simulate_ad_field(simgrf.AdSimConfig(base=cfg, a_mix=args.a_mix))
    out = Path(args.out)
    raster.save_stack(out / "stack.f32", stack)
    print(f"wrote {out / 'stack.f32'} ({stack.nt}x{stack.ny}x{stack.nx})")
    return 0


def _cmd_quantiles(args) -> int:
    stack = raster.load_stack(_resolve_input(args.input))
    out = Path(args.out)
    domain = stack.domain()
    for thr in thresholds.quantile_fields(stack, _parse_levels(args.p)):
        _save_map_with_csv(out, f"threshold_p{_fmt_p(thr.p)}", thr.u, domain, stack.dx,
                           stack.unit)
    return 0


def _cmd_excursion(args) -> int:
    stack = raster.load_stack(_resolve_input(args.input))
    policy = BoundaryPolicy(args.policy)
    out = Path(args.out)
    for thr in thresholds.quantile_fields(stack, _parse_levels(args.p)):
        exceed = thresholds.exceedance_stack(stack, thr, policy)
        for t in range(stack.nt):
            raster.save_map(out / f"excursion_p{_fmt_p(thr.p)}_t{t}.f32",
                            exceed[t].astype(np.float32), dx=stack.dx, unit="bool")
    return 0


def _cmd_range(args) -> int:
    stack = raster.load_stack(_resolve_input(args.input))
    policy = BoundaryPolicy(args.policy)
    n_threads = _threads(args)
    out = Path(args.out)
    for thr in thresholds.quantile_fields(stack, _parse_levels(args.p)):
        entries = ranges.range_entries(stack, thr, policy, n_threads)
        for t, r in enumerate(ranges._slice_maps(entries, np.float32)):
            raster.save_map(out / f"range_p{_fmt_p(thr.p)}_t{t}.f32", r, dx=stack.dx,
                            unit=stack.unit)
    return 0


def _cmd_cdf(args) -> int:
    stack = raster.load_stack(_resolve_input(args.input))
    policy = BoundaryPolicy(args.policy)
    n_threads = _threads(args)
    domain = stack.domain()
    radii = (_parse_grid(args.radii, "radii") if args.radii else _default_radii(stack))
    out = Path(args.out)
    for thr in thresholds.quantile_fields(stack, _parse_levels(args.p)):
        entries = ranges.range_entries(stack, thr, policy, n_threads)
        _write_csv(out / f"cdf_p{_fmt_p(thr.p)}.csv", ["r", "F", "n_exceed"],
                   _cdf_rows(entries, domain, radii, stack.dx))
    return 0


def _cmd_hist(args) -> int:
    stack = raster.load_stack(_resolve_input(args.input))
    policy = BoundaryPolicy(args.policy)
    n_threads = _threads(args)
    domain = stack.domain()
    edges = _hist_edges(stack)
    rows = []
    for thr in thresholds.quantile_fields(stack, _parse_levels(args.p)):
        rows += _hist_rows(thr.p, ranges.range_entries(stack, thr, policy, n_threads),
                           domain, edges)
    _write_csv(Path(args.out) / "hist.csv", HIST_HEADER, rows)
    return 0


def _cmd_chi(args) -> int:
    stack = raster.load_stack(_resolve_input(args.input))
    lags = _parse_lags(args.lags)
    out = Path(args.out)
    domain = stack.domain()
    for thr in thresholds.quantile_fields(stack, _parse_levels(args.p)):
        # one level's exceedances serve every lag and map
        exceed = thresholds.exceedance_stack(stack, thr, BoundaryPolicy.ERODE)
        rows = []
        for dy, dxp in lags:
            chi = ranges._tail_dependence(exceed, domain.inside, (dy, dxp))
            rows.append([dxp, dy, float(chi)])
            name = f"chi_p{_fmt_p(thr.p)}_lag{dxp}x{dy}"
            if args.per_pixel and math.isnan(chi):  # 0/0: a map would hold no value
                print(f"exrange: {name} not written: no in-domain pair at lag {dxp}:{dy} "
                      "has an exceeding reference pixel", file=sys.stderr)
            elif args.per_pixel:
                chi_map = ranges._tail_dependence(exceed, domain.inside, (dy, dxp),
                                                  per_pixel=True)
                _save_map_with_csv(out, name, chi_map, domain, stack.dx, "chi")
        _write_csv(out / f"chi_p{_fmt_p(thr.p)}.csv", ["lag_x", "lag_y", "chi"], rows)
    return 0


def _cmd_ivdens(args) -> int:
    stack = raster.load_stack(_resolve_input(args.input))
    rows = [_ivdens_row(stack, thr)
            for thr in thresholds.quantile_fields(stack, _parse_levels(args.p))]
    _write_csv(Path(args.out) / "ivdens.csv", IVDENS_HEADER, rows)
    return 0


def _cmd_theta(args) -> int:
    stack = raster.load_stack(_resolve_input(args.input))
    if args.p1 == args.p2:
        raise ValueError("--p1 and --p2 must differ")
    policy = BoundaryPolicy(args.policy)
    n_threads = _threads(args)
    # one level's ranges at a time: each is dropped once its median map is taken
    med1, med2 = (
        ranges.median_range_map(ranges.range_entries(stack, thr, policy, n_threads),
                                stack.domain())
        for thr in thresholds.quantile_fields(stack, (args.p1, args.p2))
    )
    _save_theta_map(Path(args.out), stack, args.p1, med1, args.p2, med2)
    return 0


def _collect_all_samples(stack: raster.RasterStack, levels: list[float],
                         policy: BoundaryPolicy, n_threads: int,
                         blocks=None, min_range: float = 0.0) -> tailfit.RangeSamples:
    thrs = thresholds.quantile_fields(stack, levels)
    pool = tailfit.SamplePool.for_thresholds(stack, thrs)
    for thr in thrs:
        tailfit.collect_samples({thr.p: ranges.range_entries(stack, thr, policy, n_threads)},
                                stack.domain(), blocks, min_range, pool)
    return pool.samples()


def _fit_surface(stack: raster.RasterStack, samples: tailfit.RangeSamples, args,
                 fit_options: tuple[int, int, float | None]):
    """The ``args.fit`` surface; ``fit_options`` is ``_parse_fit_options(args)``."""
    if args.fit == "pixel":
        return tailfit.fit_mer_pixel_map(samples, (stack.ny, stack.nx))
    ky, kx, penalty = fit_options
    if penalty is None:
        penalty = tailfit.choose_penalty(samples, (stack.ny, stack.nx), ky, kx, args.iters)
    model = tailfit.SplineMerModel(knots_x=kx, knots_y=ky, penalty=penalty,
                                   iters=args.iters)
    return model.fit(samples, (stack.ny, stack.nx)).to_surface()


def _cmd_mer(args) -> int:
    stack = raster.load_stack(_resolve_input(args.input))
    levels = _parse_fit_levels(args.levels)
    fit_options = _parse_fit_options(args)
    policy = BoundaryPolicy(args.policy)
    n_threads = _threads(args)
    blocks = _load_blocks(args.blocks_by, stack.nt) if args.blocks_by else None
    samples = _collect_all_samples(stack, levels, policy, n_threads, blocks,
                                   args.min_range)
    _save_fit_maps(Path(args.out), _fit_surface(stack, samples, args, fit_options), stack,
                   args.predict_p)
    return 0


def _cmd_jackknife(args) -> int:
    stack = raster.load_stack(_resolve_input(args.input))
    levels = _parse_fit_levels(args.levels)
    fit_options = _parse_fit_options(args)
    policy = BoundaryPolicy(args.policy)
    n_threads = _threads(args)
    domain = stack.domain()
    block_ids = _load_blocks(args.blocks_by, stack.nt)
    dropped = iter(np.unique(block_ids))

    def estimator(sub: raster.RasterStack) -> np.ndarray:
        # the i-th replicate leaves out the i-th smallest block; its samples
        # keep the block ids of the slices left, for the block-wise CV
        kept = block_ids[block_ids != next(dropped)]
        samples = _collect_all_samples(sub, levels, policy, n_threads, kept,
                                       min_range=args.min_range)
        surface = _fit_surface(sub, samples, args, fit_options)
        return np.stack([surface.beta, surface.theta])

    se = tailfit.jackknife(stack, block_ids, estimator)
    out = Path(args.out)
    _save_map_with_csv(out, "se_beta", se[0], domain, stack.dx, "se")
    _save_map_with_csv(out, "se_theta", se[1], domain, stack.dx, "se")
    return 0


def _cmd_pipeline(args) -> int:
    stack = raster.load_stack(_resolve_input(args.input))
    levels = _parse_fit_levels(args.levels)
    fit_options = _parse_fit_options(args)
    policy = BoundaryPolicy(args.policy)
    n_threads = _threads(args)
    domain = stack.domain()
    out = Path(args.out)
    radii = (_parse_grid(args.radii, "radii") if args.radii else _default_radii(stack))
    hist_edges = _hist_edges(stack)
    blocks = _load_blocks(args.blocks_by, stack.nt) if args.blocks_by else None

    cdf_rows, hist_rows, iv_rows = [], [], []
    med_maps = {}
    thrs = thresholds.quantile_fields(stack, levels)
    pool = tailfit.SamplePool.for_thresholds(stack, thrs)
    for p, thr in zip(levels, thrs):
        entries = ranges.range_entries(stack, thr, policy, n_threads)
        cdf_rows += [[_fmt_p(p), *row]
                     for row in _cdf_rows(entries, domain, radii, stack.dx)]
        hist_rows += _hist_rows(p, entries, domain, hist_edges)
        iv_rows.append(_ivdens_row(stack, thr))
        if p in (levels[0], levels[-1]):
            med_maps[p] = ranges.median_range_map(entries, domain)
        tailfit.collect_samples({p: entries}, domain, blocks, args.min_range, pool)
        del entries

    _write_csv(out / "cdf.csv", ["p", "r", "F", "n_exceed"], cdf_rows)
    _write_csv(out / "hist.csv", HIST_HEADER, hist_rows)
    _write_csv(out / "ivdens.csv", IVDENS_HEADER, iv_rows)

    p_lo, p_hi = levels[0], levels[-1]
    _save_theta_map(out, stack, p_lo, med_maps[p_lo], p_hi, med_maps[p_hi])

    surface = _fit_surface(stack, pool.samples(), args, fit_options)
    _save_fit_maps(out, surface, stack, args.predict_p)
    print(f"pipeline outputs written to {out}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_common_io(sub, with_policy: bool = True, with_threads: bool = True):
    sub.add_argument("--in", dest="input", required=True,
                     help="stack file (.f32) or directory holding one")
    sub.add_argument("--out", required=True, help="output directory")
    if with_threads:
        sub.add_argument("--threads", type=int, default=None,
                         help="worker threads (default: EXRANGE_THREADS or all usable cores)")
    if with_policy:
        sub.add_argument("--policy", choices=[p.value for p in BoundaryPolicy],
                         default=BoundaryPolicy.FILL_EXCEED.value,
                         help="treatment of pixels outside the domain")


def _add_fit_options(sub, penalty_default: str = "auto"):
    sub.add_argument("--fit", choices=["pixel", "spline"], default="spline")
    sub.add_argument("--knots", default="8x8", help="spline knots as NYxNX, each at least 4")
    sub.add_argument("--penalty", default=penalty_default,
                     help="roughness penalty, a finite value >= 0 or 'auto' for block CV")
    sub.add_argument("--iters", type=int, default=60,
                     help="optimizer iteration budget, at least 3")
    sub.add_argument("--min-range", type=float, default=0.0, dest="min_range",
                     help="drop range observations below this length")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="exrange",
        description="Extremal range of threshold exceedances on gridded fields",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    s = subs.add_parser("simulate", help="simulate a random-field stack")
    s.add_argument("--model", choices=["gaussian", "admix"], default="gaussian")
    s.add_argument("--nx", type=int, default=128)
    s.add_argument("--ny", type=int, default=128)
    s.add_argument("--n", type=int, required=True, help="number of slices")
    s.add_argument("--nu", type=float, default=2.0)
    s.add_argument("--ell", type=float, default=20.0)
    s.add_argument("--dx", type=float, default=1.0)
    s.add_argument("--a-mix", type=float, default=1.0, dest="a_mix")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--out", required=True)
    s.set_defaults(func=_cmd_simulate)

    s = subs.add_parser("quantiles", help="per-pixel threshold maps")
    _add_common_io(s, with_policy=False, with_threads=False)
    s.add_argument("--p", default=DEFAULT_LEVELS, help="levels as list or start:stop:step")
    s.set_defaults(func=_cmd_quantiles)

    s = subs.add_parser("excursion", help="excursion masks per slice and level")
    _add_common_io(s, with_threads=False)
    s.add_argument("--p", default=DEFAULT_LEVELS)
    s.set_defaults(func=_cmd_excursion)

    s = subs.add_parser("range", help="extremal-range fields per slice and level")
    _add_common_io(s)
    s.add_argument("--p", default=DEFAULT_LEVELS)
    s.set_defaults(func=_cmd_range)

    s = subs.add_parser("cdf", help="empirical CDF of the extremal range")
    _add_common_io(s)
    s.add_argument("--p", default=DEFAULT_LEVELS)
    s.add_argument("--radii", default=None, help="radii as list or start:stop:step")
    s.set_defaults(func=_cmd_cdf)

    s = subs.add_parser("hist", help="histogram of positive extremal ranges")
    _add_common_io(s)
    s.add_argument("--p", default=DEFAULT_LEVELS)
    s.set_defaults(func=_cmd_hist)

    s = subs.add_parser("chi", help="pairwise tail dependence at pixel lags")
    _add_common_io(s, with_policy=False, with_threads=False)
    s.add_argument("--p", default="0.9,0.95")
    s.add_argument("--lags", default="1:0,2:0,4:0,8:0,0:1,0:2,0:4,0:8",
                   help="comma list of x:y pixel offsets")
    s.add_argument("--per-pixel", action="store_true", dest="per_pixel",
                   help="also write one per-reference-pixel map per level and lag")
    s.set_defaults(func=_cmd_chi)

    s = subs.add_parser("ivdens", help="curvature densities per level")
    _add_common_io(s, with_policy=False, with_threads=False)
    s.add_argument("--p", default=DEFAULT_LEVELS)
    s.set_defaults(func=_cmd_ivdens)

    s = subs.add_parser("theta", help="two-level tail decay rate map")
    _add_common_io(s)
    s.add_argument("--p1", type=float, required=True)
    s.add_argument("--p2", type=float, required=True)
    s.set_defaults(func=_cmd_theta)

    s = subs.add_parser("mer", help="median-extremal-range model fit")
    _add_common_io(s)
    s.add_argument("--levels", default=DEFAULT_LEVELS)
    s.add_argument("--predict-p", type=float, default=None, dest="predict_p")
    s.add_argument("--blocks-by", default=None, dest="blocks_by",
                   help="file with one block id per slice")
    _add_fit_options(s)
    s.set_defaults(func=_cmd_mer)

    s = subs.add_parser("jackknife", help="block-jackknife SEs of the fit")
    _add_common_io(s)
    s.add_argument("--levels", default=DEFAULT_LEVELS)
    s.add_argument("--blocks-by", required=True, dest="blocks_by")
    # the smoothing penalty is tuning, held fixed across replicates
    _add_fit_options(s, penalty_default="1.0")
    s.set_defaults(func=_cmd_jackknife)

    s = subs.add_parser("pipeline", help="the full estimation chain")
    _add_common_io(s)
    s.add_argument("--levels", default=DEFAULT_LEVELS)
    s.add_argument("--radii", default=None)
    s.add_argument("--predict-p", type=float, default=0.989, dest="predict_p")
    s.add_argument("--blocks-by", default=None, dest="blocks_by")
    # fixed default penalty keeps the one-shot pipeline fast; pass
    # --penalty auto for the cross-validated choice
    _add_fit_options(s, penalty_default="1.0")
    s.set_defaults(func=_cmd_pipeline)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"exrange: error: validation: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except StackFormatError as exc:
        print(f"exrange: error: format: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except OSError as exc:
        print(f"exrange: error: io: {exc}", file=sys.stderr)
        return EXIT_IO
    except ExrangeError as exc:
        print(f"exrange: error: compute: {exc}", file=sys.stderr)
        return EXIT_COMPUTE


if __name__ == "__main__":
    sys.exit(main())
