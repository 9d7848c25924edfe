"""Command line front-end wiring the estimation pipeline.

Subcommands: simulate, quantiles, excursion, range, cdf, hist, chi,
ivdens, theta, mer, jackknife, pipeline. All tabular output is RFC-4180
CSV with a header row; maps use the raw float32 + JSON sidecar format.
Every output file is written to a temporary name and renamed, so files
are either complete or absent. All randomness derives from simulate --seed.

Exit codes: 0 success, 2 flag or value validation, 3 malformed input
files, 4 I/O failure, 5 any other computation error, a refused memory
allocation included.

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
from .errors import DegenerateFitError, ExrangeError, StackFormatError
from .thresholds import BoundaryPolicy

EXIT_VALIDATION = 2
EXIT_FORMAT = 3
EXIT_IO = 4
EXIT_COMPUTE = 5

DEFAULT_LEVELS = "0.85:0.98:0.01"
# the most points a start:stop:step grid may ask for; counted before any is made
GRID_MAX_POINTS = 100_000
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
        if not all(map(math.isfinite, (start, stop, step))):
            raise ValueError(f"{name}: start, stop and step must be finite, got {spec!r}")
        # points start + i*step for i <= last, rounded to 12 decimals, up to stop; they
        # never decrease, so a step below that rounding shows as a repeat, refused at once
        last = (stop - start) / step + 0.5   # inf where the quotient overflows
        if last >= GRID_MAX_POINTS:
            raise ValueError(f"{name}: {spec!r} asks for {last + 0.5:.6g} points, more than "
                             f"{GRID_MAX_POINTS}")
        values = []
        for i in range(math.floor(max(last, -1.0)) + 1):   # none when last < 0
            v = round(start + i * step, 12)
            if v > stop + step * 1e-9:
                break
            if values and v <= values[-1]:
                raise ValueError(f"{name}: step {step} repeats {v} at 12 decimals")
            values.append(v)
    else:
        values = [float(x) for x in spec.split(",") if x.strip()]
        if not all(map(math.isfinite, values)):
            raise ValueError(f"{name}: values must be finite, got {spec!r}")
        if any(b <= a for a, b in zip(values, values[1:])):
            raise ValueError(f"{name}: values must be strictly increasing, got {values}")
    if not values:
        raise ValueError(f"{name}: empty list")
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


def _fit_pass(args):
    """Check --knots, --penalty, --iters, --min-range and --predict-p before
    any work, and return ``fit(samples) -> MerSurface``: the ``--fit`` surface
    on the samples' grid, the spline's penalty chosen by block CV under
    ``--penalty auto``."""
    try:
        ky, kx = (int(k) for k in args.knots.lower().split("x"))
        penalty = None if args.penalty == "auto" else float(args.penalty)
    except ValueError as exc:
        raise ValueError(f"--knots must look like 8x8 and --penalty be 'auto' or a "
                         f"number, got {args.knots!r} and {args.penalty!r}") from exc
    tailfit.check_fit_options(ky, kx, args.iters, penalty)
    if not 0.0 <= args.min_range < math.inf:
        raise ValueError(f"--min-range must be finite and >= 0, got {args.min_range}")
    predict_p = getattr(args, "predict_p", None)
    if predict_p is not None and not 0.0 < predict_p < 1.0:
        raise ValueError(f"--predict-p must lie strictly inside (0,1), got {predict_p}")
    if args.fit == "pixel":
        return tailfit.fit_mer_pixel_map

    def fit(samples: tailfit.RangeSamples) -> tailfit.MerSurface:
        lam = tailfit.choose_penalty(samples, ky, kx, args.iters) if penalty is None else penalty
        model = tailfit.SplineMerModel(knots_x=kx, knots_y=ky, penalty=lam, iters=args.iters)
        return model.fit(samples).to_surface()

    return fit


def _parse_lags(spec: str, ny: int, nx: int) -> list[tuple[int, int]]:
    """The lags of ``spec`` as (row, column) offsets, each within an ny x nx grid."""
    lags = []
    for item in spec.split(","):
        item = item.strip()
        if not item:
            continue
        try:
            x, y = map(int, item.split(":")) if ":" in item else (int(item), 0)
        except ValueError:
            raise ValueError(f"--lags: expected x:y or x with integers x and y, "
                             f"got {item!r}") from None
        if abs(x) >= nx or abs(y) >= ny:
            raise ValueError(f"--lags: lag {x}:{y} exceeds the grid, {nx} columns by {ny} rows")
        if (y, x) in lags:
            raise ValueError(f"--lags: lag {item!r} repeats an earlier lag")
        lags.append((y, x))  # stored as (row, col) from "x:y"
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


def _level_pass(args, stack: raster.RasterStack, levels, visit) -> list:
    """``visit(thr, entries)`` on each level's threshold, all from one sort of
    ``stack``, and ``RangeEntries`` in turn, each freed before the next level's
    are computed; returns the visits' results in order. --policy and --threads
    pass as parsed (argparse's choices; ``main`` refuses a count below 1); a
    command without --threads runs the ranges on the calling thread."""
    threads = getattr(args, "threads", 1)
    return [visit(thr, ranges.range_entries(stack, thr, args.policy, threads))
            for thr in thresholds.quantile_fields(stack, levels)]


def _sample_pass(args, stack: raster.RasterStack, levels: list[float], blocks,
                 visit=lambda thr, entries: None) -> tailfit.RangeSamples:
    """Every level's samples past --min-range, in one pool sized from ``levels``;
    ``visit(thr, entries)`` sees each level's entries before they are collected."""
    pool = tailfit.SamplePool.for_levels(stack, levels)

    def collect(thr, entries):
        visit(thr, entries)
        tailfit.collect_samples({thr.p: entries}, stack.domain(), blocks, args.min_range, pool)

    _level_pass(args, stack, levels, collect)
    return pool.samples()


def _write_csv(path: Path, header: list[str], rows) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    path.parent.mkdir(parents=True, exist_ok=True)
    raster._atomic_write_bytes(path, buf.getvalue().encode())


def _save_map_with_csv(out_dir: Path, name: str, grid: np.ndarray,
                       domain: raster.DomainMask, dx: float, unit: str) -> None:
    """Write ``grid`` as a float32 map and as CSV rows (x_index, y_index, value),
    row-major, of its valued pixels: in the domain, finite as float32 and not
    the nodata sentinel, which the map holds everywhere else. A map without a
    valued pixel is a compute error, raised before either file is written."""
    with np.errstate(over="ignore"):   # a value past float32's range is not valued
        grid32 = np.array(grid, dtype=np.float32)
    nodata = np.float32(raster.DEFAULT_NODATA)
    valued = domain.inside & np.isfinite(grid32) & (grid32 != nodata)
    if not valued.any():
        raise DegenerateFitError(f"{name} not written: no domain pixel has a finite value")
    grid32[~valued] = nodata
    raster.save_map(out_dir / f"{name}.f32", grid32, dx=dx, unit=unit)
    iy, ix = np.nonzero(valued)
    _write_csv(out_dir / f"{name}.csv", ["x_index", "y_index", "value"],
               zip(ix.tolist(), iy.tolist(), grid32[valued].tolist()))


def _fmt_p(p: float) -> str:
    """The shortest text that reads back as ``p``, so levels never share a label."""
    return repr(float(p))


def _radii(radii: list[float] | None, dx: float, r_max: float) -> list[float]:
    """The parsed --radii checked against the domain inradius ``r_max``, or,
    without them, the multiples 1 to 8 of dx below it."""
    if radii:
        return ranges.check_radii(radii, r_max).tolist()
    radii = [r for r in (k * dx for k in range(1, 9)) if r < r_max]
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


def _hist_edges(dx: float, r_max: float) -> np.ndarray:
    return np.arange(0.0, r_max + dx, dx)


def _hist_rows(p: float, entries: ranges.RangeEntries, edges: np.ndarray) -> list:
    """One level's histogram of the pooled positive in-domain ranges."""
    counts, _ = np.histogram(entries.value, bins=edges)
    return [[_fmt_p(p), float(lo), float(hi), int(c)]
            for lo, hi, c in zip(edges[:-1], edges[1:], counts)]


def _ivdens_row(stack: raster.RasterStack, thr: thresholds.ThresholdField) -> list:
    """One level's intrinsic-volume densities of the in-domain excursion
    sets and the CDF slope they predict."""
    dens = geometry.intrinsic_densities(stack, thr)
    slope = geometry.cdf_slope(dens.c1, dens.c2) if dens.c2 > 0 else float("nan")
    return [_fmt_p(thr.p), dens.c0, dens.c1, dens.c2, slope]


def _save_theta_map(out: Path, domain: raster.DomainMask, dx: float, p1: float,
                    med1: np.ndarray, p2: float, med2: np.ndarray) -> None:
    """Write θ from the median range maps at two levels, 0 where either is 0. A level
    without positive range leaves no θ (a map needs a value), which stderr reports."""
    for p, med in ((p1, med1), (p2, med2)):
        if not (med > 0).any():
            print(f"exrange: theta_map not written: level {_fmt_p(p)} has no positive range",
                  file=sys.stderr)
            return
    _save_map_with_csv(out, "theta_map", tailfit.theta_hat(med1, med2, p1, p2), domain, dx,
                       "theta")


def _save_fit_maps(out: Path, surface: tailfit.MerSurface, domain: raster.DomainMask,
                   dx: float, unit: str, predict_p: float | None) -> None:
    _save_map_with_csv(out, "mer_beta", surface.beta, domain, dx, "log-range")
    _save_map_with_csv(out, "mer_theta", surface.theta, domain, dx, "theta")
    if predict_p is not None:
        pred = tailfit.predict_mer_map(surface, predict_p)
        _save_map_with_csv(out, f"mer_p{_fmt_p(predict_p)}", pred, domain, dx, unit)


def _load_blocks(path: str, nt: int) -> np.ndarray:
    ids = []
    for number, line in enumerate(Path(path).read_text().splitlines(), start=1):
        if line.strip():
            try:
                ids.append(np.int64(int(line)))
            except (ValueError, OverflowError):
                raise ValueError(f"{path}: line {number}: block id {line.strip()!r} is not "
                                 "a 64-bit integer") from None
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
    raster.save_stack(args.out / "stack.f32", stack)
    print(f"wrote {args.out / 'stack.f32'} ({stack.nt}x{stack.ny}x{stack.nx})")
    return 0


def _cmd_quantiles(args) -> int:
    levels = _parse_levels(args.p)
    stack = raster.load_stack(_resolve_input(args.input))
    domain = stack.domain()
    for thr in thresholds.quantile_fields(stack, levels):
        _save_map_with_csv(args.out, f"threshold_p{_fmt_p(thr.p)}", thr.u, domain, stack.dx,
                           stack.unit)
    return 0


def _cmd_excursion(args) -> int:
    levels = _parse_levels(args.p)
    stack = raster.load_stack(_resolve_input(args.input))
    for thr in thresholds.quantile_fields(stack, levels):
        exceed = thresholds.exceedance_stack(stack, thr, args.policy)
        for t in range(stack.nt):
            raster.save_map(args.out / f"excursion_p{_fmt_p(thr.p)}_t{t}.f32",
                            exceed[t].astype(np.float32), dx=stack.dx, unit="bool")
    return 0


def _cmd_range(args) -> int:
    levels = _parse_levels(args.p)
    stack = raster.load_stack(_resolve_input(args.input))

    def save(thr, entries):
        for t, r in enumerate(ranges._slice_maps(entries, np.float32)):
            raster.save_map(args.out / f"range_p{_fmt_p(thr.p)}_t{t}.f32", r, dx=stack.dx,
                            unit=stack.unit)

    _level_pass(args, stack, levels, save)
    return 0


def _cmd_cdf(args) -> int:
    levels = _parse_levels(args.p)
    radii = _parse_grid(args.radii, "radii") if args.radii else None
    stack = raster.load_stack(_resolve_input(args.input))
    domain = stack.domain()
    radii = _radii(radii, stack.dx, ranges.domain_distance(domain, stack.dx).max())

    def write(thr, entries):
        _write_csv(args.out / f"cdf_p{_fmt_p(thr.p)}.csv", ["r", "F", "n_exceed"],
                   _cdf_rows(entries, domain, radii, stack.dx))

    _level_pass(args, stack, levels, write)
    return 0


def _cmd_hist(args) -> int:
    levels = _parse_levels(args.p)
    stack = raster.load_stack(_resolve_input(args.input))
    edges = _hist_edges(stack.dx, ranges.domain_distance(stack.domain(), stack.dx).max())
    rows = _level_pass(args, stack, levels,
                       lambda thr, entries: _hist_rows(thr.p, entries, edges))
    _write_csv(args.out / "hist.csv", HIST_HEADER, [r for level in rows for r in level])
    return 0


def _cmd_chi(args) -> int:
    levels = _parse_levels(args.p)
    stack = raster.load_stack(_resolve_input(args.input))
    lags = _parse_lags(args.lags, stack.ny, stack.nx)
    domain = stack.domain()
    for thr in thresholds.quantile_fields(stack, levels):
        # one level's exceedances serve every lag and map
        exceed = thresholds.exceedance_stack(stack, thr, BoundaryPolicy.ERODE)
        rows = []
        for dy, dxp in lags:
            chi = ranges.tail_dependence(exceed, domain.inside, (dy, dxp))
            rows.append([dxp, dy, float(chi)])
            name = f"chi_p{_fmt_p(thr.p)}_lag{dxp}x{dy}"
            if args.per_pixel and math.isnan(chi):  # 0/0: a map would hold no value
                print(f"exrange: {name} not written: no in-domain pair at lag {dxp}:{dy} "
                      "has an exceeding reference pixel", file=sys.stderr)
            elif args.per_pixel:
                chi_map = ranges.tail_dependence(exceed, domain.inside, (dy, dxp),
                                                 per_pixel=True)
                _save_map_with_csv(args.out, name, chi_map, domain, stack.dx, "chi")
        _write_csv(args.out / f"chi_p{_fmt_p(thr.p)}.csv", ["lag_x", "lag_y", "chi"], rows)
    return 0


def _cmd_ivdens(args) -> int:
    levels = _parse_levels(args.p)
    stack = raster.load_stack(_resolve_input(args.input))
    rows = [_ivdens_row(stack, thr) for thr in thresholds.quantile_fields(stack, levels)]
    _write_csv(args.out / "ivdens.csv", IVDENS_HEADER, rows)
    return 0


def _cmd_theta(args) -> int:
    for flag, p in (("--p1", args.p1), ("--p2", args.p2)):
        if not 0.0 < p < 1.0:
            raise ValueError(f"{flag} must lie strictly inside (0,1), got {p}")
    if args.p1 == args.p2:
        raise ValueError("--p1 and --p2 must differ")
    stack = raster.load_stack(_resolve_input(args.input))
    thresholds.distinct_order_statistics((args.p1, args.p2), stack.nt)
    med1, med2 = _level_pass(args, stack, (args.p1, args.p2),
                             lambda _, entries: ranges.median_range_map(entries, stack.domain()))
    _save_theta_map(args.out, stack.domain(), stack.dx, args.p1, med1, args.p2, med2)
    return 0


def _cmd_mer(args) -> int:
    levels = _parse_fit_levels(args.levels)
    fit = _fit_pass(args)
    stack = raster.load_stack(_resolve_input(args.input))
    blocks = _load_blocks(args.blocks_by, stack.nt) if args.blocks_by else None
    domain, dx, unit = stack.domain(), stack.dx, stack.unit
    samples = _sample_pass(args, stack, levels, blocks)
    del stack   # the fit reads the samples only
    _save_fit_maps(args.out, fit(samples), domain, dx, unit, args.predict_p)
    return 0


def _cmd_jackknife(args) -> int:
    levels = _parse_fit_levels(args.levels)
    fit = _fit_pass(args)
    stack = raster.load_stack(_resolve_input(args.input))
    domain = stack.domain()
    block_ids = _load_blocks(args.blocks_by, stack.nt)

    def estimator(sub: raster.RasterStack, kept: np.ndarray) -> np.ndarray:
        # the samples keep the block ids of the slices left, for the block-wise CV
        samples = _sample_pass(args, sub, levels, kept)
        del sub   # the fit reads the samples only
        surface = fit(samples)
        return np.stack([surface.beta, surface.theta])

    se = tailfit.jackknife(stack, block_ids, estimator)
    _save_map_with_csv(args.out, "se_beta", se[0], domain, stack.dx, "se")
    _save_map_with_csv(args.out, "se_theta", se[1], domain, stack.dx, "se")
    return 0


def _cmd_pipeline(args) -> int:
    levels = _parse_fit_levels(args.levels)
    radii = _parse_grid(args.radii, "radii") if args.radii else None
    fit = _fit_pass(args)
    stack = raster.load_stack(_resolve_input(args.input))
    domain, dx, unit = stack.domain(), stack.dx, stack.unit
    r_max = ranges.domain_distance(domain, dx).max()   # the domain inradius
    radii = _radii(radii, dx, r_max)
    hist_edges = _hist_edges(dx, r_max)
    blocks = _load_blocks(args.blocks_by, stack.nt) if args.blocks_by else None

    cdf_rows, hist_rows, iv_rows = [], [], []
    med_maps = {}

    def level_rows(thr, entries):
        cdf_rows.extend([_fmt_p(thr.p), *row]
                        for row in _cdf_rows(entries, domain, radii, dx))
        hist_rows.extend(_hist_rows(thr.p, entries, hist_edges))
        iv_rows.append(_ivdens_row(stack, thr))
        if thr.p in (levels[0], levels[-1]):
            med_maps[thr.p] = ranges.median_range_map(entries, domain)

    samples = _sample_pass(args, stack, levels, blocks, level_rows)
    del stack   # the theta map and the fit read the medians and the samples only
    _write_csv(args.out / "cdf.csv", ["p", "r", "F", "n_exceed"], cdf_rows)
    _write_csv(args.out / "hist.csv", HIST_HEADER, hist_rows)
    _write_csv(args.out / "ivdens.csv", IVDENS_HEADER, iv_rows)

    p_lo, p_hi = levels[0], levels[-1]
    _save_theta_map(args.out, domain, dx, p_lo, med_maps[p_lo], p_hi, med_maps[p_hi])

    _save_fit_maps(args.out, fit(samples), domain, dx, unit, args.predict_p)
    print(f"pipeline outputs written to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_common_io(sub, with_policy: bool = True):
    sub.add_argument("--in", dest="input", required=True,
                     help="stack file (.f32) or directory holding one")
    sub.add_argument("--out", type=Path, required=True, help="output directory")
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
                     help="optimizer iteration budget, at least 3; each fold fit of "
                          "--penalty auto runs max(60, ITERS // 3) iterations")
    sub.add_argument("--min-range", type=float, default=0.0, dest="min_range",
                     help="drop range observations below this length, finite and >= 0")
    sub.add_argument("--threads", type=int, default=1,
                     help="worker threads for the range fields (default: 1); outputs "
                          "are identical for every count, and on two cores a second "
                          "worker has not made the range stage faster")


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
    s.add_argument("--out", type=Path, required=True)
    s.set_defaults(func=_cmd_simulate)

    s = subs.add_parser("quantiles", help="per-pixel threshold maps")
    _add_common_io(s, with_policy=False)
    s.add_argument("--p", default=DEFAULT_LEVELS, help="levels as list or start:stop:step")
    s.set_defaults(func=_cmd_quantiles)

    s = subs.add_parser("excursion", help="excursion masks per slice and level")
    _add_common_io(s)
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
    _add_common_io(s, with_policy=False)
    s.add_argument("--p", default="0.9,0.95")
    s.add_argument("--lags", default="1:0,2:0,4:0,8:0,0:1,0:2,0:4,0:8",
                   help="comma list of x:y pixel offsets")
    s.add_argument("--per-pixel", action="store_true", dest="per_pixel",
                   help="also write one per-reference-pixel map per level and lag")
    s.set_defaults(func=_cmd_chi)

    s = subs.add_parser("ivdens", help="curvature densities per level")
    _add_common_io(s, with_policy=False)
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
        # before any stack is read; the default is 1, as a second worker was slower (README)
        if getattr(args, "threads", 1) < 1:
            raise ValueError(f"--threads must be at least 1, got {args.threads}")
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
    except (ExrangeError, MemoryError) as exc:   # a refused allocation is a compute error
        print(f"exrange: error: compute: {exc}", file=sys.stderr)
        return EXIT_COMPUTE


if __name__ == "__main__":
    sys.exit(main())
