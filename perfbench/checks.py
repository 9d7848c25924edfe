"""Checks on the outputs of one ``exrange pipeline`` job.

At every seed the outputs must be structurally sound: all files present,
F in [0, 1], fewer ranges above r as r grows, the exceedance counts bounded by the
order-statistic index of each level, the area fraction c2 equal to the
exceedance share the per-pixel thresholds imply, finite fit maps, the
extrapolated map consistent with the coefficient maps, and every map CSV
equal to its float32 map. At a workload's default seed the outputs are
also compared with the references recorded in ``reference/<workload>``:
the exact files byte for byte, the fit maps to one float32 step.

Run as a script it records the references from a job's output directory:

    python3 perfbench/checks.py record WORKLOAD OUT_DIR
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import shutil
import sys
from pathlib import Path

import numpy as np

from workloads import WORKLOADS, Workload

REFERENCE_ROOT = Path(__file__).resolve().parent / "reference"
EXACT_FILES = ("cdf.csv", "hist.csv", "ivdens.csv", "theta_map.csv")
NODATA = np.float32(-9999.0)
# The level of the extrapolated map, ``--predict-p``'s default in the CLI.
PREDICT_P = 0.989
# Ties with a pixel's threshold value are non-exceedances, so the area
# fraction may fall short of the order-statistic share by a few ties.
C2_TIE_SLACK = 1e-3


def fit_maps() -> tuple[str, ...]:
    return ("mer_beta", "mer_theta", f"mer_p{PREDICT_P:g}")


def expected_files() -> list[str]:
    maps = ("theta_map",) + fit_maps()
    return list(EXACT_FILES[:3]) + [m + ext for m in maps for ext in (".f32", ".f32.json", ".csv")]


def order_statistic_index(p: float, n: int) -> int:
    # the rule of exrange.thresholds, restated so the check does not rely on
    # the code it checks
    k = min(max(int(math.ceil(p * n)), 1), n)
    while k > 1 and (k - 1) / n >= p:
        k -= 1
    return k


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _by_level(rows) -> dict[str, list[list[str]]]:
    out: dict[str, list[list[str]]] = {}
    for row in rows:
        out.setdefault(row[0], []).append(row)
    return out


def read_map(path: Path, w: Workload) -> np.ndarray:
    meta = json.loads(path.with_name(path.name + ".json").read_text())
    if (meta["nx"], meta["ny"], meta["nt"]) != (w.nx, w.ny, 1):
        raise ValueError(f"{path.name}: sidecar says {meta}")
    if np.float32(meta["nodata"]) != NODATA:
        raise ValueError(f"{path.name}: unexpected nodata {meta['nodata']}")
    return np.fromfile(path, dtype="<f4").reshape(w.ny, w.nx)


def _check_tables(out: Path, w: Workload) -> list[str]:
    errors = []
    levels = [f"{p:g}" for p in w.level_list()]
    npx = w.nx * w.ny
    n_exc = {f"{p:g}": (w.nt - order_statistic_index(p, w.nt)) * npx for p in w.level_list()}

    header, rows = _read_csv(out / "cdf.csv")
    cdf = _by_level(rows)
    if header != ["p", "r", "F", "n_exceed"] or list(cdf) != levels:
        errors.append(f"cdf.csv: header {header} or levels {list(cdf)} != {levels}")
    for p, level_rows in cdf.items():
        r = [float(x[1]) for x in level_rows]
        F = [float(x[2]) for x in level_rows]
        den = [int(x[3]) for x in level_rows]
        if any(b <= a for a, b in zip(r, r[1:])):
            errors.append(f"cdf.csv p={p}: radii not increasing")
        # F is a ratio over eroded domains that shrink with r, so it need not
        # rise with r; the count of ranges above r, n_exceed * (1 - F), must fall.
        above = [n * (1.0 - f) for n, f in zip(den, F)]
        if any(not 0.0 <= f <= 1.0 for f in F):
            errors.append(f"cdf.csv p={p}: F outside [0,1]")
        if any(b > a + 1e-6 * max(den[0], 1) for a, b in zip(above, above[1:])):
            errors.append(f"cdf.csv p={p}: more ranges above r as r grows")
        if (any(b > a for a, b in zip(den, den[1:]))
                or not 0 <= den[-1] <= den[0] <= n_exc.get(p, 0)):
            errors.append(f"cdf.csv p={p}: n_exceed {den} not non-increasing within bounds")

    header, rows = _read_csv(out / "hist.csv")
    hist = _by_level(rows)
    if header != ["p", "bin_left", "bin_right", "count"] or list(hist) != levels:
        errors.append(f"hist.csv: header {header} or levels {list(hist)} != {levels}")
    for p, level_rows in hist.items():
        counts = [int(x[3]) for x in level_rows]
        edges_ok = all(a[2] == b[1] for a, b in zip(level_rows, level_rows[1:]))
        if not edges_ok or min(counts) < 0 or not 0 < sum(counts) <= n_exc.get(p, 0):
            errors.append(f"hist.csv p={p}: bins not contiguous or counts out of bounds")

    header, rows = _read_csv(out / "ivdens.csv")
    if header != ["p", "c0", "c1", "c2", "slope_pred"] or [x[0] for x in rows] != levels:
        errors.append(f"ivdens.csv: header {header} or levels != {levels}")
    for row in rows:
        c0, c1, c2 = (float(v) for v in row[1:4])
        share = n_exc.get(row[0], 0) / (w.nt * npx)
        if not (math.isfinite(c0) and math.isfinite(c1) and c1 >= 0):
            errors.append(f"ivdens.csv p={row[0]}: c0={c0} c1={c1}")
        if not share - C2_TIE_SLACK <= c2 <= share * (1 + 1e-9):
            errors.append(f"ivdens.csv p={row[0]}: c2={c2} but thresholds imply {share}")
    return errors


def _check_map_csv(out: Path, name: str, grid: np.ndarray) -> list[str]:
    header, rows = _read_csv(out / f"{name}.csv")
    ys, xs = np.nonzero(grid != NODATA)
    want = [(int(x), int(y), float(v)) for x, y, v in zip(xs, ys, grid[ys, xs])]
    got = [(int(r[0]), int(r[1]), float(r[2])) for r in rows]
    if header != ["x_index", "y_index", "value"] or got != want:
        return [f"{name}.csv does not match {name}.f32"]
    return []


def _check_maps(out: Path, w: Workload) -> tuple[list[str], dict[str, np.ndarray]]:
    errors = []
    maps = {m: read_map(out / f"{m}.f32", w) for m in ("theta_map",) + fit_maps()}
    for name, grid in maps.items():
        if not np.isfinite(grid).all():
            errors.append(f"{name}.f32 holds non-finite values")
        errors += _check_map_csv(out, name, grid)
    if (maps["theta_map"] == NODATA).any():
        errors.append("theta_map.f32 has nodata inside the domain")
    beta, theta, pred = (maps[m] for m in fit_maps())
    valid = beta != NODATA
    if w.fit == "spline" and not valid.all():
        errors.append("spline fit maps have nodata inside the domain")
    same_pixels = ((theta != NODATA) == valid).all() and ((pred != NODATA) == valid).all()
    if not valid.any() or not same_pixels:
        errors.append("fit maps disagree on which pixels were fitted")
    else:
        x = math.log(-math.log(1.0 - PREDICT_P))
        implied = np.exp(beta[valid].astype(np.float64) - theta[valid].astype(np.float64) * x)
        if not np.allclose(pred[valid], implied, rtol=1e-4, atol=0.0):
            errors.append(f"mer_p{PREDICT_P:g} is not exp(beta - theta*x)")
    return errors, maps


def _check_reference(out: Path, w: Workload, ref: Path, maps) -> list[str]:
    errors = []
    exact = json.loads((ref / "exact.json").read_text())
    for name, digest in exact.items():
        if sha256(out / name) != digest:
            errors.append(f"{name} differs from the reference bytes")
    # The maps are stored as float32, so a float64 reordering of the same fit
    # (the roadmap's ~1e-10) shows at most as one float32 step, about 6e-8
    # relative.
    for name in fit_maps():
        want = np.fromfile(ref / f"{name}.f32", dtype="<f4").reshape(w.ny, w.nx)
        got = maps[name]
        same_mask = ((want == NODATA) == (got == NODATA)).all()
        ok = want != NODATA
        tol = np.spacing(np.abs(want[ok]))
        if not same_mask or not (np.abs(got[ok] - want[ok]) <= tol).all():
            errors.append(f"{name}.f32 differs from the reference by more than one float32 step")
    return errors


def check_outputs(out: Path, w: Workload, reference: Path | None) -> list[str]:
    """Problems with one job's outputs; empty when they are correct."""
    missing = [f for f in expected_files() if not (out / f).is_file()]
    if missing:
        return [f"missing outputs {missing}"]
    try:
        errors = _check_tables(out, w)
        map_errors, maps = _check_maps(out, w)
        errors += map_errors
        if reference is not None:
            errors += _check_reference(out, w, reference, maps)
    except (ValueError, IndexError, KeyError, OSError) as exc:
        errors = [f"unreadable outputs: {exc!r}"]
    return errors


def reference_for(w: Workload, seed: int) -> Path | None:
    """The reference directory that applies to this run, if any."""
    return REFERENCE_ROOT / w.name if seed == w.seed and w.name in WORKLOADS else None


def record_reference(out: Path, w: Workload, ref: Path) -> None:
    ref.mkdir(parents=True, exist_ok=True)
    (ref / "exact.json").write_text(
        json.dumps({name: sha256(out / name) for name in EXACT_FILES}, indent=1) + "\n")
    for name in fit_maps():
        shutil.copyfile(out / f"{name}.f32", ref / f"{name}.f32")


if __name__ == "__main__":
    if len(sys.argv) != 4 or sys.argv[1] != "record":
        sys.exit("usage: checks.py record WORKLOAD OUT_DIR")
    workload = WORKLOADS[sys.argv[2]]
    problems = check_outputs(Path(sys.argv[3]), workload, None)
    if problems:
        sys.exit("not recording, the outputs fail their checks: " + "; ".join(problems))
    record_reference(Path(sys.argv[3]), workload, REFERENCE_ROOT / workload.name)
