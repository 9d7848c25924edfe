"""Closed-loop benchmark of the exrange estimation chain.

One run simulates the workload's input stack from ``--seed`` (several
times, to time set-up), then runs ``exrange pipeline`` jobs one at a time,
each in a fresh process, until ``--seconds`` have passed. Every job's
outputs are checked. With ``--trace 0`` it reports the end-to-end metrics
as medians over the jobs; with ``--trace 1`` it alternates untraced jobs
with traced ones (see spans.py) and reports the per-layer metrics as
medians over the traced jobs. Metric names and units come from
BENCHMARK.json at the repository root; the last line of standard output is
the JSON result.

    python3 perfbench/run.py --workload spline-g16 --seed 7 --seconds 25 --trace 0

The program is run from ``src/`` of the checkout this file sits in; the
run fails without a result if that source tree is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import spans
from workloads import WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
N_SETUP = 3
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "EXRANGE_THREADS")
PROBE = """
import json, os, sys
import numpy, scipy, exrange
try:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    blas = f"{blas['name']} {blas['version']}"
except (KeyError, TypeError, AttributeError):
    blas = "unknown"
print(json.dumps({"exrange": os.path.dirname(os.path.abspath(exrange.__file__)),
                  "python": sys.version.split()[0], "numpy": numpy.__version__,
                  "scipy": scipy.__version__, "blas": blas}))
"""


class SetupError(RuntimeError):
    """The program could not be found or could not make the inputs."""


@dataclass
class Job:
    traced: bool
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    errors: list[str] = field(default_factory=list)
    layers: dict | None = None


def job_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def probe_program(root: Path, env: dict[str, str]) -> dict:
    """Versions of the interpreter and libraries, after checking that
    ``exrange`` imports from this checkout's source tree."""
    proc = subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True,
                          text=True, timeout=120)
    if proc.returncode != 0:
        raise SetupError(f"cannot import exrange from {root / 'src'}: {proc.stderr.strip()}")
    info = json.loads(proc.stdout)
    if Path(info["exrange"]) != (root / "src" / "exrange").resolve():
        raise SetupError(f"exrange imports from {info['exrange']}, not {root / 'src'}")
    return info


def run_process(cmd: list[str], env: dict[str, str], log: Path) -> tuple[int, float, float, float]:
    """Exit code, wall time, user+sys CPU and peak RSS (MB) of one process."""
    with open(log, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


def _tail(log: Path) -> str:
    lines = log.read_text(errors="replace").strip().splitlines()
    return lines[-1] if lines else ""


def setup(w: Workload, seed: int, work: Path, env: dict[str, str],
          n: int = N_SETUP) -> tuple[Path, list[float], str]:
    """Simulate the input stack ``n`` times in fresh processes; returns the
    stack directory, the set-up wall times and the stack's sha256."""
    walls, digests = [], []
    for i in range(n):
        out = work / f"input{i}"
        log = work / f"simulate{i}.log"
        code, wall, _, _ = run_process(
            [sys.executable, "-m", "exrange.cli"] + w.simulate_args(seed, str(out)), env, log)
        if code != 0:
            raise SetupError(f"simulate exited {code}: {_tail(log)}")
        walls.append(wall)
        digests.append(checks.sha256(out / "stack.f32"))
        if i:
            shutil.rmtree(out)
    if len(set(digests)) != 1:
        raise SetupError(f"simulate is not deterministic at seed {seed}")
    return work / "input0", walls, digests[0]


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.iterdir() if p.is_file())


def run_job(w: Workload, stack_dir: Path, work: Path, env: dict[str, str],
            reference: Path | None, traced: bool, index: int, after_job=None) -> Job:
    out = work / f"out{index}"
    log = work / f"job{index}.log"
    span_file = work / f"spans{index}.json"
    argv = w.pipeline_args(str(stack_dir), str(out))
    if traced:
        cmd = [sys.executable, str(HERE / "spans.py"), str(span_file)] + argv
    else:
        cmd = [sys.executable, "-m", "exrange.cli"] + argv
    code, wall, cpu, rss = run_process(cmd, env, log)
    job = Job(traced, wall, cpu, rss)
    if code != 0:
        job.errors.append(f"exit {code}: {_tail(log)}")
        return job
    written = _dir_bytes(out)
    if after_job is not None:
        after_job(out)
    job.errors += checks.check_outputs(out, w, reference)
    if traced:
        data = json.loads(span_file.read_text())
        job.errors += spans.check_trace(data["spans"], wall, data["startup_s"])
        job.layers = spans.layer_metrics(data["spans"], written)
        span_file.unlink()
    shutil.rmtree(out)
    return job


def run_jobs(w: Workload, stack_dir: Path, work: Path, env: dict[str, str],
             reference: Path | None, seconds: float, trace: bool, after_job=None) -> list[Job]:
    """Closed loop with one client: the next job starts when the last one
    ends, until ``seconds`` have passed. Traced runs alternate untraced and
    traced jobs and make at least one of each."""
    jobs: list[Job] = []
    t_end = time.perf_counter() + seconds
    while not jobs or time.perf_counter() < t_end or (trace and len(jobs) < 2):
        traced = trace and len(jobs) % 2 == 1
        jobs.append(run_job(w, stack_dir, work, env, reference, traced, len(jobs), after_job))
    return jobs


def end_to_end(jobs: list[Job], setup_walls: list[float]) -> dict[str, float]:
    ok = [j for j in jobs if not j.errors] or jobs
    return {
        "wall_s": statistics.median(j.wall_s for j in ok),
        "cpu_s": statistics.median(j.cpu_s for j in ok),
        "peak_rss_mb": statistics.median(j.peak_rss_mb for j in ok),
        "setup_s": statistics.median(setup_walls),
    }


def per_layer(jobs: list[Job]) -> dict[str, float]:
    traced = [j for j in jobs if j.traced and j.layers is not None]
    untraced = [j for j in jobs if not j.traced and not j.errors] or \
        [j for j in jobs if not j.traced]
    if not traced:
        raise SetupError("no traced job produced spans")
    out = {name: statistics.median(j.layers[name] for j in traced) for name in traced[0].layers}
    out["trace.overhead_s"] = (statistics.median(j.wall_s for j in traced)
                               - statistics.median(j.wall_s for j in untraced))
    return out


def manifest(root: Path, info: dict, input_sha: str, load_start: tuple) -> dict:
    commit = "unknown"
    if (root / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                    text=True, timeout=30).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "commit": commit,
        "python": info["python"], "numpy": info["numpy"], "scipy": info["scipy"],
        "blas": info["blas"], "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "loadavg_start": list(load_start),
        "input_sha256": input_sha,
    }


def bench_one(w: Workload, seed: int, seconds: float, trace: bool, declared: list[dict],
              n_setup: int = N_SETUP, reference: Path | None = None,
              after_job=None, report=print) -> dict:
    """One benchmark run; returns the result object and reports the rest
    (per-job figures, error rate, manifest) through ``report``."""
    load_start = os.getloadavg()
    env = job_env(ROOT)
    info = probe_program(ROOT, env)
    work = ROOT / ".perfbench_work" / f"{w.name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        stack_dir, setup_walls, input_sha = setup(w, seed, work, env, n_setup)
        jobs = run_jobs(w, stack_dir, work, env, reference, seconds, trace, after_job)
        measured = per_layer(jobs) if trace else end_to_end(jobs, setup_walls)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    names = [m["name"] for m in declared]
    if sorted(names) != sorted(measured):
        raise RuntimeError(f"measured metrics {sorted(measured)} != declared {sorted(names)}")
    failed = sum(1 for j in jobs if j.errors)
    for i, j in enumerate(jobs):
        report(f"# job {i} {'traced' if j.traced else 'plain'} wall_s={j.wall_s:.4f} "
               f"cpu_s={j.cpu_s:.4f} peak_rss_mb={j.peak_rss_mb:.1f} "
               f"{'FAILED ' + '; '.join(j.errors) if j.errors else 'ok'}")
    report(f"# setup_s runs: {', '.join(f'{s:.4f}' for s in setup_walls)}")
    report(f"# error_rate {failed}/{len(jobs)} = {failed / len(jobs):g}")
    for m in declared:
        report(f"# {m['name']} {measured[m['name']]:.6g} {m['unit']}")
    if trace:
        wall = statistics.median(j.wall_s for j in jobs if j.traced)
        ranked = sorted(spans.STAGES, key=lambda s: -measured[s])
        report("# stage share of traced wall: " + ", ".join(
            f"{s} {measured[s] / wall:.1%}" for s in ranked))
    report("# manifest " + json.dumps(manifest(ROOT, info, input_sha, load_start), sort_keys=True))
    return {
        "correct": failed == 0,
        "attempted": len(jobs),
        "failed": failed,
        "metrics": {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in declared},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = bench["per_layer"] if args.trace else bench["end_to_end"]
    w = WORKLOADS[args.workload]
    try:
        result = bench_one(w, args.seed, args.seconds, bool(args.trace), declared,
                           reference=checks.reference_for(w, args.seed))
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
