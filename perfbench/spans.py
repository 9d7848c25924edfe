"""In-memory span tracing of one ``exrange`` process, and the analysis that
turns its spans into the benchmark's per-layer metrics.

Run as a script, it executes one exrange command with the public functions
and public methods of every ``exrange`` module (and the CLI's output
writers) wrapped in spans, then restores the originals and writes the
spans as JSON:

    PYTHONPATH=src python3 perfbench/spans.py SPANS.json pipeline --in ... --out ...

A span is ``[name, thread, parent, start, end, cpu_s, attrs]``: times come
from ``time.perf_counter``, ``cpu_s`` is the thread CPU time spent inside
the span and ``parent`` is the index of the enclosing span. A span opened
by a worker thread with no enclosing span of its own is parented to the
span open on the main thread at that moment (the one that submitted the
work), and carries its worker thread's name.

Self time is a span's duration minus the union of its children's
intervals. A worker-thread span only has children on its own thread, so
its self time is per thread; on the main thread, concurrent children are
counted once.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import functools  # noqa: E402
import inspect  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402

NAME, THREAD, PARENT, START, END, CPU, ATTRS = range(7)

ROOT = "cli.main"
TRACED_MODULES = ("raster", "thresholds", "morphology", "ranges", "geometry",
                  "tailfit", "simgrf", "cli")
CLI_WRITERS = ("_write_csv", "_save_map_with_csv")


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _mask_pixels(args, kwargs, result, before):
    mask = args[0] if args else kwargs["mask"]
    return {"px": int(mask.size)}


def _edge_fallback(args, kwargs, result, before):
    mask = args[0] if args else kwargs["mask"]
    return {"edge_fallback": bool(mask.exceed.all())}


# Counts recorded at layer boundaries: name -> (before(args, kwargs), after(
# args, kwargs, result, before) -> attrs). They run outside the span.
PROBES = {
    "raster.load_stack": (None, lambda a, k, r, b: {"bytes": int(r.values.nbytes)}),
    "morphology.distance_transform": (None, _mask_pixels),
    "morphology.distance_transform_squared": (None, _mask_pixels),
    "ranges.range_field": (None, _edge_fallback),
    "tailfit.collect_samples": (None, lambda a, k, r, b: {"samples": int(r.n)}),
    "tailfit.SplineMerModel.fit": (
        lambda a, k: _maxrss_mb(),
        lambda a, k, r, b: {"rss_growth_mb": _maxrss_mb() - b},
    ),
    "tailfit.fit_mer_pixel_map": (
        None, lambda a, k, r, b: {"nan_px": int((r.beta != r.beta).sum())},
    ),
}


class Tracer:
    """Records spans around wrapped callables; ``install`` wraps the exrange
    modules in place and ``restore`` puts every original back."""

    def __init__(self):
        self.spans: list[list] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = threading.current_thread()
        self._main_stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        before, after = PROBES.get(name, (None, None))
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                main = tracer._main_stack
                parent = main[-1] if main else None
            state = before(args, kwargs) if before else None
            span = [name, threading.current_thread().name, parent, 0.0, 0.0, 0.0, None]
            with tracer._lock:
                sid = len(tracer.spans)
                tracer.spans.append(span)
            stack.append(sid)
            cpu0 = time.thread_time()
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                span[CPU] = time.thread_time() - cpu0
                stack.pop()
            if after:
                span[ATTRS] = after(args, kwargs, result, state)
            return result

        return traced

    def install(self, package: str = "exrange") -> None:
        """Wrap the public functions and public methods of the traced
        modules, plus the CLI writers, under every name the package's
        modules bind them to."""
        mods = {m: sys.modules[f"{package}.{m}"] for m in TRACED_MODULES}
        wrapped: dict[int, tuple[object, object]] = {}
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                public = not attr.startswith("_") or (short == "cli" and attr in CLI_WRITERS)
                if not public or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) and not inspect.isgeneratorfunction(obj):
                    wrapped[id(obj)] = (obj, self.wrap(f"{short}.{attr}", obj))
                elif inspect.isclass(obj):
                    for meth, fn in list(vars(obj).items()):
                        if (not meth.startswith("_") and inspect.isfunction(fn)
                                and not inspect.isgeneratorfunction(fn)):
                            self._patch(obj, meth, fn,
                                        self.wrap(f"{short}.{attr}.{meth}", fn))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == package or mod_name.startswith(package + ".")):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(mod, attr, obj, hit[1])

    def _patch(self, owner, attr, original, replacement) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# analysis
# ---------------------------------------------------------------------------

def union_length(intervals) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def children_of(spans) -> list[list[int]]:
    kids: list[list[int]] = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s[PARENT] is not None:
            kids[s[PARENT]].append(i)
    return kids


def self_time(spans, kids, i: int) -> float:
    lo, hi = spans[i][START], spans[i][END]
    covered = union_length(
        (max(lo, spans[c][START]), min(hi, spans[c][END])) for c in kids[i]
    )
    return (hi - lo) - covered


def outermost(spans, names) -> list[int]:
    """Indices of spans named in ``names`` with no ancestor named in ``names``."""
    names = set(names)
    out = []
    for i, s in enumerate(spans):
        if s[NAME] not in names:
            continue
        p = s[PARENT]
        while p is not None and spans[p][NAME] not in names:
            p = spans[p][PARENT]
        if p is None:
            out.append(i)
    return out


def _busy(spans, *names) -> float:
    return sum(spans[i][END] - spans[i][START] for i in outermost(spans, names))


def _under(spans, i: int, ancestor: str) -> bool:
    p = spans[i][PARENT]
    while p is not None:
        if spans[p][NAME] == ancestor:
            return True
        p = spans[p][PARENT]
    return False


def check_trace(spans, wall_s: float, startup_s: float) -> list[str]:
    """Problems with a traced job's spans; empty when the trace accounts for
    the job. Every span must lie inside the root, and the root plus the
    measured start-up must cover the traced wall time, which the parent
    process measures, up to interpreter start and exit (1 s or 10%)."""
    roots = [i for i, s in enumerate(spans) if s[PARENT] is None]
    if len(roots) != 1 or spans[roots[0]][NAME] != ROOT:
        return [f"expected one root span {ROOT}, got {[spans[i][NAME] for i in roots]}"]
    r = roots[0]
    lo, hi = spans[r][START], spans[r][END]
    errors = []
    eps = 1e-6
    for s in spans:
        if not (lo - eps <= s[START] <= s[END] <= hi + eps):
            errors.append(f"span {s[NAME]} on {s[THREAD]} lies outside the root")
            break
    root_dur = hi - lo
    unaccounted = wall_s - startup_s - root_dur
    if not -0.05 <= unaccounted <= max(1.0, 0.1 * wall_s):
        errors.append(
            f"traced wall {wall_s:.3f} s is not startup {startup_s:.3f} s plus root "
            f"{root_dur:.3f} s (unaccounted {unaccounted:.3f} s)"
        )
    return errors


def layer_metrics(spans, bytes_written: int) -> dict[str, float]:
    """The per-layer metrics of one traced job, except ``trace.overhead_s``
    which compares traced with untraced jobs."""
    kids = children_of(spans)
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[NAME], []).append(i)

    def attr_sum(name, key):
        return sum((spans[i][ATTRS] or {}).get(key, 0) for i in by_name.get(name, ()))

    edt = ("morphology.distance_transform", "morphology.distance_transform_squared")
    edt_spans = outermost(spans, edt)
    edt_s = sum(spans[i][END] - spans[i][START] for i in edt_spans)
    edt_px = sum(spans[i][ATTRS]["px"] for i in edt_spans)
    squared_calls = sum(
        1 for i in by_name.get(edt[1], ())
        if spans[i][PARENT] is None or spans[spans[i][PARENT]][NAME] != edt[1]
    )
    rf = by_name.get("ranges.range_field", [])
    rf_busy = _busy(spans, "ranges.range_field")
    rf_cpu = sum(spans[i][CPU] for i in outermost(spans, ["ranges.range_field"]))
    lad = [i for i in by_name.get("tailfit.fit_mer_pixel", [])
           if _under(spans, i, "tailfit.fit_mer_pixel_map")]
    lad_s = sum(spans[i][END] - spans[i][START] for i in lad)
    root = by_name[ROOT][0]
    return {
        "raster.load_stack_s": _busy(spans, "raster.load_stack"),
        "raster.bytes_read": attr_sum("raster.load_stack", "bytes"),
        "thresholds.quantile_field_s": _busy(spans, "thresholds.quantile_field"),
        "thresholds.quantile_field_calls": len(by_name.get("thresholds.quantile_field", ())),
        "thresholds.excursion_mask_s": _busy(spans, "thresholds.excursion_mask"),
        "morphology.distance_transform_s": edt_s,
        "morphology.distance_transform_calls": len(by_name.get(edt[0], ())),
        "morphology.distance_transform_mpx_per_s": edt_px / 1e6 / edt_s if edt_s > 0 else 0.0,
        "morphology.distance_transform_squared_calls": squared_calls,
        "ranges.range_field_s": rf_busy,
        "ranges.range_field_wall_s": union_length(
            (spans[i][START], spans[i][END]) for i in rf),
        "ranges.range_field_cpu_s": rf_cpu,
        "ranges.range_field_wait_s": rf_busy - rf_cpu,
        "ranges.edge_fallback_slices": sum(
            1 for i in rf if (spans[i][ATTRS] or {}).get("edge_fallback")),
        "ranges.ecdf_s": _busy(spans, "ranges.ecdf"),
        "ranges.median_range_map_s": _busy(spans, "ranges.median_range_map"),
        "geometry.intrinsic_densities_s": _busy(spans, "geometry.intrinsic_densities"),
        "tailfit.collect_samples_s": _busy(spans, "tailfit.collect_samples"),
        "tailfit.samples": attr_sum("tailfit.collect_samples", "samples"),
        "tailfit.spline_fit_s": _busy(spans, "tailfit.SplineMerModel.fit"),
        "tailfit.spline_fit_rss_mb": attr_sum("tailfit.SplineMerModel.fit", "rss_growth_mb"),
        "tailfit.pixel_fit_s": _busy(spans, "tailfit.fit_mer_pixel_map"),
        "tailfit.pixel_fit_px": len(lad),
        "tailfit.pixel_fit_nan_px": attr_sum("tailfit.fit_mer_pixel_map", "nan_px"),
        "tailfit.fit_mer_pixel_ms": 1000.0 * lad_s / len(lad) if lad else 0.0,
        "cli.write_s": _busy(spans, *(f"cli.{w}" for w in CLI_WRITERS)),
        "cli.bytes_written": bytes_written,
        "cli.self_s": self_time(spans, kids, root),
    }


# Stage metrics whose share of the traced wall time ranks the layers.
STAGES = (
    "raster.load_stack_s", "thresholds.quantile_field_s", "thresholds.excursion_mask_s",
    "ranges.range_field_wall_s", "ranges.ecdf_s", "ranges.median_range_map_s",
    "geometry.intrinsic_densities_s", "tailfit.collect_samples_s",
    "tailfit.spline_fit_s", "tailfit.pixel_fit_s", "cli.write_s", "cli.self_s",
)


def main(argv: list[str]) -> int:
    out_path, exrange_argv = argv[0], argv[1:]
    from exrange import cli

    tracer = Tracer()
    tracer.install()
    startup_s = time.perf_counter() - _T0
    try:
        code = cli.main(exrange_argv)
    finally:
        tracer.restore()
    with open(out_path, "w") as fh:
        json.dump({"exit": code, "startup_s": startup_s, "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
