"""The benchmark's workloads: a simulated input stack and one
``exrange pipeline`` configuration each.

Each workload keeps the layer mix of a full-size run but is sized so that
one pipeline job takes seconds, not minutes, on two cores; README.md in
this directory says which layer each one stresses and which it bypasses.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

# Matérn smoothness of every workload's simulated field.
NU = 2.0


@dataclass(frozen=True)
class Workload:
    name: str
    model: str          # "gaussian" or "admix"
    nx: int
    ny: int
    nt: int
    ell: float
    seed: int           # default seed; outputs at it are compared with references
    levels: str         # --levels, as a comma list or start:stop:step
    fit: str            # "spline" or "pixel"
    threads: int

    def simulate_args(self, seed: int, out: str) -> list[str]:
        return [
            "simulate", "--model", self.model, "--nx", str(self.nx), "--ny", str(self.ny),
            "--n", str(self.nt), "--nu", repr(NU), "--ell", repr(self.ell),
            "--seed", str(seed), "--out", out,
        ]

    def pipeline_args(self, stack_dir: str, out: str) -> list[str]:
        return [
            "pipeline", "--in", stack_dir, "--out", out, "--levels", self.levels,
            "--fit", self.fit, "--threads", str(self.threads),
        ]

    def level_list(self) -> list[float]:
        """The levels as the CLI parses them (start:stop:step or a list),
        restated here so the output checks do not rely on the CLI."""
        if ":" in self.levels:
            start, stop, step = (float(v) for v in self.levels.split(":"))
            n = int(math.floor((stop - start) / step + 0.5))
            vals = [round(start + i * step, 12) for i in range(n + 1)]
            return [v for v in vals if v <= stop + step * 1e-9]
        return [float(v) for v in self.levels.split(",")]

    def toy(self) -> "Workload":
        """The same configuration on a tiny stack, for the self-test. It keeps
        110 slices so that the top level, 0.99, still has exceedances."""
        return dataclasses.replace(self, nx=8, ny=8, nt=110)


WORKLOADS = {
    w.name: w
    for w in (
        # Spline MER fit dominates; the per-pixel LAD is never called.
        Workload(name="spline-g16", model="gaussian", nx=16, ny=16, nt=100,
                 ell=8.0, seed=7, levels="0.9:0.98:0.02", fit="spline", threads=2),
        # Single-threaded per-pixel LAD over 14 levels of a scale mixture whose
        # exceedances bunch into few slices; no spline fit, no thread pool.
        Workload(name="pixel-admix12", model="admix", nx=12, ny=12, nt=100,
                 ell=8.0, seed=31, levels="0.85:0.98:0.01", fit="pixel", threads=1),
        # Per-slice array layers (range fields under two threads, marching
        # squares, median maps, map CSVs) on a larger grid with a light fit.
        Workload(name="grid-g64", model="gaussian", nx=64, ny=64, nt=200,
                 ell=20.0, seed=7, levels="0.9,0.99", fit="pixel", threads=2),
    )
}
