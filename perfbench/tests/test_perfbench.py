"""Self-test of the benchmark at toy sizes: every workload runs end to end
in both modes and emits every declared metric with its unit, corrupted
outputs count as failures, and tracing restores what it wraps."""

from __future__ import annotations

import inspect
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _declared(trace: bool) -> list[dict]:
    return BENCH["per_layer"] if trace else BENCH["end_to_end"]


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)
    assert BENCH["paths"] == [HERE.name]
    for w in WORKLOADS.values():
        assert (checks.REFERENCE_ROOT / w.name / "exact.json").is_file()
        assert checks.reference_for(w, w.seed) == checks.REFERENCE_ROOT / w.name
        assert checks.reference_for(w, w.seed + 1) is None


@pytest.mark.parametrize("trace", [False, True], ids=["trace0", "trace1"])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_toy_workload_end_to_end(name, trace):
    w = WORKLOADS[name].toy()
    lines: list[str] = []
    result = run.bench_one(w, w.seed, 0.0, trace, _declared(trace), n_setup=1,
                           report=lines.append)
    assert result["correct"], [line for line in lines if "FAILED" in line]
    assert result["attempted"] == (2 if trace else 1) and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in _declared(trace)}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    assert any(line.startswith("# error_rate 0/") for line in lines)
    assert any(line.startswith("# manifest ") for line in lines)


def test_corrupted_output_counts_towards_error_rate():
    w = WORKLOADS["grid-g64"].toy()

    def corrupt(out: Path):
        cdf = out / "cdf.csv"
        rows = cdf.read_text().splitlines()
        p, r, _, n = rows[1].split(",")
        rows[1] = ",".join([p, r, "1.5", n])
        cdf.write_text("\n".join(rows) + "\n")

    lines: list[str] = []
    result = run.bench_one(w, 3, 0.0, False, _declared(False), n_setup=1,
                           after_job=corrupt, report=lines.append)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == 1
    assert any("F outside [0,1]" in line for line in lines)


@pytest.fixture(scope="module")
def toy_outputs(tmp_path_factory):
    w = WORKLOADS["pixel-admix12"].toy()
    tmp = tmp_path_factory.mktemp("toy")
    env = run.job_env(run.ROOT)
    for args in (w.simulate_args(w.seed, str(tmp / "in")),
                 w.pipeline_args(str(tmp / "in"), str(tmp / "out"))):
        subprocess.run([sys.executable, "-m", "exrange.cli"] + args, env=env, check=True,
                       stdout=subprocess.DEVNULL)
    checks.record_reference(tmp / "out", w, tmp / "ref")
    return w, tmp / "out", tmp / "ref"


def test_reference_check_catches_changed_outputs(toy_outputs, tmp_path):
    w, out, ref = toy_outputs
    assert checks.check_outputs(out, w, ref) == []
    for name, edit in (
        ("hist.csv", lambda b: b.replace(b"\n0.85,0.0,", b"\n0.85,0.00,", 1)),
        ("mer_beta.f32", lambda b: bytes([b[0] ^ 0x40]) + b[1:]),
    ):
        bad = tmp_path / name
        bad.mkdir()
        for f in out.iterdir():
            (bad / f.name).write_bytes(f.read_bytes())
        (bad / name).write_bytes(edit((out / name).read_bytes()))
        assert (bad / name).read_bytes() != (out / name).read_bytes()
        errors = checks.check_outputs(bad, w, ref)
        assert any(name in e for e in errors), errors


def test_tracing_restores_wrapped_functions(tmp_path):
    import exrange
    from exrange import cli

    def snapshot():
        seen = {}
        for mod_name, mod in sys.modules.items():
            if mod_name == "exrange" or mod_name.startswith("exrange."):
                for attr, obj in vars(mod).items():
                    seen[(mod_name, attr)] = obj
                    if inspect.isclass(obj):
                        for meth, fn in vars(obj).items():
                            seen[(mod_name, attr, meth)] = fn
        return seen

    before = snapshot()
    original = exrange.ranges.distance_transform
    w = WORKLOADS["grid-g64"].toy()
    assert cli.main(w.simulate_args(w.seed, str(tmp_path / "in"))) == 0
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert exrange.ranges.distance_transform is not original
        assert exrange.morphology.distance_transform is exrange.ranges.distance_transform
        code = cli.main(w.pipeline_args(str(tmp_path / "in"), str(tmp_path / "out")))
    finally:
        tracer.restore()
    after = snapshot()
    assert code == 0
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)

    recorded = tracer.spans
    workers = [s for s in recorded if s[spans.THREAD] != "MainThread"]
    assert workers and all(s[spans.PARENT] is not None for s in workers)
    root = next(s for s in recorded if s[spans.PARENT] is None)
    assert spans.check_trace(recorded, root[spans.END] - root[spans.START], 0.0) == []
    layers = spans.layer_metrics(recorded, 1)
    assert set(layers) | {"trace.overhead_s"} == {m["name"] for m in BENCH["per_layer"]}
    assert layers["morphology.distance_transform_calls"] == 2 * w.nt
    assert layers["tailfit.pixel_fit_px"] == w.nx * w.ny
