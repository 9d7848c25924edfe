import csv
import importlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import exrange
from exrange import load_map, load_stack
from exrange.cli import build_parser, main

SRC = str(Path(exrange.__file__).resolve().parents[1])
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


@pytest.fixture(scope="module")
def sim_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("sim")
    code = main([
        "simulate", "--model", "gaussian", "--nx", "32", "--ny", "32",
        "--n", "40", "--nu", "2", "--ell", "5", "--seed", "7",
        "--out", str(out),
    ])
    assert code == 0
    return out


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_simulate_output_loadable(sim_dir):
    stack = load_stack(sim_dir / "stack.f32")
    assert stack.nt == 40 and stack.ny == 32 and stack.nx == 32
    meta = json.loads((sim_dir / "stack.f32.json").read_text())
    assert meta["nt"] == 40


def test_unknown_flag_exits_2(sim_dir):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--frobnicate", "1"])
    assert exc.value.code == 2


@pytest.mark.parametrize("a_mix", ["0.02", "0.002"])
def test_admix_overflow_rejected_before_any_output(tmp_path, capsys, a_mix):
    # W = U^(-1/a_mix) passes float32's largest value on some slices, and at
    # 0.002 float64's too
    out = tmp_path / "sim"
    assert main(["simulate", "--model", "admix", "--a-mix", a_mix, "--nx", "16", "--ny", "16",
                 "--n", "100", "--ell", "8", "--seed", "7", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "validation" in err and "--a-mix" in err and "float32" in err
    assert not out.exists()


@pytest.mark.parametrize("command", [
    ["ivdens", "--p", "0.85,0.9"],
    ["pipeline", "--fit", "pixel", "--levels", "0.85,0.9"],
    ["mer", "--fit", "pixel", "--levels", "0.85,0.9"],
], ids=["ivdens", "pipeline", "mer"])
def test_infinite_stack_value_exits_format(sim_dir, tmp_path, capsys, command):
    # a stack whose every value is nodata has no domain: it is malformed too
    values = load_stack(sim_dir / "stack.f32").values.copy()
    values[3, 5, 7] = np.inf
    for name, bad_values in (("inf", values), ("nodata", np.full_like(values, -9999.0))):
        bad = tmp_path / name
        bad.mkdir()
        (bad / "stack.f32").write_bytes(bad_values.astype("<f4").tobytes())
        (bad / "stack.f32.json").write_bytes((sim_dir / "stack.f32.json").read_bytes())
        out = tmp_path / f"out-{name}"
        assert main(command + ["--in", str(bad), "--out", str(out)]) == 3, name
        assert "format" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("key, text", [("dx", '"abc"'), ("nx", '"32x"'), ("dx", "0")])
def test_malformed_sidecar_number_exits_format(sim_dir, tmp_path, capsys, key, text):
    bad = tmp_path / "bad"
    bad.mkdir()
    (bad / "stack.f32").write_bytes((sim_dir / "stack.f32").read_bytes())
    meta = json.loads((sim_dir / "stack.f32.json").read_text())
    meta[key] = json.loads(text)
    (bad / "stack.f32.json").write_text(json.dumps(meta))
    assert main(["cdf", "--in", str(bad), "--out", str(tmp_path / "out")]) == 3
    assert "format" in capsys.readouterr().err


def test_non_increasing_levels_rejected(sim_dir, tmp_path, capsys):
    code = main(["cdf", "--in", str(sim_dir), "--out", str(tmp_path),
                 "--p", "0.9,0.8"])
    assert code == 2
    assert "validation" in capsys.readouterr().err


def test_missing_sidecar_exit_code(tmp_path):
    bad = tmp_path / "bad.f32"
    bad.write_bytes(b"\x00" * 4)
    code = main(["cdf", "--in", str(bad), "--out", str(tmp_path)])
    assert code == 3


def test_missing_input_dir(tmp_path):
    code = main(["cdf", "--in", str(tmp_path / "nope.f32"), "--out", str(tmp_path)])
    assert code == 4


def test_quantiles_and_threshold_monotone(sim_dir, tmp_path):
    code = main(["quantiles", "--in", str(sim_dir), "--out", str(tmp_path),
                 "--p", "0.8,0.9"])
    assert code == 0
    lo, _ = load_map(tmp_path / "threshold_p0.8.f32")
    hi, _ = load_map(tmp_path / "threshold_p0.9.f32")
    assert np.all(lo <= hi)
    rows = _read_csv(tmp_path / "threshold_p0.9.csv")
    assert rows[0] == ["x_index", "y_index", "value"]
    assert len(rows) == 1 + 32 * 32


def test_cdf_csv_schema(sim_dir, tmp_path):
    code = main(["cdf", "--in", str(sim_dir), "--out", str(tmp_path),
                 "--p", "0.9", "--radii", "1,2,3"])
    assert code == 0
    rows = _read_csv(tmp_path / "cdf_p0.9.csv")
    assert rows[0] == ["r", "F", "n_exceed"]
    assert len(rows) == 4
    f_vals = [float(r[1]) for r in rows[1:]]
    assert f_vals == sorted(f_vals)


def test_chi_csv(sim_dir, tmp_path):
    code = main(["chi", "--in", str(sim_dir), "--out", str(tmp_path),
                 "--p", "0.9", "--lags", "0:0,1:0,2:0"])
    assert code == 0
    rows = _read_csv(tmp_path / "chi_p0.9.csv")
    assert rows[0] == ["lag_x", "lag_y", "chi"]
    assert float(rows[1][2]) == 1.0  # lag 0 self-dependence
    assert float(rows[2][2]) <= 1.0


def test_chi_per_pixel_maps(sim_dir, tmp_path):
    code = main(["chi", "--in", str(sim_dir), "--out", str(tmp_path),
                 "--p", "0.9", "--lags", "1:0", "--per-pixel"])
    assert code == 0
    grid, _ = load_map(tmp_path / "chi_p0.9_lag1x0.f32")
    valid = grid != -9999.0
    assert valid.any()
    assert np.all((grid[valid] >= 0) & (grid[valid] <= 1))


def test_chi_level_without_exceedance_is_nan(tmp_path, capsys):
    # 100 slices leave no exceedance above the 0.999 quantile: chi is 0/0 there,
    # so its CSV holds nan, its per-pixel maps are not written, and the run
    # succeeds with every other level's outputs
    sim = tmp_path / "sim"
    assert main(["simulate", "--nx", "16", "--ny", "16", "--n", "100", "--ell", "8",
                 "--seed", "7", "--out", str(sim)]) == 0
    capsys.readouterr()
    out = tmp_path / "out"
    assert main(["chi", "--in", str(sim), "--out", str(out), "--p", "0.9,0.999",
                 "--lags", "1:0,0:2", "--per-pixel"]) == 0
    rows = _read_csv(out / "chi_p0.999.csv")
    assert rows == [["lag_x", "lag_y", "chi"], ["1", "0", "nan"], ["0", "2", "nan"]]
    assert all(0 < float(row[2]) <= 1 for row in _read_csv(out / "chi_p0.9.csv")[1:])
    assert sorted(p.name for p in out.glob("*.f32")) == ["chi_p0.9_lag0x2.f32",
                                                         "chi_p0.9_lag1x0.f32"]
    err = capsys.readouterr().err
    assert "chi_p0.999_lag1x0 not written" in err and "chi_p0.999_lag0x2 not written" in err


@pytest.mark.parametrize("command", ["quantiles", "excursion", "chi", "ivdens"])
def test_threads_only_where_workers_run(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--in", "x", "--out", "y", "--threads", "2"])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err
    required = {"theta": ["--p1", "0.9", "--p2", "0.95"], "jackknife": ["--blocks-by", "b"]}
    for used in ("range", "cdf", "hist", "theta", "mer", "jackknife", "pipeline"):
        args = build_parser().parse_args([used, "--in", "x", "--out", "y", "--threads", "2",
                                          *required.get(used, [])])
        assert args.threads == 2


def test_ivdens_csv(sim_dir, tmp_path):
    code = main(["ivdens", "--in", str(sim_dir), "--out", str(tmp_path),
                 "--p", "0.9,0.95"])
    assert code == 0
    rows = _read_csv(tmp_path / "ivdens.csv")
    assert rows[0] == ["p", "c0", "c1", "c2", "slope_pred"]
    c2 = [float(r[3]) for r in rows[1:]]
    assert c2[0] == pytest.approx(0.1, abs=0.03)
    assert c2[1] < c2[0]


@pytest.mark.parametrize("policy", ["erode", "fill-exceed"])
def test_ivdens_and_pipeline_write_the_same_ivdens_csv(sim_dir, tmp_path, policy):
    levels = "0.85,0.9,0.95"
    assert main(["ivdens", "--in", str(sim_dir), "--out", str(tmp_path / "iv"),
                 "--p", levels]) == 0
    assert main(["pipeline", "--in", str(sim_dir), "--out", str(tmp_path / "pipe"),
                 "--levels", levels, "--knots", "4x4", "--iters", "30",
                 "--policy", policy]) == 0
    iv = (tmp_path / "iv" / "ivdens.csv").read_bytes()
    assert iv == (tmp_path / "pipe" / "ivdens.csv").read_bytes()
    assert len(_read_csv(tmp_path / "iv" / "ivdens.csv")) == 4


def test_hist_counts_match_exceedances(sim_dir, tmp_path):
    code = main(["hist", "--in", str(sim_dir), "--out", str(tmp_path), "--p", "0.9"])
    assert code == 0
    rows = _read_csv(tmp_path / "hist.csv")
    total = sum(int(r[3]) for r in rows[1:])
    # exceedance pixel-days at p=0.9 with the inf-convention order
    # statistic: 40 slices -> the top 4 values per pixel exceed
    assert total == 4 * 32 * 32


def test_range_maps_written(sim_dir, tmp_path):
    code = main(["range", "--in", str(sim_dir), "--out", str(tmp_path), "--p", "0.95"])
    assert code == 0
    grid, _ = load_map(tmp_path / "range_p0.95_t0.f32")
    assert grid.shape == (32, 32)
    assert grid.min() >= 0


@pytest.mark.parametrize("policy", ["fill-exceed", "erode"])
def test_range_maps_are_the_range_fields_on_a_ragged_stack(tmp_path, policy):
    # each map's bytes are those of the slice's range field saved as float32,
    # the nodata pixels' positive ranges under fill-exceed included; slice 2
    # exceeds at every domain pixel and slice 4 nowhere
    from exrange import (RasterStack, excursion_mask, quantile_fields, range_field, save_map,
                         save_stack)

    rng = np.random.default_rng(49)
    values = rng.standard_normal((9, 11, 13)).astype(np.float32)
    values[2], values[4] = 10.0, -10.0
    values[:, :3, :4] = values[:, 6, 5:9] = values[:, -2:, -1] = -9999.0
    stack = RasterStack(values, dx=0.5)
    save_stack(tmp_path / "in" / "stack.f32", stack)
    out = tmp_path / "out"
    assert main(["range", "--in", str(tmp_path / "in"), "--out", str(out),
                 "--p", "0.6,0.9", "--policy", policy, "--threads", "2"]) == 0
    dom = stack.domain()
    for thr in quantile_fields(stack, [0.6, 0.9]):
        for t in range(stack.nt):
            r = range_field(excursion_mask(stack, t, thr, policy), dom, stack.dx,
                            edge_fallback=True).r
            assert (r[~dom.inside] > 0).all() == (policy == "fill-exceed")
            name = f"range_p{thr.p:g}_t{t}.f32"
            save_map(tmp_path / "want" / name, r.astype(np.float32), dx=stack.dx,
                     unit=stack.unit)
            for suffix in ("", ".json"):
                assert ((out / (name + suffix)).read_bytes()
                        == (tmp_path / "want" / (name + suffix)).read_bytes()), name


def test_theta_map_subcommand(sim_dir, tmp_path):
    code = main(["theta", "--in", str(sim_dir), "--out", str(tmp_path),
                 "--p1", "0.85", "--p2", "0.95"])
    assert code == 0
    grid, _ = load_map(tmp_path / "theta_map.f32")
    assert grid.shape == (32, 32)
    assert np.isfinite(grid).all()


def test_mer_and_predict(sim_dir, tmp_path):
    code = main(["mer", "--in", str(sim_dir), "--out", str(tmp_path),
                 "--levels", "0.85,0.9,0.95", "--knots", "4x4",
                 "--penalty", "1.0", "--iters", "30", "--predict-p", "0.99"])
    assert code == 0
    beta, _ = load_map(tmp_path / "mer_beta.f32")
    pred, _ = load_map(tmp_path / "mer_p0.99.f32")
    assert np.isfinite(beta).all()
    assert (pred > 0).all()


def test_pipeline_outputs_and_determinism(sim_dir, tmp_path):
    args = ["pipeline", "--in", str(sim_dir), "--levels", "0.85,0.9,0.95",
            "--knots", "4x4", "--iters", "30", "--predict-p", "0.99"]
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    out3 = tmp_path / "run3"
    assert main(args + ["--out", str(out1), "--threads", "1"]) == 0
    assert main(args + ["--out", str(out2), "--threads", "4"]) == 0
    assert main(args + ["--out", str(out3), "--threads", "1"]) == 0
    expected = ["cdf.csv", "hist.csv", "ivdens.csv", "theta_map.csv",
                "mer_beta.csv", "mer_theta.csv", "mer_p0.99.csv"]
    for name in expected:
        b1 = (out1 / name).read_bytes()
        assert b1 == (out2 / name).read_bytes(), f"{name} differs across thread counts"
        assert b1 == (out3 / name).read_bytes(), f"{name} differs across reruns"
    # no leftover temporaries: atomic rename completed everywhere
    assert not list(out1.rglob("*.tmp"))


@pytest.mark.parametrize("command", [
    ["range", "--p", "0.9,0.95"],
    ["cdf", "--p", "0.9,0.95", "--radii", "1,2,3"],
], ids=["range", "cdf"])
def test_range_and_cdf_outputs_identical_across_thread_counts(sim_dir, tmp_path, command):
    # the worker threads fill one level's range array slice by slice
    outs = [tmp_path / "t1", tmp_path / "t2"]
    for out, n in zip(outs, ("1", "2")):
        assert main(command + ["--in", str(sim_dir), "--out", str(out), "--threads", n]) == 0
    names = sorted(p.name for p in outs[0].iterdir())
    assert names and names == sorted(p.name for p in outs[1].iterdir())
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


# the commands that read ranges, each at levels 0.9 and 0.95, with a small fit
LEVEL_PASS_COMMANDS = {
    "range": ["--p", "0.9,0.95"],
    "cdf": ["--p", "0.9,0.95", "--radii", "1,2,3"],
    "hist": ["--p", "0.9,0.95"],
    "theta": ["--p1", "0.9", "--p2", "0.95"],
    "mer": ["--levels", "0.9,0.95", "--knots", "4x4", "--iters", "9", "--penalty", "1.0"],
    "jackknife": ["--levels", "0.9,0.95", "--knots", "4x4", "--iters", "9", "--blocks-by"],
    "pipeline": ["--levels", "0.9,0.95", "--knots", "4x4", "--iters", "9"],
}


def _four_blocks(tmp_path):
    blocks = tmp_path / "blocks.txt"
    blocks.write_text("\n".join(str(i // 10) for i in range(40)))
    return blocks


def _level_pass_argv(command, sim_dir, out, blocks):
    argv = [command, "--in", str(sim_dir), "--out", str(out), *LEVEL_PASS_COMMANDS[command]]
    return argv + [str(blocks)] if command == "jackknife" else argv


@pytest.mark.parametrize("command", LEVEL_PASS_COMMANDS)
def test_one_level_of_ranges_at_a_time(sim_dir, tmp_path, monkeypatch, command):
    # each chain computes each level's ranges once, and frees one level's
    # before it computes the next level's
    import weakref

    from exrange import ranges

    range_entries = ranges.range_entries
    calls, held = [], []
    last = [lambda: None]

    def recording(stack, thr, *args):
        held.append(last[0]() is not None)
        calls.append((stack.nt, thr.p))
        entries = range_entries(stack, thr, *args)
        last[0] = weakref.ref(entries)
        return entries

    monkeypatch.setattr(ranges, "range_entries", recording)
    argv = _level_pass_argv(command, sim_dir, tmp_path / "out", _four_blocks(tmp_path))
    assert main(argv) == 0
    chains = [30] * 4 if command == "jackknife" else [40]
    assert calls == [(nt, p) for nt in chains for p in (0.9, 0.95)]
    assert held == [False] * len(calls)


def test_jackknife_subcommand(sim_dir, tmp_path):
    blocks = tmp_path / "blocks.txt"
    blocks.write_text("\n".join(str(i // 10) for i in range(40)))
    code = main(["jackknife", "--in", str(sim_dir), "--out", str(tmp_path),
                 "--levels", "0.85,0.9", "--blocks-by", str(blocks),
                 "--knots", "4x4", "--iters", "20"])
    assert code == 0
    se, _ = load_map(tmp_path / "se_theta.f32")
    assert (se >= 0).all()
    assert se.max() > 0


def test_one_threshold_sort_per_chain(sim_dir, tmp_path, monkeypatch):
    # every level's threshold comes from one sort: once per pipeline run,
    # once per jackknife replicate
    from exrange import thresholds

    calls = []
    quantile_fields = thresholds.quantile_fields

    def counting(stack, levels):
        calls.append((stack.nt, list(levels)))
        return quantile_fields(stack, levels)

    monkeypatch.setattr(thresholds, "quantile_fields", counting)
    assert main(["pipeline", "--in", str(sim_dir), "--out", str(tmp_path / "pipe"),
                 "--levels", "0.85,0.9,0.95", "--knots", "4x4", "--iters", "20"]) == 0
    assert calls == [(40, [0.85, 0.9, 0.95])]
    calls.clear()
    blocks = tmp_path / "blocks.txt"
    blocks.write_text("\n".join(str(i // 10) for i in range(40)))
    assert main(["jackknife", "--in", str(sim_dir), "--out", str(tmp_path / "jk"),
                 "--levels", "0.85,0.9", "--blocks-by", str(blocks),
                 "--knots", "4x4", "--iters", "20"]) == 0
    assert calls == [(30, [0.85, 0.9])] * 4


def test_chi_sorts_the_stack_once(sim_dir, tmp_path, monkeypatch):
    # every level's exceedances come from one threshold sort, shared by all
    # lags and per-pixel maps
    from exrange import thresholds

    calls = []
    quantile_fields = thresholds.quantile_fields

    def counting(stack, levels):
        calls.append(list(levels))
        return quantile_fields(stack, levels)

    monkeypatch.setattr(thresholds, "quantile_fields", counting)
    assert main(["chi", "--in", str(sim_dir), "--out", str(tmp_path), "--per-pixel"]) == 0
    assert calls == [[0.9, 0.95]]
    assert len(list(tmp_path.glob("chi_p*_lag*.f32"))) == 16


SAMPLE_FIELDS = ("pixel_y", "pixel_x", "x", "y", "block")


def _concatenated_levels(stack, levels, blocks=None, min_range=0.0):
    """Per-level ``collect_samples``, cut at ``min_range`` and concatenated,
    skipping levels without samples: what the pooled samples must equal."""
    from exrange import collect_samples, quantile_fields, range_entries
    from exrange.tailfit import RangeSamples

    parts = []
    for thr in quantile_fields(stack, levels):
        entries = range_entries(stack, thr, "fill-exceed")
        if not entries.value.size:
            continue
        part = collect_samples({thr.p: entries}, stack.domain(), blocks=blocks)
        keep = part.y >= math.log(min_range) if min_range > 0 else slice(None)
        parts.append([getattr(part, f)[keep] for f in SAMPLE_FIELDS])
    return RangeSamples(*(np.concatenate(field) for field in zip(*parts)))


def test_pooled_samples_equal_concatenated_levels(sim_dir, tmp_path, monkeypatch):
    from exrange import cli

    seen = []
    fit_surface = cli._fit_surface

    def recording(stack, samples, *args):
        seen.append((stack, {f: getattr(samples, f).copy() for f in SAMPLE_FIELDS}))
        return fit_surface(stack, samples, *args)

    def check(stack, got, want):
        for f in SAMPLE_FIELDS:
            assert np.array_equal(got[f], getattr(want, f)), f
        assert got["pixel_y"].dtype == got["pixel_x"].dtype == np.int32
        assert got["block"].dtype == np.int64

    monkeypatch.setattr(cli, "_fit_surface", recording)
    stack = load_stack(sim_dir / "stack.f32")
    fit = ["--knots", "4x4", "--iters", "9", "--penalty", "1.0"]
    # 0.99 leaves no exceedance at nt = 40
    assert main(["pipeline", "--in", str(sim_dir), "--out", str(tmp_path / "pipe"),
                 "--levels", "0.85,0.9,0.99", *fit]) == 0
    check(*seen.pop(), _concatenated_levels(stack, [0.85, 0.9, 0.99]))

    block_ids = np.arange(40) // 10 + 7
    blocks = tmp_path / "blocks.txt"
    blocks.write_text("\n".join(map(str, block_ids)))
    assert main(["mer", "--in", str(sim_dir), "--out", str(tmp_path / "mer"),
                 "--levels", "0.85,0.9", "--min-range", "1.5", "--blocks-by", str(blocks),
                 *fit]) == 0
    check(*seen.pop(), _concatenated_levels(stack, [0.85, 0.9], block_ids, 1.5))

    assert main(["jackknife", "--in", str(sim_dir), "--out", str(tmp_path / "jk"),
                 "--levels", "0.85,0.9", "--blocks-by", str(blocks), *fit]) == 0
    assert len(seen) == 4
    for dropped, (sub, got) in zip(np.unique(block_ids), seen):
        kept = block_ids[block_ids != dropped]
        assert np.array_equal(sub.values, stack.values[block_ids != dropped])
        check(sub, got, _concatenated_levels(sub, [0.85, 0.9], kept))


def test_jackknife_penalty_cv_folds_by_block(sim_dir, tmp_path, monkeypatch):
    from exrange import tailfit

    seen = []

    def recording_choose(samples, *args, **kwargs):
        seen.append(set(np.unique(samples.block).tolist()))
        return 1.0

    monkeypatch.setattr(tailfit, "choose_penalty", recording_choose)
    blocks = tmp_path / "blocks.txt"
    blocks.write_text("\n".join(str(10 + i // 10) for i in range(40)))
    code = main(["jackknife", "--in", str(sim_dir), "--out", str(tmp_path),
                 "--levels", "0.85,0.9", "--blocks-by", str(blocks),
                 "--knots", "4x4", "--iters", "20", "--penalty", "auto"])
    assert code == 0
    # each replicate's CV sees the B-1 blocks it keeps, not its slice indices
    assert seen == [{10, 11, 12, 13} - {b} for b in (10, 11, 12, 13)]


@pytest.mark.parametrize("command", [
    ["pipeline"], ["mer", "--fit", "pixel"], ["mer", "--fit", "spline"], ["jackknife"],
], ids=["pipeline", "mer-pixel", "mer-spline", "jackknife"])
def test_single_level_fit_rejected_before_any_output(sim_dir, tmp_path, capsys, command):
    # theta is a slope over levels: one level cannot identify it
    blocks = tmp_path / "blocks.txt"
    blocks.write_text("\n".join(str(i // 10) for i in range(40)))
    out = tmp_path / "out"
    code = main(command + ["--in", str(sim_dir), "--out", str(out), "--levels", "0.9",
                           "--blocks-by", str(blocks)])
    assert code == 2
    assert "--levels" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("command, option", [
    (["pipeline"], ["--knots", "2x2"]),
    (["pipeline"], ["--knots", "8by8"]),
    (["pipeline"], ["--predict-p", "1.5"]),
    (["pipeline"], ["--penalty", "-1"]),
    (["pipeline"], ["--penalty", "nan"]),
    (["pipeline"], ["--iters", "0"]),
    (["mer", "--fit", "spline"], ["--iters", "2"]),
    (["mer", "--fit", "pixel"], ["--predict-p", "0"]),
    (["jackknife"], ["--iters", "1"]),
    (["mer", "--fit", "pixel"], ["--min-range", "nan"]),
    (["mer", "--fit", "pixel"], ["--min-range", "-5"]),
    (["jackknife"], ["--min-range", "inf"]),
], ids=["pipeline-knots", "pipeline-knots-format", "pipeline-predict-p", "pipeline-penalty",
        "pipeline-penalty-nan", "pipeline-iters", "mer-iters", "mer-pixel-predict-p",
        "jackknife-iters", "mer-min-range-nan", "mer-min-range-negative",
        "jackknife-min-range-inf"])
def test_bad_fit_option_rejected_before_any_output(sim_dir, tmp_path, capsys, command, option):
    blocks = tmp_path / "blocks.txt"
    blocks.write_text("\n".join(str(i // 10) for i in range(40)))
    out = tmp_path / "out"
    code = main(command + ["--in", str(sim_dir), "--out", str(out), "--levels", "0.85,0.9",
                           "--blocks-by", str(blocks)] + option)
    assert code == 2
    assert "validation" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


def test_mer_penalty_auto_picks_from_grid(sim_dir, tmp_path, monkeypatch):
    from exrange import tailfit

    picked = []
    choose = tailfit.choose_penalty

    def recording_choose(*args, **kwargs):
        picked.append(choose(*args, **kwargs))
        return picked[-1]

    monkeypatch.setattr(tailfit, "choose_penalty", recording_choose)
    base = ["mer", "--in", str(sim_dir), "--levels", "0.85,0.9,0.95",
            "--knots", "4x4", "--iters", "30"]
    assert main(base + ["--out", str(tmp_path / "auto"), "--penalty", "auto"]) == 0
    assert len(picked) == 1 and picked[0] in (0.01, 0.1, 1.0, 10.0, 100.0)
    # the chosen value is the one the final fit used
    assert main(base + ["--out", str(tmp_path / "fixed"),
                        "--penalty", repr(picked[0])]) == 0
    for name in ("mer_beta.csv", "mer_theta.csv"):
        assert (tmp_path / "auto" / name).read_bytes() == (tmp_path / "fixed" / name).read_bytes()


def test_level_without_exceedance_is_skipped(tmp_path):
    # 40 slices leave no exceedance above the 0.999 quantile: that level adds
    # no sample, and the fit uses the levels that have some
    sim = tmp_path / "sim"
    assert main(["simulate", "--model", "gaussian", "--nx", "10", "--ny", "10",
                 "--n", "40", "--ell", "4", "--seed", "3", "--out", str(sim)]) == 0
    base = ["mer", "--in", str(sim), "--fit", "pixel"]
    assert main(base + ["--out", str(tmp_path / "three"), "--levels", "0.9,0.95,0.999"]) == 0
    assert main(base + ["--out", str(tmp_path / "two"), "--levels", "0.9,0.95"]) == 0
    names = sorted(p.name for p in (tmp_path / "two").glob("mer_*"))
    assert names
    for name in names:
        assert (tmp_path / "three" / name).read_bytes() == (tmp_path / "two" / name).read_bytes()


def _child(code: str, *args: str, **env: str) -> str:
    """Stdout of ``python -c code args`` with this source tree first on the
    path, no caller-set BLAS thread count, and ``env`` added."""
    child_env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    child_env["PYTHONPATH"] = SRC + os.pathsep + child_env.get("PYTHONPATH", "")
    child_env.update(env)
    return subprocess.run([sys.executable, "-c", code, *args], env=child_env,
                          capture_output=True, text=True, check=True, timeout=120).stdout


def test_import_cli_skips_fit_and_simulation_only_modules():
    code = ("import sys; import exrange.cli; "
            "print(sorted(m for m in ('scipy.interpolate', 'scipy.special') "
            "if m in sys.modules))")
    assert _child(code).strip() == "[]"


def test_import_cli_and_spline_pipeline_skip_scipy_fit_modules(tmp_path):
    # the spline fit builds its basis and penalty with numpy: neither the
    # import nor a spline pipeline run loads scipy.interpolate or scipy.sparse
    sim = tmp_path / "sim"
    assert main(["simulate", "--nx", "12", "--ny", "12", "--n", "30", "--ell", "4",
                 "--seed", "5", "--out", str(sim)]) == 0
    code = ("import sys; import exrange.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')); "
            "code = exrange.cli.main(['pipeline', '--in', sys.argv[1], '--out', sys.argv[2], "
            "'--fit', 'spline', '--knots', '4x4', '--levels', '0.8,0.9', '--threads', '1']); "
            "print(code, sorted(m for m in ('scipy.interpolate', 'scipy.sparse') "
            "if m in sys.modules))")
    lines = _child(code, str(sim), str(tmp_path / "out")).strip().splitlines()
    assert lines[0] == "[]"
    assert lines[-1] == "0 []"
    assert (tmp_path / "out" / "mer_beta.f32").exists()


@pytest.mark.parametrize("fit", ["pixel", "spline"])
def test_pipeline_loads_no_scipy(tmp_path, fit):
    # the distance transform and both fits are numpy-only: scipy is for the
    # simulator and the tests
    sim = tmp_path / "sim"
    assert main(["simulate", "--nx", "12", "--ny", "12", "--n", "30", "--ell", "4",
                 "--seed", "5", "--out", str(sim)]) == 0
    code = ("import sys; import exrange.cli; "
            "code = exrange.cli.main(['pipeline', '--in', sys.argv[1], '--out', sys.argv[2], "
            "'--fit', sys.argv[3], '--knots', '4x4', '--levels', '0.8,0.9', '--threads', '2']); "
            "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = _child(code, str(sim), str(tmp_path / "out"), fit)
    assert out.strip().splitlines()[-1] == "0 []"
    assert (tmp_path / "out" / "mer_beta.f32").exists()


@pytest.mark.parametrize("value", ["0", "-1"])
@pytest.mark.parametrize("command", LEVEL_PASS_COMMANDS)
def test_threads_below_one_exits_validation(sim_dir, tmp_path, capsys, command, value):
    out = tmp_path / "out"
    argv = _level_pass_argv(command, sim_dir, out, _four_blocks(tmp_path))
    assert main(argv + ["--threads", value]) == 2
    assert f"--threads must be at least 1, got {value}" in capsys.readouterr().err
    assert not out.exists()


def test_penalty_cv_over_one_block_exits_compute(sim_dir, tmp_path, capsys):
    # one block leaves every cross-validation fold without a training sample:
    # no penalty has a loss, so none is chosen, and no mer_* map is written
    blocks = tmp_path / "blocks.txt"
    blocks.write_text("7\n" * 40)
    out = tmp_path / "out"
    assert main(["mer", "--in", str(sim_dir), "--out", str(out), "--levels", "0.85,0.9,0.95",
                 "--penalty", "auto", "--blocks-by", str(blocks), "--knots", "4x4",
                 "--iters", "9"]) == 5
    assert "over 1 block(s)" in capsys.readouterr().err
    assert not list(out.glob("mer_*"))


@pytest.mark.parametrize("command", ["mer", "pipeline"])
def test_pixel_fit_without_fitted_pixel_exits_compute(tmp_path, capsys, command):
    # 60 slices at levels 0.97 and 0.98 give every pixel 2 samples, below the
    # 3 a pixel LAD needs: no pixel has a fit, which is a compute error (exit 5)
    # with no mer_* output, not an all-nodata map
    sim = tmp_path / "sim"
    assert main(["simulate", "--model", "gaussian", "--nx", "10", "--ny", "10",
                 "--n", "60", "--ell", "4", "--seed", "3", "--out", str(sim)]) == 0
    capsys.readouterr()
    out = tmp_path / "out"
    assert main([command, "--in", str(sim), "--out", str(out), "--fit", "pixel",
                 "--levels", "0.97,0.98"]) == 5
    assert "min_samples=3" in capsys.readouterr().err
    assert not list(out.glob("mer_*"))


def test_level_without_exceedance_is_nodata(tmp_path, capsys):
    # the 0.999 level of 40 slices has no exceedance: its ECDF rows are 0/0
    # and its median map has no positive value, so neither F nor theta exists;
    # an all-nodata map has no domain pixel, so theta_map is not written
    sim = tmp_path / "sim"
    assert main(["simulate", "--model", "gaussian", "--nx", "10", "--ny", "10",
                 "--n", "40", "--ell", "4", "--seed", "3", "--out", str(sim)]) == 0
    out = tmp_path / "out"
    assert main(["pipeline", "--in", str(sim), "--out", str(out), "--fit", "pixel",
                 "--levels", "0.9,0.95,0.999"]) == 0
    rows = _read_csv(out / "cdf.csv")[1:]
    empty = [row for row in rows if row[0] == "0.999"]
    assert empty and all(row[2] == "nan" and row[3] == "0" for row in empty)
    assert all(math.isfinite(float(row[2])) for row in rows if row[0] != "0.999")
    assert not list(out.glob("theta_map*"))
    assert "theta_map not written: level 0.999" in capsys.readouterr().err
    assert (out / "mer_beta.f32").exists()


def test_default_run_uses_one_worker(sim_dir, tmp_path, monkeypatch):
    # a second worker is slower at every slice size measured, so however many
    # cores the process may use, a run without --threads takes one
    from exrange import ranges

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    pmap = ranges._pmap
    asked = []

    def recording_pmap(fn, items, n_threads):
        asked.append(n_threads)
        return pmap(fn, items, n_threads)

    monkeypatch.setattr(ranges, "_pmap", recording_pmap)
    assert main(["range", "--in", str(sim_dir), "--out", str(tmp_path), "--p", "0.9,0.95"]) == 0
    assert asked == [1, 1]


def _numpy_uses_openblas() -> bool:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError, AttributeError):
        return False
    return "openblas" in blas.lower()


@pytest.mark.skipif(not sys.platform.startswith("linux") or not _numpy_uses_openblas(),
                    reason="counts OpenBLAS threads in /proc/self/task")
@pytest.mark.parametrize("caller", [None, "2"], ids=["default", "caller-set-2"])
def test_cli_process_runs_one_blas_thread(caller):
    # the console script's import: OpenBLAS reads its thread count once, as
    # numpy loads it, so exrange.cli must set it above its numpy import
    if caller and len(os.sched_getaffinity(0)) < 2:
        pytest.skip("OpenBLAS starts one thread per usable core at most")
    code = ("import os; from exrange.cli import main; import numpy as np; "
            "a = np.ones((256, 256)); a @ a; print(len(os.listdir('/proc/self/task')))")
    env = {"OPENBLAS_NUM_THREADS": caller} if caller else {}
    n_threads = int(_child(code, **env))
    if caller:
        assert n_threads > 1
    else:
        assert n_threads == 1


def test_import_exrange_is_lazy():
    # a submodule named on the package is imported on first access
    code = ("import json, os, sys; import exrange; "
            "print(json.dumps(['numpy' in sys.modules, 'OPENBLAS_NUM_THREADS' in os.environ, "
            "exrange.tailfit.__name__]))")
    assert json.loads(_child(code)) == [False, False, "exrange.tailfit"]
    before = set(vars(exrange))
    for name in exrange.__all__:
        obj = getattr(exrange, name)
        assert getattr(importlib.import_module(obj.__module__), name) is obj, name
    # names resolve on every access and are never bound on the package
    assert set(vars(exrange)) == before
    assert sorted(dir(exrange)) == sorted(exrange.__all__)
    with pytest.raises(AttributeError):
        exrange.no_such_name
