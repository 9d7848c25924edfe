import csv
import hashlib
import importlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import exrange
from exrange import load_stack
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
    # a malformed lag or block id is a validation error that names its input
    assert main(["chi", "--in", str(sim_dir), "--out", str(tmp_path), "--p", "0.9",
                 "--lags", "1:0,1:2:3"]) == 2
    assert "validation: --lags: expected x:y or x" in capsys.readouterr().err
    blocks = tmp_path / "blocks.txt"
    blocks.write_text("\n".join(["0"] * 20 + ["", "x"] + ["1"] * 19))
    assert main(["mer", "--in", str(sim_dir), "--out", str(tmp_path), "--levels", "0.85,0.9",
                 "--fit", "pixel", "--blocks-by", str(blocks)]) == 2
    assert f"validation: {blocks}: line 22: block id 'x'" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["mer", "jackknife", "pipeline"])
def test_block_id_past_64_bits_exits_validation(sim_dir, tmp_path, capsys, command):
    # 2**70 is an integer, but no int64 block id
    blocks = tmp_path / "blocks.txt"
    blocks.write_text("\n".join(["0"] * 20 + [str(2 ** 70)] + ["1"] * 19))
    out = tmp_path / "out"
    assert main([command, "--in", str(sim_dir), "--out", str(out), "--levels", "0.85,0.9",
                 "--fit", "pixel", "--blocks-by", str(blocks)]) == 2
    assert f"validation: {blocks}: line 21: block id '{2 ** 70}'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("lags", ["1:0,1:0", "1,1:0", "0:2,1:0, 0:2"])
def test_repeated_lag_exits_validation(sim_dir, tmp_path, capsys, lags):
    # x and x:0 are one lag; a repeat would write its row and its map twice
    out = tmp_path / "out"
    assert main(["chi", "--in", str(sim_dir), "--out", str(out), "--p", "0.9",
                 "--lags", lags, "--per-pixel"]) == 2
    assert "validation: --lags: lag" in capsys.readouterr().err
    assert not out.exists()


def test_lag_beyond_the_grid_exits_before_any_output(sim_dir, tmp_path, capsys):
    # every lag is checked against the 32x32 grid before the first level is
    # sorted, and named as typed, x:y
    out = tmp_path / "out"
    assert main(["chi", "--in", str(sim_dir), "--out", str(out), "--p", "0.9",
                 "--lags", "1:0,100:0", "--per-pixel"]) == 2
    assert "validation: --lags: lag 100:0 exceeds the grid" in capsys.readouterr().err
    assert not out.exists()


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
    lo = load_stack(tmp_path / "threshold_p0.8.f32").values[0]
    hi = load_stack(tmp_path / "threshold_p0.9.f32").values[0]
    assert np.all(lo <= hi)
    rows = _read_csv(tmp_path / "threshold_p0.9.csv")
    assert rows[0] == ["x_index", "y_index", "value"]
    assert len(rows) == 1 + 32 * 32


def test_map_csv_rows_are_the_valued_pixels(tmp_path):
    # a map's CSV lists, row-major, the pixels its .f32 holds a value at: in
    # the domain and finite as float32 (1e39 is not); a map without one is a
    # compute error that writes neither file
    from exrange import DegenerateFitError, DomainMask
    from exrange.cli import _save_map_with_csv

    grid = np.array([[1.5, 2.0, np.nan], [3.0, 1e39, -np.inf], [4.25, -0.5, 6.0]])
    domain = DomainMask(np.array([[True, False, True], [True, True, True], [True, True, False]]))
    _save_map_with_csv(tmp_path, "m", grid, domain, 2.0, "px")
    stack = load_stack(tmp_path / "m.f32")
    assert stack.dx == 2.0 and stack.nt == 1
    assert np.array_equal(stack.domain().inside, [[True, False, False], [True, False, False],
                                                  [True, True, False]])
    assert _read_csv(tmp_path / "m.csv") == [
        ["x_index", "y_index", "value"], ["0", "0", "1.5"], ["0", "1", "3.0"],
        ["0", "2", "4.25"], ["1", "2", "-0.5"]]
    with pytest.raises(DegenerateFitError, match="^empty not written"):
        _save_map_with_csv(tmp_path, "empty", grid[:, [2]], DomainMask([[True], [True], [False]]),
                           1.0, "px")
    assert not list(tmp_path.glob("empty*"))


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
    grid = load_stack(tmp_path / "chi_p0.9_lag1x0.f32").values[0]
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
    grid = load_stack(tmp_path / "range_p0.95_t0.f32").values[0]
    assert grid.shape == (32, 32)
    assert grid.min() >= 0


@pytest.mark.parametrize("policy", ["fill-exceed", "erode"])
def test_range_maps_are_the_range_fields_on_a_ragged_stack(tmp_path, policy):
    # each map's bytes are those of the slice's range field saved as float32,
    # which is 0 at the nodata pixels under both policies, though fill-exceed
    # makes them exceedances; slice 2 exceeds at every domain pixel and slice
    # 4 nowhere
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
            mask = excursion_mask(stack, t, thr, policy)
            assert mask.exceed[~dom.inside].all() == (policy == "fill-exceed")
            r = range_field(mask, dom, stack.dx, edge_fallback=True).r
            assert not r[~dom.inside].any()
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
    grid = load_stack(tmp_path / "theta_map.f32").values[0]
    assert grid.shape == (32, 32)
    assert np.isfinite(grid).all()


def test_mer_and_predict(sim_dir, tmp_path):
    code = main(["mer", "--in", str(sim_dir), "--out", str(tmp_path),
                 "--levels", "0.85,0.9,0.95", "--knots", "4x4",
                 "--penalty", "1.0", "--iters", "30", "--predict-p", "0.99"])
    assert code == 0
    beta = load_stack(tmp_path / "mer_beta.f32").values[0]
    pred = load_stack(tmp_path / "mer_p0.99.f32").values[0]
    assert np.isfinite(beta).all()
    assert (pred > 0).all()


def test_level_labels_keep_every_digit(sim_dir, tmp_path):
    # two levels equal to six significant digits, and a prediction level that
    # six significant digits round to 1
    levels = "0.9999991,0.9999994"
    assert main(["cdf", "--in", str(sim_dir), "--out", str(tmp_path), "--p", levels,
                 "--radii", "1,2"]) == 0
    assert sorted(path.name for path in tmp_path.glob("cdf_p*.csv")) == [
        "cdf_p0.9999991.csv", "cdf_p0.9999994.csv"]
    assert main(["hist", "--in", str(sim_dir), "--out", str(tmp_path), "--p", levels]) == 0
    assert {row[0] for row in _read_csv(tmp_path / "hist.csv")[1:]} == {
        "0.9999991", "0.9999994"}
    assert main(["mer", "--in", str(sim_dir), "--out", str(tmp_path), "--fit", "pixel",
                 "--levels", "0.85,0.9,0.95", "--predict-p", "0.9999999"]) == 0
    assert sorted(path.name for path in tmp_path.glob("mer_p*")) == [
        "mer_p0.9999999.csv", "mer_p0.9999999.f32", "mer_p0.9999999.f32.json"]


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
    # each chain sorts the stack once and computes each level's ranges once,
    # and frees one level's before it computes the next level's
    import weakref

    from exrange import ranges, thresholds

    range_entries, quantile_fields = ranges.range_entries, thresholds.quantile_fields
    calls, held, sorts = [], [], []
    last = [lambda: None]

    def sorting(stack, levels):
        sorts.append(stack.nt)
        return quantile_fields(stack, levels)

    def recording(stack, thr, *args):
        held.append(last[0]() is not None)
        calls.append((stack.nt, thr.p))
        entries = range_entries(stack, thr, *args)
        last[0] = weakref.ref(entries)
        return entries

    monkeypatch.setattr(ranges, "range_entries", recording)
    monkeypatch.setattr(thresholds, "quantile_fields", sorting)
    argv = _level_pass_argv(command, sim_dir, tmp_path / "out", _four_blocks(tmp_path))
    assert main(argv) == 0
    chains = [30] * 4 if command == "jackknife" else [40]
    assert calls == [(nt, p) for nt in chains for p in (0.9, 0.95)]
    assert held == [False] * len(calls)
    assert sorts == chains


def test_jackknife_subcommand(sim_dir, tmp_path):
    blocks = tmp_path / "blocks.txt"
    blocks.write_text("\n".join(str(i // 10) for i in range(40)))
    code = main(["jackknife", "--in", str(sim_dir), "--out", str(tmp_path),
                 "--levels", "0.85,0.9", "--blocks-by", str(blocks),
                 "--knots", "4x4", "--iters", "20"])
    assert code == 0
    se = load_stack(tmp_path / "se_theta.f32").values[0]
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


# sha256 of every output of ``chi --per-pixel`` on a 16x16x100 Gaussian stack
# with a nodata notch, at two levels with exceedances and one without (its
# CSV holds nan and its maps are skipped), recorded before the pooled and
# per-pixel values came from one counting path
CHI_STACK_SHA256 = "c482bf11f5fcd0cf411d00de6b4c490a18350e177ce000d6e2e1f5f92b9acbe4"
CHI_SHA256 = {
    "chi_p0.8.csv": "2d0a8bb4e999a301a1711e10e6fe85bfb1169e0241ad423eb78d0d963c0ff33e",
    "chi_p0.8_lag-1x1.csv": "15c64feccfadbe29307aef5eafa3dbb41fdee7545576ea4b0f47b41155a78a94",
    "chi_p0.8_lag-1x1.f32": "f1604ee3999cb2438309e01e09a4b7fbd292b9f4bdc5dfaf33440427132e1e07",
    "chi_p0.8_lag-1x1.f32.json": "2a16708b4f909c2a1049be5dc94c85e641d13a7648fac972de92e34879a518c7",
    "chi_p0.8_lag0x0.csv": "6d108bdaa6405a5f8b683902071f1c8a4bf81da9a2dda7d1880165380d72930a",
    "chi_p0.8_lag0x0.f32": "25aab12064befe048f839ad050d6008fc4e55fd44e9b9daa43ed44dd067cd885",
    "chi_p0.8_lag0x0.f32.json": "2a16708b4f909c2a1049be5dc94c85e641d13a7648fac972de92e34879a518c7",
    "chi_p0.8_lag0x2.csv": "a07dbdf15945ae82c6151b97788bcee14a5b120c7478cf567d7c67aafe45d1a1",
    "chi_p0.8_lag0x2.f32": "3f99ff09b5da43b992b74c6e94d76b6257098eb56ecbe1e6989a42a9ffc7be1b",
    "chi_p0.8_lag0x2.f32.json": "2a16708b4f909c2a1049be5dc94c85e641d13a7648fac972de92e34879a518c7",
    "chi_p0.8_lag1x0.csv": "a2192795093ae99400ff98a061dd5c4953f3c53b3cc03c2cb98f88f019a39ff1",
    "chi_p0.8_lag1x0.f32": "f36fad5795b5517fb71fb3c0fc81577d83420a8c4e710d7af431040ea3a57a29",
    "chi_p0.8_lag1x0.f32.json": "2a16708b4f909c2a1049be5dc94c85e641d13a7648fac972de92e34879a518c7",
    "chi_p0.8_lag3x-2.csv": "57363e5524dffddbcd8abdf85a32d575b2f33ada45ef2c940a0f285f7b6cee11",
    "chi_p0.8_lag3x-2.f32": "363b5cb1ce7064b8d43b940e8976cd48f215e4d9280e5df8049b594166f19b6a",
    "chi_p0.8_lag3x-2.f32.json": "2a16708b4f909c2a1049be5dc94c85e641d13a7648fac972de92e34879a518c7",
    "chi_p0.95.csv": "990d0952dad3a2aa2f0e7ba31406eaa8fda4ed0b9cd4b2011cf3f2fb7378704a",
    "chi_p0.95_lag-1x1.csv": "bd79a9883c5379cf7fc378375cbb860aa638bc9571eac7b747a1898114bf4d83",
    "chi_p0.95_lag-1x1.f32": "baed83f0766b9c4448526e3e946a6b3bbc1e1f72b5e15da3d6534d7fda6aa689",
    "chi_p0.95_lag-1x1.f32.json": "2a16708b4f909c2a1049be5dc94c85e641d13a7648fac972de92e34879a518c7",
    "chi_p0.95_lag0x0.csv": "6d108bdaa6405a5f8b683902071f1c8a4bf81da9a2dda7d1880165380d72930a",
    "chi_p0.95_lag0x0.f32": "25aab12064befe048f839ad050d6008fc4e55fd44e9b9daa43ed44dd067cd885",
    "chi_p0.95_lag0x0.f32.json": "2a16708b4f909c2a1049be5dc94c85e641d13a7648fac972de92e34879a518c7",
    "chi_p0.95_lag0x2.csv": "358eb4246e94df76fc88428cbdedc1e6f3ff8b1b8f00c00f48c2d910befaadb7",
    "chi_p0.95_lag0x2.f32": "76ebd01356ef4167deec1983f74f5b42e79499bb75d07b04cd71de156c344e4c",
    "chi_p0.95_lag0x2.f32.json": "2a16708b4f909c2a1049be5dc94c85e641d13a7648fac972de92e34879a518c7",
    "chi_p0.95_lag1x0.csv": "b52d30a76a3940353cc8be8611518c1cb7bfed2c98f639152c01cd73646d2785",
    "chi_p0.95_lag1x0.f32": "de6fb3f8d272c6f79f49ea2fb8cdee9e1260e09ecb1025d3a89cf1b9e4d88235",
    "chi_p0.95_lag1x0.f32.json": "2a16708b4f909c2a1049be5dc94c85e641d13a7648fac972de92e34879a518c7",
    "chi_p0.95_lag3x-2.csv": "251346013249875d0d2d5e63b09515dd638e218368d5fe36913aecc5e3be6c97",
    "chi_p0.95_lag3x-2.f32": "d41ddc45ca6fd68a9beaf0c367e658842363e1481fab13dc6b9d1cef2f42b723",
    "chi_p0.95_lag3x-2.f32.json": "2a16708b4f909c2a1049be5dc94c85e641d13a7648fac972de92e34879a518c7",
    "chi_p0.999.csv": "7937c85f3adfb76212a055df1dc8d9c5b17e3f9a9c37deb8ac6c5573894ac018",
}


def test_chi_outputs_are_pinned(tmp_path, capsys):
    from exrange import RasterStack, save_stack

    assert main(["simulate", "--nx", "16", "--ny", "16", "--n", "100", "--ell", "8",
                 "--seed", "7", "--out", str(tmp_path / "sim")]) == 0
    stack = load_stack(tmp_path / "sim" / "stack.f32")
    values = stack.values.copy()
    values[:, :3, 11:] = values[:, 8:10, 4] = stack.nodata
    save_stack(tmp_path / "ragged" / "stack.f32", RasterStack(values))
    stack_sha = hashlib.sha256((tmp_path / "ragged" / "stack.f32").read_bytes()).hexdigest()
    assert stack_sha == CHI_STACK_SHA256
    out = tmp_path / "out"
    assert main(["chi", "--in", str(tmp_path / "ragged"), "--out", str(out),
                 "--p", "0.8,0.95,0.999", "--lags", "0:0,1:0,0:2,-1:1,3:-2",
                 "--per-pixel"]) == 0
    assert "chi_p0.999_lag1x0 not written" in capsys.readouterr().err
    got = {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in sorted(out.iterdir())}
    assert got == CHI_SHA256


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
    sample_pass = cli._sample_pass

    def recording(args, stack, *rest):
        samples = sample_pass(args, stack, *rest)
        seen.append((stack, {f: getattr(samples, f).copy() for f in SAMPLE_FIELDS}))
        return samples

    def check(stack, got, want):
        for f in SAMPLE_FIELDS:
            assert np.array_equal(got[f], getattr(want, f)), f
        assert got["pixel_y"].dtype == got["pixel_x"].dtype == np.int32
        assert got["block"].dtype == np.int64

    monkeypatch.setattr(cli, "_sample_pass", recording)
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


@pytest.mark.parametrize("command, grid", [
    (["mer", "--levels", "inf:1:0.1"], "levels"),
    (["cdf", "--radii", "1:inf:1"], "radii"),
    (["cdf", "--p", "0.1:nan:0.1"], "levels"),
    (["hist", "--p", "0.1:0.9:1e-300"], "levels"),
    (["cdf", "--p", "0.9", "--radii", "nan"], "radii"),
    (["cdf", "--p", "0.9", "--radii", "1,nan"], "radii"),
], ids=["levels-inf-start", "radii-inf-stop", "levels-nan-stop", "levels-step-below-rounding",
        "radius-nan", "radii-nan-last"])
def test_bad_grid_or_radius_rejected_before_any_output(sim_dir, tmp_path, command, grid):
    # a non-finite grid bound, a step that 12-decimal rounding repeats at once
    # (a grid of 8e299 points) and a non-finite radius are validation errors
    # naming the grid, never a traceback or a hang
    out = tmp_path / "out"
    env = {**os.environ, "PYTHONPATH": SRC + os.pathsep + os.environ.get("PYTHONPATH", ""),
           "PYTHONWARNINGS": "error::RuntimeWarning"}
    run = subprocess.run([sys.executable, "-m", "exrange.cli", *command, "--in", str(sim_dir),
                          "--out", str(out)], env=env, capture_output=True, text=True, timeout=60)
    assert run.returncode == 2
    assert run.stderr.startswith(f"exrange: error: validation: {grid}")
    assert "Traceback" not in run.stderr
    assert not out.exists()


@pytest.mark.parametrize("command", ["cdf", "pipeline"])
def test_radius_past_the_inradius_exits_before_any_range(sim_dir, tmp_path, monkeypatch, capsys,
                                                         command):
    # --radii is checked against the domain as it is parsed, before the
    # threshold sort and the first level's ranges
    from exrange import ranges, thresholds

    calls = []
    monkeypatch.setattr(ranges, "range_entries", lambda *args: calls.append(args))
    monkeypatch.setattr(thresholds, "quantile_fields", lambda *args: calls.append(args))
    out = tmp_path / "out"
    argv = _level_pass_argv(command, sim_dir, out, _four_blocks(tmp_path))
    assert main([*argv, "--radii", "1,100"]) == 2
    assert "radius 100.0 is not below the domain inradius 16.0" in capsys.readouterr().err
    assert calls == []
    assert not out.exists()


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
    path, no caller-set BLAS thread count, a RuntimeWarning an error (as
    pyproject's ``filterwarnings`` makes it in this process), and ``env``
    added."""
    child_env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    child_env["PYTHONPATH"] = SRC + os.pathsep + child_env.get("PYTHONPATH", "")
    child_env["PYTHONWARNINGS"] = "error::RuntimeWarning"
    child_env.update(env)
    return subprocess.run([sys.executable, "-c", code, *args], env=child_env,
                          capture_output=True, text=True, check=True, timeout=120).stdout


def test_readme_python_blocks_run():
    # the library quick start runs as written: README's python blocks, in
    # order, in one process
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", readme, flags=re.M | re.S)
    assert len(blocks) == 3
    _child("\n".join(blocks))


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


def test_spline_fit_never_imports_numpy_ma(tmp_path):
    # numpy 2.4's np.unique and np.median import numpy.ma to rule out a masked
    # input; the sample pool, both fits and the penalty CV take their
    # distinct levels, blocks and medians without them
    sim = tmp_path / "sim"
    assert main(["simulate", "--nx", "12", "--ny", "12", "--n", "30", "--ell", "4",
                 "--seed", "5", "--out", str(sim)]) == 0
    blocks = tmp_path / "blocks.txt"
    blocks.write_text("\n".join(str(i // 10) for i in range(30)))
    code = ("import sys; import exrange.cli; "
            "codes = [exrange.cli.main([cmd, '--in', sys.argv[1], '--out', sys.argv[2] + out, "
            "'--knots', '4x4', '--levels', '0.8,0.9', *extra]) "
            "for cmd, out, extra in (('pipeline', 'pipeline', ['--fit', 'spline']), "
            "('mer', 'mer', ['--iters', '6']), "
            "('jackknife', 'jackknife', ['--iters', '6', '--blocks-by', sys.argv[3]]), "
            "('pipeline', 'pixel', ['--fit', 'pixel']))]; "
            "print(codes, 'numpy.ma' in sys.modules)")
    out = _child(code, str(sim), str(tmp_path / "out_"), str(blocks))
    assert out.strip().splitlines()[-1] == "[0, 0, 0, 0] False"
    for name in ("pipeline", "mer", "pixel"):
        assert (tmp_path / f"out_{name}" / "mer_beta.f32").exists()
    assert (tmp_path / "out_jackknife" / "se_beta.f32").exists()


@pytest.mark.parametrize("value", ["0", "-1"])
@pytest.mark.parametrize("command", LEVEL_PASS_COMMANDS)
def test_threads_below_one_exits_validation(sim_dir, tmp_path, capsys, command, value):
    # refused before the command reads its stack, so a missing --in file too
    out = tmp_path / "out"
    for stack_dir in (sim_dir, tmp_path / "missing"):
        argv = _level_pass_argv(command, stack_dir, out, _four_blocks(tmp_path))
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


def test_jackknife_without_valued_se_pixel_exits_compute(tmp_path, capsys):
    # each of the three replicates fits 2 pixels, and different ones, so every
    # pixel's SE is NaN: neither SE map has a value, which is a compute error
    # (exit 5) with no se_* output
    sim = tmp_path / "sim"
    assert main(["simulate", "--nx", "6", "--ny", "6", "--n", "30", "--ell", "2", "--seed", "3",
                 "--out", str(sim)]) == 0
    capsys.readouterr()
    blocks = tmp_path / "blocks.txt"
    blocks.write_text("\n".join(str(i // 10) for i in range(30)))
    out = tmp_path / "out"
    assert main(["jackknife", "--in", str(sim), "--out", str(out), "--blocks-by", str(blocks),
                 "--levels", "0.85,0.95", "--fit", "pixel", "--min-range", "1.2"]) == 5
    assert "compute: se_beta not written" in capsys.readouterr().err
    assert not list(out.glob("se_*"))


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


# sha256 of every output of the penalty CV and the jackknife on a 24x20x60
# Gaussian stack in six blocks of ten slices, recorded before the pooled
# samples took 12 bytes (``_fit_run`` gives the runs)
FIT_RUN_SHA256 = {
    "mer": {
        "mer_beta.csv": "16c5e5e6fffa42f152996bb398afb7ab0b3018960828ba4d1313f07139215978",
        "mer_beta.f32": "fe36d11b688b87e058527669ad90f6b375407e5caf3511fcdf2e62f686c5652b",
        "mer_beta.f32.json": "4aadfee738ecb641d35e2d1bd69711c824e375299896419333d6e54e9b506768",
        "mer_theta.csv": "82fd27352da2a640c8616ced4b5c26bf637c638a161770579c854babb4691dd0",
        "mer_theta.f32": "312d8f046b64beea084284e6b069c2033884c5e2b201ca9f5cd5d6e898a2787d",
        "mer_theta.f32.json": "2b536fb005a6d0cd01f9f03df7b40a56df6a6fee03af23f11f834fed84006a43",
    },
    "jackknife": {
        "se_beta.csv": "a69350dc8ca6e9dbb26bc69e2fdd8f61f7325722bc1199af664e3f4006ed236c",
        "se_beta.f32": "4af108fbf17710b88f8eefce39e3908fa128da35efb0c82b13e04e0c025d73e0",
        "se_beta.f32.json": "b553eb3eb6672c898e2343f5ba088e9a6911c5864367efc09b955d6740f5860a",
        "se_theta.csv": "b9856c9b8018310635a39447ecda2276fd1ea44021bfb02c4e0c7d572b42f1d1",
        "se_theta.f32": "abe25d23309fe0c84701c56bea9c0386adceba0f3cf24c77fcb5460ecaa11f2f",
        "se_theta.f32.json": "b553eb3eb6672c898e2343f5ba088e9a6911c5864367efc09b955d6740f5860a",
    },
}
FIT_RUN_STACK_SHA256 = "b4f6ea36c63709a8ffe1d5f856f0a1f8dd3c739fe52f464c1e27ed86eddebb73"


def _fit_run(tmp_path, command, **env) -> dict[str, str]:
    """sha256 of each output of ``command`` ("mer", block-wise penalty CV with a
    min-range cut, or "jackknife") run by ``python -m exrange.cli`` on the
    pinned stack, with ``env`` added."""
    sim, blocks = tmp_path / "sim", tmp_path / "blocks.txt"
    if not sim.exists():
        assert main(["simulate", "--nx", "24", "--ny", "20", "--n", "60", "--ell", "5",
                     "--seed", "11", "--out", str(sim)]) == 0
        blocks.write_text("\n".join(str(i // 10 + 3) for i in range(60)) + "\n")
    stack_sha = hashlib.sha256((sim / "stack.f32").read_bytes()).hexdigest()
    assert stack_sha == FIT_RUN_STACK_SHA256
    extra = {"mer": ["--penalty", "auto", "--min-range", "1.5"], "jackknife": []}[command]
    out = tmp_path / "-".join([command, *env.values()])
    code = "import sys; from exrange.cli import main; sys.exit(main(sys.argv[1:]))"
    _child(code, command, "--in", str(sim), "--out", str(out), "--blocks-by", str(blocks),
           "--levels", "0.85:0.95:0.05", "--knots", "5x5", "--iters", "30", *extra, **env)
    return {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in sorted(out.iterdir())}


@pytest.mark.parametrize("command", ["mer", "jackknife"])
def test_penalty_cv_and_jackknife_outputs_are_pinned(tmp_path, command):
    # block ids, CV folds and the min-range cut all pass through the sample
    # pool; the perfbench references pin only the fixed-penalty pipeline
    assert _fit_run(tmp_path, command) == FIT_RUN_SHA256[command]


def test_penalty_cv_identical_across_blas_threads(tmp_path):
    # a near-tie of CV losses could flip the chosen penalty with the BLAS
    # reduction order that a caller's OPENBLAS_NUM_THREADS picks
    one, two = (_fit_run(tmp_path, "mer", OPENBLAS_NUM_THREADS=n) for n in ("1", "2"))
    assert one == two


def _ragged_values(tmp_path):
    """A simulated 40x32x60 stack's values with a nodata notch and a hole, and its nodata."""
    assert main(["simulate", "--nx", "40", "--ny", "32", "--n", "60", "--ell", "6",
                 "--seed", "3", "--out", str(tmp_path / "sim")]) == 0
    stack = load_stack(tmp_path / "sim" / "stack.f32")
    values = stack.values.copy()
    values[:, :5, 30:] = values[:, 14:17, 10:13] = stack.nodata
    return values, stack.nodata


@pytest.mark.parametrize("policy", ["fill-exceed", "erode"])
def test_pipeline_respects_the_symmetries_of_a_ragged_stack(tmp_path, policy):
    # the whole chain on a stack with a nodata notch and a hole, against the
    # same stack with its values doubled, its grid transposed, its columns
    # mirrored and its slices permuted; the maps are compared after undoing
    # the transform
    from exrange import RasterStack, save_stack

    values, nodata = _ragged_values(tmp_path)
    inside = values[0] != nodata
    variants = {"base": (values, None), "doubled": (np.where(inside, 2 * values, values), None),
                "transposed": (values.transpose(0, 2, 1), np.transpose),
                "mirrored": (values[:, :, ::-1], np.fliplr),
                "permuted": (values[np.random.default_rng(5).permutation(60)], None)}
    outs = {}
    for name, (vals, _) in variants.items():
        save_stack(tmp_path / name / "stack.f32", RasterStack(vals))
        outs[name] = tmp_path / f"out-{name}"
        assert main(["pipeline", "--in", str(tmp_path / name), "--out", str(outs[name]),
                     "--levels", "0.85:0.95:0.05", "--policy", policy]) == 0
    files = sorted(path.name for path in outs["base"].iterdir())
    assert "theta_map.f32" in files and "mer_beta.f32" in files
    for name, (_, undo) in variants.items():
        assert sorted(path.name for path in outs[name].iterdir()) == files
        for f in files:
            got, want = outs[name] / f, outs["base"] / f
            if name == "permuted" and f == "ivdens.csv":
                continue  # compared below
            if undo is None or f in ("cdf.csv", "hist.csv"):
                assert got.read_bytes() == want.read_bytes(), (name, f)
            elif f.endswith(".f32"):
                got, want = (load_stack(path).values[0] for path in (got, want))
                assert np.array_equal(undo(got), want), (name, f)
        # c0 and c2 are exact under a transform of the grid; c1 and the slope
        # it feeds are sums of segment lengths, which run in another order on
        # the transformed grid. All four sum over slices in slice order, so a
        # permutation moves each in its last digits (c2 at p = 0.85 reads 0.15
        # and 0.14999999999999997)
        got, want = (_read_csv(outs[k] / "ivdens.csv") for k in (name, "base"))
        assert got[0] == want[0] and len(got) == len(want) == 4
        exact = [0] if name == "permuted" else [0, 1, 3]
        for g, w in zip(got[1:], want[1:]):
            assert [g[i] for i in exact] == [w[i] for i in exact], name
            assert [float(v) for v in g[1:]] == pytest.approx([float(v) for v in w[1:]],
                                                              rel=1e-12, abs=0), name


@pytest.mark.parametrize("policy", ["fill-exceed", "erode"])
def test_pipeline_on_twice_the_spacing(tmp_path, policy):
    # the same ragged stack at dx 1 and dx 2: ranges, radii and bin edges
    # double exactly, so every F, n_exceed and histogram count keeps its bits,
    # and the densities scale by powers of two, exactly. The maps pass through
    # the fit's float64 iterations and are written as float32: beta gains
    # log 2, theta keeps its value and the predicted median doubles, each
    # within 1e-6, a few float32 ulps of these maps
    from exrange import RasterStack, save_stack

    values, _ = _ragged_values(tmp_path)
    for dx in (1, 2):
        save_stack(tmp_path / f"dx{dx}" / "stack.f32", RasterStack(values, dx=float(dx)))
        assert main(["pipeline", "--in", str(tmp_path / f"dx{dx}"), "--out",
                     str(tmp_path / f"out{dx}"), "--levels", "0.85:0.95:0.05",
                     "--policy", policy]) == 0
    one, two = tmp_path / "out1", tmp_path / "out2"
    cdf1, cdf2 = _read_csv(one / "cdf.csv"), _read_csv(two / "cdf.csv")
    assert cdf1[0] == cdf2[0] and len(cdf1) == len(cdf2) > 1
    for (p, r, f, n), row in zip(cdf1[1:], cdf2[1:]):
        assert row == [p, repr(2 * float(r)), f, n]
    hist1, hist2 = _read_csv(one / "hist.csv"), _read_csv(two / "hist.csv")
    assert hist1[0] == hist2[0] and len(hist1) == len(hist2) > 1
    for (p, lo, hi, count), row in zip(hist1[1:], hist2[1:]):
        assert row == [p, repr(2 * float(lo)), repr(2 * float(hi)), count]
    iv1, iv2 = _read_csv(one / "ivdens.csv"), _read_csv(two / "ivdens.csv")
    assert iv1[0] == iv2[0] and len(iv1) == len(iv2) == 4
    for (p, c0, c1, c2, slope), row in zip(iv1[1:], iv2[1:]):
        assert row == [p, repr(float(c0) / 4), repr(float(c1) / 2), c2, repr(float(slope) / 2)]
    for name, undo in (("theta_map", lambda m: m), ("mer_beta", lambda m: m - math.log(2)),
                       ("mer_theta", lambda m: m), ("mer_p0.989", lambda m: m / 2)):
        got, want = (load_stack(out / f"{name}.f32").values[0] for out in (two, one))
        valued = want != -9999.0
        assert np.array_equal(got != -9999.0, valued), name
        np.testing.assert_allclose(undo(got[valued].astype(np.float64)), want[valued],
                                   rtol=1e-6, atol=1e-6, err_msg=name)


def _spline_g16_stack(tmp_path):
    """The 16x16x100 Gaussian stack at ell 8 and seed 7 that the spline-g16
    benchmark workload simulates."""
    assert main(["simulate", "--nx", "16", "--ny", "16", "--n", "100", "--ell", "8",
                 "--seed", "7", "--out", str(tmp_path / "sim")]) == 0
    return load_stack(tmp_path / "sim" / "stack.f32")


@pytest.mark.xfail(strict=True, reason=(
    "the per-pixel LAD breaks exact ties between candidate lines by the float "
    "summation order of its samples, not by its smallest-theta rule: 20 of 256 "
    "pixels move (CHANGES.md, the FOUND line on per-pixel LAD ties)"))
def test_pixel_fit_on_permuted_slices(tmp_path):
    # every pixel sees the same (level, log range) samples in another order,
    # so its fitted line should not change
    from exrange import RasterStack, save_stack

    stack = _spline_g16_stack(tmp_path)
    permuted = stack.values[np.random.default_rng(5).permutation(100)]
    save_stack(tmp_path / "permuted" / "stack.f32", RasterStack(permuted))
    maps = {}
    for name in ("sim", "permuted"):
        out = tmp_path / f"out-{name}"
        assert main(["mer", "--in", str(tmp_path / name), "--out", str(out),
                     "--levels", "0.9:0.98:0.02", "--fit", "pixel"]) == 0
        maps[name] = [load_stack(out / f"mer_{c}.f32").values[0] for c in ("beta", "theta")]
    for got, want in zip(maps["permuted"], maps["sim"]):
        assert np.array_equal(got, want)


@pytest.mark.xfail(strict=True, reason=(
    "hist.csv's bins end at the domain inradius, and a range is capped by the "
    "grid edge only when a whole slice exceeds, so np.histogram drops the 4 "
    "longer ranges (CHANGES.md, the FOUND line on hist.csv)"))
def test_hist_counts_every_positive_range(tmp_path):
    # at p = 0.9 each of the 256 pixels exceeds in 10 of 100 slices, and each
    # exceedance has a positive range
    _spline_g16_stack(tmp_path)
    assert main(["hist", "--in", str(tmp_path / "sim"), "--out", str(tmp_path / "out"),
                 "--p", "0.9"]) == 0
    rows = _read_csv(tmp_path / "out" / "hist.csv")
    assert sum(int(row[3]) for row in rows[1:]) == 2560


@pytest.mark.parametrize("policy, fit", [("erode", "spline"), ("fill-exceed", "pixel")])
def test_pipeline_inside_a_nodata_ring(tmp_path, policy, fit):
    # a one-pixel nodata ring around spline-g16's stack. The ECDF counts
    # only at pixels of T_{-r}, and a pixel's distance to the outside of the
    # domain is the same with the ring as without it; the densities see the
    # ring as they saw the grid's exterior. Under erode the ring does not
    # exceed, so a range at the old grid edge now stops at it and the
    # histogram moves (so do the medians and the fit). Under fill-exceed the
    # ring exceeds, so every range keeps its value, and so does each pixel's
    # own fit, one pixel in
    from exrange import RasterStack, save_stack

    stack = _spline_g16_stack(tmp_path)
    ringed = np.full((stack.nt, stack.ny + 2, stack.nx + 2), stack.nodata, np.float32)
    ringed[:, 1:-1, 1:-1] = stack.values
    save_stack(tmp_path / "ringed" / "stack.f32", RasterStack(ringed))
    outs = {}
    for name in ("sim", "ringed"):
        outs[name] = tmp_path / f"out-{name}"
        assert main(["pipeline", "--in", str(tmp_path / name), "--out", str(outs[name]),
                     "--levels", "0.9:0.98:0.02", "--policy", policy, "--fit", fit]) == 0
    files = sorted(path.name for path in outs["sim"].iterdir())
    assert sorted(path.name for path in outs["ringed"].iterdir()) == files

    def same(f):
        return (outs["ringed"] / f).read_bytes() == (outs["sim"] / f).read_bytes()

    assert same("cdf.csv") and same("ivdens.csv")
    if policy == "erode":
        assert not same("hist.csv")
        return
    assert same("hist.csv")
    maps = [f[:-len(".f32")] for f in files if f.endswith(".f32")]
    assert {"theta_map", "mer_beta", "mer_theta"} <= set(maps)
    for name in maps:
        got, want = (load_stack(outs[k] / f"{name}.f32").values[0] for k in ("ringed", "sim"))
        assert np.array_equal(got[1:-1, 1:-1], want), name
        assert np.all(got[[0, -1]] == stack.nodata) and np.all(got[:, [0, -1]] == stack.nodata)
        got, want = (_read_csv(outs[k] / f"{name}.csv") for k in ("ringed", "sim"))
        assert got[0] == want[0]
        assert [[str(int(x) - 1), str(int(y) - 1), v] for x, y, v in got[1:]] == want[1:], name


def test_non_square_knots_transpose_with_the_grid(tmp_path):
    # NYxNX knots on a grid and NXxNY knots on its transpose give the same
    # spline basis with its axes swapped, so the fit's maps keep their bits
    # after transposing back. The stack is grid-g64's, cropped to 40x24
    from exrange import RasterStack, save_stack

    assert main(["simulate", "--nx", "64", "--ny", "64", "--n", "200", "--ell", "20",
                 "--seed", "7", "--out", str(tmp_path / "sim")]) == 0
    values = load_stack(tmp_path / "sim" / "stack.f32").values[:, :24, :40]
    maps = {}
    for name, vals, knots in (("crop", values, "6x4"),
                              ("transposed", values.transpose(0, 2, 1), "4x6")):
        save_stack(tmp_path / name / "stack.f32", RasterStack(vals))
        out = tmp_path / f"out-{name}"
        assert main(["pipeline", "--in", str(tmp_path / name), "--out", str(out),
                     "--levels", "0.9,0.95", "--fit", "spline", "--knots", knots]) == 0
        maps[name] = {m: load_stack(out / f"{m}.f32").values[0]
                      for m in ("mer_beta", "mer_theta", "mer_p0.989")}
    for m, want in maps["crop"].items():
        assert np.array_equal(maps["transposed"][m].T, want), m


# the range commands on a 20x16x30 stack with a nodata notch and a hole,
# with their arguments; sha256 over the names and bytes of each command's
# outputs, per policy, recorded before the range stage left the split of its
# slices to ``_pmap``
RAGGED_RUNS = {
    "range": ["--p", "0.85,0.95"],
    "cdf": ["--p", "0.85,0.95"],
    "hist": ["--p", "0.85,0.95"],
    "theta": ["--p1", "0.85", "--p2", "0.95"],
    "pipeline": ["--fit", "pixel", "--levels", "0.85:0.95:0.05"],
}
RAGGED_RUN_STACK_SHA256 = "352b9bc3b385768b957e465f9df1e7196fb8b46727a6aa7a03ae91b012d4d465"
RAGGED_RUN_SHA256 = {
    "fill-exceed": {
        "range": "9152bbe5d21412bfa7a267dd2e659b3b5c0092301944c7686995b6fa778d375b",
        "cdf": "c9b0501c1313d87920be69fd13eec3a357c2e1b0af61cea19d7af6ded1a20de1",
        "hist": "6b90a1f3e318887ab13de6473f7eeb01b18463297cffc81214523827775ec5a4",
        "theta": "b52316445c2fba35ad24897af3ea9a1733a849276ffd1b83f361a364bcd5e96f",
        "pipeline": "2e45d7d445118f90a0ff3a33e389d7714d71c3ba5e87c5288ca1a78486bb7d3d",
    },
    "erode": {
        "range": "ae8984ddc4fea9d7055abde637589da1bba8fcb0dac98b1586bd7e8f32bb999a",
        "cdf": "c9b0501c1313d87920be69fd13eec3a357c2e1b0af61cea19d7af6ded1a20de1",
        "hist": "bd55c14a5460b2ef5ab8ba1879185da7915f6bff72e605bfff044582e345da88",
        "theta": "489ff5c9a2cb003c142e9a42bb52212fe8dea8064d919261747873a90b1e75c7",
        "pipeline": "9b5d9ee6cafaf1bea395eea12ee9baef457db163db1edf2713c7103d5cd1a790",
    },
}


def _ragged_run_digests(tmp_path, policy: str, threads: str) -> dict[str, str]:
    """sha256 over the names and bytes of each ``RAGGED_RUNS`` command's
    outputs on the pinned ragged stack, under ``policy`` on ``threads`` workers."""
    from exrange import RasterStack, save_stack

    assert main(["simulate", "--nx", "20", "--ny", "16", "--n", "30", "--ell", "4",
                 "--seed", "5", "--out", str(tmp_path / "sim")]) == 0
    values = load_stack(tmp_path / "sim" / "stack.f32").values.copy()
    values[:, :4, 14:] = values[:, 9:11, 5:7] = -9999.0
    save_stack(tmp_path / "ragged" / "stack.f32", RasterStack(values))
    stack_sha = hashlib.sha256((tmp_path / "ragged" / "stack.f32").read_bytes()).hexdigest()
    assert stack_sha == RAGGED_RUN_STACK_SHA256
    got = {}
    for command, argv in RAGGED_RUNS.items():
        out = tmp_path / command
        assert main([command, "--in", str(tmp_path / "ragged"), "--out", str(out),
                     "--policy", policy, "--threads", threads, *argv]) == 0
        digest = hashlib.sha256()
        for f in sorted(out.iterdir()):
            digest.update(f.name.encode() + b"\0" + f.read_bytes())
        got[command] = digest.hexdigest()
    return got


@pytest.mark.parametrize("threads", ["1", "3"])
@pytest.mark.parametrize("policy", ["fill-exceed", "erode"])
def test_range_commands_are_pinned_on_a_ragged_stack(tmp_path, policy, threads):
    # three workers split 30 slices into runs of ten; one runs them all on
    # the calling thread
    assert _ragged_run_digests(tmp_path, policy, threads) == RAGGED_RUN_SHA256[policy]
