import csv
import json

import numpy as np
import pytest

from exrange import load_map, load_stack
from exrange.cli import main


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


def test_ivdens_csv(sim_dir, tmp_path):
    code = main(["ivdens", "--in", str(sim_dir), "--out", str(tmp_path),
                 "--p", "0.9,0.95"])
    assert code == 0
    rows = _read_csv(tmp_path / "ivdens.csv")
    assert rows[0] == ["p", "c0", "c1", "c2", "slope_pred"]
    c2 = [float(r[3]) for r in rows[1:]]
    assert c2[0] == pytest.approx(0.1, abs=0.03)
    assert c2[1] < c2[0]


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
