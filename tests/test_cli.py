import json
import math

import numpy as np
import pytest

from qdtuner import cli


def run_cli(*args):
    return cli.main([str(a) for a in args])


def read_rows(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def test_thermal_zero_power_uniform_field(configs_dir, tmp_path):
    out = tmp_path / "out"
    code = run_cli(
        "thermal", configs_dir / "device_w320.json", "--power-abs-mw", 0, "--dx-um", 0.1,
        "--out", out,
    )
    assert code == 0
    rows = read_rows(out / "field.csv")
    assert all(float(r["T_K"]) == 10.0 for r in rows)
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert report["converged"] is True
    assert report["lumped_island_k"] == 10.0


def test_thermal_scenario_report_contents(configs_dir, tmp_path):
    out = tmp_path / "out"
    code = run_cli("thermal", configs_dir / "fig1b.json", "--dx-um", 0.1, "--out", out)
    assert code == 0
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert report["power_abs_mw"] == 0.01
    assert report["pad_mean_k"] > report["bath_k"]
    assert math.isclose(report["lumped_island_k"], 19.9536, abs_tol=1e-3)
    assert report["residual"] <= 1e-3


def test_thermal_malformed_json_no_partial_output(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken", encoding="utf-8")
    out = tmp_path / "out"
    assert run_cli("thermal", bad, "--out", out) == 2
    assert not out.exists()


def test_thermal_unknown_key_is_config_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"device": "missing.json", "typo": 1}), encoding="utf-8")
    assert run_cli("thermal", bad, "--out", tmp_path / "out") == 2


def test_thermal_missing_file_is_config_error(tmp_path):
    assert run_cli("thermal", tmp_path / "nope.json", "--out", tmp_path / "out") == 2


def test_thermal_coarse_dx_is_config_error(configs_dir, tmp_path):
    assert (
        run_cli(
            "thermal", configs_dir / "device_w320.json", "--dx-um", 0.5,
            "--out", tmp_path / "out",
        )
        == 2
    )


def test_thermal_underiterated_solver_fails_with_exit_3(configs_dir, tmp_path):
    out = tmp_path / "out"
    code = run_cli(
        "thermal", configs_dir / "fig1b.json", "--dx-um", 0.1, "--max-iter", 1,
        "--out", out,
    )
    assert code == 3
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert report["converged"] is False


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--power-abs-mw", "nan"),
        ("--power-abs-mw", "inf"),
        ("--tol", "nan"),
        ("--tol", "inf"),
        ("--tol", "0"),
        ("--bath-k", "nan"),
        ("--bath-k", "inf"),
        ("--bath-k", "-5"),
        ("--dx-um", "nan"),
        ("--max-iter", "0"),
    ],
)
def test_thermal_invalid_number_is_config_error(configs_dir, tmp_path, capsys, flag, value):
    out = tmp_path / "out"
    code = run_cli("thermal", configs_dir / "device_w320.json", "--dx-um", 0.1, flag, value, "--out", out)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert "Traceback" not in err
    assert not (out / "report.json").exists()


def test_sweep_tracks_reach_the_anchor_shift(configs_dir, tmp_path):
    out = tmp_path / "out"
    assert run_cli("sweep", configs_dir / "fig2a.json", "--steps", 16, "--out", out) == 0
    track = read_rows(out / "peaks.csv")
    qd_rows = [r for r in track if r["kind"] == "qd"]
    first, last = qd_rows[0], qd_rows[-1]
    assert float(first["power_mw"]) == 0.0 and float(last["power_mw"]) == 3.0
    assert math.isclose(float(last["center_nm"]) - float(first["center_nm"]), 1.4, rel_tol=1e-9)
    assert math.isclose(float(last["fwhm_nm"]), 0.08, rel_tol=1e-6)


def test_sweep_cavity_track_endpoint(configs_dir, tmp_path):
    out = tmp_path / "out"
    assert run_cli("sweep", configs_dir / "fig3.json", "--steps", 16, "--out", out) == 0
    track = [r for r in read_rows(out / "peaks.csv") if r["kind"] == "cavity"]
    shift = float(track[-1]["center_nm"]) - float(track[0]["center_nm"])
    assert abs(shift - 0.48) <= 0.005
    # quality factor drops as the structure heats: the resonance widens
    assert float(track[-1]["fwhm_nm"]) > float(track[0]["fwhm_nm"])


def test_sweep_degenerate_zero_range(configs_dir, tmp_path):
    out = tmp_path / "out"
    assert (
        run_cli(
            "sweep", configs_dir / "fig2a.json", "--power-min", 0, "--power-max", 0,
            "--steps", 2, "--out", out,
        )
        == 0
    )
    rows = read_rows(out / "spectra.csv")
    half = len(rows) // 2
    assert [r["intensity"] for r in rows[:half]] == [r["intensity"] for r in rows[half:]]


def test_sweep_overrange_powers_skipped_with_warning(configs_dir, tmp_path, capsys):
    out = tmp_path / "out"
    code = run_cli(
        "sweep", configs_dir / "fig2a.json", "--power-min", 3.5, "--power-max", 4.0,
        "--steps", 3, "--out", out,
    )
    assert code == 0
    err = capsys.readouterr().err
    assert "skipped" in err
    powers = {float(r["power_mw"]) for r in read_rows(out / "peaks.csv")}
    assert powers == {3.5, 3.75}  # 4.0 mW would push the dot past its 1.8 nm range


def test_sweep_refit_matches_annotations(configs_dir, tmp_path):
    out_a = tmp_path / "ann"
    out_r = tmp_path / "fit"
    assert run_cli("sweep", configs_dir / "fig2a.json", "--steps", 7, "--out", out_a) == 0
    assert (
        run_cli("sweep", configs_dir / "fig2a.json", "--steps", 7, "--refit", "--out", out_r)
        == 0
    )
    ann = [r for r in read_rows(out_a / "peaks.csv") if r["kind"] == "qd"]
    fit = [r for r in read_rows(out_r / "peaks.csv") if r["kind"] == "qd"]
    for a, b in zip(ann, fit):
        assert abs(float(a["center_nm"]) - float(b["center_nm"])) < 2e-4
        assert abs(float(a["fwhm_nm"]) - float(b["fwhm_nm"])) / float(a["fwhm_nm"]) < 0.05


def test_sweep_track_slope_matches_power_map(configs_dir, tmp_path):
    out = tmp_path / "out"
    assert run_cli("sweep", configs_dir / "fig2a.json", "--steps", 31, "--refit", "--out", out) == 0
    rows = [r for r in read_rows(out / "peaks.csv") if r["kind"] == "qd"]
    p = np.array([float(r["power_mw"]) for r in rows])
    c = np.array([float(r["center_nm"]) for r in rows])
    slope = np.polyfit(p, c, 1)[0]
    expected = 1.4 / 3.0  # alpha * beta
    assert abs(slope - expected) / expected < 0.005


def test_tune_qd_to_cavity(configs_dir, tmp_path):
    out = tmp_path / "out"
    assert run_cli("tune", configs_dir / "fig4.json", "--out", out) == 0
    sol = json.loads((out / "solution.json").read_text(encoding="utf-8"))
    assert sol["feasible"] is True
    assert math.isclose(sol["powers_mw"]["main"], 0.8151688, rel_tol=1e-6)
    assert sol["residual_nm"] <= 1e-6
    assert math.isclose(sol["purcell"], 5.0, rel_tol=1e-6)


def test_tune_second_dot_via_flag(configs_dir, tmp_path):
    out = tmp_path / "out"
    assert run_cli("tune", configs_dir / "fig4.json", "--qd-id", "QD2", "--out", out) == 0
    sol = json.loads((out / "solution.json").read_text(encoding="utf-8"))
    assert math.isclose(sol["powers_mw"]["main"], 1.1412363, rel_tol=1e-6)


def test_tune_red_detuned_dot_exits_4_with_solution(tmp_path, configs_dir):
    device = json.loads((configs_dir / "device_w320_two_qds.json").read_text(encoding="utf-8"))
    device["qds"][0]["lambda0_nm"] = 930.1  # red of the 930.0 cavity
    (tmp_path / "d.json").write_text(json.dumps(device), encoding="utf-8")
    (tmp_path / "s.json").write_text(
        json.dumps({"device": "d.json", "tune": {"target": "qd-to-cavity", "qd_ids": ["QD1"]}}),
        encoding="utf-8",
    )
    out = tmp_path / "out"
    assert run_cli("tune", tmp_path / "s.json", "--out", out) == 4
    sol = json.loads((out / "solution.json").read_text(encoding="utf-8"))
    assert sol["feasible"] is False
    assert any("unreachable" in w for w in sol["warnings"])


def test_tune_pair_decoupled(configs_dir, tmp_path):
    out = tmp_path / "out"
    assert run_cli("tune", configs_dir / "qd_pair.json", "--out", out) == 0
    sol = json.loads((out / "solution.json").read_text(encoding="utf-8"))
    assert sol["feasible"] is True
    # dot A must shift 0.6 nm to meet dot B; B stays unpowered
    assert math.isclose(sol["powers_mw"]["A"], 0.6 / (1.4 / 3.0), rel_tol=1e-6)
    assert sol["powers_mw"]["B"] == 0.0


def test_tune_without_cavity_is_config_error(configs_dir, tmp_path):
    (tmp_path / "s.json").write_text(
        json.dumps({"device": str(configs_dir / "device_w320_qd.json"),
                    "tune": {"target": "qd-to-cavity"}}),
        encoding="utf-8",
    )
    assert run_cli("tune", tmp_path / "s.json", "--out", tmp_path / "out") == 2


def test_calibrate_temperature_anchors(configs_dir, tmp_path):
    out = tmp_path / "out"
    assert run_cli("calibrate", "--anchors-file", configs_dir / "anchors_temperature.json", "--out", out) == 0
    cal = json.loads((out / "calibration.json").read_text(encoding="utf-8"))
    block = cal["structures"]["main"]
    assert block["mode"] == "temperature"
    assert math.isclose(block["alpha_nm_per_k2"], 1.2e-3, rel_tol=1e-9)
    assert block["residual_rms_nm"] is None or block["residual_rms_nm"] < 1e-12
    assert math.isclose(cal["shift_ratio"], 2.917, rel_tol=1e-12)


def test_calibrate_power_anchors(configs_dir, tmp_path):
    out = tmp_path / "out"
    assert run_cli("calibrate", "--anchors-file", configs_dir / "anchors_power.json", "--out", out) == 0
    block = json.loads((out / "calibration.json").read_text(encoding="utf-8"))["structures"]["main"]
    assert block["mode"] == "power"
    assert math.isclose(block["alpha_beta_nm_per_mw"], 1.4 / 3.0, rel_tol=1e-9)
    assert math.isclose(block["beta_k2_per_mw"], (1.4 / 3.0) / 1.2e-3, rel_tol=1e-9)


def test_calibrate_single_anchor_rejected(tmp_path):
    anchors = tmp_path / "a.json"
    anchors.write_text(json.dumps({"temperature_anchors": [[40.0, 1.8]]}), encoding="utf-8")
    assert run_cli("calibrate", "--anchors-file", anchors, "--out", tmp_path / "out") == 2


def test_calibrate_degenerate_anchors_rejected(tmp_path):
    anchors = tmp_path / "a.json"
    anchors.write_text(
        json.dumps({"power_anchors": [[3.0, 1.4], [3.0, 1.5]]}), encoding="utf-8"
    )
    assert run_cli("calibrate", "--anchors-file", anchors, "--out", tmp_path / "out") == 2


def test_sweep_outputs_are_deterministic(configs_dir, tmp_path):
    outs = []
    for name in ("one", "two"):
        out = tmp_path / name
        assert run_cli("sweep", configs_dir / "fig2a.json", "--steps", 5, "--out", out) == 0
        outs.append(out)
    for fname in ("spectra.csv", "peaks.csv"):
        assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()
