import hashlib
import json
import math
import shlex
import warnings

import numpy as np
import pytest

from qdtuner import cli, spectral


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
    "flag, value", [("--power-abs-mw", "1e300"), ("--power-abs-mw", "1e200"), ("--bath-k", "1e300")]
)
def test_thermal_overflowing_solve_fails_without_warnings(configs_dir, tmp_path, flag, value):
    # conductances overflow a float at these inputs: the solve stops at the
    # first such state instead of iterating on inf and NaN
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run_cli(
            "thermal", configs_dir / "fig1b.json", "--dx-um", 0.1, flag, value, "--out", tmp_path
        )
    assert code == 3


def _thermal_flag(flag, value):
    argv = ["thermal", "{configs}/device_w320.json", "--dx-um", "0.1", flag, value]
    return pytest.param(argv, id=f"{flag}-{value}")


@pytest.mark.parametrize(
    "argv",
    [
        _thermal_flag("--power-abs-mw", "nan"),
        _thermal_flag("--power-abs-mw", "inf"),
        _thermal_flag("--tol", "nan"),
        _thermal_flag("--tol", "inf"),
        _thermal_flag("--tol", "0"),
        _thermal_flag("--bath-k", "nan"),
        _thermal_flag("--bath-k", "inf"),
        _thermal_flag("--bath-k", "-5"),
        _thermal_flag("--dx-um", "nan"),
        _thermal_flag("--max-iter", "0"),
        pytest.param(["sweep", "{configs}/fig2a.json", "--power-max", "nan"], id="sweep--power-max-nan"),
        pytest.param(["sweep", "{configs}/fig2a.json", "--power-max", "inf"], id="sweep--power-max-inf"),
        pytest.param(["tune", "{configs}/fig4.json", "--tol-nm", "nan"], id="tune--tol-nm-nan"),
        pytest.param(["tune", "{configs}/fig4.json", "--tol-nm", "0"], id="tune--tol-nm-0"),
        pytest.param(["tune", "{configs}/fig4.json", "--min-q", "nan"], id="tune--min-q-nan"),
        pytest.param(["tune", "{tmp}/nan_bath.json"], id="tune-json-NaN-bath_k"),
        pytest.param(["sweep", "{tmp}/nan_bath.json"], id="sweep-json-NaN-bath_k"),
        pytest.param(["tune", "{tmp}/huge_bath.json"], id="tune-json-huge-int-bath_k"),
        pytest.param(
            ["calibrate", "--anchors-file", "{tmp}/huge_anchor.json"], id="calibrate-json-huge-int-anchor"
        ),
        pytest.param(
            ["calibrate", "--anchors-file", "{configs}/anchors_power.json", "--alpha", "0"],
            id="calibrate--alpha-0",
        ),
        pytest.param(
            ["calibrate", "--anchors-file", "{configs}/anchors_power.json", "--alpha", "nan"],
            id="calibrate--alpha-nan",
        ),
        pytest.param(
            ["calibrate", "--anchors-file", "{configs}/anchors_power.json", "--t-ref", "inf"],
            id="calibrate--t-ref-inf",
        ),
        # a flag and a config value share one rule
        pytest.param(["tune", "{configs}/fig4.json", "--min-q", "-5"], id="tune--min-q--5"),
        pytest.param(["tune", "{tmp}/min_q.json"], id="tune-json-min_q--5"),
        pytest.param(
            ["calibrate", "--anchors-file", "{configs}/anchors_power.json", "--t-ref", "-5"],
            id="calibrate--t-ref--5",
        ),
        pytest.param(["calibrate", "--anchors-file", "{tmp}/t_ref.json"], id="calibrate-json-t_ref_k--5"),
        pytest.param(["sweep", "{tmp}/f0.json"], id="sweep-json-f0-0.5"),
        pytest.param(["tune", "{tmp}/f0.json"], id="tune-json-f0-0.5"),
        pytest.param(
            ["calibrate", "--anchors-file", "{configs}/anchors_temperature.json", "--t-ref", "1e200"],
            id="calibrate--t-ref-1e200",
        ),
        # the input boundary: unreadable files and out-of-range device optics
        pytest.param(["sweep", "{tmp}/latin1.json"], id="sweep-non-utf8-config"),
        pytest.param(["thermal", "{tmp}"], id="thermal-directory-config"),
        pytest.param(["sweep", "{tmp}/fwhm.json"], id="sweep-json-fwhm0_nm--1"),
        pytest.param(["tune", "{tmp}/q0.json"], id="tune-json-q0--9000"),
    ],
)
def test_thermal_invalid_number_is_config_error(configs_dir, tmp_path, capsys, argv):
    scenario = json.loads((configs_dir / "fig4.json").read_text(encoding="utf-8"))
    scenario["device"] = str(configs_dir / scenario["device"])

    def write(name, payload):
        (tmp_path / name).write_text(json.dumps(payload), encoding="utf-8")

    # json.dumps writes the NaN literal that json.load accepts
    write("nan_bath.json", {**scenario, "bath_k": float("nan")})
    # integers too large for a float
    write("huge_bath.json", {**scenario, "bath_k": 10**400})
    write("huge_anchor.json", {"power_anchors": [[10**400, 1.4], [3.0, 1.5]]})
    write("min_q.json", {**scenario, "tune": {**scenario["tune"], "min_q": -5}})
    write("t_ref.json", {"t_ref_k": -5, "power_anchors": [[0.0, 0.0], [3.0, 1.4]]})
    write("f0.json", {**scenario, "spectrum": {**scenario["spectrum"], "f0": 0.5}})
    (tmp_path / "latin1.json").write_bytes(b'{"device": "\xff"}')
    device = json.loads((configs_dir / "device_w320_two_qds.json").read_text(encoding="utf-8"))
    write("fwhm_device.json", {**device, "qds": [{**device["qds"][0], "fwhm0_nm": -1}]})
    write("fwhm.json", {**scenario, "device": "fwhm_device.json"})
    write("q0_device.json", {**device, "cavity": {**device["cavity"], "q0": -9000}})
    write("q0.json", {**scenario, "device": "q0_device.json"})
    out = tmp_path / "out"
    argv = [a.format(configs=configs_dir, tmp=tmp_path) for a in argv]
    code = run_cli(*argv, "--out", out)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert "Traceback" not in err
    assert not out.exists()


def test_out_naming_a_file_is_config_error(configs_dir, tmp_path, capsys):
    out = tmp_path / "out"
    out.write_text("keep", encoding="utf-8")
    assert run_cli("tune", configs_dir / "fig4.json", "--out", out) == 2
    assert capsys.readouterr().err.startswith("config error:")
    assert out.read_text(encoding="utf-8") == "keep"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out"]


def test_thermal_large_exponent_converges(configs_dir, tmp_path):
    # (T / t_ref)^401 of the Kirchhoff variable fits a float where T^401 does not
    device = json.loads((configs_dir / "device_w320.json").read_text(encoding="utf-8"))
    device["material"]["exponent"] = 400.0
    path = tmp_path / "d.json"
    path.write_text(json.dumps(device), encoding="utf-8")
    out = tmp_path / "out"
    code = run_cli("thermal", path, "--power-abs-mw", 0.01, "--dx-um", 0.1, "--out", out)
    assert code == 0
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert report["converged"] is True
    assert report["bath_k"] < report["lumped_island_k"] < report["max_k"]


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


def test_tune_and_sweep_share_the_cavity_shift_law(configs_dir, tmp_path):
    # QD2 shifts 1.3x faster than QD1; the cavity keeps the structure's law
    device = json.loads((configs_dir / "device_w320_two_qds.json").read_text(encoding="utf-8"))
    device["qds"][1]["alpha_nm_per_k2"] = 1.3 * spectral.DEFAULT_ALPHA_NM_PER_K2
    (tmp_path / "d.json").write_text(json.dumps(device), encoding="utf-8")
    scenario = tmp_path / "s.json"
    scenario.write_text(
        json.dumps({"device": "d.json", "tune": {"target": "qd-to-cavity", "qd_ids": ["QD2"]}}),
        encoding="utf-8",
    )
    assert run_cli("tune", scenario, "--out", tmp_path / "tune") == 0
    sol = json.loads((tmp_path / "tune" / "solution.json").read_text(encoding="utf-8"))
    power = sol["powers_mw"]["main"]
    out = tmp_path / "sweep"
    assert run_cli(
        "sweep", scenario, "--power-min", power, "--power-max", power, "--steps", 2, "--out", out
    ) == 0
    centers = {r["label"]: float(r["center_nm"]) for r in read_rows(out / "peaks.csv")}
    assert abs(centers["QD2"] - centers["cavity"]) <= 1e-6


def test_tune_pair_decoupled(configs_dir, tmp_path):
    out = tmp_path / "out"
    assert run_cli("tune", configs_dir / "qd_pair.json", "--out", out) == 0
    sol = json.loads((out / "solution.json").read_text(encoding="utf-8"))
    assert sol["feasible"] is True
    # dot A must shift 0.6 nm to meet dot B; B stays unpowered
    assert math.isclose(sol["powers_mw"]["A"], 0.6 / (1.4 / 3.0), rel_tol=1e-6)
    assert sol["powers_mw"]["B"] == 0.0


def test_tune_singular_crosstalk_is_infeasible(configs_dir, tmp_path, capsys):
    # Crosstalk.validate accepts this matrix; its determinant is zero
    x = 400.0 * np.array([[1.0, 0.75, 0.0], [0.75, 1.0, 0.875], [0.0, 0.5, 1.0]])
    devices = ("device_w320_qd.json", "device_w320_qd_red.json", "device_w320_qd.json")
    structures = [
        {"id": sid, "device": str(configs_dir / d), "calibration": {"beta_k2_per_mw": 400.0}}
        for sid, d in zip("ABC", devices)
    ]
    scenario = tmp_path / "s.json"
    scenario.write_text(
        json.dumps({"structures": structures, "crosstalk_k2_per_mw": x.tolist(),
                    "tune": {"target": "qd-to-qd"}}),
        encoding="utf-8",
    )
    out = tmp_path / "out"
    assert run_cli("tune", scenario, "--out", out) == 4
    sol = json.loads((out / "solution.json").read_text(encoding="utf-8"))
    assert sol["feasible"] is False
    assert any("singular" in w for w in sol["warnings"])
    assert "Traceback" not in capsys.readouterr().err


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


def test_readme_usage_lines_run(configs_dir, tmp_path):
    readme = (configs_dir.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command-line usage", 1)[1].split("```bash", 1)[1].split("```", 1)[0]
    lines = [shlex.split(line, comments=True) for line in block.splitlines() if line.startswith("tuner ")]
    assert len(lines) >= 5
    for argv in lines:
        args = [
            configs_dir.parent / a if a.startswith("configs/") else tmp_path / a if a.startswith("out/") else a
            for a in argv[1:]
        ]
        assert run_cli(*args) == 0, argv


def test_sweep_outputs_are_deterministic(configs_dir, tmp_path):
    outs = []
    for name in ("one", "two"):
        out = tmp_path / name
        assert run_cli("sweep", configs_dir / "fig2a.json", "--steps", 5, "--out", out) == 0
        outs.append(out)
    for fname in ("spectra.csv", "peaks.csv"):
        assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()


# SHA-256 of every artifact the shipped scenarios produce under sweep, tune and
# calibrate. thermal is left out: the last digit of its sparse LU solve can
# differ by platform.
GOLDEN_DIGESTS = {
    ("sweep", "fig2a.json"): {
        "peaks.csv": "157cd89e2516953a87e7b8a1e9a4af7c3f338c5ddbf3ea6a5a71602ae6a340b0",
        "spectra.csv": "ddd53e5d9c6500db99cf90c63abc0a514b77dee69ee7d7f29a304960471b691d",
    },
    ("sweep", "fig3.json"): {
        "peaks.csv": "3816724ab4d3162a3a67cfac86e8b628aa82c710c33a0d4919a7630e4d64c50c",
        "spectra.csv": "a8ff34ab29b5d234175c406806970e2b1e7efba704399cb835c0f3577f56481c",
    },
    ("sweep", "fig4.json"): {
        "peaks.csv": "10e39bcc02e397e14305f687cbd48c084003219c14389cee7961c60870e2b7c5",
        "spectra.csv": "b4ed389d469bd789b9bfd97063d6adeef01a9f55f82330e0e1a48142d1472fa2",
    },
    ("sweep", "fig2a.json", "--refit"): {
        "peaks.csv": "3f5de1aa3fbbfa13b706dae6c1f0767d650ff9e42129a93277d5fbd9dee07ae5",
        "spectra.csv": "ddd53e5d9c6500db99cf90c63abc0a514b77dee69ee7d7f29a304960471b691d",
    },
    ("sweep", "fig3.json", "--refit"): {
        "peaks.csv": "8917d56c637b5a174f8f140a5e8d39c18347e91584cdbedc839a2f7597a803fd",
        "spectra.csv": "a8ff34ab29b5d234175c406806970e2b1e7efba704399cb835c0f3577f56481c",
    },
    ("sweep", "fig4.json", "--refit"): {
        "peaks.csv": "8bcba98fe9956f63ac79cc387d375095b103acd7612e2a3c96c2b23674ff5a28",
        "spectra.csv": "b4ed389d469bd789b9bfd97063d6adeef01a9f55f82330e0e1a48142d1472fa2",
    },
    ("tune", "fig4.json"): {
        "solution.json": "8f2af92107faa3d36f2da58d2168e7cdb9ef020d167665a87385bcdbe68897f9",
    },
    ("tune", "qd_pair.json"): {
        "solution.json": "d7dc18821e76b00cbf46357d74ab990cda3438c12343edc701f144ea6d3fcaef",
    },
    ("calibrate", "--anchors-file", "anchors_power.json"): {
        "calibration.json": "41eb23fe09094a2479251f7ec060902b23966b051c907254f5314a388708ec41",
    },
    ("calibrate", "--anchors-file", "anchors_temperature.json"): {
        "calibration.json": "14cadb537c3eb588d42011ee8ae0417adfc1cb28cb566e578407e8b315cee138",
    },
}


def test_shipped_artifacts_match_golden_digests(configs_dir, tmp_path):
    mismatched = []
    for k, (argv, digests) in enumerate(GOLDEN_DIGESTS.items()):
        out = tmp_path / str(k)
        args = [str(configs_dir / a) if a.endswith(".json") else a for a in argv]
        assert run_cli(*args, "--out", out) == 0, argv
        got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
        if got != digests:
            mismatched.append(" ".join(argv))
    assert not mismatched, f"artifacts changed: {mismatched}"
