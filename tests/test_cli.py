import errno
import hashlib
import json
import math
import os
import re
import shlex
import subprocess
import sys
import warnings

import numpy as np
import pytest

from conftest import field_csv_per_value
from qdtuner import cli, spectral, thermal
from qdtuner import config as cfg
from qdtuner.device import MEMBRANE, PAD, rasterize


def run_cli(*args):
    return cli.main([str(a) for a in args])


def read_rows(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def test_thermal_parses_each_config_file_once(configs_dir, tmp_path, monkeypatch):
    reads = []
    load_json = cfg._load_json

    def counted(path):
        reads.append(path.name)
        return load_json(path)

    monkeypatch.setattr(cfg, "_load_json", counted)
    assert run_cli("thermal", configs_dir / "fig1b.json", "--dx-um", 0.1, "--out", tmp_path / "out") == 0
    assert reads == ["fig1b.json", "device_w320.json"]


def test_thermal_parses_a_null_config_once(tmp_path, monkeypatch):
    # a file whose JSON is not an object is refused where it is read
    reads = []
    load_json = cfg._load_json

    def counted(path):
        reads.append(path.name)
        return load_json(path)

    monkeypatch.setattr(cfg, "_load_json", counted)
    (tmp_path / "null.json").write_text("null", encoding="utf-8")
    assert run_cli("thermal", tmp_path / "null.json", "--out", tmp_path / "out") == 2
    assert reads == ["null.json"]


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
    # a valid input that the chord steps do not settle within the solver's
    # fixed 200 steps: kappa ~ T^8 at 10 mW
    device = json.loads((configs_dir / "device_w320.json").read_text(encoding="utf-8"))
    device["material"]["exponent"] = 8.0
    path = tmp_path / "d.json"
    path.write_text(json.dumps(device), encoding="utf-8")
    out = tmp_path / "out"
    code = run_cli("thermal", path, "--power-abs-mw", 10, "--dx-um", 0.1, "--out", out)
    assert code == 3
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert report["converged"] is False


def test_thermal_stopping_rule_is_no_setting(configs_dir, tmp_path, capsys):
    # the solver's defaults are the one stopping rule: no flag sets it, and a
    # thermal block that names it is refused as any unknown key is
    with pytest.raises(SystemExit):
        run_cli("thermal", "--help")
    usage = capsys.readouterr().out
    assert "--tol" not in usage and "--max-iter" not in usage
    fig1b = json.loads((configs_dir / "fig1b.json").read_text(encoding="utf-8"))
    for key, value in (("tol", 1e-06), ("max_iter", 200)):
        path = tmp_path / f"{key}.json"
        raw = {**fig1b, "device": str(configs_dir / fig1b["device"]), "thermal": {**fig1b["thermal"], key: value}}
        path.write_text(json.dumps(raw), encoding="utf-8")
        assert run_cli("thermal", path, "--out", tmp_path / "out") == 2
        assert capsys.readouterr().err == f"config error: {path}: thermal: unknown keys ['{key}']\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "x_um, y_um, dx_um",
    # on the membrane's bottom edge, between a void and a membrane row; on it
    # above a bridge; and above the 3.84 um that 12 rows of 0.32 um cover
    [(10.0, 0.0, 0.1), (6.0, 0.0, 0.1), (10.0, 3.9, 0.32)],
)
def test_thermal_cavity_k_is_read_on_the_membrane(configs_dir, tmp_path, x_um, y_um, dx_um):
    device = json.loads((configs_dir / "device_w320_cavity.json").read_text(encoding="utf-8"))
    device["cavity"].update(x_um=x_um, y_um=y_um)
    path = tmp_path / "d.json"
    path.write_text(json.dumps(device), encoding="utf-8")
    out = tmp_path / "out"
    assert run_cli("thermal", path, "--power-abs-mw", 0.01, "--dx-um", dx_um, "--out", out) == 0
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    grid = rasterize(cfg.load_device(path).layout, dx_um, absorbed_power_w=1e-5, t_bath_k=report["bath_k"])
    field, _ = thermal.solve_steady_state(grid)
    on_membrane = np.isin(grid.kind, (MEMBRANE, PAD))
    distance = np.hypot(*np.meshgrid(grid.cell_x_um() - x_um, grid.cell_y_um() - y_um))
    nearest = np.argmin(np.where(on_membrane, distance, np.inf))
    assert report["cavity_k"] == float(format(field.t_k.flat[nearest], ".9g"))


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--power-abs-mw", "1e300"),
        ("--power-abs-mw", "1e200"),
        ("--bath-k", "1e150"),
    ],
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
        # the solver's stopping rule is no setting: a thermal block with tol is an unknown key
        pytest.param(["thermal", "{tmp}/tol_one.json"], id="thermal-json-tol-1"),
        _thermal_flag("--bath-k", "nan"),
        _thermal_flag("--bath-k", "inf"),
        _thermal_flag("--bath-k", "-5"),
        # the bath's square overflows, or underflows to 0
        _thermal_flag("--bath-k", "1e300"),
        _thermal_flag("--bath-k", "1e308"),
        _thermal_flag("--bath-k", "1e-300"),
        _thermal_flag("--dx-um", "nan"),
        _thermal_flag("--dx-um", "5e-324"),
        pytest.param(["thermal", "{tmp}/body_scale_0.json", "--dx-um", "0.1"], id="thermal-json-body_scale-0"),
        pytest.param(["thermal", "{tmp}/body_scale_-1.json", "--dx-um", "0.1"], id="thermal-json-body_scale--1"),
        pytest.param(["thermal", "{tmp}/sigma_0.json", "--dx-um", "0.1"], id="thermal-json-gaussian-sigma_um-0"),
        pytest.param(["sweep", "{configs}/fig2a.json", "--power-max", "nan"], id="sweep--power-max-nan"),
        pytest.param(["sweep", "{configs}/fig2a.json", "--power-max", "inf"], id="sweep--power-max-inf"),
        pytest.param(["tune", "{configs}/fig4.json", "--tol-nm", "nan"], id="tune--tol-nm-nan"),
        pytest.param(["tune", "{configs}/fig4.json", "--tol-nm", "0"], id="tune--tol-nm-0"),
        pytest.param(["tune", "{configs}/fig4.json", "--min-q", "nan"], id="tune--min-q-nan"),
        # qd-to-qd tuning needs two structures; fig4 has one
        pytest.param(["tune", "{configs}/fig4.json", "--target", "qd-to-qd"], id="tune-qd-to-qd-one-structure"),
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
        # the quality floor is a cavity's, so qd-to-qd tuning takes none
        pytest.param(["tune", "{configs}/qd_pair.json", "--min-q", "1e9"], id="tune-qd-to-qd--min-q"),
        pytest.param(["tune", "{tmp}/pair_min_q.json"], id="tune-json-qd-to-qd-min_q"),
        # bridges wider than their 3 um spacing on the 12 um edge overlap
        pytest.param(["thermal", "{tmp}/wide_bridges.json", "--dx-um", "0.1"], id="thermal-json-bridges-3001nm"),
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
        pytest.param(["sweep", "{tmp}/surrogate.json"], id="sweep-json-qd-id-lone-surrogate"),
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
    pair = json.loads((configs_dir / "qd_pair.json").read_text(encoding="utf-8"))
    for s in pair["structures"]:
        s["device"] = str(configs_dir / s["device"])
    write("pair_min_q.json", {**pair, "tune": {**pair["tune"], "min_q": 1e9}})
    write("wide_bridges.json", _device_w320(configs_dir, width_nm=3001.0))
    write("t_ref.json", {"t_ref_k": -5, "power_anchors": [[0.0, 0.0], [3.0, 1.4]]})
    write("f0.json", {**scenario, "spectrum": {**scenario["spectrum"], "f0": 0.5}})
    fig1b = json.loads((configs_dir / "fig1b.json").read_text(encoding="utf-8"))
    write(
        "tol_one.json",
        {**fig1b, "device": str(configs_dir / fig1b["device"]), "thermal": {**fig1b["thermal"], "tol": 1}},
    )
    w320 = _device_w320(configs_dir)
    for scale in (0, -1):
        write(f"body_scale_{scale}.json", {**w320, "material": {**w320["material"], "body_scale": scale}})
    write("sigma_0.json", {**w320, "pad": {**w320["pad"], "profile": "gaussian", "sigma_um": 0}})
    (tmp_path / "latin1.json").write_bytes(b'{"device": "\xff"}')
    device = json.loads((configs_dir / "device_w320_two_qds.json").read_text(encoding="utf-8"))
    write("fwhm_device.json", {**device, "qds": [{**device["qds"][0], "fwhm0_nm": -1}]})
    write("fwhm.json", {**scenario, "device": "fwhm_device.json"})
    write("q0_device.json", {**device, "cavity": {**device["cavity"], "q0": -9000}})
    write("q0.json", {**scenario, "device": "q0_device.json"})
    # json.load accepts a lone surrogate, which no UTF-8 artifact can hold
    write("surrogate_device.json", {**device, "qds": [device["qds"][0], {**device["qds"][1], "id": "\ud800"}]})
    write("surrogate.json", {**scenario, "device": "surrogate_device.json"})
    out = tmp_path / "out"
    argv = [a.format(configs=configs_dir, tmp=tmp_path) for a in argv]
    code = run_cli(*argv, "--out", out)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert "Traceback" not in err
    assert not out.exists()


def _device_w320(configs_dir, **bridges):
    device = json.loads((configs_dir / "device_w320.json").read_text(encoding="utf-8"))
    return {**device, "bridges": {**device["bridges"], **bridges}}


def test_bridges_as_wide_as_their_spacing_are_solved(configs_dir, tmp_path):
    # the bound of the overlap rule: three bridges every 3 um, each 3 um wide
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(_device_w320(configs_dir, width_nm=3000.0)), encoding="utf-8")
    assert run_cli("thermal", path, "--dx-um", 0.1, "--power-abs-mw", 0.02, "--out", tmp_path / "out") == 0


def test_bath_rule_is_one_for_file_and_flag(configs_dir, tmp_path, capsys):
    # fig1b has no calibration block: the rule names bath_k, from either source
    fig1b = json.loads((configs_dir / "fig1b.json").read_text(encoding="utf-8"))
    path = tmp_path / "bath.json"
    rule = "bath_k must be positive, its square a positive finite float, got 1e+300"
    raw = {**fig1b, "device": str(configs_dir / fig1b["device"]), "bath_k": 1e300}
    path.write_text(json.dumps(raw), encoding="utf-8")
    assert run_cli("thermal", path, "--dx-um", 0.1, "--out", tmp_path / "a") == 2
    assert capsys.readouterr().err == f"config error: {path}: {rule}\n"
    argv = ["thermal", configs_dir / "fig1b.json", "--dx-um", 0.1, "--bath-k", 1e300, "--out", tmp_path / "b"]
    assert run_cli(*argv) == 2
    assert capsys.readouterr().err == f"config error: {rule}\n"


def test_out_naming_a_file_is_config_error(configs_dir, tmp_path, capsys):
    out = tmp_path / "out"
    out.write_text("keep", encoding="utf-8")
    assert run_cli("tune", configs_dir / "fig4.json", "--out", out) == 2
    assert capsys.readouterr().err.startswith("config error:")
    assert out.read_text(encoding="utf-8") == "keep"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out"]


@pytest.mark.parametrize(
    "argv, artifact",
    [
        (("thermal", "device_w320.json", "--dx-um", "0.1", "--power-abs-mw", "0.01"), "field.csv"),
        (("sweep", "fig2a.json"), "spectra.csv"),
        (("tune", "fig4.json"), "solution.json"),
        (("calibrate", "--anchors-file", "anchors_temperature.json"), "calibration.json"),
    ],
    ids=["thermal", "sweep", "tune", "calibrate"],
)
def test_unwritable_artifact_is_config_error(configs_dir, tmp_path, capsys, argv, artifact):
    out = tmp_path / "out"
    (out / artifact).mkdir(parents=True)
    args = [configs_dir / a if a.endswith(".json") else a for a in argv]
    assert run_cli(*args, "--out", out) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert str(out / artifact) in err
    assert (out / artifact).is_dir()


@pytest.mark.parametrize("name", ["device_w320.json", "device_w800.json"])
@pytest.mark.parametrize("dx_um", [0.32, 0.064])
def test_thermal_at_a_half_integer_membrane_width_converges(configs_dir, tmp_path, capsys, name, dx_um):
    # the 4 um membrane is 12.5 and 62.5 cells wide, which round to 12 and 62
    out = tmp_path / "out"
    assert run_cli("thermal", configs_dir / name, "--dx-um", dx_um, "--out", out) == 0
    assert json.loads((out / "report.json").read_text(encoding="utf-8"))["converged"] is True
    assert "Traceback" not in capsys.readouterr().err


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


@pytest.mark.parametrize("dx_um", [0.1, 0.05])
@pytest.mark.parametrize("name", ["device_w320.json", "device_w800.json"])
def test_thermal_field_csv_is_the_per_value_formatting_of_the_solve(configs_dir, tmp_path, name, dx_um):
    # a shipped device's field is its own up-down mirror, so its field.csv
    # takes the writer's mirrored path; an independent formatter checks it
    device, bath_k, _ = cfg.load_device_or_scenario(configs_dir / name)
    for power_mw in (0.005, 0.02):
        out = tmp_path / str(power_mw)
        argv = ("thermal", configs_dir / name, "--dx-um", dx_um, "--power-abs-mw", power_mw, "--out", out)
        assert run_cli(*argv) == 0
        grid = rasterize(device.layout, dx_um, absorbed_power_w=power_mw * 1e-3, t_bath_k=bath_k)
        field, _ = thermal.solve_steady_state(grid)
        assert field.t_k.tobytes() == field.t_k[::-1].tobytes()
        assert (out / "field.csv").read_bytes() == field_csv_per_value(grid, field.t_k)


@pytest.mark.parametrize(
    "exponent, cause", [(-1.0, "it overflows a float"), (-1.5, "the bridges saturate below this power")]
)
def test_thermal_without_a_lumped_island_writes_its_outputs(
    configs_dir, tmp_path, capsys, exponent, cause
):
    # at 10 mW the lumped island has no temperature: for kappa ~ 1/T it
    # overflows a float, below exponent -1 the bridges saturate. The report
    # says so with a null, and the solve alone decides the exit code.
    device = json.loads((configs_dir / "device_w320.json").read_text(encoding="utf-8"))
    device["material"]["exponent"] = exponent
    path = tmp_path / "d.json"
    path.write_text(json.dumps(device), encoding="utf-8")
    out = tmp_path / "out"
    code = run_cli("thermal", path, "--power-abs-mw", 10, "--dx-um", 0.1, "--out", out)
    assert (out / "field.csv").exists()
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert report["lumped_island_k"] is None
    assert code == (0 if report["converged"] else 3)
    # the hottest cell is a pad cell even when the field nears the float limit
    assert report["pad_peak_k"] == report["max_k"]
    assert f"warning: lumped model: no island temperature: {cause}\n" in capsys.readouterr().err


@pytest.mark.parametrize("exponent", [-1.5, -1.25])
def test_thermal_saturated_field_has_no_cell_below_the_bath(configs_dir, tmp_path, exponent):
    # below exponent -1 the Kirchhoff variable saturates, so at 10 mW no
    # steady state exists; 1 / (p + 1) is even here, so the power law alone
    # would map a saturated U to a temperature near 0 K
    device = json.loads((configs_dir / "device_w320.json").read_text(encoding="utf-8"))
    device["material"]["exponent"] = exponent
    path = tmp_path / "d.json"
    path.write_text(json.dumps(device), encoding="utf-8")
    out = tmp_path / "out"
    assert run_cli("thermal", path, "--power-abs-mw", 10, "--dx-um", 0.1, "--out", out) == 3
    field = np.loadtxt(out / "field.csv", delimiter=",", skiprows=1)
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert report["converged"] is False
    assert field.shape[0] == report["n_cells_active"]
    assert field[:, 2].min() >= report["bath_k"]


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


@pytest.mark.parametrize(
    "name, qd_ids",
    [
        pytest.param("fig4.json", ["NOPE"], id="qd-to-cavity-unknown-id"),
        pytest.param("qd_pair.json", ["QD1", "NOPE"], id="qd-to-qd-unknown-id"),
        pytest.param("qd_pair.json", ["QD1"], id="qd-to-qd-too-few-ids"),
        pytest.param("qd_pair.json", ["QD1", "QD1", "QD1"], id="qd-to-qd-too-many-ids"),
        pytest.param("fig4.json", ["QD1", "QD2"], id="qd-to-cavity-two-ids"),
        pytest.param("fig4.json", ["QD1", "NOPE"], id="qd-to-cavity-extra-unknown-id"),
    ],
)
def test_tune_dot_selection_has_one_path(configs_dir, tmp_path, capsys, name, qd_ids):
    # the same bad ids as the file's tune.qd_ids and as --qd-id flags: exit 2,
    # one message (the file's after its path) and nothing written
    raw = json.loads((configs_dir / name).read_text(encoding="utf-8"))
    for s in [raw, *raw.get("structures", [])]:
        if "device" in s:
            s["device"] = str(configs_dir / s["device"])
    raw["tune"]["qd_ids"] = qd_ids
    scenario = tmp_path / name
    scenario.write_text(json.dumps(raw), encoding="utf-8")
    capsys.readouterr()
    assert run_cli("tune", scenario, "--out", tmp_path / "file") == 2
    from_file = capsys.readouterr().err
    flags = [a for qd_id in qd_ids for a in ("--qd-id", qd_id)]
    assert run_cli("tune", configs_dir / name, *flags, "--out", tmp_path / "flags") == 2
    from_flags = capsys.readouterr().err
    assert from_flags.startswith("config error: ")
    assert from_file == from_flags.replace("config error: ", f"config error: {scenario}: ", 1)
    assert not (tmp_path / "file").exists() and not (tmp_path / "flags").exists()


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


@pytest.mark.parametrize("crosstalk", [True, False], ids=["crosstalk", "independent"])
def test_tune_cavity_pair(configs_dir, tmp_path, crosstalk):
    # two structures that heat each other, each dot onto the cavity of its own structure
    raw = json.loads((configs_dir / "cavity_pair.json").read_text(encoding="utf-8"))
    for s in raw["structures"]:
        s["device"] = str(configs_dir / s["device"])
    if not crosstalk:
        raw["crosstalk_k2_per_mw"] = None
    scenario = tmp_path / "s.json"
    scenario.write_text(json.dumps(raw), encoding="utf-8")
    out = tmp_path / "out"
    assert run_cli("tune", scenario, "--out", out) == 0
    sol = json.loads((out / "solution.json").read_text(encoding="utf-8"))
    assert sol["feasible"] is True and sol["iterations"] == 1
    assert all(abs(d) <= 1e-6 for d in sol["detunings_nm"].values()) and len(sol["detunings_nm"]) == 2
    # QD1 and QD2 of device_w320_two_qds.json are 0.25 and 0.35 nm blue of
    # the cavity; without crosstalk each power is its own closed form
    alpha = spectral.DEFAULT_ALPHA_NM_PER_K2
    closed = {sid: d / (1.0 - 1.0 / spectral.DEFAULT_SHIFT_RATIO) / alpha / beta
              for sid, d, beta in (("A", 0.25, 400.0), ("B", 0.35, 350.0))}
    for sid, p in sol["powers_mw"].items():
        if crosstalk:  # the other structure's heat does part of the work
            assert 0.0 < p < closed[sid]
        else:
            assert math.isclose(p, closed[sid], rel_tol=1e-8)


def test_tune_cavity_pair_with_a_red_dot_exits_4(configs_dir, tmp_path, capsys):
    device = json.loads((configs_dir / "device_w320_two_qds.json").read_text(encoding="utf-8"))
    device["qds"][1]["lambda0_nm"] = 930.1  # QD2, red of the 930.0 cavity
    (tmp_path / "red.json").write_text(json.dumps(device), encoding="utf-8")
    raw = json.loads((configs_dir / "cavity_pair.json").read_text(encoding="utf-8"))
    raw["structures"][0]["device"] = str(configs_dir / raw["structures"][0]["device"])
    raw["structures"][1]["device"] = "red.json"
    (tmp_path / "s.json").write_text(json.dumps(raw), encoding="utf-8")
    out = tmp_path / "out"
    capsys.readouterr()
    assert run_cli("tune", tmp_path / "s.json", "--out", out) == 4
    sol = json.loads((out / "solution.json").read_text(encoding="utf-8"))
    assert sol["feasible"] is False and sol["powers_mw"] == {"A": 0.0, "B": 0.0}
    assert sol["warnings"] == ["unreachable: the dot on 'B' is red of its cavity and both shift further red"]
    assert capsys.readouterr().err == f"warning: {sol['warnings'][0]}\n"


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["thermal", "{configs}/qd_pair.json", "--dx-um", "0.1"], id="thermal"),
        pytest.param(["sweep", "{configs}/qd_pair.json"], id="sweep"),
    ],
)
def test_a_one_structure_command_refuses_several(configs_dir, tmp_path, capsys, argv):
    # thermal and sweep read one structure; given two, they once read the
    # first and ignored the other (tuning takes several: test_tune_pair_decoupled
    # and test_tune_cavity_pair)
    out = tmp_path / "out"
    assert run_cli(*[a.format(configs=configs_dir) for a in argv], "--out", out) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "the scenario has 2" in err
    assert not out.exists()


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


def test_top_level_calibration_beside_structures_is_refused(configs_dir, tmp_path, capsys):
    raw = json.loads((configs_dir / "qd_pair.json").read_text(encoding="utf-8"))
    for s in raw["structures"]:
        s["device"] = str(configs_dir / s["device"])
    scenario = tmp_path / "s.json"
    raw["calibration"] = None  # a null one stays allowed
    scenario.write_text(json.dumps(raw), encoding="utf-8")
    assert run_cli("tune", scenario, "--out", tmp_path / "null") == 0
    raw["calibration"] = {"beta_k2_per_mw": 1e-9}
    scenario.write_text(json.dumps(raw), encoding="utf-8")
    capsys.readouterr()
    assert run_cli("tune", scenario, "--out", tmp_path / "out") == 2
    message = "a top-level calibration needs 'device'; each structure has its own"
    assert capsys.readouterr().err == f"config error: {scenario}: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "key, value",
    [("power_anchors", "not even numbers"), ("temperature_anchors", [[40.0, 1.8], [50.0, 2.9]])],
)
def test_top_level_anchors_beside_structures_are_refused(tmp_path, capsys, key, value):
    anchors = tmp_path / "a.json"
    raw = {"structures": {"A": {"power_anchors": [[0.0, 0.0], [3.0, 1.4]]}}, key: value}
    anchors.write_text(json.dumps(raw), encoding="utf-8")
    capsys.readouterr()
    assert run_cli("calibrate", "--anchors-file", anchors, "--out", tmp_path / "out") == 2
    message = "top-level anchors cannot sit beside 'structures'; each structure has its own"
    assert capsys.readouterr().err == f"config error: {anchors}: {message}\n"
    assert not (tmp_path / "out").exists()


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


def test_calibrate_per_structure_anchors(tmp_path):
    anchors = tmp_path / "a.json"
    raw = {
        "structures": {
            "B": {"power_anchors": [[0.0, 0.0], [3.0, 1.4]]},
            "A": {"temperature_anchors": [[10.0, 0.0], [40.0, 1.8]]},
        }
    }
    anchors.write_text(json.dumps(raw), encoding="utf-8")
    out = tmp_path / "out"
    assert run_cli("calibrate", "--anchors-file", anchors, "--out", out) == 0
    cal = json.loads((out / "calibration.json").read_text(encoding="utf-8"))["structures"]
    assert list(cal) == ["A", "B"]
    assert cal["A"]["mode"] == "temperature"
    assert math.isclose(cal["A"]["alpha_nm_per_k2"], 1.2e-3, rel_tol=1e-9)
    assert cal["B"]["mode"] == "power"
    assert math.isclose(cal["B"]["alpha_beta_nm_per_mw"], 1.4 / 3.0, rel_tol=1e-9)


@pytest.mark.parametrize(
    "structures, message",
    [
        ({}, "structures must be a non-empty object"),
        ([{"power_anchors": [[0.0, 0.0], [3.0, 1.4]]}], "structures must be a non-empty object"),
        (
            {"A": {"power_anchors": [[0.0, 0.0], [3.0, 1.4]], "temperature_anchors": [[10.0, 0.0], [40.0, 1.8]]}},
            "A: give exactly one of temperature_anchors or power_anchors",
        ),
        ({"A": {}}, "A: give exactly one of temperature_anchors or power_anchors"),
    ],
    ids=["empty", "list", "both-anchor-keys", "no-anchor-key"],
)
def test_calibrate_bad_structures_are_refused(tmp_path, capsys, structures, message):
    anchors = tmp_path / "a.json"
    anchors.write_text(json.dumps({"structures": structures}), encoding="utf-8")
    assert run_cli("calibrate", "--anchors-file", anchors, "--out", tmp_path / "out") == 2
    assert capsys.readouterr().err == f"config error: {anchors}: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("where", ["flag", "file"])
def test_calibrate_refuses_a_beta_that_overflows(configs_dir, tmp_path, capsys, where):
    # an alpha that passes the positive check, but beta = slope / alpha is inf
    anchors, flags = configs_dir / "anchors_power.json", ["--alpha", "1e-310"]
    if where == "file":
        raw = json.loads(anchors.read_text(encoding="utf-8"))
        anchors, flags = tmp_path / "a.json", []
        anchors.write_text(json.dumps({**raw, "alpha_nm_per_k2": 5e-324}), encoding="utf-8")
    capsys.readouterr()
    assert run_cli("calibrate", "--anchors-file", anchors, *flags, "--out", tmp_path / "out") == 2
    alpha = "1e-310" if where == "flag" else "4.94066e-324"
    assert capsys.readouterr().err == (
        f"config error: {anchors}: main: beta = slope / alpha overflows at alpha {alpha} nm/K^2\n"
    )
    assert not (tmp_path / "out").exists()


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
# calibrate. thermal is left out: the last bits of its dense numpy/BLAS
# products can differ by platform.
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
        "solution.json": "598069aa2df68a764854e2c5ece6016672a32906fd77c169c5a514871084eace",
    },
    ("tune", "qd_pair.json"): {
        "solution.json": "d7dc18821e76b00cbf46357d74ab990cda3438c12343edc701f144ea6d3fcaef",
    },
    ("tune", "cavity_pair.json"): {
        "solution.json": "f8ace54dfea9464c917de42e6ebce94dd86f5dd74ebb8814dd33592b890d9d39",
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


def _spectra_digest(out):
    return hashlib.sha256((out / "spectra.csv").read_bytes()).hexdigest()


def test_a_large_sweep_on_two_cpus_writes_spectra_csv_without_forking(configs_dir, tmp_path, monkeypatch):
    # 280,000 rows: one process streams them, whatever CPUs it may use
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("tuner sweep forked"))
    out = tmp_path / "out"
    assert run_cli("sweep", configs_dir / "fig4.json", "--out", out) == 0
    assert _spectra_digest(out) == GOLDEN_DIGESTS[("sweep", "fig4.json")]["spectra.csv"]


def _artifacts(out):
    return {p.name: p.read_bytes() for p in out.iterdir()}


def _args(configs_dir, argv):
    return [configs_dir / a if a.endswith(".json") else a for a in argv]


@pytest.mark.parametrize(
    "before, argv",
    [
        (("thermal", "device_w320.json", "--dx-um", "0.05"), ("thermal", "device_w320.json", "--dx-um", "0.1")),
        (("sweep", "fig2a.json"), ("sweep", "fig2a.json", "--steps", "5")),
        (("tune", "qd_pair.json"), ("tune", "fig4.json")),
        (
            ("calibrate", "--anchors-file", "anchors_power.json"),
            ("calibrate", "--anchors-file", "anchors_temperature.json"),
        ),
    ],
    ids=["thermal", "sweep", "tune", "calibrate"],
)
def test_rerun_over_longer_artifacts_writes_a_fresh_run_s_bytes(configs_dir, tmp_path, before, argv):
    fresh, out = tmp_path / "fresh", tmp_path / "out"
    assert run_cli(*_args(configs_dir, argv), "--out", fresh) == 0
    assert run_cli(*_args(configs_dir, before), "--out", out) == 0
    want, old = _artifacts(fresh), _artifacts(out)
    assert old.keys() == want.keys()
    assert all(len(old[name]) > len(want[name]) for name in want)
    assert run_cli(*_args(configs_dir, argv), "--out", out) == 0
    assert _artifacts(out) == want


@pytest.mark.parametrize(
    "argv",
    [
        ("thermal", "device_w320.json", "--dx-um", "0.1", "--power-abs-mw", "0.01"),
        ("sweep", "fig2a.json"),
        ("tune", "fig4.json"),
        ("calibrate", "--anchors-file", "anchors_temperature.json"),
    ],
    ids=["thermal", "sweep", "tune", "calibrate"],
)
def test_no_artifact_is_opened_with_o_trunc(configs_dir, tmp_path, monkeypatch, argv):
    # truncating an existing file to zero costs more than rewriting it in
    # place; every artifact must reach os.open, so a plain open(p, "wb"),
    # which does not, fails here too
    out = tmp_path / "out"
    opened, os_open = {}, os.open

    def recorded_open(path, flags, *args, **kwargs):
        opened[os.fspath(path)] = flags
        return os_open(path, flags, *args, **kwargs)

    monkeypatch.setattr(os, "open", recorded_open)
    assert run_cli(*_args(configs_dir, argv), "--out", out) == 0
    written = {str(p): p.name for p in out.iterdir()}
    assert written and written.keys() <= opened.keys()
    assert [name for path, name in written.items() if opened[path] & os.O_TRUNC] == []


def _enospc_after(first):
    yield first
    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


def test_a_write_that_fails_part_way_keeps_only_the_new_bytes(tmp_path):
    path = tmp_path / "artifact.csv"
    path.write_bytes(b"old artifact\n" * 10_000)
    with pytest.raises(cfg.ConfigError, match=re.escape(str(path))):
        cfg.write_bytes(_enospc_after(b"new bytes\n"), path)
    assert path.read_bytes() == b"new bytes\n"


@pytest.mark.parametrize(
    "argv, artifact",
    [(("tune", "fig4.json"), "solution.json"), (("sweep", "fig2a.json"), "spectra.csv")],
    ids=["tune", "sweep"],
)
def test_an_artifact_linked_to_dev_null_is_written_there(configs_dir, tmp_path, argv, artifact):
    # /dev/null cannot be cut: the writer cuts regular files only
    out = tmp_path / "out"
    out.mkdir()
    (out / artifact).symlink_to(os.devnull)
    assert run_cli(*_args(configs_dir, argv), "--out", out) == 0
    assert os.readlink(out / artifact) == os.devnull
    if argv[0] == "sweep":
        assert (out / "peaks.csv").stat().st_size > 0


# Runs one command in a fresh interpreter and prints its exit code and whether
# it loaded scipy and qdtuner.thermal. pytest's warning filters import
# scipy.sparse.linalg, so no in-process check can see a cold start.
_COLD_RUN = """
import sys
from qdtuner import cli
code = cli.main(sys.argv[1:])
print(code, "scipy" in sys.modules, "qdtuner.thermal" in sys.modules)
"""


@pytest.mark.parametrize(
    "argv",
    [
        ("tune", "fig4.json"),
        ("sweep", "fig2a.json"),
        ("calibrate", "--anchors-file", "anchors_temperature.json"),
        ("thermal", "device_w320.json", "--dx-um", "0.1", "--power-abs-mw", "0.01"),
        ("thermal", "device_w800.json", "--dx-um", "0.05"),
        ("thermal", "fig1b.json", "--dx-um", "0.05"),
    ],
    ids=["tune", "sweep", "calibrate", "thermal", "thermal-w800-dx0.05", "thermal-fig1b-dx0.05"],
)
def test_only_a_thermal_solve_imports_scipy(configs_dir, tmp_path, argv):
    # no command loads scipy: a rasterized device's thermal solve runs on
    # numpy alone, and only a grid of another shape (a bar, a hand-edited
    # grid) imports scipy's sparse stack where it factors and checks it.
    # thermal itself stays loaded: it is cheap to import without scipy
    args = [str(configs_dir / a) if a.endswith(".json") else a for a in argv]
    run = subprocess.run(
        [sys.executable, "-c", _COLD_RUN, *args, "--out", str(tmp_path / "out")],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(configs_dir.parent / "src")},
    )
    assert run.stdout.split() == ["0", "False", "True"], run.stderr
