"""Acceptance suite: locks the calibration anchors, scaling laws, solver
correctness and output determinism of the whole package.

Each criterion prints one PASS/FAIL line (run pytest with -s to see them all).
"""

import contextlib
import json
import math

import numpy as np
import pytest

from conftest import bar_end_temperature_analytic, bar_grid
from qdtuner import cli, spectral
from qdtuner.config import load_scenario
from qdtuner.control import (
    POWER_ANCHOR_MW,
    SHIFT_ANCHOR_NM,
    Crosstalk,
    PowerMap,
    align_multi,
    align_qd_to_cavity,
    beta_for_width,
    calibrate_beta,
    temperature_from_power,
)
from qdtuner.device import default_layout
from qdtuner.spectral import CavityState, QDState, cavity_q, purcell_factor, qd_shift
from qdtuner.thermal import absorbed_power_for_temperature, solve_steady_state

QD = QDState("QD1", 927.0)
ALPHA = QD.alpha_nm_per_k2
# the map of a scenario whose calibration block is absent: the 1.4 nm @ 3 mW anchor
PM = PowerMap("main", 10.0, calibrate_beta(SHIFT_ANCHOR_NM, POWER_ANCHOR_MW, ALPHA))


def shift_at_power(pm: PowerMap, p_mw: float) -> float:
    """QD's shift at incident power p_mw, by sweep's forward model."""
    return qd_shift(QD, temperature_from_power(pm, p_mw), pm.t_bath_k)


@contextlib.contextmanager
def criterion(num: str, desc: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:>3} FAIL  {desc}")
        raise
    print(f"ACCEPTANCE {num:>3} PASS  {desc}")


def test_criterion_1_calibration_anchors():
    with criterion("1", "calibration anchors: 1.8 nm @ 40 K, 1.4 nm @ 3 mW, "
                        "0.48 nm cavity shift, Q 7600 -> 4900"):
        assert math.isclose(qd_shift(QD, 40.0, 10.0), 1.8, rel_tol=1e-12)
        assert math.isclose(shift_at_power(PM, 3.0), 1.4, rel_tol=1e-12)

        cav = CavityState(942.0, q0=7600.0)
        cavity_shift = spectral.cavity_wavelength(cav, temperature_from_power(PM, 3.0), 10.0) - 942.0
        assert abs(cavity_shift - 0.48) <= 0.005

        assert cavity_q(cav, 10.0, 10.0) == 7600.0
        t_anchor = temperature_from_power(PM, 3.0)
        assert abs(cavity_q(cav, t_anchor, 10.0) - 4900.0) <= 1.0


def test_criterion_2_width_scaling():
    with criterion("2", "width scaling: shift ratio 2.65 (measured) and 2.5 (geometric)"):
        beta = PM.beta_k2_per_mw
        pm_800_meas = PowerMap("w800", 10.0, beta_for_width(beta, 320.0, 800.0, "measured"))
        pm_800_geo = PowerMap("w800", 10.0, beta_for_width(beta, 320.0, 800.0, "geometric"))
        for p in (0.5, 1.0, 3.0):
            r_meas = shift_at_power(PM, p) / shift_at_power(pm_800_meas, p)
            r_geo = shift_at_power(PM, p) / shift_at_power(pm_800_geo, p)
            assert abs(r_meas - 2.65) <= 1e-6
            assert abs(r_geo - 2.5) <= 1e-12
        assert 800.0 / 320.0 == 2.5  # conductance ratio equals the width ratio exactly


def test_criterion_3_linearity():
    with criterion("3", "linearity: shift exactly linear in P and in T^2 - T_ref^2"):
        slope_ref = ALPHA * PM.beta_k2_per_mw
        for p in np.linspace(0.05, 3.0, 60):
            slope = shift_at_power(PM, float(p)) / p
            assert abs(slope / slope_ref - 1.0) < 1e-12
        for t in np.linspace(10.5, 40.0, 60):
            coeff = qd_shift(QD, float(t), 10.0) / (t**2 - 100.0)
            assert abs(coeff / ALPHA - 1.0) < 1e-12


def test_criterion_4a_one_dimensional_oracle():
    with criterion("4a", "thermal solver matches the closed-form bar solution within 1%"):
        grid = bar_grid(64, 1.5e-6)
        field, report = solve_steady_state(grid, tol=1e-10, max_iter=500)
        assert report.converged
        t_exact = bar_end_temperature_analytic(grid, 1.5e-6)
        assert abs(field.t_k[0, -1] - t_exact) / (t_exact - 10.0) < 0.01


@pytest.fixture(scope="module")
def fig1b_report(configs_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("fig1b")
    code = cli.main(["thermal", str(configs_dir / "fig1b.json"), "--out", str(out)])
    assert code == 0
    return json.loads((out / "report.json").read_text(encoding="utf-8"))


def test_criterion_4b_energy_residual_on_shipped_scenarios(configs_dir, fig1b_report, tmp_path):
    with criterion("4b", "energy residual at most 1e-3 on the shipped thermal scenarios"):
        assert fig1b_report["residual"] <= 1e-3
        out = tmp_path / "w800"
        code = cli.main([
            "thermal", str(configs_dir / "device_w800.json"),
            "--power-abs-mw", "0.01", "--dx-um", "0.1", "--out", str(out),
        ])
        assert code == 0
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        assert report["residual"] <= 1e-3


def test_criterion_4c_convergence_order():
    with criterion("4c", "observed mesh-convergence order at least 1.8"):
        errors = []
        for n in (64, 128, 256):
            p = 1.5e-6 * 64 / n  # fixed flux density on the one-cell-wide bar
            grid = bar_grid(n, p)
            field, report = solve_steady_state(grid, tol=1e-11, max_iter=800)
            assert report.converged
            errors.append(abs(field.t_k[0, -1] - bar_end_temperature_analytic(grid, p)))
        orders = [math.log2(errors[k] / errors[k + 1]) for k in range(2)]
        assert min(orders) >= 1.8


def test_criterion_4d_pad_temperature_band(fig1b_report):
    with criterion("4d", "0.01 mW scenario: pad temperature in the 15-80 K band, "
                         "lumped value reported alongside"):
        assert 15.0 <= fig1b_report["pad_mean_k"] <= 80.0
        assert 15.0 <= fig1b_report["pad_peak_k"] <= 80.0
        assert "lumped_island_k" in fig1b_report
        assert 15.0 <= fig1b_report["lumped_island_k"] <= 80.0


def test_criterion_5_inverse_solvers():
    with criterion("5", "inverse solvers: round trip 1e-9, quarter-nm alignment, "
                        "crosstalk solve matches linear algebra"):
        # tune's plan for one structure takes each shift back to its power
        p_top = QD.max_shift_nm / (ALPHA * PM.beta_k2_per_mw)
        for p in np.linspace(0.0, p_top, 100):
            target = QD.lambda0_nm + shift_at_power(PM, float(p))
            plan = align_multi([PM], None, [("main", QD, target)])
            assert plan.feasible
            assert abs(plan.powers_mw["main"] - p) <= 1e-9 * max(p, 1.0)

        cav = CavityState(930.0, q0=9000.0)
        qd = QDState("QD1", 929.75)
        solution = align_qd_to_cavity(PM, qd, cav, tol_nm=1e-6)
        closed_form = (0.25 / (1.0 - 1.0 / cav.shift_ratio)) / (ALPHA * PM.beta_k2_per_mw)
        assert abs(solution.powers_mw["main"] - closed_form) <= 1e-6
        assert solution.feasible and solution.residual_nm <= 1e-3

        beta = PM.beta_k2_per_mw
        maps = [PowerMap("A", 10.0, beta), PowerMap("B", 10.0, beta)]
        x = np.array([[beta, 0.1 * beta], [0.1 * beta, beta]])
        targets = [("A", QDState("a", 927.0), 927.5), ("B", QDState("b", 927.0), 927.5)]
        solution = align_multi(maps, Crosstalk(("A", "B"), x), targets, tol_nm=1e-9)
        expected = np.linalg.solve(x, np.array([0.5 / ALPHA, 0.5 / ALPHA]))
        assert solution.feasible
        assert abs(solution.powers_mw["A"] - expected[0]) <= 1e-9
        assert abs(solution.powers_mw["B"] - expected[1]) <= 1e-9


def test_criterion_6_resonance_brightening(configs_dir):
    with criterion("6", "power sweep: each dot peaks at its zero-detuning power with "
                        "the Purcell height ratio"):
        scenario = load_scenario(configs_dir / "fig4.json")
        structure = scenario.main
        pm = structure.power_map
        sp = scenario.spectrum
        cav = structure.device.cavity
        powers = np.linspace(
            scenario.sweep.power_min_mw, scenario.sweep.power_max_mw, scenario.sweep.steps
        )
        assert len(powers) == 200

        heights: dict[str, list[float]] = {q.qd_id: [] for q in structure.device.qd_states}
        for p in powers:
            t_k = temperature_from_power(pm, float(p))
            spec = spectral.synthesize_spectrum(
                structure.device.qd_states, cav, t_k, sp.window_nm, sp.samples,
                t_ref_k=pm.t_bath_k, f0=sp.f0,
                cavity_height=sp.cavity_height, baseline=sp.baseline,
            )
            for peak in spec.peaks:
                if peak.kind == "qd":
                    heights[peak.label].append(peak.height)

        for qd in structure.device.qd_states:
            delta0 = cav.lambda0_nm - qd.lambda0_nm
            p_star = (delta0 / (1.0 - 1.0 / cav.shift_ratio)) / (
                qd.alpha_nm_per_k2 * pm.beta_k2_per_mw
            )
            series = np.asarray(heights[qd.qd_id])
            nearest = int(np.argmin(np.abs(powers - p_star)))
            assert int(np.argmax(series)) == nearest

            f_initial = purcell_factor(
                qd.lambda0_nm, cav.lambda0_nm, cav.lambda0_nm / cav.q0, sp.f0
            )
            ratio = series[nearest] / series[0]
            assert abs(ratio - sp.f0 / f_initial) / (sp.f0 / f_initial) < 0.01


def test_criterion_7_absorbed_fraction_diagnostic():
    with criterion("7", "absorbed power for the 40 K full-shift point stays below 1% "
                        "of the 3 mW incident anchor"):
        layout = default_layout(bridge_width_nm=320.0)
        p_abs_w = absorbed_power_for_temperature(layout, 40.0, 10.0)
        fraction = p_abs_w / 3.0e-3
        assert fraction < 0.01


def test_criterion_8_deterministic_outputs(configs_dir, tmp_path):
    with criterion("8", "two runs of every shipped scenario produce byte-identical outputs"):
        runs = {
            "fig1b": ["thermal", str(configs_dir / "fig1b.json")],
            "fig2a": ["sweep", str(configs_dir / "fig2a.json")],
            "fig3": ["sweep", str(configs_dir / "fig3.json")],
            "fig4_sweep": ["sweep", str(configs_dir / "fig4.json")],
            "fig4_tune": ["tune", str(configs_dir / "fig4.json")],
            "qd_pair": ["tune", str(configs_dir / "qd_pair.json")],
            "cal_t": ["calibrate", "--anchors-file", str(configs_dir / "anchors_temperature.json")],
            "cal_p": ["calibrate", "--anchors-file", str(configs_dir / "anchors_power.json")],
        }
        for name, argv in runs.items():
            outs = []
            for attempt in ("a", "b"):
                out = tmp_path / f"{name}_{attempt}"
                code = cli.main(argv + ["--out", str(out)])
                assert code == 0, name
                outs.append(out)
            files_a = sorted(p.name for p in outs[0].iterdir())
            files_b = sorted(p.name for p in outs[1].iterdir())
            assert files_a == files_b and files_a, name
            for fname in files_a:
                assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes(), (
                    f"{name}/{fname} differs between runs"
                )
