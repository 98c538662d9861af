import math
import warnings

import numpy as np
import pytest

from qdtuner import control
from qdtuner.control import (
    Crosstalk,
    PowerMap,
    PowerRangeError,
    RolloffWarning,
    align_multi,
    align_qd_to_cavity,
    beta_for_width,
    calibrate_beta,
    default_power_map,
    power_for_shift,
    shift_from_power,
    temperature_from_power,
)
from qdtuner.spectral import CavityState, QDState, TuningRangeExceeded

QD = QDState("QD1", 927.0)
ALPHA = QD.alpha_nm_per_k2
PM = default_power_map()


def test_calibrate_beta_from_anchor():
    beta = calibrate_beta(1.4, 3.0, ALPHA)
    assert math.isclose(beta, 388.888888888889, rel_tol=1e-12)
    assert math.isclose(PM.beta_k2_per_mw, beta, rel_tol=1e-15)


def test_calibrate_beta_round_trip():
    beta = calibrate_beta(0.9, 2.2, ALPHA)
    pm = PowerMap("s", 10.0, beta)
    assert math.isclose(shift_from_power(pm, QD, 2.2), 0.9, rel_tol=1e-12)


def test_calibrate_beta_rejects_nonpositive_inputs():
    with pytest.raises(ValueError):
        calibrate_beta(0.0, 3.0, ALPHA)
    with pytest.raises(ValueError):
        calibrate_beta(1.4, -3.0, ALPHA)


def test_temperature_from_power_at_rest():
    assert temperature_from_power(PM, 0.0) == 10.0


def test_temperature_from_power_at_anchor():
    expected = math.sqrt(100.0 + 1.4 / ALPHA)  # about 35.59 K
    assert math.isclose(temperature_from_power(PM, 3.0), expected, rel_tol=1e-12)
    assert math.isclose(expected, 35.5903, abs_tol=1e-4)


def test_temperature_from_power_one_milliwatt():
    expected = math.sqrt(100.0 + PM.beta_k2_per_mw)
    assert math.isclose(temperature_from_power(PM, 1.0), expected, rel_tol=1e-12)
    assert math.isclose(expected, 22.1108, abs_tol=1e-4)


def test_temperature_from_power_rejects_out_of_range():
    with pytest.raises(PowerRangeError):
        temperature_from_power(PM, -0.1)
    with pytest.raises(PowerRangeError):
        temperature_from_power(PM, 4.5)


def test_temperature_strictly_increasing():
    temps = [temperature_from_power(PM, p) for p in np.linspace(0.0, 4.0, 30)]
    assert all(b > a for a, b in zip(temps, temps[1:]))


def test_shift_from_power_anchor_and_zero():
    assert shift_from_power(PM, QD, 0.0) == 0.0
    assert math.isclose(shift_from_power(PM, QD, 3.0), 1.4, rel_tol=1e-12)


def test_shift_from_power_wide_bridges():
    beta_800 = beta_for_width(PM.beta_k2_per_mw, 320.0, 800.0, calibration="measured")
    pm_800 = PowerMap("w800", 10.0, beta_800)
    assert math.isclose(shift_from_power(pm_800, QD, 3.0), 1.4 / 2.65, rel_tol=1e-12)
    assert math.isclose(1.4 / 2.65, 0.5283, abs_tol=1e-4)


def test_shift_from_power_exactly_linear():
    shifts = [shift_from_power(PM, QD, p) for p in np.linspace(0.1, 3.0, 30)]
    slopes = [s / p for s, p in zip(shifts, np.linspace(0.1, 3.0, 30))]
    ref = ALPHA * PM.beta_k2_per_mw
    assert all(abs(s - ref) <= 1e-12 * ref for s in slopes)


def test_shift_from_power_range_guard():
    with pytest.raises(TuningRangeExceeded):
        shift_from_power(PM, QD, 3.9)  # 1.82 nm, past the 1.8 nm limit


def test_power_for_shift_zero_target():
    assert power_for_shift(PM, QD, 0.0) == 0.0


def test_power_for_shift_anchor_target():
    assert math.isclose(power_for_shift(PM, QD, 1.4), 3.0, rel_tol=1e-12)


def test_power_for_shift_full_range_warns():
    with pytest.warns(RolloffWarning):
        p = power_for_shift(PM, QD, 1.8)
    assert math.isclose(p, 3.857142857142858, rel_tol=1e-12)
    # a forward round trip of this closed form lands one ulp past the 1.8 nm range
    with pytest.warns(RolloffWarning):
        p = power_for_shift(PowerMap("m", 10.0, 301.0, 10.0), QD, 1.8)
    assert p == 1.8 / (ALPHA * 301.0)


def test_power_for_shift_rejects_out_of_range_targets():
    with pytest.raises(TuningRangeExceeded, match="tuning range exceeded"):
        power_for_shift(PM, QD, 1.9)
    with pytest.raises(ValueError):
        power_for_shift(PM, QD, -0.2)
    tight = PowerMap("s", 10.0, PM.beta_k2_per_mw, p_max_mw=2.0)
    with pytest.raises(PowerRangeError):
        power_for_shift(tight, QD, 1.4)


def test_power_shift_round_trip():
    p_top = 1.8 / (ALPHA * PM.beta_k2_per_mw)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RolloffWarning)
        for p in np.linspace(0.0, p_top, 100):
            shift = shift_from_power(PM, QD, float(p))
            back = power_for_shift(PM, QD, shift)
            assert abs(back - p) <= 1e-9 * max(p, 1.0)


def test_width_scaling_ratios():
    assert control.GEOMETRIC_WIDTH_RATIO == 2.5
    beta_geo = beta_for_width(PM.beta_k2_per_mw, 320.0, 800.0, calibration="geometric")
    beta_meas = beta_for_width(PM.beta_k2_per_mw, 320.0, 800.0, calibration="measured")
    assert math.isclose(PM.beta_k2_per_mw / beta_geo, 2.5, rel_tol=1e-12)
    assert abs(PM.beta_k2_per_mw / beta_meas - 2.65) <= 1e-6
    with pytest.raises(ValueError):
        beta_for_width(PM.beta_k2_per_mw, 320.0, 800.0, calibration="nope")


def test_align_already_resonant():
    cav = CavityState(927.0, q0=9000.0)
    sol = align_qd_to_cavity(PM, QD, cav)
    assert sol.feasible
    assert sol.powers_mw["main"] == 0.0
    assert sol.residual_nm == 0.0


def test_align_quarter_nanometer_case():
    cav = CavityState(930.0, q0=9000.0)
    qd = QDState("QD1", 929.75)
    sol = align_qd_to_cavity(PM, qd, cav, tol_nm=1e-6)
    # closed form: dot shift = delta0 / (1 - 1/r), power = shift / (alpha beta)
    shift = 0.25 / (1.0 - 1.0 / 2.917)
    expected_p = shift / (ALPHA * PM.beta_k2_per_mw)
    assert math.isclose(sol.powers_mw["main"], expected_p, rel_tol=1e-12)
    assert math.isclose(expected_p, 0.8152, abs_tol=1e-4)
    assert sol.feasible and sol.residual_nm <= 1e-9
    assert sol.purcell is not None and math.isclose(sol.purcell, 5.0, rel_tol=1e-6)


def test_align_red_detuned_dot_unreachable():
    cav = CavityState(929.65, q0=9000.0)
    sol = align_qd_to_cavity(PM, QDState("QD1", 929.75), cav)
    assert not sol.feasible
    assert any("unreachable" in w for w in sol.warnings)
    assert sol.powers_mw["main"] == 0.0


def test_align_shift_beyond_range_unreachable():
    cav = CavityState(928.5, q0=9000.0)  # needs a 2.28 nm dot shift
    sol = align_qd_to_cavity(PM, QD, cav)
    assert not sol.feasible
    assert any("unreachable" in w for w in sol.warnings)


def test_align_power_beyond_limit_unreachable():
    roomy = QDState("QD1", 927.0, rolloff_shift_nm=4.0, max_shift_nm=5.0)
    cav = CavityState(928.5, q0=9000.0)
    sol = align_qd_to_cavity(PM, roomy, cav)
    assert not sol.feasible
    assert any("power" in w for w in sol.warnings)


def test_align_with_quality_floor():
    cav = CavityState(930.0, q0=9000.0)
    qd = QDState("QD1", 929.75)
    ok = align_qd_to_cavity(PM, qd, cav, min_q=5000.0)
    assert ok.feasible
    blocked = align_qd_to_cavity(PM, qd, cav, min_q=8900.0)
    assert not blocked.feasible
    assert any("quality factor" in w for w in blocked.warnings)
    # powers are identical; only the feasibility policy differs
    assert blocked.powers_mw == ok.powers_mw


def test_align_multi_decoupled_matches_closed_forms():
    maps = [PowerMap("A", 10.0, PM.beta_k2_per_mw), PowerMap("B", 10.0, PM.beta_k2_per_mw / 2.65)]
    qa = QDState("a", 927.0)
    qb = QDState("b", 927.3)
    targets = [("A", qa, 927.5), ("B", qb, 927.5)]
    sol = align_multi(maps, None, targets, tol_nm=1e-9)
    assert sol.feasible
    assert math.isclose(
        sol.powers_mw["A"], 0.5 / (ALPHA * maps[0].beta_k2_per_mw), rel_tol=1e-12
    )
    assert math.isclose(
        sol.powers_mw["B"], 0.2 / (ALPHA * maps[1].beta_k2_per_mw), rel_tol=1e-12
    )


def test_align_multi_with_crosstalk_matches_direct_solve():
    beta = PM.beta_k2_per_mw
    # weak coupling, and strong (0.9 * beta) coupling on three structures,
    # which Crosstalk.validate accepts and which has feasible powers
    for x in (
        beta * np.array([[1.0, 0.1], [0.1, 1.0]]),
        beta * (0.1 * np.eye(3) + 0.9 * np.ones((3, 3))),
    ):
        ids = tuple("ABC"[: len(x)])
        maps = [PowerMap(sid, 10.0, beta) for sid in ids]
        targets = [(sid, QDState(sid, 927.0), 927.5) for sid in ids]
        sol = align_multi(maps, Crosstalk(ids, x), targets, tol_nm=1e-9)
        assert sol.feasible
        assert sol.iterations == 1
        expected = np.linalg.solve(x, np.full(len(ids), 0.5 / ALPHA))
        for sid, p in zip(ids, expected):
            assert abs(sol.powers_mw[sid] - p) <= 1e-9
    assert all(math.isclose(p, 0.38265306, rel_tol=1e-8) for p in sol.powers_mw.values())
    # a singular block with every dot already at its target: P = 0 is exact
    x = 400.0 * np.array([[1.0, 0.75, 0.0], [0.75, 1.0, 0.875], [0.0, 0.5, 1.0]])
    maps = [PowerMap(sid, 10.0, 400.0) for sid in "ABC"]
    targets = [(sid, QDState(sid, 927.0), 927.0) for sid in "ABC"]
    sol = align_multi(maps, Crosstalk(tuple("ABC"), x), targets, tol_nm=1e-9)
    assert sol.feasible and sol.iterations == 0 and not sol.warnings
    assert all(p == 0.0 for p in sol.powers_mw.values())


def test_align_multi_untargeted_structure_stays_cold():
    maps = [PowerMap("A", 10.0, PM.beta_k2_per_mw), PowerMap("B", 10.0, PM.beta_k2_per_mw)]
    sol = align_multi(maps, None, [("A", QDState("a", 927.0), 927.4)], tol_nm=1e-9)
    assert sol.feasible
    assert sol.powers_mw["B"] == 0.0


def test_align_multi_infeasible_target():
    maps = [PowerMap("A", 10.0, PM.beta_k2_per_mw), PowerMap("B", 10.0, PM.beta_k2_per_mw)]
    targets = [("A", QDState("a", 927.0), 929.5)]  # 2.5 nm shift
    sol = align_multi(maps, None, targets)
    assert not sol.feasible
    assert any("infeasible chip plan" in w for w in sol.warnings)


def test_align_multi_rejects_duplicate_targets():
    maps = [PowerMap("A", 10.0, PM.beta_k2_per_mw)]
    qd = QDState("a", 927.0)
    with pytest.raises(ValueError, match="more than one target"):
        align_multi(maps, None, [("A", qd, 927.1), ("A", qd, 927.2)])


def test_crosstalk_validation():
    beta = PM.beta_k2_per_mw
    maps = [PowerMap("A", 10.0, beta), PowerMap("B", 10.0, beta)]
    with pytest.raises(ValueError, match="diagonal"):
        Crosstalk(("A", "B"), np.diag([beta, 0.5 * beta])).validate(maps)
    with pytest.raises(ValueError, match="off-diagonal"):
        Crosstalk(("A", "B"), np.array([[beta, beta], [0.0, beta]])).validate(maps)
    with pytest.raises(ValueError, match="off-diagonal"):
        Crosstalk(("A", "B"), np.array([[beta, -0.1], [0.0, beta]])).validate(maps)
    with pytest.raises(ValueError, match="off-diagonal"):
        Crosstalk(("A", "B"), np.array([[beta, np.nan], [0.0, beta]])).validate(maps)
    Crosstalk.diagonal(maps).validate(maps)


def test_power_map_invariants():
    with pytest.raises(ValueError):
        PowerMap("s", 10.0, -1.0)
    with pytest.raises(ValueError):
        PowerMap("s", 0.0, 388.9)


def test_absorbed_fraction_estimate():
    from qdtuner.device import default_layout

    fraction = control.absorbed_fraction_estimate(default_layout(), PM, QD)
    # lumped model: 90.72 uW absorbed for the 40 K full-shift point vs 3 mW incident
    assert math.isclose(fraction, 9.072e-5 / 3e-3, rel_tol=1e-9)
