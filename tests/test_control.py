import dataclasses
import hashlib
import math
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qdtuner import control
from qdtuner.control import (
    POWER_ANCHOR_MW,
    SHIFT_ANCHOR_NM,
    Crosstalk,
    PowerMap,
    PowerRangeError,
    align_multi,
    align_qd_to_cavity,
    beta_for_width,
    calibrate_beta,
    temperature_from_power,
)
from qdtuner.spectral import CavityState, QDState, TuningRangeExceeded, qd_intensity, qd_shift

QD = QDState("QD1", 927.0)
ALPHA = QD.alpha_nm_per_k2
# the map of a scenario whose calibration block is absent: the 1.4 nm @ 3 mW anchor
PM = PowerMap("main", 10.0, calibrate_beta(SHIFT_ANCHOR_NM, POWER_ANCHOR_MW, ALPHA))


def _shift(pm, qd, p_mw):
    """The dot's shift at incident power p_mw as sweep computes it."""
    return qd_shift(qd, temperature_from_power(pm, p_mw), pm.t_bath_k)


def _plan(pm, qd, shift_nm, tol_nm=1e-6):
    """tune's qd-to-qd plan for one structure whose dot is to shift by shift_nm."""
    return align_multi([pm], None, [(pm.structure_id, qd, qd.lambda0_nm + shift_nm)], tol_nm=tol_nm)


def test_calibrate_beta_from_anchor():
    beta = calibrate_beta(1.4, 3.0, ALPHA)
    assert math.isclose(beta, 388.888888888889, rel_tol=1e-12)
    assert math.isclose(PM.beta_k2_per_mw, beta, rel_tol=1e-15)


def test_calibrate_beta_round_trip():
    beta = calibrate_beta(0.9, 2.2, ALPHA)
    pm = PowerMap("s", 10.0, beta)
    assert math.isclose(_shift(pm, QD, 2.2), 0.9, rel_tol=1e-12)


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
    assert _shift(PM, QD, 0.0) == 0.0
    assert math.isclose(_shift(PM, QD, 3.0), 1.4, rel_tol=1e-12)


def test_shift_from_power_wide_bridges():
    beta_800 = beta_for_width(PM.beta_k2_per_mw, 320.0, 800.0, calibration="measured")
    pm_800 = PowerMap("w800", 10.0, beta_800)
    assert math.isclose(_shift(pm_800, QD, 3.0), 1.4 / 2.65, rel_tol=1e-12)
    assert math.isclose(1.4 / 2.65, 0.5283, abs_tol=1e-4)


def test_shift_from_power_exactly_linear():
    shifts = [_shift(PM, QD, p) for p in np.linspace(0.1, 3.0, 30)]
    slopes = [s / p for s, p in zip(shifts, np.linspace(0.1, 3.0, 30))]
    ref = ALPHA * PM.beta_k2_per_mw
    assert all(abs(s - ref) <= 1e-12 * ref for s in slopes)


def test_shift_from_power_range_guard():
    # sweep's spectrum refuses a dot driven past its range
    with pytest.raises(TuningRangeExceeded):
        qd_intensity(QD, temperature_from_power(PM, 3.9), PM.t_bath_k)  # 1.82 nm, past the 1.8 nm limit


def test_power_for_shift_zero_target():
    sol = _plan(PM, QD, 0.0)
    assert sol.feasible and sol.powers_mw["main"] == 0.0 and sol.iterations == 0


def test_power_for_shift_anchor_target():
    assert math.isclose(_plan(PM, QD, 1.4).powers_mw["main"], 3.0, rel_tol=1e-12)


def test_power_for_shift_full_range_warns():
    sol = _plan(PM, QD, 1.8)
    assert sol.feasible and sol.warnings == ("dot on 'main' driven past the intensity roll-off",)
    assert math.isclose(sol.powers_mw["main"], 3.857142857142858, rel_tol=1e-12)
    # the top power of this map lands a shift one ulp past the 1.8 nm range,
    # which sweep's spectrum accepts as float dust
    pm = PowerMap("m", 10.0, 301.0, 10.0)
    t_top = temperature_from_power(pm, 1.8 / (ALPHA * 301.0))
    assert qd_shift(QD, t_top, pm.t_bath_k) > QD.max_shift_nm
    assert math.isclose(qd_intensity(QD, t_top, pm.t_bath_k), 0.1)  # the floor


def test_power_for_shift_rejects_out_of_range_targets():
    for shift, why in ((1.9, "exceeds the 1.8 nm tuning range"), (-0.2, "blue of the dot")):
        sol = _plan(PM, QD, shift)
        assert not sol.feasible and why in sol.warnings[0]
    tight = PowerMap("main", 10.0, PM.beta_k2_per_mw, p_max_mw=2.0)
    sol = _plan(tight, QD, 1.4)
    assert not sol.feasible and "needs 3 mW (allowed 0..2 mW)" in sol.warnings[-1]


def test_power_shift_round_trip():
    p_top = 1.8 / (ALPHA * PM.beta_k2_per_mw)
    for p in np.linspace(0.0, p_top, 100):
        sol = _plan(PM, QD, _shift(PM, QD, float(p)))
        assert sol.feasible
        assert abs(sol.powers_mw["main"] - p) <= 1e-9 * max(p, 1.0)


def test_width_scaling_ratios():
    assert control.GEOMETRIC_WIDTH_RATIO == 2.5
    beta_geo = beta_for_width(PM.beta_k2_per_mw, 320.0, 800.0, calibration="geometric")
    beta_meas = beta_for_width(PM.beta_k2_per_mw, 320.0, 800.0, calibration="measured")
    assert math.isclose(PM.beta_k2_per_mw / beta_geo, 2.5, rel_tol=1e-12)
    assert abs(PM.beta_k2_per_mw / beta_meas - 2.65) <= 1e-6
    with pytest.raises(ValueError):
        beta_for_width(PM.beta_k2_per_mw, 320.0, 800.0, calibration="nope")


WIDTHS_NM = st.floats(min_value=50.0, max_value=5000.0)


@pytest.mark.parametrize("law", ["geometric", "measured"])
@given(w1=WIDTHS_NM, w2=WIDTHS_NM, w3=WIDTHS_NM)
def test_width_law_is_a_consistent_scaling(law, w1, w2, w3):
    beta = PM.beta_k2_per_mw
    # identity at equal widths
    assert math.isclose(beta_for_width(beta, w1, w1, law), beta, rel_tol=1e-15)
    # composition: w1 -> w2 -> w3 is w1 -> w3
    via = beta_for_width(beta_for_width(beta, w1, w2, law), w2, w3, law)
    assert math.isclose(via, beta_for_width(beta, w1, w3, law), rel_tol=1e-12)
    # inverse consistency: w1 -> w2 -> w1 returns the slope
    back = beta_for_width(beta_for_width(beta, w1, w2, law), w2, w1, law)
    assert math.isclose(back, beta, rel_tol=1e-12)


def test_width_law_rejects_invalid_widths():
    for w in (0.0, -320.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            beta_for_width(PM.beta_k2_per_mw, 320.0, w)
        with pytest.raises(ValueError):
            beta_for_width(PM.beta_k2_per_mw, w, 320.0)


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


@pytest.mark.parametrize("cavity_alpha", [2e-3, 3e-3], ids=["equal-rate", "cavity-faster"])
def test_align_cavity_outrunning_dot_unreachable(cavity_alpha):
    # per unit of dot shift the cavity moves cavity_alpha / 1e-3 / 2 nm:
    # exactly 1 (no closing at all) or more
    cav = CavityState(930.0, shift_ratio=2.0, alpha_nm_per_k2=cavity_alpha)
    sol = align_qd_to_cavity(PM, QDState("QD1", 929.75, alpha_nm_per_k2=1e-3), cav)
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
    # rows are checked in order, each its diagonal first: the first row with
    # a violation names it, wherever a later row breaks the other rule
    maps = [PowerMap(sid, 10.0, beta) for sid in "ABC"]
    for x, message in (
        ([[beta, beta, 0.0], [0.0, 0.5 * beta, 0.0], [0.0, 0.0, beta]], "off-diagonal crosstalk"),
        ([[beta, 0.0, 0.0], [0.0, 0.5 * beta, 0.0], [0.0, 0.0, np.nan]], "crosstalk diagonal"),
        ([[2.0 * beta, 0.0, 0.0], [-1.0, beta, 0.0], [0.0, 0.0, beta]], "crosstalk diagonal"),
        ([[beta, 0.0, 0.0], [np.nan, 2.0 * beta, 0.0], [0.0, 0.0, beta]], "crosstalk diagonal"),
        ([[beta, 0.0, 0.0], [0.0, beta, np.nan], [beta, 0.0, 0.0]], "off-diagonal crosstalk"),
        ([[beta, 0.0, 0.0], [0.0, beta, 0.0], [0.0, 1.5 * beta, beta]], "off-diagonal crosstalk"),
    ):
        with pytest.raises(ValueError, match=f"^{message}"):
            Crosstalk(tuple("ABC"), np.array(x)).validate(maps)


def test_power_map_invariants():
    with pytest.raises(ValueError):
        PowerMap("s", 10.0, -1.0)
    with pytest.raises(ValueError):
        PowerMap("s", 0.0, 388.9)


def test_align_multi_refuses_a_crosstalk_of_other_structures():
    # the structures are compared before the matrix is read, so a matrix
    # smaller than the map list is refused, not indexed past its end
    beta = PM.beta_k2_per_mw
    maps = [PowerMap(sid, 10.0, beta) for sid in "ABC"]
    targets = [("A", QDState("a", 927.0), 927.1)]
    for ids in (("A", "B"), ("A", "C", "B")):
        crosstalk = Crosstalk(ids, beta * np.eye(len(ids)))
        with pytest.raises(ValueError, match="structure order must match"):
            align_multi(maps, crosstalk, targets)


def test_a_nan_tolerance_is_refused():
    cav = CavityState(927.3)
    for tol in (0.0, -1e-6, math.nan):
        with pytest.raises(ValueError, match="tol must be positive"):
            align_multi([PM], None, [("main", QD, 927.1)], tol_nm=tol)
        with pytest.raises(ValueError, match="tol must be positive"):
            align_qd_to_cavity(PM, QD, cav, tol_nm=tol)


# sha256 of the repr of dataclasses.asdict of every plan of _pinned_chips,
# one line each; float reprs are platform-stable, as GOLDEN_DIGESTS assumes
PINNED_PLANS_DIGEST = "63d1e701c7292d0bd8952930dc58220577e68e9b7bc5099f6e3105ba50375e83"


def _pinned_chips(count=400, seed=35):
    """Seeded chips of 1-8 structures, each an (args, kwargs) call of align_multi.

    They take every exit of a plan: blue targets, shifts beyond the tuning
    range, powers over p_max, a singular block that Crosstalk.validate
    accepts, subsets of targets, plans that need no shift, and crosstalk up
    to validate's limit."""
    rng = random.Random(seed)
    beta0 = PM.beta_k2_per_mw
    singular = 400.0 * np.array([[1.0, 0.75, 0.0], [0.75, 1.0, 0.875], [0.0, 0.5, 1.0]])
    for _ in range(count):
        if rng.random() < 0.08:
            ids = ("A", "B", "C")
            maps = [PowerMap(sid, 10.0, 400.0, rng.uniform(0.5, 6.0)) for sid in ids]
            crosstalk = Crosstalk(ids, singular)
        else:
            n = rng.randint(1, 8)
            ids = tuple(f"S{i}" for i in range(n))
            maps = [
                PowerMap(sid, rng.uniform(4.0, 12.0), beta0 * rng.uniform(0.5, 2.0), rng.choice((0.3, 2.0, 4.0, 6.0)))
                for sid in ids
            ]
            kind = rng.random()
            if kind < 0.2:
                crosstalk = None
            else:
                strength = 1.0 if kind > 0.9 else rng.random()
                rows = []
                for i, pm in enumerate(maps):
                    b = pm.beta_k2_per_mw
                    rows.append([b if j == i else math.nextafter(b, 0.0) if strength == 1.0 and rng.random() < 0.3
                                 else b * strength * rng.random() for j in range(n)])
                crosstalk = Crosstalk(ids, np.array(rows))
        targeted = [sid for sid in ids if rng.random() < 0.6] if rng.random() < 0.3 else list(ids)
        rng.shuffle(targeted)
        # half the chips aim at the shifts of known powers within p_max
        x = (crosstalk or Crosstalk.diagonal(maps)).matrix_k2_per_mw
        index = {sid: i for i, sid in enumerate(ids)}
        p_star = {
            index[sid]: rng.uniform(0.0, 0.9 * min(maps[index[sid]].p_max_mw, 1.0 / len(targeted)))
            for sid in targeted
        }
        from_powers = rng.random() < 0.5
        targets = []
        for sid in targeted:
            qd = QDState(sid.lower(), rng.uniform(926.0, 928.0), alpha_nm_per_k2=ALPHA * rng.uniform(0.8, 1.25))
            u = rng.random()
            if u < 0.04:
                shift = -rng.uniform(1e-6, 0.5)
            elif u < 0.08:
                shift = qd.max_shift_nm + rng.uniform(1e-6, 1.0)
            elif from_powers:
                shift = qd.alpha_nm_per_k2 * sum(x[index[sid], j] * p for j, p in p_star.items())
            elif u < 0.2:
                shift = 0.0
            elif u < 0.3:
                shift = rng.uniform(qd.rolloff_shift_nm, qd.max_shift_nm)
            else:
                shift = rng.uniform(0.0, 0.6)
            targets.append((sid, qd, qd.lambda0_nm + shift))
        tol = rng.choice((1e-6, 1e-9))
        yield (maps, crosstalk, targets), {"tol_nm": tol}


def test_pinned_chip_plans_are_unchanged():
    lines, kinds = [], set()
    for args, kwargs in _pinned_chips():
        sol = align_multi(*args, **kwargs)
        lines.append(repr(dataclasses.asdict(sol)))
        maps, _, targets = args
        kinds.add("feasible" if sol.feasible else "infeasible")
        for kind, note in (("blue", "blue of the dot"), ("range", "tuning range"), ("power", "needs"),
                           ("singular", "singular"), ("rolloff", "roll-off")):
            if any(note in w for w in sol.warnings):
                kinds.add(kind)
        if 0 < len(targets) < len(maps):
            kinds.add("subset")
        if sol.iterations == 0 and targets and sol.feasible:
            kinds.add("no shift")
    assert kinds == {"feasible", "infeasible", "blue", "range", "power", "singular", "rolloff", "subset", "no shift"}
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == PINNED_PLANS_DIGEST
