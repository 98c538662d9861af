"""Incident-power calibration and the inverse solvers that pick heating powers.

The power map is the measured law T^2 = T_bath^2 + beta * P for incident
power P in mW, which composed with the quadratic shift law makes every shift
exactly linear in P. The one alignment planner, align_multi, turns each dot's
goal (a wavelength or its cavity) into a rise in T^2 in closed form, solves
one linear system for the powers and reports the detunings the forward model
gives at them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import spectral
from .spectral import CavityState, QDState

DEFAULT_P_MAX_MW = 4.0

# Conductance-based width scaling and the empirically observed ratio for the
# 320 nm vs 800 nm bridge pair.
GEOMETRIC_WIDTH_RATIO = 800.0 / 320.0
MEASURED_WIDTH_RATIO = 2.65
# beta scales as width^-gamma; the measured gamma maps the geometric ratio
# onto the measured one
_WIDTH_EXPONENTS = {
    "geometric": 1.0,
    "measured": math.log(MEASURED_WIDTH_RATIO) / math.log(GEOMETRIC_WIDTH_RATIO),
}

# Incident power at the shift anchor vs the absorbed power the lumped thermal
# model needs for the same temperature; reported as a diagnostic, never
# silently applied.
SHIFT_ANCHOR_NM = 1.4
POWER_ANCHOR_MW = 3.0


class PowerRangeError(ValueError):
    """A requested power is outside the calibrated range of the map."""


@dataclass(frozen=True)
class PowerMap:
    """Calibrated incident-power-to-temperature map for one structure."""

    structure_id: str
    t_bath_k: float
    beta_k2_per_mw: float
    p_max_mw: float = DEFAULT_P_MAX_MW

    def __post_init__(self) -> None:
        # T_bath^2 is taken with *, which gives inf where float ** raises
        t2 = self.t_bath_k * self.t_bath_k
        if not (self.t_bath_k > 0.0 and 0.0 < t2 < math.inf):
            raise ValueError("bath temperature must be positive, its square a positive finite float")
        if not 0.0 < self.beta_k2_per_mw < math.inf:
            raise ValueError("beta must be positive and finite")
        if not self.p_max_mw > 0.0:
            raise ValueError("p_max must be positive")


def calibrate_beta(
    anchor_shift_nm: float, anchor_power_mw: float, alpha_nm_per_k2: float
) -> float:
    """Power-map slope from one (shift, power) anchor: beta = shift / (alpha * P)."""
    if anchor_shift_nm <= 0.0 or anchor_power_mw <= 0.0 or alpha_nm_per_k2 <= 0.0:
        raise ValueError("anchor shift, anchor power and alpha must be positive")
    return anchor_shift_nm / (alpha_nm_per_k2 * anchor_power_mw)


def beta_for_width(
    beta_ref_k2_per_mw: float,
    width_ref_nm: float,
    width_nm: float,
    calibration: str = "measured",
) -> float:
    """Scale a power-map slope to a different bridge width.

    The slope scales as (width_ref / width)^gamma. "geometric" scales with
    the conductance (proportional to width), gamma = 1; "measured" takes
    gamma = ln 2.65 / ln 2.5, so the 320 -> 800 nm pair reproduces the
    observed 2.65 shift ratio. Either law is the identity at equal widths,
    composes (w1 -> w2 -> w3 is w1 -> w3) and is its own inverse.
    """
    if not (0.0 < width_ref_nm < math.inf and 0.0 < width_nm < math.inf):
        raise ValueError("widths must be positive and finite")
    gamma = _WIDTH_EXPONENTS.get(calibration)
    if gamma is None:
        raise ValueError(f"unknown width calibration {calibration!r}")
    return beta_ref_k2_per_mw * (width_ref_nm / width_nm) ** gamma


def temperature_from_power(pm: PowerMap, p_mw: float) -> float:
    """Structure temperature at incident power p_mw: sqrt(T_bath^2 + beta P)."""
    if not 0.0 <= p_mw <= pm.p_max_mw:
        raise PowerRangeError(
            f"power {p_mw:.4g} mW outside the calibrated range [0, {pm.p_max_mw:.4g}] mW"
        )
    return float(np.sqrt(pm.t_bath_k**2 + pm.beta_k2_per_mw * p_mw))


@dataclass(frozen=True)
class Crosstalk:
    """T^2 gain on structure i per unit incident power aimed at structure j."""

    structure_ids: tuple[str, ...]
    matrix_k2_per_mw: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix_k2_per_mw, dtype=float)
        object.__setattr__(self, "matrix_k2_per_mw", m)
        n = len(self.structure_ids)
        if len(set(self.structure_ids)) != n:
            raise ValueError("crosstalk structure ids must be distinct")
        if m.shape != (n, n):
            raise ValueError("crosstalk matrix shape must match the structure list")
        m.setflags(write=False)

    @staticmethod
    def diagonal(maps: list[PowerMap] | tuple[PowerMap, ...]) -> "Crosstalk":
        """Independent structures: beta on the diagonal, zero elsewhere."""
        ids = tuple(pm.structure_id for pm in maps)
        return Crosstalk(ids, np.diag([pm.beta_k2_per_mw for pm in maps]))

    def validate(self, maps: list[PowerMap] | tuple[PowerMap, ...]) -> "Crosstalk":
        """Check the matrix against the maps of the same structures, in order."""
        if [pm.structure_id for pm in maps] != list(self.structure_ids):
            raise ValueError("crosstalk structure order must match the power maps")
        for i, (pm, row) in enumerate(zip(maps, self.matrix_k2_per_mw.tolist())):
            if row[i] != pm.beta_k2_per_mw:
                raise ValueError("crosstalk diagonal must equal the structure betas")
            for j, v in enumerate(row):
                if j != i and not 0.0 <= v < row[i]:  # also rejects NaN
                    raise ValueError("off-diagonal crosstalk must be >= 0 and below the diagonal")
        return self


@dataclass(frozen=True)
class TuningSolution:
    """Outcome of an alignment solve: powers, achieved detunings and status."""

    powers_mw: dict[str, float]
    detunings_nm: dict[str, float]
    residual_nm: float
    feasible: bool
    warnings: tuple[str, ...] = ()
    iterations: int = 0
    purcell: float | None = None

    def to_dict(self) -> dict:
        # a shallow copy: asdict deep-copies each value, which took 30 us
        # of a 0.23 ms tune on a 2-core x86 machine
        out = dict(vars(self))
        if self.purcell is None:
            del out["purcell"]
        return out


def align_qd_to_cavity(
    pm: PowerMap,
    qd: QDState,
    cav: CavityState,
    tol_nm: float = 1e-6,
    f0: float = spectral.DEFAULT_PURCELL_F0,
    min_q: float | None = None,
) -> TuningSolution:
    """The one-structure plan that brings a blue-detuned dot onto its cavity:
    align_multi with the cavity as the dot's goal."""
    return align_multi([pm], None, [(pm.structure_id, qd, cav)], tol_nm, f0, min_q)


def align_multi(
    maps: list[PowerMap] | tuple[PowerMap, ...],
    crosstalk: Crosstalk | None,
    targets: list[tuple[str, QDState, float | CavityState]],
    tol_nm: float = 1e-6,
    f0: float = spectral.DEFAULT_PURCELL_F0,
    min_q: float | None = None,
) -> TuningSolution:
    """Choose per-structure powers so each targeted dot reaches its goal.

    A goal is a wavelength or the CavityState on the dot's structure. Both
    peaks red-shift, so a dot meets its cavity only from the blue, by
    outrunning it: per unit of dot shift the cavity moves
    cav.alpha / qd.alpha / shift_ratio, and the dot must shift
    delta0 / (1 - that). Every goal is then a rise in T^2, and one direct
    linear solve of T_i^2 = T_bath^2 + sum_j X[i, j] P_j on the targeted
    structures' block of the crosstalk matrix gives the powers; untargeted
    structures stay unpowered. A singular block or a power outside
    [0, p_max] makes the plan infeasible, unless no targeted dot needs any
    shift: then no solve runs. `iterations` counts linear solves.

    Each detuning is the dot minus its goal at the solved temperature. A
    cavity goal also gives the Purcell factor there (`purcell` is the
    smallest over the plan's cavity goals), and min_q optionally marks the
    plan infeasible when heating has degraded a cavity below that quality
    factor.
    """
    if not tol_nm > 0.0:
        raise ValueError("tol must be positive")
    maps = list(maps)
    ids = [pm.structure_id for pm in maps]
    if crosstalk is None:
        crosstalk = Crosstalk.diagonal(maps)
    crosstalk.validate(maps)
    index = {sid: i for i, sid in enumerate(ids)}
    chosen: dict[int, tuple[str, QDState, float | CavityState]] = {}
    for sid, qd, goal in targets:
        if sid not in index:
            raise ValueError(f"unknown structure {sid!r}")
        if index[sid] in chosen:
            raise ValueError(f"more than one target for structure {sid!r}")
        chosen[index[sid]] = (sid, qd, goal)

    n = len(maps)
    x = crosstalk.matrix_k2_per_mw
    delta_t2: dict[int, float] = {}
    notes: list[str] = []
    for i, (sid, qd, goal) in chosen.items():
        if isinstance(goal, CavityState):
            delta0 = goal.lambda0_nm - qd.lambda0_nm
            # written so that equal alphas give exactly 1 - 1/shift_ratio
            closing = 1.0 - goal.alpha_nm_per_k2 / qd.alpha_nm_per_k2 / goal.shift_ratio
            if delta0 < 0.0:
                return _infeasible_multi(
                    ids, f"unreachable: the dot on {sid!r} is red of its cavity and both shift further red"
                )
            if delta0 > 0.0 and closing <= 0.0:
                return _infeasible_multi(
                    ids, f"unreachable: the cavity on {sid!r} shifts at least as fast as its dot"
                )
            shift = delta0 / closing if delta0 > 0.0 else 0.0
        else:
            shift = goal - qd.lambda0_nm
            if shift < 0.0:
                return _infeasible_multi(
                    ids, f"infeasible chip plan: target for {sid!r} is blue of the dot"
                )
        if shift > qd.max_shift_nm:
            return _infeasible_multi(
                ids,
                f"infeasible chip plan: target shift {shift:.4g} nm for {sid!r} exceeds "
                f"the {qd.max_shift_nm:.4g} nm tuning range",
            )
        if shift > qd.rolloff_shift_nm:
            notes.append(f"dot on {sid!r} driven past the intensity roll-off")
        delta_t2[i] = shift / qd.alpha_nm_per_k2

    sub = sorted(delta_t2)
    powers = np.zeros(n)
    # with every targeted dot already in place, P = 0 is exact even for a
    # singular block
    solved = any(delta_t2.values())
    if solved:
        block = x if len(sub) == n else x[np.ix_(sub, sub)]
        try:
            powers[sub] = np.linalg.solve(block, [delta_t2[i] for i in sub])
        except np.linalg.LinAlgError:
            return _infeasible_multi(
                ids, "infeasible chip plan: crosstalk matrix of the targeted structures is singular"
            )

    feasible = True
    for pm, p in zip(maps, powers.tolist()):
        if not -1e-12 <= p <= pm.p_max_mw:  # also catches NaN
            notes.append(
                f"infeasible chip plan: structure {pm.structure_id!r} needs "
                f"{p:.4g} mW (allowed 0..{pm.p_max_mw:.4g} mW)"
            )
            feasible = False
    powers = np.maximum(powers, 0.0)

    detunings: dict[str, float] = {}
    residual = 0.0
    purcell = None
    for i in sub:
        pm = maps[i]
        sid, qd, goal = chosen[i]
        t2 = pm.t_bath_k**2 + float(x[i] @ powers)
        if isinstance(goal, CavityState):
            # through the temperature, as the forward model takes it
            t_k = math.sqrt(t2)
            achieved = spectral.qd_wavelength(qd, t_k, pm.t_bath_k)
            goal_nm = spectral.cavity_wavelength(goal, t_k, pm.t_bath_k)
            q = spectral.cavity_q(goal, t_k, pm.t_bath_k)
            if min_q is not None and q < min_q:
                notes.append(f"cavity quality factor {q:.0f} on {sid!r} below the required {min_q:.0f}")
                feasible = False
            # a cavity degraded to Q = 0 (an infinite T^2) is infinitely wide
            factor = spectral.purcell_factor(achieved, goal_nm, goal_nm / q if q > 0.0 else math.inf, f0)
            purcell = factor if purcell is None else min(purcell, factor)
        else:
            achieved = qd.lambda0_nm + qd.alpha_nm_per_k2 * (t2 - pm.t_bath_k**2)
            goal_nm = goal
        detunings[sid] = achieved - goal_nm
        residual = max(residual, abs(achieved - goal_nm))
    feasible = feasible and residual <= tol_nm
    return TuningSolution(
        powers_mw=dict(zip(ids, powers.tolist())),
        detunings_nm=detunings,
        residual_nm=residual,
        feasible=feasible,
        warnings=tuple(notes),
        iterations=int(solved),
        purcell=purcell,
    )


def _infeasible_multi(ids: list[str], msg: str) -> TuningSolution:
    return TuningSolution(
        powers_mw={sid: 0.0 for sid in ids},
        detunings_nm={},
        residual_nm=float("inf"),
        feasible=False,
        warnings=(msg,),
    )
