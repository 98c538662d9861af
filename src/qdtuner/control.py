"""Incident-power calibration and the inverse solvers that pick heating powers.

The power map is the measured law T^2 = T_bath^2 + beta * P for incident
power P in mW, which composed with the quadratic shift law makes every shift
exactly linear in P. The inverse solvers are closed forms or one linear solve,
and alignment solvers report the detuning the forward model gives at their
powers.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import spectral
from .spectral import CavityState, QDState

DEFAULT_P_MAX_MW = 4.0

# Conductance-based width scaling and the empirically observed ratio for the
# 320 nm vs 800 nm bridge pair.
GEOMETRIC_WIDTH_RATIO = 800.0 / 320.0
MEASURED_WIDTH_RATIO = 2.65

# Incident power at the shift anchor vs the absorbed power the lumped thermal
# model needs for the same temperature; reported as a diagnostic, never
# silently applied.
SHIFT_ANCHOR_NM = 1.4
POWER_ANCHOR_MW = 3.0


class PowerRangeError(ValueError):
    """A requested power is outside the calibrated range of the map."""


class RolloffWarning(UserWarning):
    """The target shift is past the intensity roll-off of the dot."""


@dataclass(frozen=True)
class PowerMap:
    """Calibrated incident-power-to-temperature map for one structure."""

    structure_id: str
    t_bath_k: float
    beta_k2_per_mw: float
    p_max_mw: float = DEFAULT_P_MAX_MW

    def __post_init__(self) -> None:
        if self.t_bath_k <= 0.0:
            raise ValueError("bath temperature must be positive")
        if self.beta_k2_per_mw <= 0.0:
            raise ValueError("beta must be positive")
        if self.p_max_mw <= 0.0:
            raise ValueError("p_max must be positive")


def calibrate_beta(
    anchor_shift_nm: float, anchor_power_mw: float, alpha_nm_per_k2: float
) -> float:
    """Power-map slope from one (shift, power) anchor: beta = shift / (alpha * P)."""
    if anchor_shift_nm <= 0.0 or anchor_power_mw <= 0.0 or alpha_nm_per_k2 <= 0.0:
        raise ValueError("anchor shift, anchor power and alpha must be positive")
    return anchor_shift_nm / (alpha_nm_per_k2 * anchor_power_mw)


def default_power_map(
    structure_id: str = "main",
    t_bath_k: float = spectral.DEFAULT_T_REF_K,
    p_max_mw: float = DEFAULT_P_MAX_MW,
) -> PowerMap:
    """Map for the 320 nm-bridge structure from the 1.4 nm @ 3 mW anchor."""
    beta = calibrate_beta(SHIFT_ANCHOR_NM, POWER_ANCHOR_MW, spectral.DEFAULT_ALPHA_NM_PER_K2)
    return PowerMap(structure_id, t_bath_k, beta, p_max_mw)


def beta_for_width(
    beta_ref_k2_per_mw: float,
    width_ref_nm: float,
    width_nm: float,
    calibration: str = "measured",
) -> float:
    """Scale a power-map slope to a different bridge width.

    "geometric" scales with the conductance (proportional to width);
    "measured" rescales the geometric law so the 320 -> 800 nm pair
    reproduces the observed 2.65 shift ratio.
    """
    if width_ref_nm <= 0.0 or width_nm <= 0.0:
        raise ValueError("widths must be positive")
    ratio = width_nm / width_ref_nm
    if calibration == "geometric":
        return beta_ref_k2_per_mw / ratio
    if calibration == "measured":
        return beta_ref_k2_per_mw / (ratio * (MEASURED_WIDTH_RATIO / GEOMETRIC_WIDTH_RATIO))
    raise ValueError(f"unknown width calibration {calibration!r}")


def temperature_from_power(pm: PowerMap, p_mw: float) -> float:
    """Structure temperature at incident power p_mw: sqrt(T_bath^2 + beta P)."""
    _check_power(pm, p_mw)
    return float(np.sqrt(pm.t_bath_k**2 + pm.beta_k2_per_mw * p_mw))


def _check_power(pm: PowerMap, p_mw: float) -> None:
    if not 0.0 <= p_mw <= pm.p_max_mw:
        raise PowerRangeError(
            f"power {p_mw:.4g} mW outside the calibrated range [0, {pm.p_max_mw:.4g}] mW"
        )


def shift_from_power(pm: PowerMap, qd: QDState, p_mw: float) -> float:
    """Dot shift at incident power p_mw: alpha * beta * P, exactly linear."""
    _check_power(pm, p_mw)
    shift = qd.alpha_nm_per_k2 * pm.beta_k2_per_mw * p_mw
    if shift > qd.max_shift_nm:
        raise spectral.TuningRangeExceeded(
            f"tuning range exceeded: shift {shift:.4g} nm > {qd.max_shift_nm:.4g} nm"
        )
    return shift


def power_for_shift(pm: PowerMap, qd: QDState, target_nm: float) -> float:
    """Incident power producing the target shift: P = target / (alpha * beta).

    The map is exactly linear, so the closed form needs no forward check.
    Warns when the target lies past the intensity roll-off.
    """
    if target_nm < 0.0:
        raise ValueError("target shift must be non-negative")
    if target_nm > qd.max_shift_nm:
        raise spectral.TuningRangeExceeded(
            f"tuning range exceeded: target {target_nm:.4g} nm > {qd.max_shift_nm:.4g} nm"
        )
    p = target_nm / (qd.alpha_nm_per_k2 * pm.beta_k2_per_mw)
    if p > pm.p_max_mw:
        raise PowerRangeError(
            f"target shift needs {p:.4g} mW, beyond the {pm.p_max_mw:.4g} mW calibration limit"
        )
    if target_nm > qd.rolloff_shift_nm:
        warnings.warn(
            f"target shift {target_nm:.4g} nm is past the {qd.rolloff_shift_nm:.4g} nm "
            "intensity roll-off",
            RolloffWarning,
            stacklevel=2,
        )
    return p


@dataclass(frozen=True)
class Crosstalk:
    """T^2 gain on structure i per unit incident power aimed at structure j."""

    structure_ids: tuple[str, ...]
    matrix_k2_per_mw: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix_k2_per_mw, dtype=float)
        object.__setattr__(self, "matrix_k2_per_mw", m)
        n = len(self.structure_ids)
        if m.shape != (n, n):
            raise ValueError("crosstalk matrix shape must match the structure list")
        m.setflags(write=False)

    @staticmethod
    def diagonal(maps: list[PowerMap] | tuple[PowerMap, ...]) -> "Crosstalk":
        """Independent structures: beta on the diagonal, zero elsewhere."""
        ids = tuple(pm.structure_id for pm in maps)
        return Crosstalk(ids, np.diag([pm.beta_k2_per_mw for pm in maps]))

    def validate(self, maps: list[PowerMap] | tuple[PowerMap, ...]) -> "Crosstalk":
        m = self.matrix_k2_per_mw
        for i, pm in enumerate(maps):
            if m[i, i] != pm.beta_k2_per_mw:
                raise ValueError("crosstalk diagonal must equal the structure betas")
            for j in range(len(maps)):
                if i == j:
                    continue
                if not 0.0 <= m[i, j] < m[i, i]:  # also rejects NaN
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
        out = {
            "powers_mw": dict(self.powers_mw),
            "residual_nm": self.residual_nm if math.isfinite(self.residual_nm) else None,
            "feasible": self.feasible,
            "warnings": list(self.warnings),
            "detunings_nm": dict(self.detunings_nm),
            "iterations": self.iterations,
        }
        if self.purcell is not None:
            out["purcell"] = self.purcell
        return out


def align_qd_to_cavity(
    pm: PowerMap,
    qd: QDState,
    cav: CavityState,
    tol_nm: float = 1e-6,
    f0: float = spectral.DEFAULT_PURCELL_F0,
    min_q: float | None = None,
) -> TuningSolution:
    """Heating power that brings a blue-detuned dot onto the cavity resonance.

    Both peaks red-shift and the dot moves shift_ratio times faster, so the
    dot must start blue of the cavity. The closed form for the required dot
    shift is delta0 / (1 - 1/shift_ratio); the result is verified through the
    forward model and reported with the Purcell factor at the solution.
    min_q optionally marks solutions infeasible when heating has degraded the
    cavity below that quality factor.
    """
    if tol_nm <= 0.0:
        raise ValueError("tol must be positive")
    delta0 = cav.lambda0_nm - qd.lambda0_nm
    sid = pm.structure_id

    def infeasible(msg: str) -> TuningSolution:
        return TuningSolution(
            powers_mw={sid: 0.0},
            detunings_nm={sid: -delta0},
            residual_nm=abs(delta0),
            feasible=False,
            warnings=(msg,),
        )

    if delta0 < 0.0:
        return infeasible(
            "unreachable: dot is red of the cavity and both shift further red"
        )
    shift_needed = delta0 / (1.0 - 1.0 / cav.shift_ratio)
    if shift_needed > qd.max_shift_nm:
        return infeasible(
            f"unreachable: required shift {shift_needed:.4g} nm exceeds the "
            f"{qd.max_shift_nm:.4g} nm tuning range"
        )
    p_mw = (shift_needed / qd.alpha_nm_per_k2) / pm.beta_k2_per_mw
    if p_mw > pm.p_max_mw:
        return infeasible(
            f"unreachable: required power {p_mw:.4g} mW exceeds the "
            f"{pm.p_max_mw:.4g} mW calibration limit"
        )

    t_k = temperature_from_power(pm, p_mw)
    qd_lambda = spectral.qd_wavelength(qd, t_k, pm.t_bath_k)
    shift = spectral.qd_shift(qd, t_k, pm.t_bath_k)
    cav_lambda = spectral.cavity_wavelength(cav, shift)
    detuning = qd_lambda - cav_lambda
    notes: list[str] = []
    feasible = abs(detuning) <= tol_nm
    if shift_needed > qd.rolloff_shift_nm:
        notes.append(f"dot driven past the {qd.rolloff_shift_nm:.4g} nm intensity roll-off")
    q_at_solution = spectral.cavity_q(cav, t_k, pm.t_bath_k)
    if min_q is not None and q_at_solution < min_q:
        notes.append(
            f"cavity quality factor {q_at_solution:.0f} below the required {min_q:.0f}"
        )
        feasible = False
    fwhm = cav_lambda / q_at_solution
    return TuningSolution(
        powers_mw={sid: p_mw},
        detunings_nm={sid: detuning},
        residual_nm=abs(detuning),
        feasible=feasible,
        warnings=tuple(notes),
        purcell=spectral.purcell_factor(qd_lambda, cav_lambda, fwhm, f0),
    )


def align_multi(
    maps: list[PowerMap] | tuple[PowerMap, ...],
    crosstalk: Crosstalk | None,
    targets: list[tuple[str, QDState, float]],
    tol_nm: float = 1e-6,
) -> TuningSolution:
    """Choose per-structure powers so each targeted dot reaches its wavelength.

    Solves T_i^2 = T_bath^2 + sum_j X[i, j] P_j for the targeted structures
    with one direct linear solve on their block of the crosstalk matrix;
    untargeted structures stay unpowered. A singular block or a power outside
    [0, p_max] makes the plan infeasible, unless no targeted dot needs any
    shift: then no solve runs. `iterations` counts linear solves.
    """
    if tol_nm <= 0.0:
        raise ValueError("tol must be positive")
    maps = list(maps)
    ids = [pm.structure_id for pm in maps]
    if crosstalk is None:
        crosstalk = Crosstalk.diagonal(maps)
    crosstalk.validate(maps)
    if list(crosstalk.structure_ids) != ids:
        raise ValueError("crosstalk structure order must match the power maps")
    by_id = {pm.structure_id: (i, pm) for i, pm in enumerate(maps)}
    seen: set[str] = set()
    for sid, _, _ in targets:
        if sid not in by_id:
            raise ValueError(f"unknown structure {sid!r}")
        if sid in seen:
            raise ValueError(f"more than one target for structure {sid!r}")
        seen.add(sid)

    n = len(maps)
    x = crosstalk.matrix_k2_per_mw
    targeted = np.zeros(n, dtype=bool)
    delta_t2 = np.zeros(n)
    qd_by_index: dict[int, tuple[QDState, float]] = {}
    notes: list[str] = []
    for sid, qd, target_lambda in targets:
        i, pm = by_id[sid]
        shift = target_lambda - qd.lambda0_nm
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
        targeted[i] = True
        delta_t2[i] = shift / qd.alpha_nm_per_k2
        qd_by_index[i] = (qd, target_lambda)

    sub = np.flatnonzero(targeted)
    powers = np.zeros(n)
    # with every targeted dot already in place, P = 0 is exact even for a
    # singular block
    solved = bool(delta_t2.any())
    if solved:
        try:
            powers[sub] = np.linalg.solve(x[np.ix_(sub, sub)], delta_t2[sub])
        except np.linalg.LinAlgError:
            return _infeasible_multi(
                ids, "infeasible chip plan: crosstalk matrix of the targeted structures is singular"
            )

    feasible = True
    for i, pm in enumerate(maps):
        if not -1e-12 <= powers[i] <= pm.p_max_mw:  # also catches NaN
            notes.append(
                f"infeasible chip plan: structure {pm.structure_id!r} needs "
                f"{powers[i]:.4g} mW (allowed 0..{pm.p_max_mw:.4g} mW)"
            )
            feasible = False
    powers = np.maximum(powers, 0.0)

    detunings: dict[str, float] = {}
    residual = 0.0
    for i, pm in enumerate(maps):
        t2 = pm.t_bath_k**2 + float(x[i] @ powers)
        if i in qd_by_index:
            qd, target_lambda = qd_by_index[i]
            achieved = qd.lambda0_nm + qd.alpha_nm_per_k2 * (t2 - pm.t_bath_k**2)
            detunings[pm.structure_id] = achieved - target_lambda
            residual = max(residual, abs(achieved - target_lambda))
    feasible = feasible and residual <= tol_nm
    return TuningSolution(
        powers_mw={ids[i]: float(powers[i]) for i in range(n)},
        detunings_nm=detunings,
        residual_nm=residual,
        feasible=feasible,
        warnings=tuple(notes),
        iterations=int(solved),
    )


def _infeasible_multi(ids: list[str], msg: str) -> TuningSolution:
    return TuningSolution(
        powers_mw={sid: 0.0 for sid in ids},
        detunings_nm={},
        residual_nm=float("inf"),
        feasible=False,
        warnings=(msg,),
    )


def absorbed_fraction_estimate(
    layout,
    pm: PowerMap,
    qd: QDState,
    incident_anchor_mw: float = POWER_ANCHOR_MW,
) -> float:
    """Absorbed power needed to hold the dot's maximum-shift temperature,
    as a fraction of the incident calibration anchor.

    Diagnostic linking the incident-power calibration to the absorbed-power
    thermal model; the two are never converted silently elsewhere.
    """
    from . import thermal

    t_max = float(np.sqrt(pm.t_bath_k**2 + qd.max_shift_nm / qd.alpha_nm_per_k2))
    p_abs_w = thermal.absorbed_power_for_temperature(layout, t_max, pm.t_bath_k)
    return p_abs_w / (incident_anchor_mw * 1e-3)
