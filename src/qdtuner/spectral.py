"""Temperature-dependent optical models and Lorentzian spectrum synthesis.

Quantum-dot lines red-shift quadratically in temperature; the cavity
resonance follows the same law at a fixed fraction of the dot shift, while
its quality factor degrades through a loss term linear in T^2. Spectra are
sums of height-normalized Lorentzians with per-component annotations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_T_REF_K = 10.0

# Two-point calibration of the quadratic shift law: zero shift at the 10 K
# bath, 1.8 nm at 40 K.
DEFAULT_ALPHA_NM_PER_K2 = 1.8 / (40.0**2 - 10.0**2)

DEFAULT_FWHM0_NM = 0.04
# Linewidth doubles (0.04 -> 0.08 nm) over the first 1.4 nm of shift.
DEFAULT_FWHM_SLOPE = (0.08 - 0.04) / 1.4
DEFAULT_ROLLOFF_SHIFT_NM = 1.4
DEFAULT_MAX_SHIFT_NM = 1.8
INTENSITY_FLOOR_FRACTION = 0.1
# a shift taken back from a temperature may pass the maximum by float dust,
# which qd_intensity accepts
_MAX_SHIFT_DUST = 1.0 + 1e-12

# QD shift divided by cavity shift at equal temperature.
DEFAULT_SHIFT_RATIO = 2.917
DEFAULT_Q0 = 7600.0
# 1/Q grows linearly in T^2 - T_ref^2; calibrated so a Q of 7600 at the bath
# drops to 4900 at the temperature where the dot has shifted by 1.4 nm.
DEFAULT_Q_SLOPE_PER_K2 = (1.0 / 4900.0 - 1.0 / 7600.0) / (1.4 / DEFAULT_ALPHA_NM_PER_K2)

DEFAULT_PURCELL_F0 = 5.0


class TuningRangeExceeded(ValueError):
    """A requested shift is beyond the usable tuning range of a dot."""


@dataclass(frozen=True)
class QDState:
    """Optical model of one quantum dot at the reference temperature."""

    qd_id: str
    lambda0_nm: float
    fwhm0_nm: float = DEFAULT_FWHM0_NM
    alpha_nm_per_k2: float = DEFAULT_ALPHA_NM_PER_K2
    fwhm_slope: float = DEFAULT_FWHM_SLOPE          # nm of linewidth per nm of shift
    base_intensity: float = 1.0
    rolloff_shift_nm: float = DEFAULT_ROLLOFF_SHIFT_NM
    max_shift_nm: float = DEFAULT_MAX_SHIFT_NM

    def __post_init__(self) -> None:
        if not self.lambda0_nm > 0.0:
            raise ValueError("dot wavelength must be positive")
        if self.alpha_nm_per_k2 <= 0.0:
            raise ValueError("alpha must be positive (dots red-shift with temperature)")
        if not 0.0 < self.rolloff_shift_nm <= self.max_shift_nm:
            raise ValueError("need 0 < rolloff shift <= max shift")
        # the linewidth is linear in the shift: positive at both ends of the
        # accepted shifts, dust included, is positive at all of them
        if not all(self.fwhm0_nm + self.fwhm_slope * s > 0.0 for s in (0.0, self.max_shift_nm * _MAX_SHIFT_DUST)):
            raise ValueError("linewidth fwhm0 + fwhm_slope * shift must be positive up to the max shift")
        if not self.base_intensity >= 0.0:
            raise ValueError("base intensity must be non-negative")


@dataclass(frozen=True)
class CavityState:
    """Optical model of the photonic-crystal cavity mode.

    The resonance moves shift_ratio times slower than a dot with shift law
    alpha_nm_per_k2 at the same temperature; that alpha is the cavity's own,
    so every caller moves the cavity by one law.
    """

    lambda0_nm: float
    q0: float = DEFAULT_Q0
    shift_ratio: float = DEFAULT_SHIFT_RATIO
    q_slope_per_k2: float = DEFAULT_Q_SLOPE_PER_K2
    alpha_nm_per_k2: float = DEFAULT_ALPHA_NM_PER_K2

    def __post_init__(self) -> None:
        if not self.lambda0_nm > 0.0:  # the linewidth is lambda / Q
            raise ValueError("cavity wavelength must be positive")
        if self.alpha_nm_per_k2 <= 0.0:
            raise ValueError("cavity alpha must be positive")
        if self.q0 <= 0.0:
            raise ValueError("Q0 must be positive")
        if self.shift_ratio <= 1.0:
            raise ValueError("shift ratio must exceed 1 (the dot moves faster)")
        if self.q_slope_per_k2 < 0.0:
            raise ValueError("q_slope must be non-negative")


def qd_shift(qd: QDState, t_k: float, t_ref_k: float = DEFAULT_T_REF_K) -> float:
    """Red shift of the dot at t_k relative to its wavelength at t_ref_k."""
    if t_k < t_ref_k:
        raise ValueError("cooling below the reference temperature is not modeled")
    return qd.alpha_nm_per_k2 * (t_k**2 - t_ref_k**2)


def qd_wavelength(qd: QDState, t_k: float, t_ref_k: float = DEFAULT_T_REF_K) -> float:
    """Emission wavelength at t_k: lambda0 + alpha * (T^2 - T_ref^2)."""
    return qd.lambda0_nm + qd_shift(qd, t_k, t_ref_k)


def qd_linewidth(qd: QDState, t_k: float, t_ref_k: float = DEFAULT_T_REF_K) -> float:
    """FWHM at t_k, growing linearly with the accumulated shift."""
    return qd.fwhm0_nm + qd.fwhm_slope * qd_shift(qd, t_k, t_ref_k)


def qd_intensity(qd: QDState, t_k: float, t_ref_k: float = DEFAULT_T_REF_K) -> float:
    """Peak intensity at t_k: flat up to the roll-off shift, then a linear
    decay to 10% of the base at the maximum usable shift."""
    shift = qd_shift(qd, t_k, t_ref_k)
    if shift > qd.max_shift_nm * _MAX_SHIFT_DUST:
        raise TuningRangeExceeded(
            f"tuning range exceeded: shift {shift:.4g} nm > {qd.max_shift_nm:.4g} nm"
        )
    if shift <= qd.rolloff_shift_nm:
        return qd.base_intensity
    frac = min(1.0, (shift - qd.rolloff_shift_nm) / (qd.max_shift_nm - qd.rolloff_shift_nm))
    return qd.base_intensity * (1.0 - (1.0 - INTENSITY_FLOOR_FRACTION) * frac)


def cavity_wavelength(cav: CavityState, t_k: float, t_ref_k: float = DEFAULT_T_REF_K) -> float:
    """Cavity resonance at t_k: lambda0 + alpha * (T^2 - T_ref^2) / shift_ratio,
    the cavity's own quadratic law, shift_ratio times slower than a dot's."""
    if t_k < t_ref_k:
        raise ValueError("cooling below the reference temperature is not modeled")
    return cav.lambda0_nm + cav.alpha_nm_per_k2 * (t_k**2 - t_ref_k**2) / cav.shift_ratio


def cavity_q(cav: CavityState, t_k: float, t_ref_k: float = DEFAULT_T_REF_K) -> float:
    """Quality factor at t_k from 1/Q = 1/Q0 + q_slope * (T^2 - T_ref^2)."""
    if t_k < t_ref_k:
        raise ValueError("cooling below the reference temperature is not modeled")
    return 1.0 / (1.0 / cav.q0 + cav.q_slope_per_k2 * (t_k**2 - t_ref_k**2))


def purcell_factor(
    qd_lambda_nm: float, cav_lambda_nm: float, cav_fwhm_nm: float, f0: float
) -> float:
    """Emission-rate enhancement from Lorentzian spectral overlap.

    Equals f0 on resonance and decays to 1 far from it.
    """
    if cav_fwhm_nm <= 0.0:
        raise ValueError("cavity FWHM must be positive")
    if f0 < 1.0:
        raise ValueError("peak enhancement must be >= 1")
    # x * x, not x ** 2: far off resonance the square overflows to inf,
    # where float ** raises, and the factor takes its limit, 1
    x = 2.0 * (qd_lambda_nm - cav_lambda_nm) / cav_fwhm_nm
    return 1.0 + (f0 - 1.0) / (1.0 + x * x)


@dataclass(frozen=True)
class SpectralPeak:
    kind: str      # "qd" or "cavity"
    label: str
    center_nm: float
    fwhm_nm: float
    height: float


@dataclass(frozen=True)
class Spectrum:
    """Sampled intensity vs wavelength with per-component annotations."""

    wavelengths_nm: np.ndarray
    intensities: np.ndarray
    peaks: tuple[SpectralPeak, ...]

    def __post_init__(self) -> None:
        self.wavelengths_nm.setflags(write=False)
        self.intensities.setflags(write=False)


def lorentzian(x: np.ndarray, center: float, fwhm: float, height: float) -> np.ndarray:
    """Height-normalized Lorentzian: equals height at the center."""
    return height / (1.0 + (2.0 * (x - center) / fwhm) ** 2)


def synthesize_spectrum(
    qds: tuple[QDState, ...] | list[QDState],
    cavity: CavityState | None,
    t_k: float,
    window_nm: tuple[float, float],
    n_samples: int,
    t_ref_k: float = DEFAULT_T_REF_K,
    f0: float = DEFAULT_PURCELL_F0,
    cavity_height: float = 0.2,
    baseline: float = 0.0,
) -> Spectrum:
    """Sum of Lorentzian components for the scene at temperature t_k.

    Each dot contributes a peak at its shifted wavelength whose height is its
    intensity times the Purcell overlap with the cavity (1 without a cavity);
    the cavity contributes a peak of the configured height. The annotations
    record every component.
    """
    lo, hi = window_nm
    if not lo < hi:
        raise ValueError("window must be non-empty")
    if n_samples < 2:
        raise ValueError("need at least two samples")
    x = np.linspace(lo, hi, n_samples)
    y = np.full(n_samples, float(baseline))
    peaks: list[SpectralPeak] = []

    cav_lambda = cav_width = None
    if cavity is not None:
        cav_lambda = cavity_wavelength(cavity, t_k, t_ref_k)
        cav_width = cav_lambda / cavity_q(cavity, t_k, t_ref_k)

    # a sample far out on a line's wing overflows the squared distance; the
    # Lorentzian's limit there, 0, is the right value
    with np.errstate(over="ignore"):
        for qd in qds:
            center = qd_wavelength(qd, t_k, t_ref_k)
            width = qd_linewidth(qd, t_k, t_ref_k)
            height = qd_intensity(qd, t_k, t_ref_k)
            if cavity is not None:
                height *= purcell_factor(center, cav_lambda, cav_width, f0)
            y += lorentzian(x, center, width, height)
            peaks.append(SpectralPeak("qd", qd.qd_id, center, width, height))

        if cavity is not None:
            y += lorentzian(x, cav_lambda, cav_width, float(cavity_height))
            peaks.append(SpectralPeak("cavity", "cavity", cav_lambda, cav_width, float(cavity_height)))

    return Spectrum(wavelengths_nm=x, intensities=y, peaks=tuple(peaks))
