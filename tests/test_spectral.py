import math

import numpy as np
import pytest

from qdtuner.spectral import (
    CavityState,
    QDState,
    TuningRangeExceeded,
    cavity_q,
    cavity_wavelength,
    lorentzian,
    purcell_factor,
    qd_intensity,
    qd_linewidth,
    qd_shift,
    qd_wavelength,
    synthesize_spectrum,
)

QD = QDState("QD1", 927.0)
ALPHA = QD.alpha_nm_per_k2


def temperature_for_shift(shift_nm: float, t_ref_k: float = 10.0) -> float:
    return math.sqrt(shift_nm / ALPHA + t_ref_k**2)


def test_qd_wavelength_at_reference():
    assert qd_wavelength(QD, 10.0, 10.0) == 927.0


def test_qd_wavelength_at_forty_kelvin():
    assert math.isclose(qd_wavelength(QD, 40.0, 10.0) - 927.0, 1.8, rel_tol=1e-12)


def test_qd_wavelength_at_twentyfive_kelvin():
    # alpha * (25^2 - 10^2) = 1.2e-3 * 525
    assert math.isclose(qd_wavelength(QD, 25.0, 10.0) - 927.0, 0.63, rel_tol=1e-12)


def test_qd_wavelength_rejects_cooling():
    with pytest.raises(ValueError):
        qd_wavelength(QD, 9.0, 10.0)


def test_shift_linear_in_t_squared():
    pairs = [(12.0, 31.0), (15.0, 22.5), (11.0, 39.0)]
    for t1, t2 in pairs:
        lhs = qd_shift(QD, t2) / qd_shift(QD, t1)
        rhs = (t2**2 - 100.0) / (t1**2 - 100.0)
        assert math.isclose(lhs, rhs, rel_tol=1e-12)


def test_qd_linewidth_endpoints_and_midpoint():
    assert qd_linewidth(QD, 10.0, 10.0) == 0.04
    assert math.isclose(qd_linewidth(QD, temperature_for_shift(1.4), 10.0), 0.08, rel_tol=1e-9)
    assert math.isclose(qd_linewidth(QD, temperature_for_shift(0.7), 10.0), 0.06, rel_tol=1e-9)


def test_qd_intensity_flat_region():
    assert qd_intensity(QD, temperature_for_shift(1.0), 10.0) == 1.0


def test_qd_intensity_rolloff_endpoint():
    value = qd_intensity(QD, temperature_for_shift(1.8), 10.0)
    assert math.isclose(value, 0.1, rel_tol=1e-9)


def test_qd_intensity_beyond_range():
    with pytest.raises(TuningRangeExceeded, match="tuning range exceeded"):
        qd_intensity(QD, temperature_for_shift(1.9), 10.0)


def test_cavity_wavelength_at_rest():
    cav = CavityState(942.0)
    assert cavity_wavelength(cav, 10.0, 10.0) == 942.0


def test_cavity_wavelength_at_full_tuning():
    # at the temperature where the dot has shifted by 1.4 nm
    cav = CavityState(942.0)
    shift = cavity_wavelength(cav, temperature_for_shift(1.4), 10.0) - 942.0
    assert math.isclose(shift, 1.4 / 2.917, rel_tol=1e-12)
    assert abs(shift - 0.48) <= 0.005


def test_cavity_wavelength_proportionality():
    cav = CavityState(942.0)
    shift = cavity_wavelength(cav, temperature_for_shift(0.7), 10.0) - 942.0
    assert math.isclose(shift, 0.7 / 2.917, rel_tol=1e-12)
    assert abs(shift - 0.24) <= 5e-4
    with pytest.raises(ValueError, match="cooling below the reference temperature is not modeled"):
        cavity_wavelength(cav, 9.0, 10.0)


def test_cavity_q_at_reference():
    assert cavity_q(CavityState(942.0), 10.0, 10.0) == 7600.0


def test_cavity_q_at_anchor_temperature():
    beta = 1.4 / (ALPHA * 3.0)
    t_anchor = math.sqrt(100.0 + beta * 3.0)  # 35.59 K
    assert abs(cavity_q(CavityState(942.0), t_anchor, 10.0) - 4900.0) <= 1.0


def test_cavity_q_at_one_milliwatt_temperature():
    beta = 1.4 / (ALPHA * 3.0)
    slope = (1.0 / 4900.0 - 1.0 / 7600.0) / (beta * 3.0)
    expected = 1.0 / (1.0 / 7600.0 + slope * beta * 1.0)  # about 6420.7
    t_1mw = math.sqrt(100.0 + beta * 1.0)  # about 22.11 K
    assert math.isclose(cavity_q(CavityState(942.0), t_1mw, 10.0), expected, rel_tol=1e-12)


def test_cavity_q_strictly_decreasing_and_positive():
    cav = CavityState(942.0)
    qs = [cavity_q(cav, t, 10.0) for t in np.linspace(10.0, 80.0, 40)]
    assert all(q > 0.0 for q in qs)
    assert all(b < a for a, b in zip(qs, qs[1:]))


def test_purcell_on_resonance():
    assert purcell_factor(930.0, 930.0, 0.1, 5.0) == 5.0


def test_purcell_half_width_point():
    assert math.isclose(purcell_factor(930.05, 930.0, 0.1, 5.0), 3.0, rel_tol=1e-12)


def test_purcell_overlap_example():
    fwhm = 930.0 / 9000.0
    expected = 1.0 + 4.0 / (1.0 + (2.0 * 0.25 / fwhm) ** 2)  # about 1.1638
    assert math.isclose(purcell_factor(929.75, 930.0, fwhm, 5.0), expected, rel_tol=1e-12)
    assert math.isclose(expected, 1.1638, abs_tol=1e-4)


def test_purcell_even_and_decreasing():
    fwhm = 0.1033
    detunings = np.linspace(0.0, 0.5, 21)
    values = [purcell_factor(930.0 + d, 930.0, fwhm, 5.0) for d in detunings]
    mirror = [purcell_factor(930.0 - d, 930.0, fwhm, 5.0) for d in detunings]
    assert values == mirror
    assert all(b < a for a, b in zip(values, values[1:]))
    assert values[0] == 5.0 and all(v < 5.0 for v in values[1:])


def test_purcell_validates_inputs():
    with pytest.raises(ValueError):
        purcell_factor(930.0, 930.0, 0.0, 5.0)
    with pytest.raises(ValueError):
        purcell_factor(930.0, 930.0, 0.1, 0.5)


def test_synthesize_cavity_only():
    cav = CavityState(930.0, q0=9000.0)
    spec = synthesize_spectrum([], cav, 10.0, (929.5, 930.5), 401, baseline=0.0)
    assert [p.kind for p in spec.peaks] == ["cavity"]
    peak = spec.peaks[0]
    expected = lorentzian(spec.wavelengths_nm, peak.center_nm, peak.fwhm_nm, peak.height)
    assert np.array_equal(spec.intensities, expected)
    assert np.all(np.diff(spec.wavelengths_nm) > 0)
    assert np.all(spec.intensities >= 0.0)


def test_synthesize_two_detuned_dots():
    cav = CavityState(930.0, q0=9000.0)
    qds = [QDState("QD1", 929.75), QDState("QD2", 929.65)]
    spec = synthesize_spectrum(qds, cav, 10.0, (929.3, 930.7), 1200)
    assert [(p.kind, p.label) for p in spec.peaks] == [
        ("qd", "QD1"),
        ("qd", "QD2"),
        ("cavity", "cavity"),
    ]
    centers = [p.center_nm for p in spec.peaks]
    assert len(set(centers)) == 3


def test_synthesize_is_additive():
    cav = CavityState(930.0, q0=9000.0)
    q1 = QDState("QD1", 929.75)
    q2 = QDState("QD2", 929.65)
    kwargs = dict(t_k=14.0, window_nm=(929.3, 930.7), n_samples=700, baseline=0.05)
    both = synthesize_spectrum([q1, q2], cav, **kwargs)
    s1 = synthesize_spectrum([q1], cav, **kwargs)
    s2 = synthesize_spectrum([q2], cav, **kwargs)
    s0 = synthesize_spectrum([], cav, **kwargs)
    recombined = s1.intensities + s2.intensities - s0.intensities
    assert np.allclose(both.intensities, recombined, rtol=0.0, atol=1e-12)


def test_resonant_dot_brightens_by_the_purcell_ratio():
    cav = CavityState(930.0, q0=9000.0)
    qd = QDState("QD1", 929.75)
    f0 = 5.0
    t_res = temperature_for_shift(0.25 / (1.0 - 1.0 / cav.shift_ratio))
    kwargs = dict(window_nm=(929.3, 930.7), n_samples=900, f0=f0)
    spec_ref = synthesize_spectrum([qd], cav, 10.0, **kwargs)
    spec_res = synthesize_spectrum([qd], cav, t_res, **kwargs)
    h_ref = spec_ref.peaks[0].height
    h_res = spec_res.peaks[0].height
    f_initial = purcell_factor(929.75, 930.0, 930.0 / 9000.0, f0)
    assert math.isclose(h_res / h_ref, f0 / f_initial, rel_tol=1e-9)


def test_peak_height_maximized_at_zero_detuning():
    cav = CavityState(930.0, q0=9000.0)
    qd = QDState("QD1", 929.75)
    temps = np.linspace(10.0, 30.0, 401)
    heights = []
    detunings = []
    for t in temps:
        spec = synthesize_spectrum([qd], cav, float(t), (929.0, 931.0), 301)
        qd_peak, cav_peak = spec.peaks[0], spec.peaks[1]
        heights.append(qd_peak.height)
        detunings.append(abs(qd_peak.center_nm - cav_peak.center_nm))
    assert int(np.argmax(heights)) == int(np.argmin(detunings))


def test_synthesize_validates_window_and_samples():
    cav = CavityState(930.0)
    with pytest.raises(ValueError):
        synthesize_spectrum([], cav, 10.0, (930.0, 930.0), 100)
    with pytest.raises(ValueError):
        synthesize_spectrum([], cav, 10.0, (929.0, 931.0), 1)


def test_synthesize_rejects_overdriven_dot():
    with pytest.raises(TuningRangeExceeded):
        synthesize_spectrum([QD], None, temperature_for_shift(1.9), (926.0, 930.0), 100)


def test_state_invariants():
    with pytest.raises(ValueError):
        QDState("q", 927.0, alpha_nm_per_k2=-1.0)
    with pytest.raises(ValueError):
        QDState("q", 927.0, fwhm0_nm=0.0)
    with pytest.raises(ValueError):
        CavityState(930.0, q0=0.0)
    with pytest.raises(ValueError):
        CavityState(930.0, shift_ratio=1.0)


def test_a_dot_s_linewidth_is_positive_at_every_shift_it_accepts():
    # fwhm0 + slope * shift: negative inside the 1.8 nm range, 0 at its top,
    # and positive at the top but negative in the float dust past it that
    # qd_intensity accepts
    for fwhm0, slope in ((0.04, -0.1), (0.04, -0.04 / 1.8), (1.8, -1.0 / (1.0 + 5e-13))):
        with pytest.raises(ValueError, match="linewidth"):
            QDState("q", 927.0, fwhm0_nm=fwhm0, fwhm_slope=slope)
    qd = QDState("q", 927.0, fwhm_slope=-0.04 / 1.8 / (1.0 + 1e-9))
    t_top = temperature_for_shift(1.8 * (1.0 + 1e-12))
    assert qd_linewidth(qd, t_top, 10.0) > 0.0 and qd_intensity(qd, t_top, 10.0) > 0.0
    for fwhm0 in (0.0, math.nan):
        with pytest.raises(ValueError):
            QDState("q", 927.0, fwhm0_nm=fwhm0)


def test_a_dot_s_wavelength_is_positive():
    for lambda0 in (-1.0, 0.0, math.nan):
        with pytest.raises(ValueError, match="dot wavelength must be positive"):
            QDState("q", lambda0)


def test_a_dot_s_intensity_is_not_negative():
    for base in (-1.0, -1e-300, math.nan):
        with pytest.raises(ValueError, match="intensity"):
            QDState("q", 927.0, base_intensity=base)
    assert qd_intensity(QDState("q", 927.0, base_intensity=0.0), 10.0, 10.0) == 0.0
