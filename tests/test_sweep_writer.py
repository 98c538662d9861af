"""`tuner sweep` writes the same bytes as a plain per-value, per-row writer.

The reference below formats every value with format(v, '.9g'), row by row,
and extracts refit peaks with a per-sample loop; the command's bulk writer
and array scan must reproduce it exactly on generated scenarios.
"""

import json
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qdtuner import cli, config, control, spectral
from qdtuner.spectral import Spectrum

# geometry of the shipped 320 nm-bridge device; the generated ones vary the optics
GEOMETRY = {
    "membrane": {"length_um": 12.0, "width_um": 4.0, "thickness_nm": 150.0},
    "bridges": {"count": 6, "width_nm": 320.0, "length_um": 2.0},
    "pad": {"x_um": 0.0, "y_um": 0.5, "w_um": 3.0, "h_um": 3.0, "profile": "uniform"},
    "material": {"kappa_ref": 0.03, "t_ref": 10.0, "exponent": 2.0},
}


def reference_refit_peaks(x, y):
    dx = x[1] - x[0]
    found = []
    for k in range(1, len(x) - 1):
        if not (y[k] > y[k - 1] and y[k] >= y[k + 1]):
            continue
        denom = y[k - 1] - 2.0 * y[k] + y[k + 1]
        offset = 0.0 if denom == 0.0 else 0.5 * (y[k - 1] - y[k + 1]) / denom
        center = x[k] + offset * dx
        height = y[k] - 0.25 * (y[k - 1] - y[k + 1]) * offset
        half = height / 2.0
        left = x[0]
        for m in range(k, 0, -1):
            if y[m - 1] <= half <= y[m]:
                frac = (y[m] - half) / (y[m] - y[m - 1])
                left = x[m] - frac * dx
                break
        right = x[-1]
        for m in range(k, len(x) - 1):
            if y[m + 1] <= half <= y[m]:
                frac = (y[m] - half) / (y[m] - y[m + 1])
                right = x[m] + frac * dx
                break
        found.append((center, right - left, height))
    return found


def reference_sweep(scenario_path, refit):
    """(spectra.csv, peaks.csv) text of a sweep, one format() per value."""
    scenario = config.load_scenario(scenario_path)
    pm = scenario.main.power_map
    device = scenario.main.device
    sp = scenario.spectrum
    sw = scenario.sweep

    def f9(v):
        return format(float(v), ".9g")

    spectra = ["power_mw,lambda_nm,intensity\n"]
    peaks = ["power_mw,kind,label,center_nm,fwhm_nm,height\n"]
    for p in np.linspace(sw.power_min_mw, sw.power_max_mw, sw.steps):
        try:
            t_k = control.temperature_from_power(pm, float(p))
            s = spectral.synthesize_spectrum(
                device.qd_states, device.cavity, t_k, sp.window_nm, sp.samples,
                t_ref_k=pm.t_bath_k, f0=sp.f0, cavity_height=sp.cavity_height,
                baseline=sp.baseline,
            )
        except (control.PowerRangeError, spectral.TuningRangeExceeded):
            continue
        for lam, inten in zip(s.wavelengths_nm, s.intensities):
            spectra.append(f"{f9(p)},{f9(lam)},{f9(inten)}\n")
        refitted = reference_refit_peaks(s.wavelengths_nm, s.intensities) if refit else None
        for peak in s.peaks:
            row = (peak.center_nm, peak.fwhm_nm, peak.height)
            if refitted:
                row = min(refitted, key=lambda q: abs(q[0] - peak.center_nm))
            peaks.append(f"{f9(p)},{peak.kind},{peak.label},{','.join(f9(v) for v in row)}\n")
    return "".join(spectra), "".join(peaks)


@st.composite
def sweep_scenarios(draw):
    lo = draw(st.floats(925.0, 935.0))
    hi = lo + draw(st.floats(0.05, 4.0))
    # ids may hold '%' (config allows it): labels must reach peaks.csv
    # verbatim, never as part of a %-format template
    ids = draw(st.lists(st.sampled_from(["QD1", "QD2", "QD3", "QD%1", "%s", "%%", "%.9g"]),
                        max_size=3, unique=True))
    qds = [
        {"id": qd_id, "x_um": 9.5 + 0.2 * k, "y_um": 2.0,
         "lambda0_nm": draw(st.floats(lo - 1.0, hi))}
        for k, qd_id in enumerate(ids)
    ]
    cavity = None
    if draw(st.booleans()):
        cavity = {"x_um": 10.0, "y_um": 2.0, "lambda0_nm": draw(st.floats(lo - 0.5, hi)),
                  "q0": draw(st.floats(1000.0, 12000.0))}
    # 1.4 nm per 3 mW: dots leave their 1.8 nm range past ~3.86 mW, and the
    # 4 mW calibration limit stops a dotless sweep, so the skip path runs
    p_max = draw(st.floats(0.0, 6.0))
    scenario = {
        "bath_k": 10.0,
        "calibration": {"anchor_shift_nm": 1.4, "anchor_power_mw": 3.0, "p_max_mw": 4.0},
        "spectrum": {
            "window_nm": [lo, hi],
            "samples": draw(st.integers(2, 400)),
            "f0": draw(st.floats(1.0, 8.0)),
            "cavity_height": draw(st.floats(0.0, 1.5)),
            "baseline": draw(st.sampled_from([0.0, 0.01, 1.0])),
        },
        "sweep": {"power_min_mw": draw(st.floats(0.0, p_max)), "power_max_mw": p_max,
                  "steps": draw(st.integers(2, 12))},
    }
    return dict(GEOMETRY, cavity=cavity, qds=qds), scenario


def _example(p_min, p_max, steps, dots=0):
    """A (device, scenario) pair like the generated ones, with the given ramp."""
    qds = [{"id": f"QD{k}", "x_um": 9.5 + 0.2 * k, "y_um": 2.0, "lambda0_nm": 930.0} for k in range(dots)]
    scenario = {
        "bath_k": 10.0,
        "calibration": {"anchor_shift_nm": 1.4, "anchor_power_mw": 3.0, "p_max_mw": 4.0},
        "spectrum": {"window_nm": [929.5, 932.0], "samples": 7},
        "sweep": {"power_min_mw": p_min, "power_max_mw": p_max, "steps": steps},
    }
    return dict(GEOMETRY, cavity=None, qds=qds), scenario


@pytest.fixture(autouse=True)
def no_child_left_behind():
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _sweep(argv, split):
    """Run `tuner sweep`, with split from any number of rows: the second half
    of the kept spectra then goes to a forked child if there are two or
    more. Returns the exit code and the number of forks."""
    if not split:
        return cli.main(argv), 0
    forks = []
    fork = os.fork

    def counted_fork():
        forks.append(1)
        return fork()

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "SPLIT_MIN_ROWS", 0)
        mp.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        mp.setattr(os, "fork", counted_fork)
        code = cli.main(argv)
    return code, len(forks)


@settings(max_examples=40, deadline=None)
@example(_example(4.5, 5.0, 3))  # every power past the 4 mW limit: no spectrum, no split
@example(_example(3.0, 5.0, 2))  # one spectrum: no split
@example(_example(0.0, 2.0, 3, dots=1))  # three spectra: the head holds two
@given(sweep_scenarios())
def test_sweep_csvs_match_reference_writer(generated):
    device, scenario = generated
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "device.json").write_text(json.dumps(device), encoding="utf-8")
        path = tmp / "scenario.json"
        path.write_text(json.dumps(dict(scenario, device="device.json")), encoding="utf-8")
        for refit in (False, True):
            spectra, peaks = reference_sweep(path, refit)
            kept = (spectra.count("\n") - 1) // scenario["spectrum"]["samples"]
            # the split is taken only from SPLIT_MIN_ROWS rows, far more than
            # any generated sweep has: forced, it runs on every one of them
            # that keeps two spectra or more
            for split in (False, True):
                out = tmp / f"out_{refit}_{split}"
                argv = ["sweep", str(path), "--out", str(out)] + (["--refit"] if refit else [])
                assert _sweep(argv, split) == (0, int(split and kept >= 2))
                assert (out / "spectra.csv").read_bytes() == spectra.encode("utf-8")
                assert (out / "peaks.csv").read_bytes() == peaks.encode("utf-8")


def _spectrum(y):
    y = np.asarray(y, dtype=float)
    return Spectrum(np.linspace(930.0, 931.0, y.size), y, ())


def _bits(peaks):
    return [tuple(float(v).hex() for v in p) for p in peaks]


def _refit_both(y):
    s = _spectrum(y)
    return cli._refit_peaks(s), reference_refit_peaks(s.wavelengths_nm, s.intensities)


def test_refit_peaks_plateau_sits_between_its_samples():
    got, want = _refit_both([0.0, 1.0, 2.0, 2.0, 1.0, 0.0])
    assert _bits(got) == _bits(want)
    (center, fwhm, height), = got  # y[2] == y[3]: one maximum, at k = 2
    x = np.linspace(930.0, 931.0, 6)
    assert center == x[2] + 0.5 * (x[1] - x[0])
    assert height == 2.125
    assert fwhm > 0.0


def test_refit_peaks_uncrossed_half_height_spans_the_window():
    got, want = _refit_both([1.2, 1.5, 2.0, 1.5, 1.2])
    assert _bits(got) == _bits(want)
    (center, fwhm, height), = got
    assert fwhm == 931.0 - 930.0  # left = x[0], right = x[-1]
    assert (center, height) == (930.5, 2.0)


@pytest.mark.parametrize("y", [[0.5] * 7, [0.0, 0.0], [3.0, 2.0, 1.0, 0.0]])
def test_refit_peaks_without_maxima_finds_nothing(y):
    got, want = _refit_both(y)
    assert got == want == []


@settings(max_examples=300, deadline=None)
@example([1.0, 2.0, 4.0, 2.0, 1.0])  # half height lands on a sample on both sides
@example([0.0, 2.0, 2.0, 4.0, 2.0, 2.0, 0.0])
@given(
    st.lists(st.integers(0, 4).map(float), min_size=2, max_size=24)
    | st.lists(st.floats(-10.0, 10.0), min_size=2, max_size=40)
)
def test_refit_peaks_matches_per_sample_loop(y):
    # small integers make plateaus and exact half-height hits common
    with np.errstate(all="ignore"):
        got, want = _refit_both(y)
    assert _bits(got) == _bits(want)


@example(float("nan"))
@example(float("inf"))
@example(float("-inf"))
@example(-0.0)
@example(5e-324)
@example(2.2250738585072014e-308)
@given(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True))
def test_percent_format_matches_format_builtin(v):
    # the writers format bytes templates: b"%.9g" in sweep, b"%.6g" in field.csv
    assert "%.9g" % v == format(v, ".9g")
    assert b"%.9g" % v == format(v, ".9g").encode()
    assert b"%.6g" % v == format(v, ".6g").encode()
