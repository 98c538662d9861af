"""Command-line front end: thermal solves, power sweeps, tuning and calibration.

Every command reads JSON configs, writes CSV/JSON artifacts into --out and
uses exit codes 0 (success), 2 (config error), 3 (solver failure) and
4 (infeasible tuning). Outputs are deterministic: fixed float formatting,
no timestamps. A sweep that keeps two spectra or more, of at least
SPLIT_MIN_ROWS rows in all, hands the second half of its spectra to
config.write_bytes as the tail of spectra.csv, which a forked
child formats on a second core when there is one; the child never outlives
the command, and the bytes do not depend on it.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import itertools
import math
import sys
from pathlib import Path

import numpy as np

from . import config as cfg
from . import control, spectral, thermal
from .config import ConfigError
from .device import MEMBRANE, PAD, GridError, LayoutError, rasterize
from .spectral import Spectrum, TuningRangeExceeded

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_INFEASIBLE = 4

# Least spectra.csv rows for which a forked child formats the second half.
# fork + waitpid take about 4 ms in a tuner process of 30-110 MB, and after
# the fork each process copies every page it writes to: on 2 cores a split
# sweep broke even with an unsplit one at about 40k rows and won from 50k.
SPLIT_MIN_ROWS = 50_000


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tuner",
        description="Simulate laser-heating spectral tuning of quantum dots and "
        "photonic-crystal cavities on suspended membranes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("thermal", help="steady-state temperature map of a device")
    p.add_argument("config", help="device or scenario JSON file")
    p.add_argument("--power-abs-mw", type=float, default=None, help="absorbed power in mW")
    p.add_argument("--dx-um", type=float, default=None, help="grid pitch in um")
    p.add_argument("--bath-k", type=float, default=None, help="bath temperature in K")
    p.add_argument("--out", required=True, help="output directory")

    # a flag that sets a settings field has the field's name as dest (see _merge)
    p = sub.add_parser("sweep", help="synthesize spectra over a heating-power ramp")
    p.add_argument("scenario", help="scenario JSON file")
    p.add_argument("--power-min", type=float, dest="power_min_mw", metavar="POWER_MIN", help="first power in mW")
    p.add_argument("--power-max", type=float, dest="power_max_mw", metavar="POWER_MAX", help="last power in mW")
    p.add_argument("--steps", type=int, default=None, help="number of powers")
    p.add_argument(
        "--refit",
        action="store_true",
        help="re-extract peaks from the sampled spectra instead of the annotations",
    )
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("tune", help="solve for powers reaching a spectral target")
    p.add_argument("scenario", help="scenario JSON file")
    p.add_argument("--target", choices=cfg.TUNE_TARGETS, default=None)
    p.add_argument("--qd-id", action="append", dest="qd_ids", metavar="QD_ID", help="QD id (repeatable)")
    p.add_argument("--tol-nm", type=float, default=None, help="alignment tolerance in nm")
    p.add_argument("--min-q", type=float, default=None, help="cavity quality floor")
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("calibrate", help="fit shift-law coefficients from anchors")
    p.add_argument("--anchors-file", required=True, help="anchors JSON file")
    p.add_argument("--alpha", type=float, dest="alpha_nm_per_k2", metavar="ALPHA", help="shift coefficient nm/K^2")
    p.add_argument("--t-ref", type=float, dest="t_ref_k", metavar="T_REF", help="reference temperature in K")
    p.add_argument("--out", required=True, help="output directory")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    # looked up per call rather than bound into the cached parser, so that a
    # rebound cmd_* (a wrapper installed after the first call) is honoured
    command = globals()[f"cmd_{args.command}"]
    try:
        return command(args)
    except (ConfigError, LayoutError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except GridError as e:
        print(f"solver error: {e}", file=sys.stderr)
        return EXIT_SOLVER


def run() -> None:
    raise SystemExit(main())


def _out_dir(args) -> Path:
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as e:  # e.g. --out names an existing file
        raise ConfigError(f"--out {out}: {e.strerror}") from e
    return out


def _merge(record, args):
    """The settings record with each flag the user gave in place of its
    field, checked again by the record's own rules."""
    given = {}
    for field in dataclasses.fields(record):
        value = getattr(args, field.name, None)
        if value is not None:
            given[field.name] = tuple(value) if isinstance(value, list) else value
    return dataclasses.replace(record, **given)


def cmd_thermal(args) -> int:
    device, bath_k, params = cfg.load_device_or_scenario(args.config)
    params = _merge(params, args)
    bath_k = cfg.bath_temperature(args.bath_k) if args.bath_k is not None else bath_k
    power_mw = params.power_abs_mw

    layout = device.layout
    grid = rasterize(layout, params.dx_um, absorbed_power_w=power_mw * 1e-3, t_bath_k=bath_k)

    field, report = thermal.solve_steady_state(grid)
    try:
        lumped_k = thermal.lumped_temperature(layout, power_mw * 1e-3, bath_k)
    except thermal.ThermalModelError as e:
        print(f"warning: lumped model: {e}", file=sys.stderr)
        lumped_k = None

    pad_cells = field.t_k[grid.kind == PAD]
    with np.errstate(over="ignore"):  # an overflowing field's mean is inf, written as null
        pad_mean_k = float(np.mean(pad_cells))
    extras = {
        "bath_k": bath_k,
        "power_abs_mw": power_mw,
        "dx_um": params.dx_um,
        "pad_peak_k": float(np.max(pad_cells)),
        "pad_mean_k": pad_mean_k,
        "max_k": float(np.nanmax(field.t_k)),
        "lumped_island_k": lumped_k,
        "n_cells_active": int(grid.active().sum()),
        "cavity_k": None,
    }
    if layout.cavity_xy_um is not None:
        # the nearest cell on the membrane's rows, not on the bridge rows around them
        rows = np.flatnonzero(np.isin(grid.kind, (MEMBRANE, PAD)).any(axis=1))
        ix = int(np.argmin(np.abs(grid.cell_x_um() - layout.cavity_xy_um[0])))
        iy = int(rows[np.argmin(np.abs(grid.cell_y_um()[rows] - layout.cavity_xy_um[1]))])
        extras["cavity_k"] = float(field.t_k[iy, ix])

    out = _out_dir(args)
    cfg.write_field_csv(field, out / "field.csv")
    cfg.write_json({**dataclasses.asdict(report), **extras}, out / "report.json")
    if not report.converged:
        print(
            f"solver error: no convergence in {report.iterations} iterations "
            f"(residual {report.residual:.3g})",
            file=sys.stderr,
        )
        return EXIT_SOLVER
    return EXIT_OK


def _refit_peaks(spectrum: Spectrum) -> list[tuple[float, float, float]]:
    """Extract (center, fwhm, height) for local maxima of the sampled curve
    by parabolic interpolation, with half-height linear crossings.

    One array comparison finds the maxima (y[k] > y[k-1] and y[k] >= y[k+1]);
    per maximum, the half-height crossing is the last bracketing interval left
    of it and the first right of it, or the window edge when there is none.
    The per-peak arithmetic runs on the sampled float64 values.
    """
    x = spectrum.wavelengths_nm
    y = spectrum.intensities
    dx = x[1] - x[0]
    maxima = np.flatnonzero((y[1:-1] > y[:-2]) & (y[1:-1] >= y[2:])) + 1
    found: list[tuple[float, float, float]] = []
    for k in maxima.tolist():
        denom = y[k - 1] - 2.0 * y[k] + y[k + 1]
        offset = 0.0 if denom == 0.0 else 0.5 * (y[k - 1] - y[k + 1]) / denom
        center = x[k] + offset * dx
        height = y[k] - 0.25 * (y[k - 1] - y[k + 1]) * offset
        half = height / 2.0
        left = x[0]
        # hit j brackets [m - 1, m] with m = j + 1 <= k
        hits = np.flatnonzero((y[:k] <= half) & (half <= y[1 : k + 1]))
        if hits.size:
            m = int(hits[-1]) + 1
            frac = (y[m] - half) / (y[m] - y[m - 1])
            left = x[m] - frac * dx
        right = x[-1]
        # hit j brackets [m, m + 1] with m = k + j
        hits = np.flatnonzero((y[k + 1 :] <= half) & (half <= y[k:-1]))
        if hits.size:
            m = k + int(hits[0])
            frac = (y[m] - half) / (y[m] - y[m + 1])
            right = x[m] + frac * dx
        found.append((center, right - left, height))
    return found


def _track_rows(spectrum: Spectrum, refit: bool) -> list[tuple[str, str, float, float, float]]:
    rows = []
    refitted = _refit_peaks(spectrum) if refit else None
    for peak in spectrum.peaks:
        center, fwhm, height = peak.center_nm, peak.fwhm_nm, peak.height
        if refitted:
            center, fwhm, height = min(refitted, key=lambda p: abs(p[0] - peak.center_nm))
        rows.append((peak.kind, peak.label, center, fwhm, height))
    return rows


def cmd_sweep(args) -> int:
    scenario = cfg.load_scenario(args.scenario)
    sweep = _merge(scenario.sweep, args)
    cfg.check_sweep_size(scenario.spectrum, sweep)

    structure = scenario.main
    pm = structure.power_map
    sp = scenario.spectrum
    device = structure.device

    powers = np.linspace(sweep.power_min_mw, sweep.power_max_mw, sweep.steps)
    # Every spectrum of a sweep is sampled on one wavelength grid, so its
    # column is formatted once: row_tails[s] is b",<lambda_s>,%.9g\n". Per
    # power, only the formatted power and the intensities are kept.
    row_tails: list[bytes] | None = None
    spectra_rows: list[tuple[bytes, np.ndarray]] = []
    track: list[bytes] = []
    skipped: list[str] = []
    for p_mw in powers:
        try:
            t_k = control.temperature_from_power(pm, float(p_mw))
            spectrum = spectral.synthesize_spectrum(
                device.qd_states,
                device.cavity,
                t_k,
                sp.window_nm,
                sp.samples,
                t_ref_k=pm.t_bath_k,
                f0=sp.f0,
                cavity_height=sp.cavity_height,
                baseline=sp.baseline,
            )
        except (control.PowerRangeError, TuningRangeExceeded) as e:
            skipped.append(f"power {p_mw:.9g} mW skipped: {e}")
            continue
        if row_tails is None:
            row_tails = [b",%.9g,%%.9g\n" % lam for lam in spectrum.wavelengths_nm.tolist()]
        power = b"%.9g" % p_mw
        spectra_rows.append((power, spectrum.intensities))
        for kind, label, center, fwhm, height in _track_rows(spectrum, args.refit):
            # kind and label are arguments, never part of a template
            track.append(
                b"%s,%s,%s,%.9g,%.9g,%.9g\n"
                % (power, kind.encode(), label.encode(), center, fwhm, height)
            )

    out = _out_dir(args)
    # b'%.9g' % v is exactly format(v, '.9g').encode(); the power is digits,
    # sign, '.' and 'e', so it holds no '%' of its own. One chunk per spectrum,
    # formatted as it is written.
    def spectra(rows):
        return ((power + power.join(row_tails)) % tuple(intensities.tolist()) for power, intensities in rows)

    split = len(spectra_rows) >= 2 and len(spectra_rows) * sp.samples >= SPLIT_MIN_ROWS
    half = (len(spectra_rows) + 1) // 2 if split else len(spectra_rows)
    cfg.write_bytes(
        itertools.chain([b"power_mw,lambda_nm,intensity\n"], spectra(spectra_rows[:half])),
        out / "spectra.csv",
        tail=spectra(spectra_rows[half:]) if split else None,
    )
    cfg.write_bytes([b"power_mw,kind,label,center_nm,fwhm_nm,height\n", b"".join(track)], out / "peaks.csv")
    for msg in skipped:
        print(f"warning: {msg}", file=sys.stderr)
    return EXIT_OK


def cmd_tune(args) -> int:
    scenario = cfg.load_scenario(args.scenario)
    tune = _merge(scenario.tune, args)
    qds = cfg.tuned_dots(scenario, tune)

    if tune.target == "qd-to-cavity":
        structure = scenario.main
        if structure.device.cavity is None:
            raise ConfigError("qd-to-cavity tuning needs a cavity in the device file")
        solution = control.align_qd_to_cavity(
            structure.power_map,
            qds[0],
            structure.device.cavity,
            tol_nm=tune.tol_nm,
            f0=scenario.spectrum.f0,
            min_q=tune.min_q,
        )
    else:
        if len(scenario.structures) < 2:
            raise ConfigError("qd-to-qd tuning needs at least two structures")
        # all dots meet at the reddest rest wavelength; that dot stays unpowered
        target_lambda = max(qd.lambda0_nm for qd in qds)
        targets = [
            (s.structure_id, qd, target_lambda)
            for s, qd in zip(scenario.structures, qds)
        ]
        solution = control.align_multi(
            [s.power_map for s in scenario.structures],
            scenario.crosstalk,
            targets,
            tol_nm=tune.tol_nm,
        )

    out = _out_dir(args)
    cfg.write_json(solution.to_dict(), out / "solution.json")
    for note in solution.warnings:
        print(f"warning: {note}", file=sys.stderr)
    return EXIT_OK if solution.feasible else EXIT_INFEASIBLE


def _fit_through_origin(x: np.ndarray, y: np.ndarray, ctx: str) -> tuple[float, float]:
    cfg.finite(x, f"{ctx}: fit abscissae")
    if x.size < 2:
        raise ConfigError(f"{ctx}: need at least two anchor points")
    if np.unique(x).size < 2:
        raise ConfigError(f"{ctx}: degenerate anchors, all points share one abscissa")
    with np.errstate(all="ignore"):
        xx = float(np.dot(x, x))
        if not 0.0 < xx < math.inf:
            raise ConfigError(f"{ctx}: anchor abscissae out of range, their squares under- or overflow")
        slope = float(np.dot(x, y) / xx)
        residual = float(np.sqrt(np.mean((y - slope * x) ** 2)))
    if not (math.isfinite(slope) and math.isfinite(residual)):
        raise ConfigError(f"{ctx}: anchors out of range, the fit overflows")
    return slope, residual


def cmd_calibrate(args) -> int:
    anchors = _merge(cfg.load_anchors(args.anchors_file), args)
    t_ref, alpha = anchors.t_ref_k, anchors.alpha_nm_per_k2

    results: dict[str, dict] = {}
    for sid, (mode, pts) in anchors.blocks.items():
        ctx = f"{args.anchors_file}: {sid}"
        if mode == "temperature":
            with np.errstate(over="ignore"):  # an infinite abscissa fails the fit's check
                x = pts[:, 0] ** 2 - np.float64(t_ref) ** 2
            slope, residual = _fit_through_origin(x, pts[:, 1], ctx)
            fit = {"alpha_nm_per_k2": slope, "beta_k2_per_mw": None, "alpha_beta_nm_per_mw": None}
        else:
            slope, residual = _fit_through_origin(pts[:, 0], pts[:, 1], ctx)
            fit = {"alpha_nm_per_k2": alpha, "beta_k2_per_mw": slope / alpha, "alpha_beta_nm_per_mw": slope}
        results[sid] = {"mode": mode, **fit, "residual_rms_nm": residual, "n_anchors": int(pts.shape[0])}

    out = _out_dir(args)
    cfg.write_json(
        {
            "t_ref_k": t_ref,
            "q_slope_per_k2": spectral.DEFAULT_Q_SLOPE_PER_K2,
            "shift_ratio": spectral.DEFAULT_SHIFT_RATIO,
            "structures": results,
        },
        out / "calibration.json",
    )
    return EXIT_OK


if __name__ == "__main__":
    run()
