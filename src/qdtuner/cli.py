"""Command-line front end: thermal solves, power sweeps, tuning and calibration.

Every command reads JSON configs, writes CSV/JSON artifacts into --out and
uses exit codes 0 (success), 2 (config error), 3 (solver failure) and
4 (infeasible tuning). Outputs are deterministic: fixed float formatting,
no timestamps.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

import numpy as np

from . import config as cfg
from . import control, spectral, thermal
from .config import ConfigError
from .device import PAD, GridError, LayoutError, rasterize
from .spectral import Spectrum, TuningRangeExceeded

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_INFEASIBLE = 4


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
    p.add_argument("--tol", type=float, default=None, help="solver tolerance")
    p.add_argument("--max-iter", type=int, default=None, help="solver iteration cap")
    p.add_argument("--bath-k", type=float, default=None, help="bath temperature in K")
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("sweep", help="synthesize spectra over a heating-power ramp")
    p.add_argument("scenario", help="scenario JSON file")
    p.add_argument("--power-min", type=float, default=None, help="first power in mW")
    p.add_argument("--power-max", type=float, default=None, help="last power in mW")
    p.add_argument("--steps", type=int, default=None, help="number of powers")
    p.add_argument(
        "--refit",
        action="store_true",
        help="re-extract peaks from the sampled spectra instead of the annotations",
    )
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("tune", help="solve for powers reaching a spectral target")
    p.add_argument("scenario", help="scenario JSON file")
    p.add_argument("--target", choices=("qd-to-cavity", "qd-to-qd"), default=None)
    p.add_argument("--qd-id", action="append", default=None, help="QD id (repeatable)")
    p.add_argument("--tol-nm", type=float, default=None, help="alignment tolerance in nm")
    p.add_argument("--min-q", type=float, default=None, help="cavity quality floor")
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("calibrate", help="fit shift-law coefficients from anchors")
    p.add_argument("--anchors-file", required=True, help="anchors JSON file")
    p.add_argument("--alpha", type=float, default=None, help="shift coefficient nm/K^2")
    p.add_argument("--t-ref", type=float, default=None, help="reference temperature in K")
    p.add_argument("--out", required=True, help="output directory")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    # looked up per call rather than bound into the cached parser, so that a
    # rebound cmd_* (a wrapper installed after the first call) is honoured
    command = globals()[f"cmd_{args.command}"]
    try:
        return command(args)
    except (ConfigError, LayoutError, FileNotFoundError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (GridError, thermal.ThermalModelError) as e:
        print(f"solver error: {e}", file=sys.stderr)
        return EXIT_SOLVER


def run() -> None:
    raise SystemExit(main())


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_thermal(args) -> int:
    device, scenario = cfg.load_device_or_scenario(args.config)
    params = scenario.thermal if scenario is not None and scenario.thermal else cfg.ThermalParams()
    bath_k = args.bath_k if args.bath_k is not None else (
        scenario.bath_k if scenario is not None else 10.0
    )
    power_mw = args.power_abs_mw if args.power_abs_mw is not None else params.power_abs_mw
    dx_um = args.dx_um if args.dx_um is not None else params.dx_um
    tol = args.tol if args.tol is not None else params.tol
    max_iter = args.max_iter if args.max_iter is not None else params.max_iter
    for name, value in (
        ("absorbed power", power_mw), ("bath temperature", bath_k), ("dx", dx_um), ("tol", tol)
    ):
        cfg.finite(value, name)
    if power_mw < 0:
        raise ConfigError("absorbed power must be non-negative")
    if bath_k <= 0:
        raise ConfigError("bath temperature must be positive")
    if tol <= 0:
        raise ConfigError("tol must be positive")
    if max_iter < 1:
        raise ConfigError("max-iter must be at least 1")

    layout = device.layout
    try:
        grid = rasterize(layout, dx_um, absorbed_power_w=power_mw * 1e-3, t_bath_k=bath_k)
    except GridError as e:
        raise ConfigError(str(e)) from e

    field, report = thermal.solve_steady_state(grid, tol=tol, max_iter=max_iter)
    lumped_k = thermal.lumped_temperature(layout, power_mw * 1e-3, bath_k)

    pad_cells = field.t_k[grid.kind == PAD]
    extras = {
        "bath_k": bath_k,
        "power_abs_mw": power_mw,
        "dx_um": dx_um,
        "pad_peak_k": float(np.max(pad_cells)),
        "pad_mean_k": float(np.mean(pad_cells)),
        "max_k": float(np.nanmax(field.t_k)),
        "lumped_island_k": lumped_k,
        "n_cells_active": int(grid.active().sum()),
        "cavity_k": None,
    }
    if layout.cavity_xy_um is not None:
        ix = int(np.argmin(np.abs(grid.cell_x_um() - layout.cavity_xy_um[0])))
        iy = int(np.argmin(np.abs(grid.cell_y_um() - layout.cavity_xy_um[1])))
        extras["cavity_k"] = float(field.t_k[iy, ix])

    out = _out_dir(args)
    cfg.write_field_csv(field, out / "field.csv")
    cfg.write_report_json(report, extras, out / "report.json")
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
    sweep = scenario.sweep if scenario.sweep is not None else cfg.SweepParams()
    p_min = args.power_min if args.power_min is not None else sweep.power_min_mw
    p_max = args.power_max if args.power_max is not None else sweep.power_max_mw
    steps = args.steps if args.steps is not None else sweep.steps
    cfg.finite(p_min, "power-min")
    cfg.finite(p_max, "power-max")
    if steps < 2:
        raise ConfigError("sweep needs at least 2 steps")
    if p_min > p_max:
        raise ConfigError("sweep needs power-min <= power-max")

    structure = scenario.main
    pm = structure.power_map
    sp = scenario.spectrum
    device = structure.device

    powers = np.linspace(p_min, p_max, steps)
    # Every spectrum of a sweep is sampled on one wavelength grid, so its
    # column is formatted once: row_tails[s] is ",<lambda_s>,%.9g\n". Per
    # power, only the formatted power and the intensities are kept.
    row_tails: list[str] | None = None
    spectra_rows: list[tuple[str, np.ndarray]] = []
    track: list[str] = []
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
            row_tails = [f",{lam:.9g},%.9g\n" for lam in spectrum.wavelengths_nm.tolist()]
        power = cfg.fmt9(p_mw)
        spectra_rows.append((power, spectrum.intensities))
        for kind, label, center, fwhm, height in _track_rows(spectrum, args.refit):
            track.append(
                f"{power},{kind},{label},{cfg.fmt9(center)},{cfg.fmt9(fwhm)},{cfg.fmt9(height)}\n"
            )

    out = _out_dir(args)
    with open(out / "spectra.csv", "w", encoding="utf-8", newline="\n") as f:
        f.write("power_mw,lambda_nm,intensity\n")
        for power, intensities in spectra_rows:
            # '%.9g' % v formats exactly as format(v, '.9g'); the power is
            # digits, sign, '.' and 'e', so it holds no '%' of its own
            f.write((power + power.join(row_tails)) % tuple(intensities.tolist()))
    with open(out / "peaks.csv", "w", encoding="utf-8", newline="\n") as f:
        f.write("power_mw,kind,label,center_nm,fwhm_nm,height\n" + "".join(track))
    for msg in skipped:
        print(f"warning: {msg}", file=sys.stderr)
    return EXIT_OK


def cmd_tune(args) -> int:
    scenario = cfg.load_scenario(args.scenario)
    tune = scenario.tune if scenario.tune is not None else cfg.TuneParams()
    target = args.target if args.target is not None else tune.target
    tol_nm = args.tol_nm if args.tol_nm is not None else tune.tol_nm
    min_q = args.min_q if args.min_q is not None else tune.min_q
    qd_ids = tuple(args.qd_id) if args.qd_id else tune.qd_ids
    if cfg.finite(tol_nm, "tol-nm") <= 0:
        raise ConfigError("tol-nm must be positive")
    if min_q is not None:
        cfg.finite(min_q, "min-q")

    if target == "qd-to-cavity":
        structure = scenario.main
        device = structure.device
        if device.cavity is None:
            raise ConfigError("qd-to-cavity tuning needs a cavity in the device file")
        if not device.qd_states:
            raise ConfigError("qd-to-cavity tuning needs at least one QD")
        qd = device.qd(qd_ids[0]) if qd_ids else device.qd_states[0]
        solution = control.align_qd_to_cavity(
            structure.power_map,
            qd,
            device.cavity,
            tol_nm=tol_nm,
            f0=scenario.spectrum.f0,
            min_q=min_q,
        )
    else:
        if len(scenario.structures) < 2:
            raise ConfigError("qd-to-qd tuning needs at least two structures")
        if qd_ids and len(qd_ids) != len(scenario.structures):
            raise ConfigError("qd-to-qd tuning needs one QD id per structure")
        qds = []
        for k, structure in enumerate(scenario.structures):
            if not structure.device.qd_states:
                raise ConfigError(f"structure {structure.structure_id!r} has no QDs")
            qds.append(
                structure.device.qd(qd_ids[k]) if qd_ids else structure.device.qd_states[0]
            )
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
            tol_nm=tol_nm,
        )

    out = _out_dir(args)
    cfg.write_solution_json(solution, out / "solution.json")
    for note in solution.warnings:
        print(f"warning: {note}", file=sys.stderr)
    return EXIT_OK if solution.feasible else EXIT_INFEASIBLE


def _fit_through_origin(x: np.ndarray, y: np.ndarray, ctx: str) -> tuple[float, float]:
    if x.size < 2:
        raise ConfigError(f"{ctx}: need at least two anchor points")
    if np.unique(x).size < 2:
        raise ConfigError(f"{ctx}: degenerate anchors, all points share one abscissa")
    slope = float(np.dot(x, y) / np.dot(x, x))
    residual = float(np.sqrt(np.mean((y - slope * x) ** 2)))
    return slope, residual


def cmd_calibrate(args) -> int:
    anchors = cfg.load_anchors(args.anchors_file)
    t_ref = cfg.finite(args.t_ref if args.t_ref is not None else anchors.t_ref_k, "t-ref")
    alpha = cfg.finite(args.alpha if args.alpha is not None else anchors.alpha_nm_per_k2, "alpha")
    if alpha <= 0:
        raise ConfigError("alpha must be positive")

    results: dict[str, dict] = {}
    for sid, (mode, pts) in anchors.blocks.items():
        ctx = f"{args.anchors_file}: {sid}"
        if mode == "temperature":
            slope, residual = _fit_through_origin(pts[:, 0] ** 2 - t_ref**2, pts[:, 1], ctx)
            results[sid] = {
                "mode": "temperature",
                "alpha_nm_per_k2": slope,
                "beta_k2_per_mw": None,
                "alpha_beta_nm_per_mw": None,
                "residual_rms_nm": residual,
                "n_anchors": int(pts.shape[0]),
            }
        else:
            slope, residual = _fit_through_origin(pts[:, 0], pts[:, 1], ctx)
            results[sid] = {
                "mode": "power",
                "alpha_nm_per_k2": alpha,
                "beta_k2_per_mw": slope / alpha,
                "alpha_beta_nm_per_mw": slope,
                "residual_rms_nm": residual,
                "n_anchors": int(pts.shape[0]),
            }

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
