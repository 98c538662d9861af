"""The benchmark's three workloads: their seeded inputs, operations and checks.

Every workload is a closed loop run by one client: it hands out rounds, a
round is a fixed list of operations, and each operation is checked as soon
as it returns. Inputs come only from the seed. Config files are written to a
scratch directory before the timed loop starts.

- thermal_ramp: `tuner thermal` on the two shipped bridge-width devices at
  two grid pitches. Nearly all of its time is the Picard loop in `thermal`.
- sweep_render: `tuner sweep` on seeded variants of the fig2a, fig3 and fig4
  scenarios. It never reaches `thermal`; its time is CSV formatting and the
  Python loops of the sweep command.
- tune_plan: many small `tuner tune` and `tuner calibrate` runs plus direct
  `control.align_multi` plans. Its time is config reads and the control
  solvers.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import statistics
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from qdtuner import cli, config, control, spectral

OK = "ok"
# A feasible plan that align_multi gives up on: its fixed-point loop reports
# no convergence (or a fixed point that disagrees with the direct solve) on
# strong crosstalk, although np.linalg.solve finds feasible powers. The
# outcome uses a documented exit path, so it is counted apart from wrong
# results and crashes, and it lowers useful_ratio.
UNSOLVED = "unsolved"
_GIVE_UP_NOTES = ("no convergence within", "fixed point disagrees with the direct linear solve")

DOCUMENTED_EXIT_CODES = (0, 2, 3, 4)
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def fmt9(x) -> str:
    """The CSV number format, kept apart from qdtuner's own so that the
    checks do not trust the formatter they check."""
    return format(float(x), ".9g")


@dataclass
class Op:
    """One operation: `run` is timed, `check` grades what it returned."""

    kind: str
    root: str  # name of the operation's root span
    run: Callable[[], object]
    check: Callable[[object], str]  # OK, UNSOLVED or a failure description
    plan_feasible: bool = False  # the oracle says a feasible power plan exists


@dataclass
class CliOutcome:
    code: int | None
    stderr: str
    error: str | None  # traceback of an exception that escaped cli.main


def run_cli(argv: list[str]) -> CliOutcome:
    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as e:
        return CliOutcome(e.code if isinstance(e.code, int) else 1, err.getvalue(), None)
    except Exception:
        return CliOutcome(None, err.getvalue(), traceback.format_exc())
    return CliOutcome(code, err.getvalue(), None)


def _exit_problem(outcome: CliOutcome, expected: int) -> str | None:
    if outcome.error is not None:
        return "traceback: " + outcome.error.strip().splitlines()[-1]
    if outcome.code not in DOCUMENTED_EXIT_CODES:
        return f"undocumented exit code {outcome.code}"
    if outcome.code != expected:
        return f"exit code {outcome.code}, expected {expected}: {outcome.stderr.strip()[:200]}"
    return None


def _close(got: float, want: float, scale: float, from_file: bool) -> bool:
    """Agreement to 1e-9 of scale; file values also carry 9-digit rounding."""
    tol = 1e-9 * max(1.0, scale)
    if from_file and want != 0.0:
        tol += 10.0 ** (math.floor(math.log10(abs(want))) - 8)
    return abs(got - want) <= tol


def _write_json(path: Path, obj) -> Path:
    path.write_text(json.dumps(obj, indent=1), encoding="utf-8")
    return path


# Geometry of the shipped 320 nm-bridge device; the generated devices vary
# only their optics.
BASE_DEVICE = {
    "membrane": {"length_um": 12.0, "width_um": 4.0, "thickness_nm": 150.0},
    "bridges": {"count": 6, "width_nm": 320.0, "length_um": 2.0},
    "pad": {"x_um": 0.0, "y_um": 0.5, "w_um": 3.0, "h_um": 3.0, "profile": "uniform"},
    "material": {"kappa_ref": 0.03, "t_ref": 10.0, "exponent": 2.0},
}


def _device(cavity: dict | None, qds: list[dict]) -> dict:
    return dict(BASE_DEVICE, cavity=cavity, qds=qds)


def _dot(k: int, lambda0_nm: float) -> dict:
    return {"id": f"QD{k + 1}", "x_um": 9.5 + 0.2 * k, "y_um": 2.0, "lambda0_nm": lambda0_nm}


class ThermalRamp:
    """`tuner thermal` at absorbed powers across the fig1b range.

    Each round solves both shipped devices at pitch 0.1 um (four powers) and
    0.05 um (two powers). Powers follow a golden-ratio sequence from a seeded
    offset, so successive rounds fill the 0.002-0.02 mW range evenly and the
    Picard iteration count, which grows with power, averages out within a run.
    """

    name = "thermal_ramp"
    DEVICES = ("device_w320.json", "device_w800.json")
    PITCHES = ((0.1, 4), (0.05, 2))  # (grid pitch in um, solves per device per round)
    POWER_MW = (0.002, 0.02)
    BATH_K = 10.0
    MAX_RESIDUAL = 1e-3  # acceptance criterion 4b's energy-balance bound

    def __init__(self, root: Path, work: Path, rng: np.random.Generator) -> None:
        self.devices = [root / "configs" / d for d in self.DEVICES]
        self.offsets = {(d, dx): rng.random() for d in self.DEVICES for dx, _ in self.PITCHES}
        self.out = work / "thermal"
        self.first_config = ("load_device", self.devices[0])

    def round(self, r: int) -> list[Op]:
        ops = []
        lo, hi = self.POWER_MW
        for dx, per_round in self.PITCHES:
            for j in range(per_round):
                for device in self.devices:
                    x = (self.offsets[(device.name, dx)] + (r * per_round + j) * GOLDEN) % 1.0
                    power = f"{lo + x * (hi - lo):.6g}"
                    out = self.out / f"{device.stem}_{dx}_{j}"
                    argv = ["thermal", str(device), "--power-abs-mw", power, "--dx-um", str(dx), "--out", str(out)]
                    ops.append(
                        Op("thermal", "cli.main", lambda a=argv: run_cli(a), lambda o, d=out: self.check(o, d))
                    )
        return ops

    def check(self, outcome: CliOutcome, out: Path) -> str:
        problem = _exit_problem(outcome, 0)
        if problem:
            return problem
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        if report.get("converged") is not True:
            return "report says converged is not true"
        if not report["residual"] <= self.MAX_RESIDUAL:
            return f"energy residual {report['residual']} above {self.MAX_RESIDUAL}"
        field = np.loadtxt(out / "field.csv", delimiter=",", skiprows=1, ndmin=2)
        if field.shape[0] != report["n_cells_active"]:
            return f"field.csv has {field.shape[0]} cells, report says {report['n_cells_active']}"
        if not field[:, 2].min() >= self.BATH_K:
            return f"active cell at {field[:, 2].min()} K, below the {self.BATH_K} K bath"
        return OK


# Scenario templates after the shipped fig2a, fig3 and fig4 configs.
SWEEP_TEMPLATES = (
    ("fig2a", {"window_nm": [926.5, 929.0]}, 3.0, None, (926.8, 927.4)),
    ("fig3", {"window_nm": [941.5, 943.0], "cavity_height": 1.0}, 3.0, (942.0, 7600.0), None),
    ("fig4", {"window_nm": [929.3, 930.7], "f0": 5.0, "cavity_height": 0.2}, 2.0, (930.0, 9000.0), (929.6, 929.8)),
)
CALIBRATION = {"anchor_shift_nm": 1.4, "anchor_power_mw": 3.0, "p_max_mw": 4.0}


@dataclass
class SweepCase:
    scenario: Path
    out: Path
    refit: bool
    lines: int  # expected lines in spectra.csv, header included
    peak_lines: int
    skipped: int
    expected_rows: dict[int, str]  # spectra.csv line number -> exact text
    expected_peaks: dict[int, str]  # peaks.csv line number -> exact text (no refit)


class SweepRender:
    """`tuner sweep` on seeded variants of the fig2a, fig3 and fig4 scenarios.

    A round runs each template with and without --refit. Each run writes a
    fixed number of spectrum rows, fewer with --refit so that both kinds
    take about as long; the seed draws the sample count (1000-2000) and the
    number of powers (65-200) follows from the row budget. Operations then
    cost the same across seeds and their latencies form one cluster. Two
    slots ramp past the tuning range or the calibrated power limit, so the
    skip path runs.
    """

    name = "sweep_render"
    VARIANTS = 4  # distinct inputs per slot; rounds cycle through them
    ROWS = {False: 200_000, True: 130_000}  # spectrum rows per run, by --refit
    OVERREACH = {("fig2a", False), ("fig3", True)}

    def __init__(self, root: Path, work: Path, rng: np.random.Generator) -> None:
        self.slots: list[list[SweepCase]] = []
        for name, spectrum, p_max, cavity, dots in SWEEP_TEMPLATES:
            for refit in (False, True):
                budget = self.ROWS[refit]
                slot = []
                for v in range(self.VARIANTS):
                    tag = f"{name}_{'refit' if refit else 'plain'}_{v}"
                    slot.append(
                        self._case(work, tag, rng, spectrum, p_max, cavity, dots, refit, budget,
                                   (name, refit) in self.OVERREACH)
                    )
                self.slots.append(slot)
        self.first_config = ("load_scenario", self.slots[0][0].scenario)

    @staticmethod
    def _case(work, tag, rng, spectrum, p_max, cavity, dots, refit, budget, overreach) -> SweepCase:
        samples = int(rng.integers(1000, 2001))
        qds = []
        if dots is not None:
            n_dots = int(rng.integers(1, 4))
            qds = [_dot(k, rng.uniform(*dots)) for k in range(n_dots)]
        cav = None
        if cavity is not None:
            cav = {"x_um": 10.0, "y_um": 2.0, "lambda0_nm": cavity[0] + rng.uniform(-0.05, 0.05), "q0": cavity[1]}
        if overreach:
            # past the last power the dots can take (1.8 nm of shift at
            # 1.4 nm per 3 mW) or, with no dot, past the 4 mW calibration
            limit = 1.8 * 3.0 / 1.4 if qds else CALIBRATION["p_max_mw"]
            p_max = limit * rng.uniform(1.1, 1.2)
            budget = budget * p_max / limit  # the skipped powers write no rows
        steps = int(np.clip(round(budget / samples), 50, 200))
        _write_json(work / f"{tag}_device.json", _device(cav, qds))
        scenario = _write_json(
            work / f"{tag}.json",
            {
                "device": f"{tag}_device.json",
                "bath_k": 10.0,
                "calibration": CALIBRATION,
                "spectrum": dict(spectrum, samples=samples),
                "sweep": {"power_min_mw": 0.0, "power_max_mw": p_max, "steps": steps},
            },
        )
        return SweepRender._expect(scenario, work / "out" / tag, refit, rng)

    @staticmethod
    def _expect(scenario_path: Path, out: Path, refit: bool, rng) -> SweepCase:
        """Recompute the sweep through the public spectral API and keep the
        exact text of a sample of its rows."""
        scenario = config.load_scenario(scenario_path)
        pm = scenario.main.power_map
        device = scenario.main.device
        sp = scenario.spectrum
        sw = scenario.sweep
        kept = []
        for p in np.linspace(sw.power_min_mw, sw.power_max_mw, sw.steps):
            try:
                t_k = control.temperature_from_power(pm, float(p))
                spectrum = spectral.synthesize_spectrum(
                    device.qd_states, device.cavity, t_k, sp.window_nm, sp.samples,
                    t_ref_k=pm.t_bath_k, f0=sp.f0, cavity_height=sp.cavity_height, baseline=sp.baseline,
                )
            except (control.PowerRangeError, spectral.TuningRangeExceeded):
                continue
            kept.append((float(p), spectrum))
        rows: dict[int, str] = {}
        picks = {0, len(kept) - 1, int(rng.integers(len(kept)))}
        for k in sorted(picks):
            p, spectrum = kept[k]
            for s in {0, sp.samples - 1, int(rng.integers(sp.samples))}:
                rows[1 + k * sp.samples + s] = (
                    f"{fmt9(p)},{fmt9(spectrum.wavelengths_nm[s])},{fmt9(spectrum.intensities[s])}\n"
                )
        peaks: dict[int, str] = {}
        line = 1
        for p, spectrum in kept:
            for peak in spectrum.peaks:
                if not refit:
                    peaks[line] = (
                        f"{fmt9(p)},{peak.kind},{peak.label},{fmt9(peak.center_nm)},"
                        f"{fmt9(peak.fwhm_nm)},{fmt9(peak.height)}\n"
                    )
                line += 1
        return SweepCase(
            scenario=scenario_path,
            out=out,
            refit=refit,
            lines=1 + len(kept) * sp.samples,
            peak_lines=line,
            skipped=sw.steps - len(kept),
            expected_rows=rows,
            expected_peaks=peaks,
        )

    def round(self, r: int) -> list[Op]:
        ops = []
        for slot in self.slots:
            case = slot[r % len(slot)]
            argv = ["sweep", str(case.scenario), "--out", str(case.out)] + (["--refit"] if case.refit else [])
            ops.append(Op("sweep", "cli.main", lambda a=argv: run_cli(a), lambda o, c=case: self.check(o, c)))
        return ops

    @staticmethod
    def _scan(path: Path, expected: dict[int, str], header: str) -> tuple[int, str | None]:
        """Line count of a CSV and the first line that differs from expected."""
        n = 0
        with open(path, encoding="utf-8", newline="") as f:
            for n, line in enumerate(f, start=1):
                want = header if n == 1 else expected.get(n - 1)
                if want is not None and line != want:
                    return n, f"{path.name} line {n} is {line!r}, expected {want!r}"
        return n, None

    def check(self, outcome: CliOutcome, case: SweepCase) -> str:
        problem = _exit_problem(outcome, 0)
        if problem:
            return problem
        skipped = outcome.stderr.count(" skipped: ")
        if skipped != case.skipped:
            return f"{skipped} powers reported skipped, expected {case.skipped}"
        n, problem = self._scan(case.out / "spectra.csv", case.expected_rows, "power_mw,lambda_nm,intensity\n")
        if problem:
            return problem
        if n != case.lines:
            return f"spectra.csv has {n} lines, expected {case.lines}"
        n, problem = self._scan(
            case.out / "peaks.csv", case.expected_peaks, "power_mw,kind,label,center_nm,fwhm_nm,height\n"
        )
        if problem:
            return problem
        if n != case.peak_lines:
            return f"peaks.csv has {n} lines, expected {case.peak_lines}"
        return OK


def _oracle_plan(x: np.ndarray, shifts_nm: np.ndarray, alphas: np.ndarray, p_max: np.ndarray,
                 max_shift_nm: float) -> np.ndarray | None:
    """Powers from the direct solve of X P = shift / alpha, or None when the
    plan is infeasible (a power outside [0, p_max] or a shift out of range)."""
    if np.any(shifts_nm < 0.0) or np.any(shifts_nm > max_shift_nm):
        return None
    powers = np.linalg.solve(x, shifts_nm / alphas)
    if np.any(powers < -1e-12) or np.any(powers > p_max):
        return None
    return powers


class TunePlan:
    """Many small tuning operations: CLI tunes, CLI calibrations and direct
    align_multi plans.

    The direct plans use chips of 2-8 structures with asymmetric crosstalk
    whose off-diagonal entries span the whole range Crosstalk.validate
    accepts, from 0 up to (excluding) the diagonal; plan strengths are
    stratified over that range. Targets are built from a known feasible power
    vector, so np.linalg.solve knows every plan's answer.
    """

    name = "tune_plan"
    POOL = 160  # distinct rounds of inputs; the loop cycles through them
    CAVITY_TUNES = 3
    PAIR_TUNES = 2
    CALIBRATIONS = 2
    PLANS = 8
    ALPHA = spectral.DEFAULT_ALPHA_NM_PER_K2
    BETA = control.calibrate_beta(1.4, 3.0, spectral.DEFAULT_ALPHA_NM_PER_K2)
    P_MAX = 4.0
    MAX_SHIFT = spectral.DEFAULT_MAX_SHIFT_NM

    def __init__(self, root: Path, work: Path, rng: np.random.Generator) -> None:
        self.work = work
        self.rng = rng
        n_plans = self.POOL * self.PLANS
        strengths = (np.arange(n_plans) + rng.random(n_plans)) / n_plans
        sizes = np.resize(np.arange(2, 9), n_plans)
        order = rng.permutation(n_plans)
        self.pool = []
        for r in range(self.POOL):
            ops = []
            for k in range(self.CAVITY_TUNES):
                ops.append(self._cavity_tune(f"r{r}_cav{k}"))
            for k in range(self.PAIR_TUNES):
                ops.append(self._pair_tune(f"r{r}_pair{k}", crosstalk=k % 2 == 1))
            for k in range(self.CALIBRATIONS):
                ops.append(self._calibration(f"r{r}_cal{k}"))
            for k in range(self.PLANS):
                q = order[r * self.PLANS + k]
                ops.append(self._plan(int(sizes[q]), float(strengths[q])))
            rng.shuffle(ops)
            self.pool.append(ops)
        self.first_config = ("load_scenario", work / "r0_cav0.json")

    def round(self, r: int) -> list[Op]:
        return self.pool[r % self.POOL]

    def _cli_op(self, kind: str, argv: list[str], check) -> Op:
        return Op(kind, "cli.main", lambda: run_cli(argv), check)

    def _calibration_block(self, beta: float) -> dict:
        rng = self.rng
        # the three ways a scenario can state its calibration
        choice = int(rng.integers(3))
        if choice == 0:
            return {"beta_k2_per_mw": beta, "p_max_mw": self.P_MAX}
        if choice == 1:
            return {"anchor_shift_nm": self.ALPHA * beta * 3.0, "anchor_power_mw": 3.0, "p_max_mw": self.P_MAX}
        return {"anchor_shift_nm": self.ALPHA * beta * 2.0, "anchor_power_mw": 2.0}

    def _cavity_tune(self, tag: str) -> Op:
        rng = self.rng
        cav_lambda = rng.uniform(929.5, 931.5)
        shift_ratio = spectral.DEFAULT_SHIFT_RATIO
        # mostly reachable detunings; some dots start red of the cavity
        delta0 = rng.uniform(-0.15, 1.15)
        beta = self.BETA * rng.uniform(0.8, 1.25)
        device = _write_json(
            self.work / f"{tag}_device.json",
            _device({"x_um": 10.0, "y_um": 2.0, "lambda0_nm": cav_lambda}, [_dot(0, cav_lambda - delta0)]),
        )
        calibration = self._calibration_block(beta)
        scenario = _write_json(
            self.work / f"{tag}.json",
            {"device": device.name, "bath_k": 10.0, "calibration": calibration,
             "tune": {"target": "qd-to-cavity", "qd_ids": ["QD1"], "tol_nm": 1e-6}},
        )
        shift = delta0 / (1.0 - 1.0 / shift_ratio)
        power = shift / self.ALPHA / beta
        feasible = delta0 >= 0.0 and shift <= self.MAX_SHIFT and power <= self.P_MAX
        out = self.work / "out" / tag

        def check(outcome: CliOutcome) -> str:
            problem = _exit_problem(outcome, 0 if feasible else 4)
            if problem:
                return problem
            solution = json.loads((out / "solution.json").read_text(encoding="utf-8"))
            if solution["feasible"] is not feasible:
                return f"solution feasible={solution['feasible']}, oracle says {feasible}"
            got = solution["powers_mw"]["main"]
            if feasible and not _close(got, power, power, from_file=True):
                return f"power {got} mW, oracle {power} mW"
            return OK

        return self._cli_op("tune", ["tune", str(scenario), "--out", str(out)], check)

    def _pair_tune(self, tag: str, crosstalk: bool) -> Op:
        rng = self.rng
        n = int(rng.integers(2, 4))
        lambdas = rng.uniform(927.0, 927.8, n)
        betas = self.BETA * rng.uniform(0.8, 1.25, n)
        x = np.diag(betas)
        if crosstalk:
            x = x + (1.0 - np.eye(n)) * betas[:, None] * rng.uniform(0.0, rng.random(), (n, n))
        structures = []
        for i in range(n):
            device = _write_json(self.work / f"{tag}_s{i}.json", _device(None, [_dot(0, lambdas[i])]))
            structures.append({"id": f"S{i}", "device": device.name,
                               "calibration": {"beta_k2_per_mw": betas[i], "p_max_mw": self.P_MAX}})
        scenario = _write_json(
            self.work / f"{tag}.json",
            {"structures": structures, "bath_k": 10.0,
             "crosstalk_k2_per_mw": x.tolist() if crosstalk else None,
             "tune": {"target": "qd-to-qd", "tol_nm": 1e-6}},
        )
        target = lambdas.max()
        powers = _oracle_plan(x, target - lambdas, np.full(n, self.ALPHA), np.full(n, self.P_MAX), self.MAX_SHIFT)
        out = self.work / "out" / tag

        def check(outcome: CliOutcome) -> str:
            if powers is not None and outcome.code == 4 and any(s in outcome.stderr for s in _GIVE_UP_NOTES):
                return UNSOLVED
            problem = _exit_problem(outcome, 0 if powers is not None else 4)
            if problem:
                return problem
            solution = json.loads((out / "solution.json").read_text(encoding="utf-8"))
            if powers is None:
                return OK if solution["feasible"] is False else "feasible solution for an infeasible plan"
            scale = float(np.max(np.abs(powers)))
            for i in range(n):
                got = solution["powers_mw"][f"S{i}"]
                if not _close(got, powers[i], scale, from_file=True):
                    return f"S{i} power {got} mW, oracle {powers[i]} mW"
            return OK

        op = self._cli_op("tune", ["tune", str(scenario), "--out", str(out)], check)
        op.plan_feasible = powers is not None
        return op

    def _calibration(self, tag: str) -> Op:
        rng = self.rng
        t_ref = 10.0
        alpha_file = self.ALPHA * rng.uniform(0.9, 1.1)
        blocks = {}
        expected = {}
        for b in range(int(rng.integers(1, 4))):
            n_pts = int(rng.integers(2, 7))
            slope = rng.uniform(0.5, 1.5)
            noise = 1.0 + 0.02 * rng.standard_normal(n_pts)
            if rng.random() < 0.5:
                temps = np.sort(rng.uniform(12.0, 40.0, n_pts))
                x = temps**2 - t_ref**2
                shifts = slope * self.ALPHA * x * noise
                blocks[f"S{b}"] = {"temperature_anchors": np.column_stack([temps, shifts]).tolist()}
            else:
                x = np.sort(rng.uniform(0.2, 3.5, n_pts))
                shifts = slope * 0.45 * x * noise
                blocks[f"S{b}"] = {"power_anchors": np.column_stack([x, shifts]).tolist()}
            fit = float(np.dot(x, shifts) / np.dot(x, x))
            rms = float(np.sqrt(np.mean((shifts - fit * x) ** 2)))
            if "temperature_anchors" in blocks[f"S{b}"]:
                expected[f"S{b}"] = {"alpha_nm_per_k2": fit, "residual_rms_nm": rms}
            else:
                expected[f"S{b}"] = {"alpha_beta_nm_per_mw": fit, "beta_k2_per_mw": fit / alpha_file,
                                     "residual_rms_nm": rms}
        anchors = _write_json(
            self.work / f"{tag}.json", {"t_ref_k": t_ref, "alpha_nm_per_k2": alpha_file, "structures": blocks}
        )
        out = self.work / "out" / tag

        def check(outcome: CliOutcome) -> str:
            problem = _exit_problem(outcome, 0)
            if problem:
                return problem
            result = json.loads((out / "calibration.json").read_text(encoding="utf-8"))["structures"]
            for sid, values in expected.items():
                for key, want in values.items():
                    got = result[sid][key]
                    if not _close(got, want, abs(want), from_file=True):
                        return f"{sid} {key} {got}, oracle {want}"
            return OK

        return self._cli_op("calibrate", ["calibrate", "--anchors-file", str(anchors), "--out", str(out)], check)

    def _plan(self, n: int, strength: float) -> Op:
        rng = self.rng
        ids = [f"C{i}" for i in range(n)]
        betas = self.BETA * rng.uniform(0.8, 1.25, n)
        maps = [control.PowerMap(sid, 10.0, float(b), self.P_MAX) for sid, b in zip(ids, betas)]
        # asymmetric off-diagonals in [0, strength * beta_i), strength < 1
        x = np.diag(betas) + (1.0 - np.eye(n)) * betas[:, None] * rng.uniform(0.0, strength, (n, n))
        crosstalk = control.Crosstalk(tuple(ids), x)
        lambdas = rng.uniform(927.0, 927.8, n)
        # a known feasible power vector, scaled so every shift stays in range
        p_star = rng.uniform(0.1, 1.0, n)
        shifts = self.ALPHA * (x @ p_star)
        p_star *= min(rng.uniform(0.3, 0.95) * self.MAX_SHIFT / shifts.max(), 0.95 * self.P_MAX / p_star.max())
        qds = [spectral.QDState(f"QD{i}", float(lambdas[i])) for i in range(n)]
        targets = [(ids[i], qds[i], float(lambdas[i] + self.ALPHA * (x[i] @ p_star))) for i in range(n)]
        shifts = np.array([t[2] - q.lambda0_nm for t, q in zip(targets, qds)])
        powers = _oracle_plan(x, shifts, np.full(n, self.ALPHA), np.full(n, self.P_MAX), self.MAX_SHIFT)

        def run():
            try:
                return control.align_multi(maps, crosstalk, targets, tol_nm=1e-6)
            except Exception:
                return traceback.format_exc()

        def check(solution) -> str:
            if isinstance(solution, str):
                return "traceback: " + solution.strip().splitlines()[-1]
            if powers is None:
                return OK if not solution.feasible else "feasible solution for an infeasible plan"
            if not solution.feasible:
                if any(s in note for note in solution.warnings for s in _GIVE_UP_NOTES):
                    return UNSOLVED
                return f"infeasible: {solution.warnings}"
            scale = float(np.max(np.abs(powers)))
            for i, sid in enumerate(ids):
                if not _close(solution.powers_mw[sid], powers[i], scale, from_file=False):
                    return f"{sid} power {solution.powers_mw[sid]} mW, oracle {powers[i]} mW"
            return OK

        return Op("align_multi", "bench.call", run, check, plan_feasible=powers is not None)


class Tally:
    """Latencies and outcomes of the operations run with tracing off or on.

    Latencies and round times are scaled to the reference speed (see
    run_round); raw_round_times keeps the round times as measured."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.round_times: list[float] = []  # scaled to the reference speed
        self.raw_round_times: list[float] = []  # as measured
        self.attempted = 0
        self.unsolved = 0
        self.failures: list[str] = []
        self.plans = 0
        self.plans_solved = 0

    def add(self, op: Op, latency: float, verdict: str) -> None:
        self.latencies.append(latency)
        self.attempted += 1
        if verdict == UNSOLVED:
            self.unsolved += 1
        elif verdict != OK:
            self.failures.append(f"{op.kind}: {verdict}")
        if op.plan_feasible:
            self.plans += 1
            self.plans_solved += verdict == OK


# The machine's speed drifts by a quarter and more over tens of seconds, as
# other tenants load the host. A fixed sparse LU solve, timed between
# operations, tracks that drift in both the solver-bound and the
# Python-bound workloads better than a pure-Python loop or a memory stream
# does. Every time the workloads report is scaled to the speed at which
# that solve takes REFERENCE_S, so runs made in slow and fast spells read
# alike. The solve is the benchmark's own code and does not change with
# the program.
REFERENCE_GRID = 60  # the solve is a 5-point Laplacian on a 60 x 60 grid
REFERENCE_S = 0.008  # its time on a lightly loaded 2-core Intel Xeon VM, scipy 1.17
REFERENCE_EVERY_S = 0.05  # operation time between two timings of the solve


@functools.cache
def _reference_problem():
    n = REFERENCE_GRID
    line = scipy.sparse.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
    eye = scipy.sparse.identity(n)
    matrix = scipy.sparse.kron(eye, line) + scipy.sparse.kron(line, eye) + 0.01 * scipy.sparse.identity(n * n)
    return matrix.tocsc(), np.ones(n * n)


def reference_time() -> float:
    """Wall time of one factorisation and solve of the fixed reference system."""
    matrix, rhs = _reference_problem()
    t0 = time.perf_counter()
    scipy.sparse.linalg.splu(matrix).solve(rhs)
    return time.perf_counter() - t0


def run_round(ops, tally: Tally, tracer=None) -> None:
    """Run one round: time each operation, then check it untimed.

    The reference solve is timed at the start and end of the round and
    between operations whenever REFERENCE_EVERY_S of them has passed; the
    round's times are scaled by REFERENCE_S over the median of those timings.
    """
    refs = [reference_time()]
    since_ref = 0.0
    timed = []
    for op in ops:
        if since_ref >= REFERENCE_EVERY_S:
            refs.append(reference_time())
            since_ref = 0.0
        if tracer is None:
            t0 = time.perf_counter()
            outcome = op.run()
            latency = time.perf_counter() - t0
        else:
            with tracer.operation(op.root):
                t0 = time.perf_counter()
                outcome = op.run()
                latency = time.perf_counter() - t0
        since_ref += latency
        timed.append((op, latency, op.check(outcome)))
    refs.append(reference_time())
    scale = REFERENCE_S / statistics.median(refs)
    for op, latency, verdict in timed:
        tally.add(op, latency * scale, verdict)
    tally.round_times.append(sum(latency for _, latency, _ in timed) * scale)
    tally.raw_round_times.append(sum(latency for _, latency, _ in timed))


def run_loop(workload, seconds: float, tracer=None) -> tuple[Tally, Tally | None, int]:
    """Run rounds until the next one would end past `seconds`; at least one.

    One operation of each kind runs first, untimed, so that lazy imports
    and first-call set-up inside numpy and scipy are not timed. With a
    tracer, every round runs untraced and traced on the same inputs, in
    alternating order, so the two tallies compare like with like.
    """
    first_of_kind = {}
    for op in workload.round(0):
        first_of_kind.setdefault(op.kind, op)
    for op in first_of_kind.values():
        op.run()
    plain = Tally()
    traced = Tally() if tracer is not None else None
    start = time.perf_counter()
    rounds = 0
    while True:
        ops = workload.round(rounds)
        if tracer is None:
            run_round(ops, plain)
        else:
            for side in (0, 1) if rounds % 2 == 0 else (1, 0):
                if side == 0:
                    run_round(ops, plain)
                else:
                    with tracer.installed():
                        run_round(ops, traced, tracer)
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed * (rounds + 1) / rounds > seconds:
            return plain, traced, rounds


WORKLOADS = {w.name: w for w in (ThermalRamp, SweepRender, TunePlan)}
