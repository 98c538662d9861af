"""JSON device, scenario and anchors configs and deterministic CSV/JSON writers.

Config files are strict: unknown keys are rejected so typos fail loudly.
All writers use fixed float formatting and LF line endings so repeated runs
produce byte-identical files.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import control, spectral
from .control import Crosstalk, PowerMap, TuningSolution
from .device import (
    DeviceLayout,
    HeatingPad,
    MaterialModel,
    Membrane,
    spread_bridges,
    validate_layout,
)
from .spectral import CavityState, QDState
from .thermal import SolveReport, TemperatureField


class ConfigError(ValueError):
    """A config file is malformed or violates its schema."""


def _check_keys(obj: dict, allowed: set[str], required: set[str], ctx: str) -> None:
    if not isinstance(obj, dict):
        raise ConfigError(f"{ctx}: expected an object")
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(f"{ctx}: unknown keys {sorted(unknown)}")
    missing = required - set(obj)
    if missing:
        raise ConfigError(f"{ctx}: missing keys {sorted(missing)}")


def finite(value, name: str):
    """Return value if it is a finite number (or an array of them), else raise.

    The one finite-number check shared by config values and CLI flags; JSON
    NaN/Infinity literals and flags such as `--tol nan` both end here.
    """
    if not (np.isfinite(value).all() if isinstance(value, np.ndarray) else math.isfinite(value)):
        raise ConfigError(f"{name} must be finite, got {value}")
    return value


def _positive(value, name: str) -> None:
    if finite(value, name) <= 0:
        raise ConfigError(f"{name} must be positive")


def _integer(value, name: str, minimum: int) -> None:
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise ConfigError(f"{name} must be an integer >= {minimum}")


def _number(obj: dict, key: str, ctx: str, default: float | None = None) -> float:
    if key not in obj:
        if default is None:
            raise ConfigError(f"{ctx}: missing {key}")
        return default
    v = obj[key]
    if not isinstance(v, (int, float)) or isinstance(v, bool):
        raise ConfigError(f"{ctx}: {key} must be a number")
    return finite(float(v), f"{ctx}: {key}")


def _json_int(text: str) -> int | float:
    """Read a JSON integer; one beyond float range reads as a signed infinity,
    which the finite checks reject, instead of overflowing later in float()."""
    try:
        value = int(text)
        float(value)
    except (OverflowError, ValueError):  # ValueError: past the int digit limit
        return -math.inf if text.startswith("-") else math.inf
    return value


_JSON = json.JSONDecoder(parse_int=_json_int)


def _load_json(path: Path) -> dict:
    try:
        with open(path, encoding="utf-8") as f:
            return _JSON.decode(f.read())
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}: malformed JSON ({e})") from e
    except UnicodeDecodeError as e:
        raise ConfigError(f"{path}: not UTF-8 text ({e})") from e
    except OSError as e:
        raise ConfigError(f"{path}: cannot read ({e.strerror})") from e


def _build(cls, ctx: str, **values):
    """cls(**values), with the ValueError of cls's own rules (a ConfigError
    included) reported as a config error under ctx."""
    try:
        return cls(**values)
    except ValueError as e:
        raise ConfigError(f"{ctx}: {e}") from e


def _record(cls, obj: dict, ctx: str):
    """A settings record from its JSON block: the keys are the record's
    fields, numbers for float fields are read by _number, lists become
    tuples, absent keys keep the field default, and the record's own rules
    check every value."""
    defaults = {f.name: f.default for f in fields(cls)}
    _check_keys(obj, set(defaults), set(), ctx)
    values = {}
    for key, v in obj.items():
        if isinstance(defaults[key], float) or (defaults[key] is None and v is not None):
            v = _number(obj, key, ctx)
        values[key] = tuple(v) if isinstance(v, list) else v
    return _build(cls, ctx, **values)


def _check_id(value, ctx: str) -> str:
    # ids end up as CSV fields and JSON keys
    if not isinstance(value, str) or not value or any(c in value for c in ",\n\r"):
        raise ConfigError(f"{ctx}: id must be a non-empty string without commas")
    return value


@dataclass(frozen=True)
class Device:
    """A layout plus the optical states living on it."""

    layout: DeviceLayout
    qd_states: tuple[QDState, ...]
    cavity: CavityState | None

    def qd(self, qd_id: str) -> QDState:
        for qd in self.qd_states:
            if qd.qd_id == qd_id:
                return qd
        raise ConfigError(f"unknown QD id {qd_id!r}")


def load_device(path: str | Path) -> Device:
    """Parse a device description file."""
    path = Path(path)
    raw = _load_json(path)
    ctx = str(path)
    _check_keys(
        raw,
        {"membrane", "bridges", "pad", "material", "cavity", "qds"},
        {"membrane", "bridges", "pad", "material"},
        ctx,
    )

    m = raw["membrane"]
    _check_keys(m, {"length_um", "width_um", "thickness_nm"}, {"length_um", "width_um", "thickness_nm"}, f"{ctx}: membrane")
    membrane = Membrane(
        length_um=_number(m, "length_um", ctx),
        width_um=_number(m, "width_um", ctx),
        thickness_nm=_number(m, "thickness_nm", ctx),
    )

    b = raw["bridges"]
    _check_keys(b, {"count", "width_nm", "length_um"}, {"count", "width_nm", "length_um"}, f"{ctx}: bridges")
    count = b["count"]
    if not isinstance(count, int) or isinstance(count, bool):
        raise ConfigError(f"{ctx}: bridges.count must be an integer")
    bridges = spread_bridges(
        count, _number(b, "width_nm", ctx), _number(b, "length_um", ctx), membrane
    )

    p = raw["pad"]
    _check_keys(
        p,
        {"x_um", "y_um", "w_um", "h_um", "profile", "sigma_um"},
        {"x_um", "y_um", "w_um", "h_um", "profile"},
        f"{ctx}: pad",
    )
    pad = HeatingPad(
        x_um=_number(p, "x_um", ctx),
        y_um=_number(p, "y_um", ctx),
        w_um=_number(p, "w_um", ctx),
        h_um=_number(p, "h_um", ctx),
        profile=p["profile"],
        sigma_um=_number(p, "sigma_um", ctx, default=1.0),
    )

    mt = raw["material"]
    _check_keys(
        mt,
        {"kappa_ref", "t_ref", "exponent", "body_scale"},
        {"kappa_ref", "t_ref", "exponent"},
        f"{ctx}: material",
    )
    material = MaterialModel(
        kappa_ref_w_per_k_cm=_number(mt, "kappa_ref", ctx),
        t_ref_k=_number(mt, "t_ref", ctx),
        exponent=_number(mt, "exponent", ctx),
    )
    body_scale = _number(mt, "body_scale", ctx, default=1.0)

    qd_states: list[QDState] = []
    qd_positions: list[tuple[str, tuple[float, float]]] = []
    # a dot's optical keys are QDState's fields; absent ones keep its defaults
    place = ("id", "x_um", "y_um")
    optical = {f.name for f in fields(QDState)} - {"qd_id"}
    for k, q in enumerate(raw.get("qds") or []):
        qctx = f"{ctx}: qds[{k}]"
        _check_keys(q, {*place, *optical}, {*place, "lambda0_nm"}, qctx)
        _check_id(q.get("id"), qctx)
        optics = {key: _number(q, key, qctx) for key in q if key not in place}
        qd_states.append(_build(QDState, qctx, qd_id=q["id"], **optics))
        qd_positions.append((q["id"], (_number(q, "x_um", qctx), _number(q, "y_um", qctx))))
    ids = [qd.qd_id for qd in qd_states]
    if len(set(ids)) != len(ids):
        raise ConfigError(f"{ctx}: duplicate QD ids")

    cavity = None
    cavity_xy = None
    c = raw.get("cavity")
    if c is not None:
        _check_keys(
            c,
            {"x_um", "y_um", "lambda0_nm", "q0", "shift_ratio", "q_slope"},
            {"x_um", "y_um", "lambda0_nm"},
            f"{ctx}: cavity",
        )
        cavity_xy = (_number(c, "x_um", ctx), _number(c, "y_um", ctx))
        cavity = _build(
            CavityState,
            f"{ctx}: cavity",
            lambda0_nm=_number(c, "lambda0_nm", ctx),
            q0=_number(c, "q0", ctx, default=spectral.DEFAULT_Q0),
            shift_ratio=_number(c, "shift_ratio", ctx, default=spectral.DEFAULT_SHIFT_RATIO),
            q_slope_per_k2=_number(c, "q_slope", ctx, default=spectral.DEFAULT_Q_SLOPE_PER_K2),
            alpha_nm_per_k2=_structure_alpha(qd_states),
        )

    layout = DeviceLayout(
        membrane=membrane,
        bridges=bridges,
        pad=pad,
        material=material,
        cavity_xy_um=cavity_xy,
        qds=tuple(qd_positions),
        body_kappa_scale=body_scale,
    )
    _build(validate_layout, ctx, layout=layout)
    return Device(layout=layout, qd_states=tuple(qd_states), cavity=cavity)


# Run settings: each record alone defaults and range-checks its fields; config
# blocks (_record) and CLI flags (dataclasses.replace) both run its rules.

@dataclass(frozen=True)
class SpectrumParams:
    window_nm: tuple[float, float] = (925.0, 935.0)
    samples: int = 1200
    f0: float = spectral.DEFAULT_PURCELL_F0
    cavity_height: float = 0.2
    baseline: float = 0.0

    def __post_init__(self) -> None:
        w = self.window_nm
        numbers = isinstance(w, tuple) and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in w)
        if not (numbers and len(w) == 2 and w[0] < w[1]):
            raise ConfigError("window_nm must be [lo, hi] with lo < hi")
        finite(np.array(w), "window_nm")
        _integer(self.samples, "samples", 2)
        if finite(self.f0, "f0") < 1.0:
            raise ConfigError("f0 (peak Purcell enhancement) must be >= 1")
        finite(self.cavity_height, "cavity_height")
        finite(self.baseline, "baseline")


@dataclass(frozen=True)
class SweepParams:
    power_min_mw: float = 0.0
    power_max_mw: float = 3.0
    steps: int = 61

    def __post_init__(self) -> None:
        if finite(self.power_min_mw, "power_min_mw") > finite(self.power_max_mw, "power_max_mw"):
            raise ConfigError("sweep needs power_min_mw <= power_max_mw")
        _integer(self.steps, "steps", 2)


@dataclass(frozen=True)
class ThermalParams:
    power_abs_mw: float = 0.0
    dx_um: float = 0.05
    tol: float = 1e-6
    max_iter: int = 200

    def __post_init__(self) -> None:
        if finite(self.power_abs_mw, "power_abs_mw") < 0:
            raise ConfigError("power_abs_mw must be non-negative")
        _positive(self.dx_um, "dx_um")
        _positive(self.tol, "tol")
        _integer(self.max_iter, "max_iter", 1)


TUNE_TARGETS = ("qd-to-cavity", "qd-to-qd")


@dataclass(frozen=True)
class TuneParams:
    target: str = TUNE_TARGETS[0]
    qd_ids: tuple[str, ...] = ()
    tol_nm: float = 1e-6
    min_q: float | None = None     # optional cavity-quality feasibility floor

    def __post_init__(self) -> None:
        if self.target not in TUNE_TARGETS:
            raise ConfigError(f"target must be one of {list(TUNE_TARGETS)}")
        if not isinstance(self.qd_ids, tuple) or not all(isinstance(v, str) for v in self.qd_ids):
            raise ConfigError("qd_ids must be a list of strings")
        _positive(self.tol_nm, "tol_nm")
        if self.min_q is not None:
            _positive(self.min_q, "min_q")


@dataclass(frozen=True)
class StructureConfig:
    structure_id: str
    device: Device
    power_map: PowerMap


@dataclass(frozen=True)
class Scenario:
    """One runnable setup: structures, bath, calibration and command defaults."""

    bath_k: float
    structures: tuple[StructureConfig, ...]
    crosstalk: Crosstalk | None
    spectrum: SpectrumParams
    sweep: SweepParams | None
    thermal: ThermalParams | None
    tune: TuneParams | None

    @property
    def main(self) -> StructureConfig:
        return self.structures[0]


def _parse_calibration(raw: dict | None, bath_k: float, structure_id: str, alpha: float, ctx: str) -> PowerMap:
    if raw is None:
        raw = {}
    _check_keys(
        raw,
        {"beta_k2_per_mw", "anchor_shift_nm", "anchor_power_mw", "alpha_nm_per_k2", "p_max_mw"},
        set(),
        ctx,
    )
    has_beta = "beta_k2_per_mw" in raw
    has_anchor = "anchor_shift_nm" in raw or "anchor_power_mw" in raw
    if has_beta and has_anchor:
        raise ConfigError(f"{ctx}: give either beta_k2_per_mw or the anchor pair, not both")
    alpha = _number(raw, "alpha_nm_per_k2", ctx, default=alpha)
    if has_beta:
        beta = _number(raw, "beta_k2_per_mw", ctx)
    else:
        shift = _number(raw, "anchor_shift_nm", ctx, default=control.SHIFT_ANCHOR_NM)
        power = _number(raw, "anchor_power_mw", ctx, default=control.POWER_ANCHOR_MW)
        beta = control.calibrate_beta(shift, power, alpha)
    p_max = _number(raw, "p_max_mw", ctx, default=control.DEFAULT_P_MAX_MW)
    try:
        return PowerMap(structure_id, bath_k, beta, p_max)
    except ValueError as e:
        raise ConfigError(f"{ctx}: {e}") from e


def _structure_alpha(qd_states) -> float:
    """The shift law of a structure's calibration and cavity: its first dot's."""
    return qd_states[0].alpha_nm_per_k2 if qd_states else spectral.DEFAULT_ALPHA_NM_PER_K2


def load_scenario(path: str | Path) -> Scenario:
    """Parse a scenario file; device paths resolve relative to the scenario."""
    path = Path(path)
    raw = _load_json(path)
    ctx = str(path)
    _check_keys(
        raw,
        {
            "device",
            "structures",
            "bath_k",
            "calibration",
            "crosstalk_k2_per_mw",
            "spectrum",
            "sweep",
            "thermal",
            "tune",
        },
        set(),
        ctx,
    )
    if ("device" in raw) == ("structures" in raw):
        raise ConfigError(f"{ctx}: give exactly one of 'device' or 'structures'")
    bath_k = _number(raw, "bath_k", ctx, default=spectral.DEFAULT_T_REF_K)

    structures: list[StructureConfig] = []
    if "device" in raw:
        device = load_device(path.parent / raw["device"])
        alpha = _structure_alpha(device.qd_states)
        pm = _parse_calibration(raw.get("calibration"), bath_k, "main", alpha, f"{ctx}: calibration")
        structures.append(StructureConfig("main", device, pm))
    else:
        if not isinstance(raw["structures"], list) or not raw["structures"]:
            raise ConfigError(f"{ctx}: structures must be a non-empty list")
        for k, s in enumerate(raw["structures"]):
            sctx = f"{ctx}: structures[{k}]"
            _check_keys(s, {"id", "device", "calibration"}, {"id", "device"}, sctx)
            _check_id(s.get("id"), sctx)
            device = load_device(path.parent / s["device"])
            alpha = _structure_alpha(device.qd_states)
            pm = _parse_calibration(s.get("calibration"), bath_k, s["id"], alpha, f"{sctx}: calibration")
            structures.append(StructureConfig(s["id"], device, pm))
        ids = [s.structure_id for s in structures]
        if len(set(ids)) != len(ids):
            raise ConfigError(f"{ctx}: duplicate structure ids")

    crosstalk = None
    if raw.get("crosstalk_k2_per_mw") is not None:
        try:
            m = np.asarray(raw["crosstalk_k2_per_mw"], dtype=float)
            crosstalk = Crosstalk(
                tuple(s.structure_id for s in structures), m
            ).validate([s.power_map for s in structures])
        except (TypeError, ValueError) as e:
            raise ConfigError(f"{ctx}: crosstalk: {e}") from e

    blocks = {
        name: None if raw.get(name) is None else _record(cls, raw[name], f"{ctx}: {name}")
        for name, cls in (("sweep", SweepParams), ("thermal", ThermalParams), ("tune", TuneParams))
    }
    scenario = Scenario(
        bath_k=bath_k,
        structures=tuple(structures),
        crosstalk=crosstalk,
        spectrum=_record(SpectrumParams, raw.get("spectrum") or {}, f"{ctx}: spectrum"),
        **blocks,
    )
    _check_referenced_qds(scenario, ctx)
    return scenario


def _check_referenced_qds(scenario: Scenario, ctx: str) -> None:
    if scenario.tune is None or not scenario.tune.qd_ids:
        return
    if scenario.tune.target == "qd-to-cavity":
        scenario.main.device.qd(scenario.tune.qd_ids[0])
        return
    if len(scenario.tune.qd_ids) != len(scenario.structures):
        raise ConfigError(f"{ctx}: tune.qd_ids must name one QD per structure")
    for s, qd_id in zip(scenario.structures, scenario.tune.qd_ids):
        s.device.qd(qd_id)


def load_device_or_scenario(path: str | Path) -> tuple[Device, float, ThermalParams]:
    """Parse a bare device file (it has a membrane) or a scenario that
    references one, for a thermal run: the (main) device, the bath
    temperature and the thermal settings, defaulted for a bare device."""
    path = Path(path)
    raw = _load_json(path)
    if isinstance(raw, dict) and "membrane" in raw:
        return load_device(path), spectral.DEFAULT_T_REF_K, ThermalParams()
    scenario = load_scenario(path)
    return scenario.main.device, scenario.bath_k, scenario.thermal or ThermalParams()


@dataclass(frozen=True)
class Anchors:
    """Calibration anchors: per-structure blocks plus the file's shift-law settings."""

    # structure id -> ("temperature" | "power", [[abscissa, shift_nm], ...])
    blocks: dict[str, tuple[str, np.ndarray]]
    t_ref_k: float = spectral.DEFAULT_T_REF_K
    alpha_nm_per_k2: float = spectral.DEFAULT_ALPHA_NM_PER_K2

    def __post_init__(self) -> None:
        _positive(self.t_ref_k, "t_ref_k")
        _positive(self.alpha_nm_per_k2, "alpha_nm_per_k2")


def load_anchors(path: str | Path) -> Anchors:
    """Parse an anchors file: top-level anchors for one "main" structure, or a
    `structures` object of per-structure blocks (sorted by id)."""
    path = Path(path)
    raw = _load_json(path)
    ctx = str(path)
    _check_keys(
        raw,
        {"t_ref_k", "alpha_nm_per_k2", "temperature_anchors", "power_anchors", "structures"},
        set(),
        ctx,
    )
    if "structures" in raw:
        if not isinstance(raw["structures"], dict) or not raw["structures"]:
            raise ConfigError(f"{ctx}: structures must be a non-empty object")
        raw_blocks = raw["structures"]
    else:
        raw_blocks = {"main": {k: raw[k] for k in ("temperature_anchors", "power_anchors") if k in raw}}

    blocks: dict[str, tuple[str, np.ndarray]] = {}
    for sid, block in sorted(raw_blocks.items()):
        bctx = f"{ctx}: {sid}"
        _check_keys(block, {"temperature_anchors", "power_anchors"}, set(), bctx)
        has_t = "temperature_anchors" in block
        if has_t == ("power_anchors" in block):
            raise ConfigError(f"{bctx}: give exactly one of temperature_anchors or power_anchors")
        key = "temperature_anchors" if has_t else "power_anchors"
        try:
            pts = np.asarray(block[key], dtype=float)
        except (TypeError, ValueError) as e:
            raise ConfigError(f"{bctx}: {key} must hold numbers") from e
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise ConfigError(f"{bctx}: anchors must be [[abscissa, shift_nm], ...]")
        blocks[sid] = ("temperature" if has_t else "power", finite(pts, f"{bctx}: {key}"))
    law = {k: _number(raw, k, ctx) for k in ("t_ref_k", "alpha_nm_per_k2") if k in raw}
    return _build(Anchors, ctx, blocks=blocks, **law)


# ---------------------------------------------------------------------------
# deterministic writers

def fmt9(x: float) -> str:
    return format(float(x), ".9g")


def _round_floats(obj):
    """Round every float in a JSON-ready object to 9 significant digits."""
    if isinstance(obj, float):
        if math.isnan(obj) or math.isinf(obj):
            return None
        return float(fmt9(obj))
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def write_json(obj: dict, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        json.dump(_round_floats(obj), f, indent=2, sort_keys=True)
        f.write("\n")


def write_field_csv(field: TemperatureField, path: str | Path) -> None:
    """Temperature map as x_um,y_um,T_K rows (row-major, 6 significant digits)."""
    grid = field.grid
    xs = [format(x, ".6g") for x in grid.cell_x_um()]
    ys = [format(y, ".6g") for y in grid.cell_y_um()]
    active = grid.active()
    rows, cols = np.nonzero(active)
    lines = [
        f"{xs[i]},{ys[j]},{format(t, '.6g')}\n"
        for j, i, t in zip(rows.tolist(), cols.tolist(), field.t_k[active].tolist())
    ]
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("x_um,y_um,T_K\n")
        f.write("".join(lines))


def write_report_json(report: SolveReport, extras: dict, path: str | Path) -> None:
    out = dict(report.to_dict())
    out.update(extras)
    write_json(out, path)


def write_solution_json(solution: TuningSolution, path: str | Path) -> None:
    write_json(solution.to_dict(), path)
