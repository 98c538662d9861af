"""JSON device, scenario and anchors configs and deterministic CSV/JSON writers.

Config files are strict: unknown keys are rejected so typos fail loudly.
All writers format bytes with fixed float formatting and LF line endings and
write them through `write_bytes`, so repeated runs produce byte-identical
files.
"""

from __future__ import annotations

import functools
import json
import math
import os
import stat
from collections.abc import Iterable
from dataclasses import dataclass
from pathlib import Path
from typing import get_type_hints

import numpy as np

from . import control, spectral
from .control import Crosstalk, PowerMap
from .device import Bridges, DeviceLayout, HeatingPad, MaterialModel, Membrane
from .spectral import CavityState, QDState
from .thermal import TemperatureField


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
    NaN/Infinity literals and flags such as `--dx-um nan` both end here.
    """
    if not (np.isfinite(value).all() if isinstance(value, np.ndarray) else math.isfinite(value)):
        raise ConfigError(f"{name} must be finite, got {value}")
    return value


def bath_temperature(value, name: str = "bath_k") -> float:
    """Return value if it can be a bath temperature, else raise: the one rule
    of a scenario's bath_k and of the --bath-k flag. The power map works in
    T^2, so the square must be a positive finite float too."""
    if not (finite(value, name) > 0 and 0.0 < value * value < math.inf):
        raise ConfigError(f"{name} must be positive, its square a positive finite float, got {value}")
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
    """The JSON object a config file holds; any other JSON value is refused."""
    try:
        with open(path, encoding="utf-8") as f:
            raw = _JSON.decode(f.read())
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}: malformed JSON ({e})") from e
    except UnicodeDecodeError as e:
        raise ConfigError(f"{path}: not UTF-8 text ({e})") from e
    except OSError as e:
        raise ConfigError(f"{path}: cannot read ({e.strerror})") from e
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: expected an object")
    return raw


def _build(cls, ctx: str, *args, **values):
    """cls(*args, **values), with the ValueError of cls's own rules (a
    ConfigError included) reported as a config error under ctx."""
    try:
        return cls(*args, **values)
    except ValueError as e:
        raise ConfigError(f"{ctx}: {e}") from e


# field name -> declared type of a record class; one table per class, shared
# by every call, so callers only read it
_field_types = functools.cache(get_type_hints)


def _record(cls, obj: dict, ctx: str, required: set[str] = frozenset(), keys: dict | None = None, **values):
    """A record from its JSON block; the one reader of every block that is a record.

    `keys` maps each JSON key to the field it sets (by default the field
    names themselves); a key mapped to None is allowed but read by the
    caller. The keys in `required` must be given, a field declared float (or
    float | None, when not null) is read by _number, lists become tuples,
    absent keys keep the field default, `values` sets fields no key names,
    and the record's own rules check every value.
    """
    types = _field_types(cls)
    if keys is None:
        keys = dict(zip(types, types))
    _check_keys(obj, keys.keys(), required, ctx)
    for key, v in obj.items():
        name = keys[key]
        if name is None:
            continue
        if types[name] is float or (types[name] == float | None and v is not None):
            v = _number(obj, key, ctx)
        values[name] = tuple(v) if isinstance(v, list) else v
    return _build(cls, ctx, **values)


def _check_id(value, ctx: str) -> str:
    # ids end up as CSV fields and JSON keys of UTF-8 files; json.load
    # accepts a lone surrogate ("\ud800"), which UTF-8 cannot encode
    if not isinstance(value, str) or not value or any(c in value for c in ",\n\r"):
        raise ConfigError(f"{ctx}: id must be a non-empty string without commas")
    try:
        value.encode("utf-8")
    except UnicodeEncodeError:
        raise ConfigError(f"{ctx}: id must be encodable as UTF-8") from None
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


def load_device(path: str | Path, raw: dict | None = None) -> Device:
    """Parse a device description file (raw: its JSON, when already read from
    path). _record reads every block into its record, which checks its own
    rules, and the layout checks the rules that join them."""
    path = Path(path)
    raw = _load_json(path) if raw is None else raw
    ctx = str(path)
    _check_keys(
        raw,
        {"membrane", "bridges", "pad", "material", "cavity", "qds"},
        {"membrane", "bridges", "pad", "material"},
        ctx,
    )
    membrane = _record(Membrane, raw["membrane"], f"{ctx}: membrane", {"length_um", "width_um", "thickness_nm"})
    bridges = _record(Bridges, raw["bridges"], f"{ctx}: bridges", {"count", "width_nm", "length_um"})
    pad = _record(HeatingPad, raw["pad"], f"{ctx}: pad", {"x_um", "y_um", "w_um", "h_um", "profile"})

    mt = raw["material"]
    mctx = f"{ctx}: material"
    keys = {"kappa_ref": "kappa_ref_w_per_k_cm", "t_ref": "t_ref_k", "exponent": "exponent", "body_scale": None}
    material = _record(MaterialModel, mt, mctx, {"kappa_ref", "t_ref", "exponent"}, keys)

    qds = [] if raw.get("qds") is None else raw["qds"]
    if not isinstance(qds, list):
        raise ConfigError(f"{ctx}: qds must be a list")
    # a dot's keys are its id, its position and QDState's optical fields
    keys = {"id": "qd_id", "x_um": None, "y_um": None, **{f: f for f in _field_types(QDState) if f != "qd_id"}}
    qd_states: list[QDState] = []
    qd_positions: list[tuple[str, tuple[float, float]]] = []
    for k, q in enumerate(qds):
        qctx = f"{ctx}: qds[{k}]"
        qd_states.append(_record(QDState, q, qctx, {"id", "x_um", "y_um", "lambda0_nm"}, keys))
        qd_positions.append((_check_id(q["id"], qctx), (_number(q, "x_um", qctx), _number(q, "y_um", qctx))))
    ids = [qd.qd_id for qd in qd_states]
    if len(set(ids)) != len(ids):
        raise ConfigError(f"{ctx}: duplicate QD ids")

    cavity = None
    cavity_xy = None
    c = raw.get("cavity")
    if c is not None:
        cctx = f"{ctx}: cavity"
        keys = {
            "x_um": None, "y_um": None, "lambda0_nm": "lambda0_nm", "q0": "q0", "shift_ratio": "shift_ratio",
            "q_slope": "q_slope_per_k2",
        }
        alpha = _structure_alpha(qd_states)
        cavity = _record(CavityState, c, cctx, {"x_um", "y_um", "lambda0_nm"}, keys, alpha_nm_per_k2=alpha)
        cavity_xy = (_number(c, "x_um", cctx), _number(c, "y_um", cctx))

    layout = _build(
        DeviceLayout,
        ctx,
        membrane=membrane,
        bridges=bridges,
        pad=pad,
        material=material,
        cavity_xy_um=cavity_xy,
        qds=tuple(qd_positions),
        body_kappa_scale=_number(mt, "body_scale", mctx, default=DeviceLayout.body_kappa_scale),
    )
    return Device(layout=layout, qd_states=tuple(qd_states), cavity=cavity)


# Run settings: each record alone defaults and range-checks its fields; config
# blocks (_record) and CLI flags (dataclasses.replace) both run its rules.

@dataclass(frozen=True)
class SpectrumParams:
    """How spectra are sampled and drawn: window, samples, Purcell peak, cavity height, baseline."""

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


# Most spectrum samples a sweep synthesizes and writes, samples x steps:
# one spectra.csv row each. The shipped fig4 sweep has 280,000.
MAX_SWEEP_SAMPLES = 10_000_000


@dataclass(frozen=True)
class SweepParams:
    """The incident-power ramp of a sweep: first and last power in mW and the step count."""

    power_min_mw: float = 0.0
    power_max_mw: float = 3.0
    steps: int = 61

    def __post_init__(self) -> None:
        if finite(self.power_min_mw, "power_min_mw") > finite(self.power_max_mw, "power_max_mw"):
            raise ConfigError("sweep needs power_min_mw <= power_max_mw")
        _integer(self.steps, "steps", 2)


def check_sweep_size(spectrum: SpectrumParams, sweep: SweepParams) -> None:
    """Refuse a sweep of more than MAX_SWEEP_SAMPLES spectrum samples in all."""
    if spectrum.samples * sweep.steps > MAX_SWEEP_SAMPLES:
        raise ConfigError(
            f"sweep too large: {spectrum.samples} samples x {sweep.steps} steps "
            f"is over the cap of {MAX_SWEEP_SAMPLES:,} samples"
        )


@dataclass(frozen=True)
class ThermalParams:
    """A thermal run's absorbed power in mW and grid pitch in um."""

    power_abs_mw: float = 0.0
    dx_um: float = 0.05

    def __post_init__(self) -> None:
        if finite(self.power_abs_mw, "power_abs_mw") < 0:
            raise ConfigError("power_abs_mw must be non-negative")
        _positive(self.dx_um, "dx_um")


TUNE_TARGETS = ("qd-to-cavity", "qd-to-qd")


@dataclass(frozen=True)
class TuneParams:
    """A tune's target, the dot of each structure, the tolerance and the optional quality floor."""

    target: str = TUNE_TARGETS[0]
    qd_ids: tuple[str, ...] = ()
    tol_nm: float = 1e-6
    min_q: float | None = None     # optional cavity-quality feasibility floor, qd-to-cavity only

    def __post_init__(self) -> None:
        if self.target not in TUNE_TARGETS:
            raise ConfigError(f"target must be one of {list(TUNE_TARGETS)}")
        if not isinstance(self.qd_ids, tuple) or not all(isinstance(v, str) for v in self.qd_ids):
            raise ConfigError("qd_ids must be a list of strings")
        _positive(self.tol_nm, "tol_nm")
        if self.min_q is not None:
            _positive(self.min_q, "min_q")
            if self.target != "qd-to-cavity":
                raise ConfigError("min_q applies to qd-to-cavity tuning only")


@dataclass(frozen=True)
class StructureConfig:
    """One structure of a scenario: its id, its device and its power map."""

    structure_id: str
    device: Device
    power_map: PowerMap


@dataclass(frozen=True)
class Scenario:
    """One runnable setup: structures, bath, calibration and command settings.
    A settings block the file leaves out (or sets to null) is its record's
    defaults: one instance per record, built once and shared by every load."""

    bath_k: float
    structures: tuple[StructureConfig, ...]
    crosstalk: Crosstalk | None
    spectrum: SpectrumParams = SpectrumParams()
    sweep: SweepParams = SweepParams()
    thermal: ThermalParams = ThermalParams()
    tune: TuneParams = TuneParams()

    @property
    def main(self) -> StructureConfig:
        """The one structure that thermal and sweep read; a scenario of
        several is refused, not read in part."""
        if len(self.structures) > 1:
            raise ConfigError(
                f"this command reads one structure, the scenario has {len(self.structures)} "
                "(only tuning takes several)"
            )
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
        beta = _build(control.calibrate_beta, ctx, shift, power, alpha)
    return _build(PowerMap, ctx, structure_id, bath_k, beta, _number(raw, "p_max_mw", ctx, default=PowerMap.p_max_mw))


def _structure_alpha(qd_states) -> float:
    """The shift law of a structure's calibration and cavity: its first dot's."""
    return qd_states[0].alpha_nm_per_k2 if qd_states else spectral.DEFAULT_ALPHA_NM_PER_K2


def load_scenario(path: str | Path, raw: dict | None = None) -> Scenario:
    """Parse a scenario file (raw: its JSON, when already read from path).

    A single `device`, with the file's `calibration`, is the one structure
    "main"; one loop builds every structure, whose device path resolves
    relative to the scenario. A settings block is read into its record, or
    left at the record's defaults when absent or null.
    """
    path = Path(path)
    raw = _load_json(path) if raw is None else raw
    ctx = str(path)
    blocks = ("spectrum", "sweep", "thermal", "tune")
    _check_keys(raw, {"device", "structures", "bath_k", "calibration", "crosstalk_k2_per_mw", *blocks}, set(), ctx)
    if ("device" in raw) == ("structures" in raw):
        raise ConfigError(f"{ctx}: give exactly one of 'device' or 'structures'")
    bath_k = bath_temperature(_number(raw, "bath_k", ctx, default=spectral.DEFAULT_T_REF_K), f"{ctx}: bath_k")

    if "device" in raw:
        listed = [(ctx, {"id": "main", "device": raw["device"], "calibration": raw.get("calibration")})]
    elif raw.get("calibration") is not None:
        raise ConfigError(f"{ctx}: a top-level calibration needs 'device'; each structure has its own")
    elif not isinstance(raw["structures"], list) or not raw["structures"]:
        raise ConfigError(f"{ctx}: structures must be a non-empty list")
    else:
        listed = [(f"{ctx}: structures[{k}]", s) for k, s in enumerate(raw["structures"])]
    structures: list[StructureConfig] = []
    for sctx, s in listed:
        _check_keys(s, {"id", "device", "calibration"}, {"id", "device"}, sctx)
        _check_id(s.get("id"), sctx)
        if not isinstance(s["device"], str):
            raise ConfigError(f"{sctx}: device must be a file path")
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
            crosstalk = Crosstalk(tuple(ids), m).validate([s.power_map for s in structures])
        except (TypeError, ValueError) as e:
            raise ConfigError(f"{ctx}: crosstalk: {e}") from e

    types = _field_types(Scenario)
    settings = {k: _record(types[k], raw[k], f"{ctx}: {k}") for k in blocks if raw.get(k) is not None}
    scenario = Scenario(bath_k, tuple(structures), crosstalk, **settings)
    if scenario.tune.qd_ids:
        _build(tuned_dots, ctx, scenario, scenario.tune)
    return scenario


def tuned_dots(scenario: Scenario, tune: TuneParams) -> list[QDState]:
    """The dot each structure moves, for either target; the one check of
    tune.qd_ids, from a file or the --qd-id flags. Tuning moves one dot per
    structure, by default each one's first, and takes no ids or one per
    structure."""
    structures = scenario.structures
    if tune.qd_ids and len(tune.qd_ids) != len(structures):
        per = "" if len(structures) == 1 else f" per structure ({len(structures)})"
        raise ConfigError(f"{tune.target} tuning takes one QD id{per}, got {len(tune.qd_ids)}")
    if tune.qd_ids:
        return [s.device.qd(qd_id) for s, qd_id in zip(structures, tune.qd_ids)]
    for s in structures:
        if not s.device.qd_states:
            raise ConfigError(f"{tune.target} tuning needs a QD in structure {s.structure_id!r}")
    return [s.device.qd_states[0] for s in structures]


def load_device_or_scenario(path: str | Path) -> tuple[Device, float, ThermalParams]:
    """Parse a bare device file (it has a membrane) or a scenario that
    references one, for a thermal run: the (main) device, the bath
    temperature and the thermal settings, defaulted for a bare device."""
    path = Path(path)
    raw = _load_json(path)
    if "membrane" in raw:
        return load_device(path, raw), spectral.DEFAULT_T_REF_K, ThermalParams()
    scenario = load_scenario(path, raw)
    return scenario.main.device, scenario.bath_k, scenario.thermal


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
    `structures` object of per-structure blocks (sorted by id), never both."""
    path = Path(path)
    raw = _load_json(path)
    ctx = str(path)
    _check_keys(
        raw,
        {"t_ref_k", "alpha_nm_per_k2", "temperature_anchors", "power_anchors", "structures"},
        set(),
        ctx,
    )
    top = {k: raw[k] for k in ("temperature_anchors", "power_anchors") if k in raw}
    if "structures" not in raw:
        raw_blocks = {"main": top}
    elif top:
        raise ConfigError(f"{ctx}: top-level anchors cannot sit beside 'structures'; each structure has its own")
    elif not isinstance(raw["structures"], dict) or not raw["structures"]:
        raise ConfigError(f"{ctx}: structures must be a non-empty object")
    else:
        raw_blocks = raw["structures"]

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

def _round_floats(obj):
    """Round every float in a JSON-ready object to 9 significant digits."""
    if isinstance(obj, float):
        if math.isnan(obj) or math.isinf(obj):
            return None
        return float(format(obj, ".9g"))
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def write_bytes(chunks: Iterable[bytes], path: str | Path) -> None:
    """Write an artifact as the given bytes, each chunk as soon as it comes.

    Every artifact goes through here, so none passes a text layer: the bytes
    are those the caller formatted, LF endings included. A file that cannot
    be opened or written (e.g. a directory sits at its path) is a ConfigError
    naming it.

    An existing artifact is overwritten in place and then cut to its new
    length, because truncating a file to zero on open frees all its blocks
    and, on ext4, flushes the rewrite on close, which costs more than the
    writing. Only a regular file is cut, as O_TRUNC would have cut only
    that. If the write fails part-way, the file is cut where the new bytes
    end, so it holds no byte of the old artifact. The write is not atomic:
    a reader may see a partly rewritten file.
    """
    try:
        with open(path, "wb", opener=_open_in_place) as f:
            try:
                f.writelines(chunks)
            finally:
                _cut(f)  # at the new bytes written, all or so far
    except OSError as e:
        raise ConfigError(f"{path}: {e.strerror or e}") from e


def _open_in_place(path: str, flags: int) -> int:
    """open()'s opener for write_bytes: open's own flags and mode, without O_TRUNC."""
    return os.open(path, flags & ~os.O_TRUNC, 0o666)


def _cut(f) -> None:
    """Cut f where its writes have reached, if it is a regular file
    (ftruncate refuses /dev/null, and O_TRUNC ignores it)."""
    if stat.S_ISREG(os.fstat(f.fileno()).st_mode):
        f.truncate()


def write_json(obj: dict, path: str | Path) -> None:
    """obj as indented JSON with sorted keys; every float is rounded to 9
    significant digits, and every non-finite one is written as null."""
    text = json.dumps(_round_floats(obj), indent=2, sort_keys=True)
    write_bytes([text.encode("utf-8"), b"\n"], path)


def write_field_csv(field: TemperatureField, path: str | Path) -> None:
    """Temperature map as x_um,y_um,T_K rows (row-major, 6 significant digits).

    A field that is its own up-down mirror (an even row count, and the
    active mask and t_k bitwise equal to their row flips, as in every solved
    rasterized device) formats only its lower half: each upper row is written
    from its mirror row's text, with only the y field changed.
    """
    grid = field.grid
    t, active = field.t_k, grid.active()
    ny, half = t.shape[0], t.shape[0] // 2
    # bits, not values: %.6g writes -0.0 and 0.0 differently
    mirrored = (
        ny % 2 == 0
        and np.array_equal(active[:half], active[::-1][:half])
        and t[:half].tobytes() == t[::-1][:half].tobytes()
    )
    n = half if mirrored else ny
    xs = np.array([b"%.6g" % x for x in grid.cell_x_um().tolist()], dtype=object)
    ys = [b"%.6g" % y for y in grid.cell_y_um().tolist()]
    # One %-format over a template of rows [0, n), joined by the marker \1.
    # A row's pattern, built once per distinct active mask, is its active
    # x strings each followed by \0, which becomes b",<y>,%.6g\n";
    # b'%.6g' % t is format(t, '.6g').encode().
    patterns: dict[bytes, bytes] = {}
    template = []
    for row, y in zip(active[:n], ys):
        key = row.tobytes()
        pattern = patterns.get(key)
        if pattern is None:  # not setdefault: that would join on every row
            pattern = patterns[key] = b"".join([x + b"\0" for x in xs[row].tolist()])
        template.append(pattern.replace(b"\0", b"," + y + b",%.6g\n"))
    lower = (b"\1".join(template) % tuple(t[:n][active[:n]].tolist())).split(b"\1")
    # the y field is the only one with a comma on each side
    upper = [
        lower[k].replace(b"," + ys[k] + b",", b"," + ys[ny - 1 - k] + b",") for k in range(ny - n - 1, -1, -1)
    ]
    write_bytes([b"x_um,y_um,T_K\n", *lower, *upper], path)
