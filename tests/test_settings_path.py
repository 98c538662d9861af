"""Property test of the one settings path.

Any value at a numeric leaf of a shipped config file (scenario, device or
anchors), a value of another kind at any key of one, and any value of a
float flag end in a documented exit code (0, 2, 3 or 4) without a
traceback, and a config error (2) writes nothing.
thermal's --dx-um is among the flags: a pitch that would give more than
device.MAX_GRID_CELLS cells is refused before any array is built.
"""

import argparse
import contextlib
import dataclasses
import io
import json
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import CONFIGS, DEVICES
from qdtuner import cli, config, control, spectral
from qdtuner.device import MAX_BRIDGES, Bridges, LayoutError

VALUES = [math.nan, math.inf, -math.inf, 0, -0.0, -1, 1e300, 1e-300, 10**9, 10**400, "1", True, [], None]

# shipped config -> the command lines run on it
RUNS = {
    "fig2a.json": (("sweep", "fig2a.json"),),
    "fig4.json": (("sweep", "fig4.json"), ("tune", "fig4.json")),
    "qd_pair.json": (("tune", "qd_pair.json"),),
    "fig1b.json": (("thermal", "fig1b.json", "--dx-um", "0.1"),),
    "anchors_power.json": (("calibrate", "--anchors-file", "anchors_power.json"),),
    "anchors_temperature.json": (("calibrate", "--anchors-file", "anchors_temperature.json"),),
}

# optional keys absent from the shipped files, set to valid values so that
# their leaves are mutated too: the quality floor, the crosstalk matrix as
# its diagonal of the two structures' betas, and a dot's linewidth slope and
# intensity at their defaults
_BETA = control.calibrate_beta(1.4, 3.0, spectral.DEFAULT_ALPHA_NM_PER_K2)
OPTIONAL = {
    "fig4.json": lambda raw: raw["tune"].update(min_q=1.0),
    "qd_pair.json": lambda raw: raw.update(crosstalk_k2_per_mw=[[_BETA, 0.0], [0.0, _BETA]]),
    "device_w320_qd.json": lambda raw: raw["qds"][0].update(fwhm_slope=spectral.DEFAULT_FWHM_SLOPE, base_intensity=1.0),
}


def _load(name):
    raw = json.loads((CONFIGS / name).read_text(encoding="utf-8"))
    if name in OPTIONAL:
        OPTIONAL[name](raw)
    return raw


def _leaves(obj, path=()):
    """Paths to the numeric leaves of a JSON value."""
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = enumerate(obj)
    else:
        numeric = isinstance(obj, (int, float)) and not isinstance(obj, bool)
        return [path] if numeric else []
    return [p for key, value in items for p in _leaves(value, path + (key,))]


def _nodes(obj, path=()):
    """Paths to every value inside a JSON value, objects and lists included."""
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = enumerate(obj)
    else:
        return []
    return [p for key, value in items for p in (path + (key,), *_nodes(value, path + (key,)))]


def _config_cases(paths=_leaves):
    return [
        (argv, None, path)
        for name, runs in RUNS.items()
        for path in paths(_load(name))
        for argv in runs
    ]


def _device_cases(paths=_leaves):
    """Each shipped device in place of the scenario's own, one path at a time."""
    return [
        (argv, device, path)
        for name in ("fig2a.json", "fig4.json", "fig1b.json")
        for device in DEVICES
        for path in paths(_load(device))
        for argv in RUNS[name]
    ]


def _set(raw, path, value):
    node = raw
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value


def _run(argv, out):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            code = cli.main([*argv, "--out", str(out)])
        except SystemExit as e:  # argparse refuses a flag value that is not a number
            code = e.code
    assert code in (0, 2, 3, 4), err.getvalue()
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert not out.exists()
    report = out / "report.json"
    if report.exists():  # converged: true exactly when the run exits 0
        assert json.loads(report.read_text(encoding="utf-8"))["converged"] == (code == 0)
    return code


def _run_mutated(work, argv, device, path, value):
    """Run argv on a copy of its config file with value at path: a leaf of
    the named device file, used in place of the scenario's own, or else a
    leaf of the config file itself."""
    name = next(a for a in argv if a.endswith(".json"))
    raw = _load(name)
    if device is None:
        _set(raw, path, value)
    else:
        dev = _load(device)
        _set(dev, path, value)
        # json.dumps writes the NaN/Infinity literals that the loader accepts
        (work / device).write_text(json.dumps(dev), encoding="utf-8")
        raw["device"] = str(work / device)
    structures = raw.get("structures")
    for s in [raw, *(structures if isinstance(structures, list) else [])]:
        if isinstance(s, dict) and isinstance(s.get("device"), str):
            s["device"] = str(CONFIGS / s["device"])
    (work / name).write_text(json.dumps(raw), encoding="utf-8")
    return _run([str(work / a) if a == name else a for a in argv], work / "out")


@settings(max_examples=200, deadline=None)
@given(case=st.sampled_from(_config_cases()), value=st.sampled_from(VALUES))
def test_any_settings_value_ends_in_a_documented_exit(tmp_path_factory, case, value):
    _run_mutated(tmp_path_factory.mktemp("settings"), *case, value)


@settings(max_examples=200, deadline=None)
@given(case=st.sampled_from(_device_cases()), value=st.sampled_from(VALUES))
def test_any_device_value_ends_in_a_documented_exit(tmp_path_factory, case, value):
    _run_mutated(tmp_path_factory.mktemp("device"), *case, value)


# values of another kind than the one a key holds: a number where a list,
# an object or a path belongs, and the reverse
KINDS = [5, "x", [], {}, None, [1], {"a": 1}]


@settings(max_examples=200, deadline=None)
@given(case=st.sampled_from(_config_cases(_nodes) + _device_cases(_nodes)), value=st.sampled_from(KINDS))
def test_any_value_of_another_kind_ends_in_a_documented_exit(tmp_path_factory, case, value):
    _run_mutated(tmp_path_factory.mktemp("kinds"), *case, value)


FIG2A = RUNS["fig2a.json"][0]
FIG1B = RUNS["fig1b.json"][0]
POWER_ANCHORS = RUNS["anchors_power.json"][0]
QD_PAIR = RUNS["qd_pair.json"][0]


@pytest.mark.parametrize(
    "argv, device, path, value, code",
    [
        pytest.param(FIG2A, None, ("calibration", "anchor_shift_nm"), 0, 2, id="anchor-shift-0"),
        pytest.param(FIG2A, None, ("calibration", "anchor_power_mw"), -1, 2, id="anchor-power-neg"),
        # T_bath^2 overflows, or underflows to 0
        pytest.param(FIG2A, None, ("bath_k",), 1e300, 2, id="bath-1e300"),
        pytest.param(FIG2A, None, ("bath_k",), 1e-300, 2, id="bath-1e-300"),
        # every face's harmonic-mean conductance underflows to 0
        pytest.param(FIG1B, "device_w320.json", ("membrane", "thickness_nm"), 1e-300, 3, id="thickness-1e-300"),
        pytest.param(FIG1B, "device_w320.json", ("material", "kappa_ref"), 1e-300, 3, id="kappa-1e-300"),
        # the fit's sum of squared abscissae underflows, or overflows
        pytest.param(POWER_ANCHORS, None, ("power_anchors", 1, 0), 1e-300, 2, id="abscissa-1e-300"),
        pytest.param(POWER_ANCHORS, None, ("power_anchors", 1, 0), 1e300, 2, id="abscissa-1e300"),
        # a cavity of zero linewidth (lambda / Q), and a Purcell overlap whose
        # squared detuning overflows at a cavity Q of 1e300
        pytest.param(FIG2A, "device_w320_cavity.json", ("cavity", "lambda0_nm"), 0, 2, id="cavity-lambda-0"),
        pytest.param(FIG2A, "device_w320_two_qds.json", ("cavity", "q0"), 1e300, 0, id="cavity-q0-1e300"),
        # the fit's residual overflows; a dot that rolls off past its range; a
        # quality factor that rises with temperature
        pytest.param(POWER_ANCHORS, None, ("power_anchors",), [[1, 1e308], [2, 1e308]], 2, id="fit-overflows"),
        pytest.param(FIG2A, "device_w320_qd.json", ("qds", 0, "rolloff_shift_nm"), 2.0, 2, id="rolloff-over-max"),
        # a linewidth that turns negative within the dot's range, and a
        # negative intensity
        pytest.param(FIG2A, "device_w320_qd.json", ("qds", 0, "fwhm_slope"), -0.1, 2, id="fwhm-slope-neg"),
        pytest.param(FIG2A, "device_w320_qd.json", ("qds", 0, "base_intensity"), -1, 2, id="base-intensity-neg"),
        # a dot at a wavelength of zero or below
        pytest.param(FIG2A, "device_w320_qd.json", ("qds", 0, "lambda0_nm"), -1, 2, id="qd-lambda-neg"),
        pytest.param(FIG2A, "device_w320_qd.json", ("qds", 0, "lambda0_nm"), 0, 2, id="qd-lambda-0"),
        pytest.param(FIG2A, "device_w320_cavity.json", ("cavity", "q_slope"), -1, 2, id="q-slope-neg"),
        pytest.param(QD_PAIR, None, ("structures", 1, "id"), "A", 2, id="duplicate-structure-ids"),
    ],
)
def test_out_of_range_values_exit_cleanly(tmp_path, argv, device, path, value, code):
    assert _run_mutated(tmp_path, argv, device, path, value) == code


FIG4_SWEEP = RUNS["fig4.json"][0]


@pytest.mark.parametrize(
    "argv, device, path, value",
    [
        # a list or a path that is a number
        pytest.param(FIG1B, "device_w320.json", ("qds",), 5, id="qds-5"),
        pytest.param(FIG1B, "device_w320.json", ("qds",), 0, id="qds-0"),
        pytest.param(FIG1B, "device_w320.json", ("qds",), "QD1", id="qds-string"),
        pytest.param(FIG2A, None, ("device",), 5, id="device-5"),
        pytest.param(FIG2A, None, ("device",), None, id="device-null"),
        pytest.param(QD_PAIR, None, ("structures", 0, "device"), 5, id="structure-device-5"),
        pytest.param(QD_PAIR, None, ("structures",), [], id="structures-empty-list"),
        pytest.param(QD_PAIR, None, ("structures",), {}, id="structures-object"),
        # anchors that are not [abscissa, shift] pairs
        pytest.param(POWER_ANCHORS, None, ("power_anchors",), [[0, 0, 0], [1, 1, 1]], id="anchor-triples"),
        pytest.param(POWER_ANCHORS, None, ("power_anchors",), [0, 1], id="anchors-flat"),
        # size caps: bridges, and spectrum samples over a whole sweep
        pytest.param(FIG1B, "device_w320.json", ("bridges", "count"), MAX_BRIDGES + 1, id="bridges-over-cap"),
        pytest.param(FIG2A, None, ("sweep", "steps"), config.MAX_SWEEP_SAMPLES // 1200 + 1, id="steps-over-cap"),
        pytest.param(FIG4_SWEEP, None, ("spectrum", "samples"), 10**15, id="samples-1e15"),
    ],
)
def test_wrong_kinds_and_oversized_inputs_are_config_errors(tmp_path, argv, device, path, value):
    assert _run_mutated(tmp_path, argv, device, path, value) == 2


# the shipped scenarios, each with its command; together they hold every
# top-level key load_scenario allows
SCENARIO_RUNS = (FIG1B, FIG2A, ("sweep", "fig3.json"), FIG4_SWEEP, QD_PAIR)
SCENARIO_KEYS = set().union(*(_load(argv[1]) for argv in SCENARIO_RUNS))


@pytest.mark.parametrize(
    "argv, key, value",
    [
        pytest.param(argv, key, value, id=f"{argv[1]}-{key}-{json.dumps(value)}")
        for argv in SCENARIO_RUNS
        for key in sorted(SCENARIO_KEYS - set(_load(argv[1])))
        for value in ("x", [], False)
    ],
)
def test_no_scenario_key_is_silently_ignored(tmp_path, argv, key, value):
    # a key the file lacks, set to a value of no use to it, is refused
    assert _run_mutated(tmp_path, argv, None, (key,), value) == 2


def test_size_caps_sit_at_their_bounds():
    assert Bridges(MAX_BRIDGES, 320.0, 2.0).count == MAX_BRIDGES
    with pytest.raises(LayoutError, match="over the cap"):
        Bridges(MAX_BRIDGES + 1, 320.0, 2.0)
    spectrum = config.SpectrumParams(samples=1000)
    config.check_sweep_size(spectrum, config.SweepParams(steps=config.MAX_SWEEP_SAMPLES // 1000))
    with pytest.raises(config.ConfigError, match="over the cap"):
        config.check_sweep_size(spectrum, config.SweepParams(steps=config.MAX_SWEEP_SAMPLES // 1000 + 1))


FLAG_CASES = [
    (["sweep", "fig2a.json"], "--power-min"),
    (["sweep", "fig2a.json"], "--power-max"),
    (["tune", "fig4.json"], "--tol-nm"),
    (["tune", "fig4.json"], "--min-q"),
    (["calibrate", "--anchors-file", "anchors_power.json"], "--alpha"),
    (["calibrate", "--anchors-file", "anchors_temperature.json"], "--t-ref"),
    (["thermal", "fig1b.json", "--dx-um", "0.1"], "--power-abs-mw"),
    (["thermal", "fig1b.json", "--dx-um", "0.1"], "--bath-k"),
    (["thermal", "fig1b.json", "--power-abs-mw", "0.01"], "--dx-um"),
]


@settings(max_examples=150, deadline=None)
@given(case=st.sampled_from(FLAG_CASES), value=st.sampled_from(VALUES))
@example(case=FLAG_CASES[-1], value=0.32)  # 12.5 cells across the 4 um membrane
def test_any_float_flag_value_ends_in_a_documented_exit(tmp_path_factory, case, value):
    argv, flag = case
    argv = [str(CONFIGS / a) if a.endswith(".json") else a for a in argv]
    _run([*argv, f"{flag}={value}"], tmp_path_factory.mktemp("flags") / "out")


# each command's settings record, and the flags that set none of its fields:
# the output directory, the bath (config.bath_temperature's rule), a switch
# and the anchors file itself
RECORDS = {
    "thermal": config.ThermalParams(),
    "sweep": config.SweepParams(),
    "tune": config.TuneParams(),
    "calibrate": config.Anchors(blocks={}),
}
NOT_SETTINGS = {
    "thermal": {"out", "bath_k"},
    "sweep": {"out", "refit"},
    "tune": {"out"},
    "calibrate": {"out", "anchors_file"},
}


def test_every_flag_sets_a_field_of_its_settings_record():
    # so a flag passes its record's rule through cli._merge, and a flag that
    # bypasses the record, or a new knob, is an edit of this test
    (commands,) = [a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert commands.choices.keys() == RECORDS.keys()
    for command, parser in commands.choices.items():
        record = RECORDS[command]
        fields = {f.name for f in dataclasses.fields(record)}
        outside = set()
        for action in parser._actions:
            if not action.option_strings or action.dest == "help":
                continue
            if action.dest not in fields:
                outside.add(action.dest)
                continue
            with pytest.raises(config.ConfigError):  # NaN breaks every record's rule
                cli._merge(record, argparse.Namespace(**{action.dest: math.nan}))
        assert outside == NOT_SETTINGS[command]
