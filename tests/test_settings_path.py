"""Property test of the one settings path.

Any value in a settings block of a shipped scenario, and any value of a float
flag, ends in a documented exit code (0, 2, 3 or 4) without a traceback, and a
config error (2) writes nothing. thermal's --dx-um is among the flags: a pitch
that would give more than device.MAX_GRID_CELLS cells is refused before any
array is built.
"""

import contextlib
import io
import json
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CONFIGS
from qdtuner import cli

VALUES = [math.nan, math.inf, -math.inf, 0, -0.0, -1, 1e300, 1e-300, 10**400, "1", True, [], None]


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


def _scenario_cases():
    cases = []
    for name, commands in (("fig2a.json", ("sweep",)), ("fig4.json", ("sweep", "tune"))):
        raw = json.loads((CONFIGS / name).read_text(encoding="utf-8"))
        blocks = {key: raw[key] for key in ("spectrum", "sweep", "tune") if key in raw}
        cases += [(name, command, path) for path in _leaves(blocks) for command in commands]
    # the optional quality floor, absent from the shipped files
    cases.append(("fig4.json", "tune", ("tune", "min_q")))
    return cases


FLAG_CASES = [
    (["sweep", "fig2a.json"], "--power-min"),
    (["sweep", "fig2a.json"], "--power-max"),
    (["tune", "fig4.json"], "--tol-nm"),
    (["tune", "fig4.json"], "--min-q"),
    (["calibrate", "--anchors-file", "anchors_power.json"], "--alpha"),
    (["calibrate", "--anchors-file", "anchors_temperature.json"], "--t-ref"),
    (["thermal", "fig1b.json", "--dx-um", "0.1"], "--power-abs-mw"),
    (["thermal", "fig1b.json", "--dx-um", "0.1"], "--tol"),
    (["thermal", "fig1b.json", "--dx-um", "0.1"], "--bath-k"),
    (["thermal", "fig1b.json", "--power-abs-mw", "0.01"], "--dx-um"),
]


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


@settings(max_examples=150, deadline=None)
@given(case=st.sampled_from(_scenario_cases()), value=st.sampled_from(VALUES))
def test_any_settings_value_ends_in_a_documented_exit(tmp_path_factory, case, value):
    name, command, path = case
    raw = json.loads((CONFIGS / name).read_text(encoding="utf-8"))
    raw["device"] = str(CONFIGS / raw["device"])
    node = raw
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    work = tmp_path_factory.mktemp("settings")
    scenario = work / "s.json"
    # json.dumps writes the NaN/Infinity literals that the loader accepts
    scenario.write_text(json.dumps(raw), encoding="utf-8")
    _run([command, str(scenario)], work / "out")


@settings(max_examples=150, deadline=None)
@given(case=st.sampled_from(FLAG_CASES), value=st.sampled_from(VALUES))
def test_any_float_flag_value_ends_in_a_documented_exit(tmp_path_factory, case, value):
    argv, flag = case
    argv = [str(CONFIGS / a) if a.endswith(".json") else a for a in argv]
    _run([*argv, f"{flag}={value}"], tmp_path_factory.mktemp("flags") / "out")
