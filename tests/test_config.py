import json
import math
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import bar_grid, field_csv_per_value
from qdtuner import config as cfg
from qdtuner import device
from qdtuner.config import ConfigError, load_device, load_scenario
from qdtuner.thermal import TemperatureField, solve_steady_state


def _write(path, payload):
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


DEVICE_OK = {
    "membrane": {"length_um": 12.0, "width_um": 4.0, "thickness_nm": 150.0},
    "bridges": {"count": 6, "width_nm": 320.0, "length_um": 2.0},
    "pad": {"x_um": 0.0, "y_um": 0.5, "w_um": 3.0, "h_um": 3.0, "profile": "uniform"},
    "material": {"kappa_ref": 0.03, "t_ref": 10.0, "exponent": 2.0},
    "cavity": {"x_um": 10.0, "y_um": 2.0, "lambda0_nm": 930.0, "q0": 9000.0},
    "qds": [{"id": "QD1", "x_um": 9.5, "y_um": 2.0, "lambda0_nm": 929.75}],
}


def test_load_shipped_devices(configs_dir):
    dev = load_device(configs_dir / "device_w320.json")
    assert dev.layout.membrane.length_um == 12.0
    assert dev.layout.bridges.count == 6
    assert dev.cavity is None and dev.qd_states == ()

    dev = load_device(configs_dir / "device_w320_two_qds.json")
    assert dev.cavity is not None and dev.cavity.q0 == 9000.0
    assert [q.qd_id for q in dev.qd_states] == ["QD1", "QD2"]
    assert dev.qd("QD2").lambda0_nm == 929.65
    with pytest.raises(ConfigError, match="unknown QD id"):
        dev.qd("QD9")


def test_load_device_full(tmp_path):
    dev = load_device(_write(tmp_path / "d.json", DEVICE_OK))
    assert dev.qd_states[0].fwhm0_nm == 0.04  # defaults fill in
    assert dev.layout.cavity_xy_um == (10.0, 2.0)
    assert dev.layout.qds == (("QD1", (9.5, 2.0)),)


def test_device_unknown_keys_rejected(tmp_path):
    bad = dict(DEVICE_OK, extra=1)
    with pytest.raises(ConfigError, match="unknown keys.*extra"):
        load_device(_write(tmp_path / "d.json", bad))
    bad = dict(DEVICE_OK, membrane=dict(DEVICE_OK["membrane"], color="red"))
    with pytest.raises(ConfigError, match="unknown keys.*color"):
        load_device(_write(tmp_path / "d.json", bad))


def test_device_missing_and_bad_fields(tmp_path):
    bad = {k: v for k, v in DEVICE_OK.items() if k != "material"}
    with pytest.raises(ConfigError, match="missing keys.*material"):
        load_device(_write(tmp_path / "d.json", bad))
    bad = dict(DEVICE_OK, bridges={"count": 6.5, "width_nm": 320.0, "length_um": 2.0})
    with pytest.raises(ConfigError, match="count must be an integer"):
        load_device(_write(tmp_path / "d.json", bad))
    bad = dict(DEVICE_OK, pad=dict(DEVICE_OK["pad"], profile="spiral"))
    with pytest.raises(ConfigError, match="profile"):
        load_device(_write(tmp_path / "d.json", bad))
    # json.dumps writes the NaN/Infinity literals that json.load accepts
    bad = dict(DEVICE_OK, membrane=dict(DEVICE_OK["membrane"], width_um=float("nan")))
    with pytest.raises(ConfigError, match="width_um must be finite"):
        load_device(_write(tmp_path / "d.json", bad))


def test_device_duplicate_qd_ids(tmp_path):
    bad = dict(
        DEVICE_OK,
        qds=[
            {"id": "QD1", "x_um": 9.5, "y_um": 2.0, "lambda0_nm": 929.75},
            {"id": "QD1", "x_um": 9.0, "y_um": 2.0, "lambda0_nm": 929.65},
        ],
    )
    with pytest.raises(ConfigError, match="duplicate QD ids"):
        load_device(_write(tmp_path / "d.json", bad))


def test_ids_must_encode_as_utf8(tmp_path):
    # json.load accepts a lone surrogate, which no UTF-8 artifact can hold;
    # QD ids are checked end to end in test_cli
    _write(tmp_path / "d.json", DEVICE_OK)
    payload = {"structures": [{"id": "\udfff", "device": "d.json"}, {"id": "B", "device": "d.json"}]}
    with pytest.raises(ConfigError, match="id must be encodable as UTF-8"):
        load_scenario(_write(tmp_path / "s.json", payload))
    payload["structures"][0]["id"] = "A\u00b9"
    assert load_scenario(_write(tmp_path / "s.json", payload)).structures[0].structure_id == "A\u00b9"


def test_device_geometry_violations_surface_as_config_errors(tmp_path):
    bad = dict(DEVICE_OK, pad=dict(DEVICE_OK["pad"], x_um=11.0))
    with pytest.raises(ConfigError, match="pad out of bounds"):
        load_device(_write(tmp_path / "d.json", bad))


def test_malformed_json_reported(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigError, match="malformed JSON"):
        load_device(path)


def test_load_shipped_scenarios(configs_dir):
    sc = load_scenario(configs_dir / "fig2a.json")
    assert sc.bath_k == 10.0
    assert math.isclose(sc.main.power_map.beta_k2_per_mw, 1.4 / (1.2e-3 * 3.0), rel_tol=1e-9)
    assert sc.sweep is not None and sc.sweep.power_max_mw == 3.0
    assert sc.spectrum.window_nm == (926.5, 929.0)

    sc = load_scenario(configs_dir / "fig1b.json")
    assert sc.thermal is not None and sc.thermal.power_abs_mw == 0.01

    sc = load_scenario(configs_dir / "qd_pair.json")
    assert [s.structure_id for s in sc.structures] == ["A", "B"]
    assert sc.tune is not None and sc.tune.target == "qd-to-qd"
    assert sc.crosstalk is None


def test_scenario_device_and_structures_exclusive(tmp_path):
    _write(tmp_path / "d.json", DEVICE_OK)
    with pytest.raises(ConfigError, match="exactly one of"):
        load_scenario(_write(tmp_path / "s.json", {"device": "d.json", "structures": []}))
    with pytest.raises(ConfigError, match="exactly one of"):
        load_scenario(_write(tmp_path / "s.json", {"bath_k": 10.0}))


def test_scenario_calibration_exclusive(tmp_path):
    _write(tmp_path / "d.json", DEVICE_OK)
    bad = {
        "device": "d.json",
        "calibration": {"beta_k2_per_mw": 388.9, "anchor_shift_nm": 1.4},
    }
    with pytest.raises(ConfigError, match="not both"):
        load_scenario(_write(tmp_path / "s.json", bad))


def test_scenario_direct_beta(tmp_path):
    _write(tmp_path / "d.json", DEVICE_OK)
    sc = load_scenario(
        _write(tmp_path / "s.json", {"device": "d.json", "calibration": {"beta_k2_per_mw": 200.0}})
    )
    assert sc.main.power_map.beta_k2_per_mw == 200.0


def test_scenario_tune_qd_must_exist(tmp_path):
    _write(tmp_path / "d.json", DEVICE_OK)
    bad = {"device": "d.json", "tune": {"target": "qd-to-cavity", "qd_ids": ["QD7"]}}
    with pytest.raises(ConfigError, match="unknown QD id"):
        load_scenario(_write(tmp_path / "s.json", bad))


def test_tuned_dots_defaults_and_ids(configs_dir):
    fig4 = load_scenario(configs_dir / "fig4.json")
    assert [q.qd_id for q in cfg.tuned_dots(fig4, cfg.TuneParams())] == ["QD1"]  # the main structure's first dot
    assert [q.qd_id for q in cfg.tuned_dots(fig4, cfg.TuneParams(qd_ids=("QD2",)))] == ["QD2"]
    pair = load_scenario(configs_dir / "qd_pair.json")
    dots = cfg.tuned_dots(pair, cfg.TuneParams(target="qd-to-qd"))  # each structure's first dot
    assert dots == [s.device.qd_states[0] for s in pair.structures]
    with pytest.raises(ConfigError, match="one QD id per structure"):
        cfg.tuned_dots(pair, cfg.TuneParams(target="qd-to-qd", qd_ids=("QD1",)))
    with pytest.raises(ConfigError, match="qd-to-cavity tuning takes one QD id, got 2"):
        cfg.tuned_dots(fig4, cfg.TuneParams(qd_ids=("QD1", "QD2")))  # a second id is refused


def test_tuned_dots_needs_a_dot(configs_dir):
    fig4 = load_scenario(configs_dir / "fig4.json")
    main = replace(fig4.main, device=replace(fig4.main.device, qd_states=()))
    with pytest.raises(ConfigError, match="needs a QD in structure 'main'"):
        cfg.tuned_dots(replace(fig4, structures=(main,)), cfg.TuneParams())


def test_scenario_crosstalk_validated(tmp_path):
    _write(tmp_path / "d.json", DEVICE_OK)
    payload = {
        "structures": [
            {"id": "A", "device": "d.json"},
            {"id": "B", "device": "d.json"},
        ],
        "crosstalk_k2_per_mw": [[1.0, 0.0], [0.0, 1.0]],
    }
    with pytest.raises(ConfigError, match="diagonal"):
        load_scenario(_write(tmp_path / "s.json", payload))
    payload["crosstalk_k2_per_mw"] = [["one", 0.0], [0.0, 1.0]]
    with pytest.raises(ConfigError, match="crosstalk"):
        load_scenario(_write(tmp_path / "s.json", payload))


def test_scenario_bad_window_and_steps(tmp_path):
    _write(tmp_path / "d.json", DEVICE_OK)
    with pytest.raises(ConfigError, match="window_nm"):
        load_scenario(
            _write(tmp_path / "s.json", {"device": "d.json", "spectrum": {"window_nm": [930.0, 929.0]}})
        )
    with pytest.raises(ConfigError, match="window_nm must be finite"):
        load_scenario(
            _write(tmp_path / "s.json", {"device": "d.json", "spectrum": {"window_nm": [-math.inf, 929.0]}})
        )
    with pytest.raises(ConfigError, match="steps"):
        load_scenario(
            _write(tmp_path / "s.json", {"device": "d.json", "sweep": {"steps": 1}})
        )
    # every settings block by one rule: null is the record's defaults, any
    # other value that is not an object is refused
    records = {"spectrum": cfg.SpectrumParams, "sweep": cfg.SweepParams, "thermal": cfg.ThermalParams,
               "tune": cfg.TuneParams}
    for name, record in records.items():
        sc = load_scenario(_write(tmp_path / "s.json", {"device": "d.json", name: None}))
        assert getattr(sc, name) == record()
        for value in (False, [], 0, ""):
            with pytest.raises(ConfigError, match=f"{name}: expected an object"):
                load_scenario(_write(tmp_path / "s.json", {"device": "d.json", name: value}))


def test_field_csv_round_trip(tmp_path):
    grid = bar_grid(16, 1e-6)
    field, report = solve_steady_state(grid, tol=1e-8)
    assert report.converged
    path = tmp_path / "field.csv"
    cfg.write_field_csv(field, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "x_um,y_um,T_K"
    assert len(lines) == 1 + 16
    x, y, t = lines[1].split(",")
    assert float(t) == 10.0  # first cell is the anchored end


def _field_grid(kind, y0_um=1e-7):
    shape = kind.shape
    dirichlet = np.zeros(shape, dtype=bool)
    dirichlet[0, 0] = True
    return device.ThermalGrid(
        dx_um=0.0333,
        x0_um=-1.25,
        y0_um=y0_um,
        kind=kind,
        sheet_um=np.full(shape, 0.15),
        source_w=np.zeros(shape),
        dirichlet=dirichlet,
        t_bath_k=10.0,
        material=device.MaterialModel(),
    )


def _random_field(kind, seed):
    t = 10.0 + np.random.default_rng(seed).random(kind.shape) * 1e3
    t[kind == device.VOID] = np.nan
    return t


def _assert_field_csv_matches_per_value_formatting(tmp_path, kind, t, y0_um=1e-7):
    grid = _field_grid(kind, y0_um)
    path = tmp_path / "field.csv"
    cfg.write_field_csv(TemperatureField(grid=grid, t_k=t), path)
    assert path.read_bytes() == field_csv_per_value(grid, t)


def test_field_csv_matches_per_value_formatting(tmp_path):
    kind = np.full((3, 4), device.MEMBRANE, dtype=np.int8)
    kind[0, 1] = kind[2, 3] = device.VOID
    _assert_field_csv_matches_per_value_formatting(tmp_path, kind, _random_field(kind, seed=7))
    # the template is built per grid row: a row with no active cell writes
    # nothing, and void cells inside a row drop out of it
    kind = np.full((5, 6), device.MEMBRANE, dtype=np.int8)
    kind[2, :] = device.VOID
    kind[0, 2:4] = kind[3, 0] = kind[4, 5] = device.VOID
    _assert_field_csv_matches_per_value_formatting(tmp_path, kind, _random_field(kind, seed=8))


def _mirrored(half):
    return np.concatenate([half, half[::-1]])


def test_mirrored_field_csv_matches_per_value_formatting(tmp_path):
    # an up-down mirror writes its upper rows from its lower rows' text: a
    # void row pair, void cells inside mirrored rows, repeated row masks
    half = np.full((4, 5), device.MEMBRANE, dtype=np.int8)
    half[1, :] = device.VOID
    half[0, 2] = half[2, 0] = half[2, 4] = device.VOID
    kind = _mirrored(half)
    t = _mirrored(_random_field(half, seed=9))
    _assert_field_csv_matches_per_value_formatting(tmp_path, kind, t)
    # rows centred on y = 0: mirrored rows' y strings differ only by sign
    y0 = -4 * 0.0333
    ys = [format(y, ".6g") for y in _field_grid(kind, y0).cell_y_um()]
    assert all(ys[k] == "-" + ys[-1 - k] for k in range(4))
    _assert_field_csv_matches_per_value_formatting(tmp_path, kind, t, y0_um=y0)
    # x strings and temperatures that hold the y strings (x0 = y0, and each
    # row at its y value): only the y field, the one with a comma on each
    # side, changes between mirrored rows
    ys = _field_grid(kind, -1.25).cell_y_um()
    _assert_field_csv_matches_per_value_formatting(tmp_path, kind, _mirrored(np.outer(ys[:4], np.ones(5))), -1.25)
    # a mirror but for one temperature, by one ulp, or one mask cell
    near = t.copy()
    near[6, 1] = np.nextafter(near[6, 1], math.inf)
    _assert_field_csv_matches_per_value_formatting(tmp_path, kind, near, y0_um=y0)
    cut = kind.copy()
    cut[7, 3] = device.VOID
    _assert_field_csv_matches_per_value_formatting(tmp_path, cut, t, y0_um=y0)
    # equal values, unequal bits: %.6g writes 0 and -0
    signed = t.copy()
    signed[0, 0], signed[-1, 0] = 0.0, -0.0
    assert np.array_equal(signed, signed[::-1], equal_nan=True)
    _assert_field_csv_matches_per_value_formatting(tmp_path, kind, signed, y0_um=y0)
    # non-finite temperatures on active cells, mirrored and not
    odd = t.copy()
    odd[0, 0] = odd[-1, 0] = math.inf
    odd[0, 1] = odd[-1, 1] = -math.inf
    odd[3, 3] = odd[4, 3] = math.nan
    _assert_field_csv_matches_per_value_formatting(tmp_path, kind, odd, y0_um=y0)
    odd = odd.copy()  # the field froze the last one
    odd[4, 3] = 10.0
    _assert_field_csv_matches_per_value_formatting(tmp_path, kind, odd, y0_um=y0)
    # an odd row count has no mirror, whatever its values
    kind = np.concatenate([half, half[-1:], half[::-1]])
    t = np.concatenate([t[:4], t[3:4], t[4:]])
    _assert_field_csv_matches_per_value_formatting(tmp_path, kind, t, y0_um=-4.5 * 0.0333)


_temperatures = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from([0.0, -0.0, 10.0])


@st.composite
def _fields(draw):
    """A grid's kind and temperatures, of random shape and mask, drawn
    mirrored (an even row count, each lower row repeated in its mirror) or
    not."""
    mirror = draw(st.booleans())
    rows, nx = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    cells = st.lists(st.tuples(st.booleans(), _temperatures), min_size=rows * nx, max_size=rows * nx)
    drawn = draw(cells)
    kind = np.array([device.MEMBRANE if a else device.VOID for a, _ in drawn], dtype=np.int8).reshape(rows, nx)
    t = np.array([v for _, v in drawn], dtype=float).reshape(rows, nx)
    if mirror:
        kind, t = _mirrored(kind), _mirrored(t)
        if draw(st.booleans()):  # a mirror but for one cell
            j, i = draw(st.integers(0, kind.shape[0] - 1)), draw(st.integers(0, nx - 1))
            t[j, i] = draw(_temperatures)
    return kind, t


@settings(max_examples=200, deadline=None)
@given(field=_fields(), y0_um=st.sampled_from([1e-7, -0.0333, -2 * 0.0333, -1.25, 12.5]))
def test_field_csv_matches_per_value_formatting_on_any_field(field, y0_um):
    kind, t = field
    with tempfile.TemporaryDirectory() as tmp:
        _assert_field_csv_matches_per_value_formatting(Path(tmp), kind, t, y0_um)


def test_write_json_rounds_and_sorts(tmp_path):
    path = tmp_path / "r.json"
    cfg.write_json({"b": 1 / 3, "a": float("nan"), "c": [1.0, 2.0]}, path)
    text = path.read_text(encoding="utf-8")
    data = json.loads(text)
    assert data["b"] == float(f"{1/3:.9g}")
    assert data["a"] is None
    assert text.index('"a"') < text.index('"b"') < text.index('"c"')
