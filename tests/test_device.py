import hashlib
import json
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import CONFIGS, DEVICES, layouts_and_pitches, rounding_pitches
from qdtuner import cli, device
from qdtuner.config import load_device
from qdtuner.device import (
    Bridges,
    GridError,
    HeatingPad,
    LayoutError,
    Membrane,
    ThermalGrid,
    default_layout,
    rasterize,
)
from qdtuner.thermal import _faces, energy_residual, solve_steady_state


def test_default_membrane_dimensions():
    m = default_layout().membrane
    assert (m.length_um, m.width_um, m.thickness_nm) == (12.0, 4.0, 150.0)


def test_default_bridge_count_and_geometry():
    assert default_layout().bridges == Bridges(count=6, width_nm=320.0, length_um=2.0)


def test_bridge_width_override():
    assert default_layout(bridge_width_nm=800.0).bridges.width_nm == 800.0


def test_default_layout_is_valid():
    lay = default_layout()
    assert replace(lay) == lay


def test_pad_outside_membrane_rejected():
    with pytest.raises(LayoutError, match="pad out of bounds"):
        replace(default_layout(), pad=HeatingPad(x_um=10.0, y_um=0.5, w_um=3.0, h_um=3.0))


def test_no_bridges_rejected():
    for count in (0, -1):
        with pytest.raises(LayoutError, match="count must be an integer >= 1"):
            Bridges(count=count)


def test_bridges_hang_from_the_long_edges_only():
    # ceil(count / 2) blocks of bridge cells below the membrane, the rest
    # above it, and none beside it
    for count in range(1, 9):
        g = rasterize(default_layout(bridge_count=count), 0.1)
        y = g.cell_y_um()
        bridge = g.kind == device.BRIDGE
        assert not bridge[(y > 0.0) & (y < 4.0)].any()
        blocks = []
        for rows in (bridge[y < 0.0], bridge[y > 4.0]):
            assert (rows == rows[:1]).all()  # every row of an edge's bridges alike
            starts = np.diff(rows[:1].astype(int), prepend=0, axis=1) == 1
            blocks.append(int(starts.sum()))
        assert blocks == [(count + 1) // 2, count // 2]


def test_zero_width_bridge_rejected():
    with pytest.raises(LayoutError, match="positive width"):
        replace(default_layout().bridges, width_nm=0.0)


def test_overlapping_bridges_rejected():
    # the shipped 12 um edge holds three bridges below the membrane, one every
    # 3 um, so they may be at most 3 um wide; a lone bridge may span the edge
    assert default_layout(bridge_width_nm=3000.0).bridges.width_nm == 3000.0
    with pytest.raises(LayoutError, match="6 bridges of 3001.0 nm overlap"):
        default_layout(bridge_width_nm=3001.0)
    assert default_layout(bridge_width_nm=12000.0, bridge_count=1).bridges.count == 1
    with pytest.raises(LayoutError, match="bottom edge fit only up to 12000 nm"):
        default_layout(bridge_width_nm=12001.0, bridge_count=2)


def test_positions_must_sit_on_membrane():
    lay = default_layout()
    with pytest.raises(LayoutError, match="cavity out of bounds"):
        replace(lay, cavity_xy_um=(13.0, 2.0))
    with pytest.raises(LayoutError, match="QD 'q' out of bounds"):
        replace(lay, qds=(("q", (1.0, 5.0)),))


def test_rasterize_membrane_block_count():
    g = rasterize(default_layout(), 0.1)
    on_membrane = (g.kind == device.MEMBRANE) | (g.kind == device.PAD)
    assert int(on_membrane.sum()) == 120 * 40


def test_rasterize_bridge_cell_counts():
    g = rasterize(default_layout(), 0.1)
    # 320 nm wide / 2 um long bridges at 0.1 um pitch: 3 x 20 cells each
    assert int((g.kind == device.BRIDGE).sum()) == 6 * 3 * 20
    assert int(g.dirichlet.sum()) == 6 * 3
    assert g.t_bath_k == 10.0


# SHA-256 of rasterize's output for the shipped bridge widths, and for pad
# variants of the 320 nm device, at 0.01 mW absorbed and a 4.2 K bath: the
# kind, dirichlet, sheet_um and source_w bytes, then repr((shape, x0_um,
# y0_um, dx_um, t_bath_k)). rasterize is plain IEEE arithmetic, so the
# digests do not depend on the platform.
RASTER_DIGESTS = {
    ("device_w320.json", 0.1): "6a87b03649d22fbcdef081f60904d17d1cfdc46bd7d67835aaaa4baa0d9355b1",
    ("device_w320.json", 0.05): "527b5fbec5f07bbb176a3d8f160b6b19c9a986f8b0db0703096dc7cee8f2625f",
    ("device_w320.json", 0.025): "371a33826d3c2debfec385bf65cc63ddc20fea0c0531403cf0eb16ea5c7d2179",
    ("device_w800.json", 0.1): "f50f3b8e7731445061d2f5e2b4dc4da216818f26cbecd9831176d7efc927bcce",
    ("device_w800.json", 0.05): "acddbc5ec03a8222b2aae18fa1b23dfef66223c806e9df7a3bd06447b3d972a1",
    ("device_w800.json", 0.025): "da69e8fbc7b2a3c2cff9080bae169367915f1598301e9bf42674491931e0be3c",
    ("device_w320.json/gaussian-0.7", 0.1): "e271b33174b5d7a4c11ac34bf6f5e90b718efa76512796930e7de9ce839f4bd8",
    ("device_w320.json/gaussian-0.7", 0.05): "94b06c49288eda27dd5041ee6742e6b0810a63d324940ae02355ff5d0f47dfef",
    ("device_w320.json/gaussian-0.7", 0.025): "d078a681b0133e34d37b5b375a1aa58feefb0f9c3c79ad4323e00ad53537ba66",
    ("device_w320.json/gaussian-0.05", 0.1): "4d64060126b3bd5a2947250e43d13d8143ad8d5fdbdc601eaae0962ec33d2473",
    ("device_w320.json/gaussian-0.05", 0.05): "07412caaab4cacbd5bc475383f0ac7a373742abb7dfdbb8460adc7b517b7cc48",
    ("device_w320.json/gaussian-0.05", 0.025): "63217ab1e8b07d8c0c5aa62f81582f51d6a172bdc57769fc77993d006215b751",
    ("device_w320.json/off-centre", 0.1): "9a71fac665117095ed020065b7f35482faad5318e6cc80bb178db7d5943c2413",
    ("device_w320.json/off-centre", 0.05): "1363e1af4a6c3155424e98c8805f2ae149f9d472dd7f47e7442b08a76276d5de",
    ("device_w320.json/off-centre", 0.025): "45801473bad658f0e02485078879a505a4bdc709f758e7027d569a147e8449c9",
}

# Pads that replace a shipped one's fields in RASTER_DIGESTS ("device/pad"):
# gaussian weights, and an off-centre pad none of whose edges lies on a cell
# centre at the digests' pitches.
PAD_VARIANTS = {
    "gaussian-0.7": dict(profile="gaussian", sigma_um=0.7),
    "gaussian-0.05": dict(profile="gaussian", sigma_um=0.05),
    "off-centre": dict(x_um=4.7, y_um=0.33, w_um=2.9, h_um=1.45),
}


def _digest(g):
    h = hashlib.sha256()
    for a in (g.kind, g.dirichlet, g.sheet_um, g.source_w):
        h.update(np.ascontiguousarray(a).tobytes())
    h.update(repr((g.shape, g.x0_um, g.y0_um, g.dx_um, g.t_bath_k)).encode())
    return h.hexdigest()


@pytest.mark.parametrize("name, dx", list(RASTER_DIGESTS), ids=lambda v: str(v))
def test_rasterize_matches_golden_digests(name, dx):
    config, _, variant = name.partition("/")
    lay = load_device(CONFIGS / config).layout
    if variant:
        lay = replace(lay, pad=replace(lay.pad, **PAD_VARIANTS[variant]))
    g = rasterize(lay, dx, absorbed_power_w=1e-5, t_bath_k=4.2)
    assert _digest(g) == RASTER_DIGESTS[name, dx]


# The same digests for the default layout with an odd bridge count: a lone
# bridge leaves the top edge bare, and seven put the odd one at the bottom.
COUNT_DIGESTS = {
    (1, 0.1): "1f12475f01848b91a5e2b2f7fbec191c7a66da606187484eb3a27b497defc887",
    (1, 0.05): "35010f320f44f3fb26dceda4ad4b9287866c111b38d7163707028b959c5218da",
    (7, 0.1): "903d79c5376d32bda34938ce3e684626ea0c61ca7228fad914a78c15cd9b54f9",
    (7, 0.05): "b3d03886f7454109c80a6f6c3f35c4a929cafb9259cceadcf7dd1ad6520244f1",
}


@pytest.mark.parametrize("count, dx", list(COUNT_DIGESTS), ids=lambda v: str(v))
def test_rasterize_bridge_counts_match_golden_digests(count, dx):
    g = rasterize(default_layout(bridge_count=count), dx, absorbed_power_w=1e-5, t_bath_k=4.2)
    assert _digest(g) == COUNT_DIGESTS[count, dx]


@pytest.mark.parametrize(
    "layout",
    [load_device(CONFIGS / name).layout for name in DEVICES]
    + [default_layout(bridge_count=count) for count in range(1, 8)],
    ids=DEVICES + [f"default-{count}-bridges" for count in range(1, 8)],
)
def test_rasterize_places_the_membrane_by_the_counts_that_size_the_grid(layout):
    # at any pitch the membrane is the round(W/dx) x round(L/dx) block that
    # sizes the grid, on the rows after the bottom bridges' n_len; the
    # bridges take n_len rows below and above it and are fixed on the grid's
    # first and last rows, also where a cell centre lies on the membrane's edge
    m, b = layout.membrane, layout.bridges
    for dx in rounding_pitches(layout):
        try:
            g = rasterize(layout, dx, absorbed_power_w=1e-5)
        except LayoutError:
            continue
        ny, nx = g.shape
        n_len, n_mem = max(1, round(b.length_um / dx)), max(1, round(m.width_um / dx))
        assert nx == max(1, round(m.length_um / dx)), dx
        rows = np.arange(ny)
        on_membrane = (g.kind == device.MEMBRANE) | (g.kind == device.PAD)
        expected = np.broadcast_to(((rows >= n_len) & (rows < n_len + n_mem))[:, None], g.shape)
        assert np.array_equal(on_membrane, expected), dx
        bridge_rows = rows[(g.kind == device.BRIDGE).any(axis=1)]
        assert np.all((bridge_rows < n_len) | (bridge_rows >= ny - n_len)), dx
        assert set(rows[g.dirichlet.any(axis=1)]) <= {0, ny - 1}, dx


def test_rasterize_rejects_coarse_dx():
    with pytest.raises(LayoutError, match="dx too coarse"):
        rasterize(default_layout(), 0.5)  # coarser than the 0.32 um bridges
    with pytest.raises(LayoutError, match="dx must be positive"):
        rasterize(default_layout(), 0.0)


@pytest.mark.parametrize("power_w", [math.nan, math.inf, -1e-9])
def test_rasterize_rejects_a_power_outside_zero_to_inf(power_w):
    with pytest.raises(LayoutError, match="absorbed power must be non-negative and finite"):
        rasterize(default_layout(), 0.1, absorbed_power_w=power_w)


@pytest.mark.parametrize("t_bath_k", [math.nan, math.inf, 0.0, -1.0])
def test_rasterize_rejects_a_bath_that_is_not_positive_and_finite(t_bath_k):
    with pytest.raises(LayoutError, match="bath temperature must be positive and finite"):
        rasterize(default_layout(), 0.1, t_bath_k=t_bath_k)


@pytest.mark.parametrize("profile", ["uniform", "gaussian"])
def test_source_sum_matches_absorbed_power(profile):
    lay = replace(default_layout(), pad=HeatingPad(profile=profile, sigma_um=0.8))
    p = 3.4e-6
    g = rasterize(lay, 0.1, absorbed_power_w=p)
    assert abs(float(g.source_w.sum()) - p) <= 1e-12 * p
    assert np.all(g.source_w[g.kind != device.PAD] == 0.0)


def test_tiny_gaussian_spot_keeps_finite_sources():
    # exp(-r^2 / 2 sigma^2) underflows to 0 in every pad cell at this spot
    # size; the weights are taken relative to the cell nearest the center
    lay = replace(default_layout(), pad=HeatingPad(profile="gaussian", sigma_um=1e-6))
    p = 3.4e-6
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        g = rasterize(lay, 0.1, absorbed_power_w=p)
    assert np.all(np.isfinite(g.source_w))
    assert abs(float(g.source_w.sum()) - p) <= 1e-12 * p


def test_gaussian_profile_peaks_at_pad_center():
    lay = replace(default_layout(), pad=HeatingPad(profile="gaussian", sigma_um=0.6))
    g = rasterize(lay, 0.1, absorbed_power_w=1e-6)
    j, i = np.unravel_index(np.argmax(g.source_w), g.shape)
    assert abs(g.cell_x_um()[i] - 1.5) < 0.11
    assert abs(g.cell_y_um()[j] - 2.0) < 0.11


def test_rasterize_caps_the_cell_count():
    # the shipped 12 x 4 um membrane with 2 um bridges at 0.025 um pitch
    assert rasterize(default_layout(), 0.025).kind.size == 153_600 <= device.MAX_GRID_CELLS
    for dx in (0.009, 1e-300, 5e-324):
        with pytest.raises(LayoutError, match="dx too fine"):
            rasterize(default_layout(), dx)


def test_refinement_keeps_total_area():
    lay = default_layout()
    areas = [float(rasterize(lay, dx).active().sum()) * dx * dx for dx in (0.1, 0.05)]
    assert abs(areas[1] - areas[0]) / areas[0] < 0.05


def test_disconnected_grid_detected():
    # a sourceless bar cut in two: the far half has no path to the fixed cell,
    # and the solver's grid check refuses it
    shape = (1, 10)
    kind = np.full(shape, device.BRIDGE, dtype=np.int8)
    kind[0, 5] = device.VOID
    dirichlet = np.zeros(shape, dtype=bool)
    dirichlet[0, 0] = True
    g = ThermalGrid(
        dx_um=0.1,
        x0_um=0.0,
        y0_um=0.0,
        kind=kind,
        sheet_um=np.full(shape, 0.15),
        source_w=np.zeros(shape),
        dirichlet=dirichlet,
        t_bath_k=10.0,
        material=device.MaterialModel(),
    )
    with pytest.raises(GridError, match="disconnected"):
        _faces(g)


# a 3.75 um wide membrane is 12.5 cells of 0.3 um and rounds to 12 rows; the
# top row's centre, 3.45 um, lies on the lower edge of a one-cell pad on the
# membrane's top edge
_TOP_EDGE_PAD = replace(
    default_layout(), membrane=Membrane(width_um=3.75), pad=HeatingPad(0.0, 3.45, 0.3, 0.3)
)


def test_a_pad_on_the_top_edge_keeps_its_row(tmp_path):
    g = rasterize(_TOP_EDGE_PAD, 0.3, absorbed_power_w=1e-5)
    top_row = round(2.0 / 0.3) + 12 - 1  # after the bottom bridges' rows
    assert list(zip(*np.nonzero(g.kind == device.PAD))) == [(top_row, 0)]
    raw = json.loads((CONFIGS / "device_w320.json").read_text(encoding="utf-8"))
    raw["membrane"]["width_um"] = 3.75
    raw["pad"] = {"x_um": 0.0, "y_um": 3.45, "w_um": 0.3, "h_um": 0.3, "profile": "uniform"}
    (tmp_path / "device.json").write_text(json.dumps(raw), encoding="utf-8")
    argv = ["thermal", str(tmp_path / "device.json"), "--dx-um", "0.3", "--power-abs-mw", "0.01"]
    assert cli.main(argv + ["--out", str(tmp_path / "out")]) == 0
    assert json.loads((tmp_path / "out" / "report.json").read_text(encoding="utf-8"))["converged"] is True


def _device_json(layout):
    """The device file that load_device reads back as layout."""
    m, b, pad, mat = layout.membrane, layout.bridges, layout.pad, layout.material
    return {
        "membrane": {"length_um": m.length_um, "width_um": m.width_um, "thickness_nm": m.thickness_nm},
        "bridges": {"count": b.count, "width_nm": b.width_nm, "length_um": b.length_um},
        "pad": {"x_um": pad.x_um, "y_um": pad.y_um, "w_um": pad.w_um, "h_um": pad.h_um,
                "profile": pad.profile, "sigma_um": pad.sigma_um},
        "material": {"kappa_ref": mat.kappa_ref_w_per_k_cm, "t_ref": mat.t_ref_k, "exponent": mat.exponent,
                     "body_scale": layout.body_kappa_scale},
    }


@settings(max_examples=150, deadline=None)
@example(case=(_TOP_EDGE_PAD, 0.3), power_mw=0.01)
@given(case=layouts_and_pitches(), power_mw=st.floats(min_value=1e-6, max_value=1e-2))
def test_rasterize_over_the_layout_space(tmp_path_factory, case, power_mw):
    layout, dx = case
    power_w = power_mw * 1e-3  # as tuner thermal converts it
    m, b, pad = layout.membrane, layout.bridges, layout.pad
    feature = min(b.width_um, pad.w_um, pad.h_um)
    with pytest.raises(LayoutError, match="dx too coarse"):
        rasterize(layout, float(np.nextafter(feature, math.inf)))
    g = rasterize(layout, dx, absorbed_power_w=power_w)
    ny, nx = g.shape
    n_len, n_mem = max(1, round(b.length_um / dx)), round(m.width_um / dx)
    rows = np.arange(ny)[:, None]

    # the membrane is the round(W/dx) x round(L/dx) block after n_len rows
    assert nx == round(m.length_um / dx)
    on_membrane = (g.kind == device.MEMBRANE) | (g.kind == device.PAD)
    assert np.array_equal(on_membrane, np.broadcast_to((rows >= n_len) & (rows < n_len + n_mem), g.shape))

    # the pad is every membrane cell whose centre lies on it, up to 1e-9 of
    # a cell either way, in micrometres
    x, y = g.cell_x_um()[None, :], g.cell_y_um()[:, None]
    tol = 1e-9 * dx

    def within(t):
        return (
            (x >= pad.x_um - t) & (x <= pad.x_um + pad.w_um + t)
            & (y >= pad.y_um - t) & (y <= pad.y_um + pad.h_um + t)
        )

    is_pad = g.kind == device.PAD
    assert is_pad.any()
    assert np.all(within(tol)[is_pad])
    assert np.all(is_pad[on_membrane & within(-tol)])

    # bridges hang in the first and last n_len rows and are fixed only on
    # the grid's outer rows
    bridge_rows = np.flatnonzero((g.kind == device.BRIDGE).any(axis=1))
    assert np.all((bridge_rows < n_len) | (bridge_rows >= ny - n_len))
    assert set(np.flatnonzero(g.dirichlet.any(axis=1))) <= {0, ny - 1}

    assert np.all(g.source_w >= 0.0) and np.all(g.source_w[~is_pad] == 0.0)
    assert abs(float(g.source_w.sum()) - power_w) <= 1e-12 * power_w

    # every cell reaches a bridge end through conducting faces: the solver's
    # grid checks never refuse the grid
    _faces(g)
    if g.kind.size <= 5_000:
        field, report = solve_steady_state(g)
        if report.converged:
            assert energy_residual(field) <= 1e-3
            assert float(np.nanmin(field.t_k)) >= g.t_bath_k - 1e-9
            assert np.max(field.t_k[g.source_w > 0.0]) == np.nanmax(field.t_k)
        # the same input through tuner thermal, as a device file: exit 0 with
        # converged: true, or 3, as the solve above ended
        work = tmp_path_factory.mktemp("layout")
        (work / "device.json").write_text(json.dumps(_device_json(layout)), encoding="utf-8")
        argv = ["thermal", str(work / "device.json"), "--dx-um", repr(dx), "--power-abs-mw", repr(power_mw)]
        code = cli.main([*argv, "--out", str(work / "out")])
        assert code == (0 if report.converged else 3)
        assert json.loads((work / "out" / "report.json").read_text(encoding="utf-8"))["converged"] is (code == 0)
