import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qdtuner import device
from qdtuner.device import (
    DeviceLayout,
    GridError,
    HeatingPad,
    LayoutError,
    MaterialModel,
    Membrane,
    ThermalGrid,
    default_layout,
    rasterize,
    spread_bridges,
    validate_layout,
)
from qdtuner.thermal import _faces


def test_default_membrane_dimensions():
    m = default_layout().membrane
    assert (m.length_um, m.width_um, m.thickness_nm) == (12.0, 4.0, 150.0)


def test_default_bridge_count_and_geometry():
    lay = default_layout()
    assert len(lay.bridges) == 6
    assert all(b.width_nm == 320.0 and b.length_um == 2.0 for b in lay.bridges)
    assert {b.side for b in lay.bridges} == {"bottom", "top"}


def test_bridge_width_override():
    lay = default_layout(bridge_width_nm=800.0)
    assert all(b.width_nm == 800.0 for b in lay.bridges)


def test_default_layout_is_valid():
    lay = default_layout()
    assert validate_layout(lay) is lay


def test_pad_outside_membrane_rejected():
    bad = replace(default_layout(), pad=HeatingPad(x_um=10.0, y_um=0.5, w_um=3.0, h_um=3.0))
    with pytest.raises(LayoutError, match="pad out of bounds"):
        validate_layout(bad)


def test_no_bridges_rejected():
    with pytest.raises(LayoutError, match="no heat path"):
        validate_layout(replace(default_layout(), bridges=()))
    with pytest.raises(LayoutError, match="no heat path"):
        spread_bridges(0, 320.0, 2.0, default_layout().membrane)


def test_zero_width_bridge_rejected():
    lay = default_layout()
    bad = replace(lay, bridges=(replace(lay.bridges[0], width_nm=0.0),))
    with pytest.raises(LayoutError, match="positive width"):
        validate_layout(bad)


def test_positions_must_sit_on_membrane():
    lay = default_layout()
    with pytest.raises(LayoutError, match="cavity out of bounds"):
        validate_layout(replace(lay, cavity_xy_um=(13.0, 2.0)))
    with pytest.raises(LayoutError, match="QD 'q' out of bounds"):
        validate_layout(replace(lay, qds=(("q", (1.0, 5.0)),)))


def test_rasterize_membrane_block_count():
    g = rasterize(default_layout(), 0.1)
    on_membrane = (g.kind == device.MEMBRANE) | (g.kind == device.PAD)
    assert int(on_membrane.sum()) == 120 * 40


def test_rasterize_bridge_cell_counts():
    g = rasterize(default_layout(), 0.1)
    # 320 nm wide / 2 um long bridges at 0.1 um pitch: 3 x 20 cells each
    assert int((g.kind == device.BRIDGE).sum()) == 6 * 3 * 20
    assert int(g.dirichlet.sum()) == 6 * 3
    assert np.all(g.dirichlet_k[g.dirichlet] == 10.0)


def test_rasterize_rejects_coarse_dx():
    with pytest.raises(GridError, match="dx too coarse"):
        rasterize(default_layout(), 0.5)  # coarser than the 0.32 um bridges
    with pytest.raises(GridError, match="dx must be positive"):
        rasterize(default_layout(), 0.0)


@pytest.mark.parametrize("profile", ["uniform", "gaussian"])
def test_source_sum_matches_absorbed_power(profile):
    lay = replace(default_layout(), pad=HeatingPad(profile=profile, sigma_um=0.8))
    p = 3.4e-6
    g = rasterize(lay, 0.1, absorbed_power_w=p)
    assert abs(float(g.source_w.sum()) - p) <= 1e-12 * p
    assert np.all(g.source_w[g.kind != device.PAD] == 0.0)


def test_gaussian_profile_peaks_at_pad_center():
    lay = replace(default_layout(), pad=HeatingPad(profile="gaussian", sigma_um=0.6))
    g = rasterize(lay, 0.1, absorbed_power_w=1e-6)
    j, i = np.unravel_index(np.argmax(g.source_w), g.shape)
    assert abs(g.cell_x_um()[i] - 1.5) < 0.11
    assert abs(g.cell_y_um()[j] - 2.0) < 0.11


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
        thickness_um=np.full(shape, 0.15),
        source_w=np.zeros(shape),
        dirichlet=dirichlet,
        dirichlet_k=np.where(dirichlet, 10.0, np.nan),
        material=device.MaterialModel(),
    )
    with pytest.raises(GridError, match="disconnected"):
        _faces(g)


@st.composite
def _layouts(draw):
    """A valid layout as load_device builds one: 1-8 bridges spread over the
    long edges, up to three times as wide as the membrane is long, and any
    pad, uniform or gaussian, inside the membrane."""
    f = st.floats(min_value=0.0, max_value=1.0)
    membrane = Membrane(
        length_um=draw(st.floats(min_value=0.5, max_value=12.0)),
        width_um=draw(st.floats(min_value=0.5, max_value=4.0)),
    )
    length, width = membrane.length_um, membrane.width_um
    bridges = spread_bridges(
        draw(st.integers(min_value=1, max_value=8)),
        draw(st.floats(min_value=50.0, max_value=3000.0 * length)),
        draw(st.floats(min_value=0.05, max_value=3.0)),
        membrane,
    )
    w, h = (0.05 + 0.95 * draw(f)) * length, (0.05 + 0.95 * draw(f)) * width
    x, y = draw(f) * (length - w), draw(f) * (width - h)
    assume(x + w <= length and y + h <= width)  # lost to rounding
    pad = HeatingPad(
        x_um=x,
        y_um=y,
        w_um=w,
        h_um=h,
        profile=draw(st.sampled_from(["uniform", "gaussian"])),
        sigma_um=draw(st.floats(min_value=1e-3, max_value=10.0)),
    )
    return validate_layout(DeviceLayout(membrane, bridges, pad, MaterialModel()))


@settings(max_examples=60, deadline=None)
@given(layout=_layouts(), pitch=st.floats(min_value=0.0, max_value=1.0))
def test_bridges_attach_to_the_membrane(layout, pitch):
    # every cell of a rasterized valid layout reaches a bridge end through
    # conducting faces: the solver's grid checks (thermal._faces) never
    # refuse it. The pitch runs from the one that caps the grid near 20,000
    # cells up to the smallest feature.
    m = layout.membrane
    feature = min(min(b.width_um for b in layout.bridges), layout.pad.w_um, layout.pad.h_um)
    span = 2.0 * max(b.length_um for b in layout.bridges)
    finest = math.sqrt(m.length_um * (m.width_um + span) / 20_000)
    assume(finest <= feature)
    _faces(rasterize(layout, finest + pitch * (feature - finest), absorbed_power_w=1e-5))
