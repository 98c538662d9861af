from __future__ import annotations

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume
from hypothesis import strategies as st

from qdtuner import device
from qdtuner.device import UM_PER_CM, Bridges, DeviceLayout, HeatingPad, MaterialModel, Membrane, ThermalGrid

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
DEVICES = sorted(p.name for p in CONFIGS.glob("device_*.json"))


def rounding_pitches(layout: device.DeviceLayout, seed: int = 0) -> list[float]:
    """Grid pitches that probe how rasterize rounds a layout: 0.32 and 0.064
    um, at which the shipped 4 um membrane is 12.5 and 62.5 cells wide; the
    pitches at which the membrane's width or length is a half-integer
    number of cells, down to about 0.06 um; and 16 seeded draws up to the
    smallest feature, from 0.06 um or from the feature if it is smaller."""
    m, b, pad = layout.membrane, layout.bridges, layout.pad
    feature = min(b.width_um, pad.w_um, pad.h_um)
    draws = np.random.default_rng(seed).uniform(min(0.06, feature), feature, 16)
    half = [m.width_um / (k + 0.5) for k in range(1, 64)]
    half += [m.length_um / (k + 0.5) for k in range(1, 192)]
    return [0.32, 0.064, *half, *draws.tolist()]


@st.composite
def layouts_and_pitches(draw):
    """A valid layout as load_device builds one, and a pitch it rasterizes at:
    1-9 bridges spread over the long edges, as wide as the layout allows (the
    spacing of the bottom edge's n bridges, L / (n + 1), or L for n = 1), any
    pad, uniform or gaussian, inside the membrane, on its edges too, any
    material of exponent -0.5 to 4 with kappa_ref 1e-4 to 1 W/K/cm and t_ref
    1 to 1,000 K, and any body scale. The pitch runs from the one that caps
    the grid near 20,000 cells up to the smallest feature; half the draws
    take one of rounding_pitches, where a membrane edge, and a pad on it,
    lies on a cell centre."""
    f = st.floats(min_value=0.0, max_value=1.0)
    membrane = Membrane(
        length_um=draw(st.floats(min_value=0.5, max_value=12.0)),
        width_um=draw(st.floats(min_value=0.5, max_value=4.0)),
    )
    length, width = membrane.length_um, membrane.width_um
    count = draw(st.integers(min_value=1, max_value=9))
    n = (count + 1) // 2
    bridges = Bridges(
        count,
        draw(st.floats(min_value=50.0, max_value=1e3 * length / (n + 1 if n > 1 else 1))),
        draw(st.floats(min_value=0.05, max_value=3.0)),
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
    material = MaterialModel(
        10.0 ** draw(st.floats(min_value=-4.0, max_value=0.0)),
        10.0 ** draw(st.floats(min_value=0.0, max_value=3.0)),
        draw(st.floats(min_value=-0.5, max_value=4.0)),
    )
    layout = DeviceLayout(
        membrane, bridges, pad, material, body_kappa_scale=draw(st.floats(min_value=0.1, max_value=10.0))
    )
    feature = min(bridges.width_um, w, h)
    finest = math.sqrt(length * (width + 2.0 * bridges.length_um) / 20_000)
    assume(finest <= feature)
    halves = [dx for dx in rounding_pitches(layout) if finest <= dx <= feature]
    if halves and draw(st.booleans()):
        return layout, draw(st.sampled_from(halves))
    # finest + 1.0 * (feature - finest) can round one ulp past the feature
    return layout, min(finest + draw(f) * (feature - finest), feature)


@pytest.fixture(scope="session")
def configs_dir() -> Path:
    return CONFIGS


def bar_grid(
    n_cells: int,
    power_w: float,
    length_um: float = 2.0,
    material: MaterialModel | None = None,
    t_bath_k: float = 10.0,
    sheet_um: float = 0.15,
) -> ThermalGrid:
    """Single-bridge bar: one row of cells with a fixed-temperature cell at one
    end and all power injected in the far cell."""
    dx = length_um / n_cells
    shape = (1, n_cells)
    source = np.zeros(shape)
    source[0, -1] = power_w
    dirichlet = np.zeros(shape, dtype=bool)
    dirichlet[0, 0] = True
    return ThermalGrid(
        dx_um=dx,
        x0_um=0.0,
        y0_um=0.0,
        kind=np.full(shape, device.BRIDGE, dtype=np.int8),
        sheet_um=np.full(shape, sheet_um),
        source_w=source,
        dirichlet=dirichlet,
        t_bath_k=t_bath_k,
        material=material if material is not None else MaterialModel(),
    )


def field_csv_per_value(grid: ThermalGrid, t_k: np.ndarray) -> bytes:
    """The field.csv bytes of t_k on grid, each value formatted on its own:
    the writer's oracle."""
    xs, ys = grid.cell_x_um(), grid.cell_y_um()
    ny, nx = grid.shape
    text = "x_um,y_um,T_K\n" + "".join(
        f"{format(xs[i], '.6g')},{format(ys[j], '.6g')},{format(t_k[j, i], '.6g')}\n"
        for j in range(ny)
        for i in range(nx)
        if grid.kind[j, i] != device.VOID
    )
    return text.encode("utf-8")


def bar_end_temperature_analytic(grid: ThermalGrid, power_w: float, t_bath_k: float = 10.0) -> float:
    """Closed-form end temperature of the bar: P * L / A = integral of kappa dT,
    over the center-to-center span of the discrete bar."""
    n = grid.shape[1]
    length_cm = (n - 1) * grid.dx_um / 1.0e4
    area_cm2 = grid.dx_um * grid.sheet_um[0, 0] / 1.0e8
    target = power_w * length_cm / area_cm2
    mat = grid.material
    p = mat.exponent
    pref = mat.kappa_ref_w_per_k_cm / ((p + 1.0) * mat.t_ref_k**p)
    return (t_bath_k ** (p + 1.0) + target / pref) ** (1.0 / (p + 1.0))


def manufactured_sheet(
    n: int,
    material: MaterialModel | None = None,
    t_bath_k: float = 10.0,
    t_peak_k: float = 40.0,
    width_um: float = 1.0,
    sheet_um: float = 0.15,
) -> tuple[ThermalGrid, np.ndarray]:
    """A 2-D manufactured solution (Roache 2002): the grid and the exact
    temperature at its cell centres.

    n columns of pitch h = width_um / n, and n + 1 rows, the first held at
    the bath, so the sheet spans y in [0, H] with H = (n + 1/2) h. In the
    Kirchhoff variable V = integral of kappa dT from the bath, the exact
    field is V = A sin(pi y / 2H) (1 + c cos(pi x / W)), zero at the bath
    row and flux-free on the other three edges, with A set so that the
    hottest point, (0, H), is at t_peak_k. Each cell's source is the exact
    integral of -div(kappa t grad T) over it, the net heat its four faces
    carry out, in closed form. Its density, A sin(pi y / 2H) (a^2 + c (a^2
    + b^2) cos(pi x / W)) with a = pi / 2H and b = pi / W, is positive where
    c < a^2 / (a^2 + b^2), which is over 0.16 from n = 4 on: with c = 0.15
    no cell is a sink, as a heated membrane has none.
    """
    material = material if material is not None else MaterialModel()
    h = width_um / n
    height = (n + 0.5) * h
    a, b = math.pi / (2.0 * height), math.pi / width_um
    p, tr, k_ref = material.exponent, material.t_ref_k, material.kappa_ref_w_per_k_cm

    def kirchhoff(t):  # integral of kappa dT from 0, in W/cm (p > -1)
        return k_ref * tr * (t / tr) ** (p + 1.0) / (p + 1.0)

    c = 0.15
    amp = (kirchhoff(t_peak_k) - kirchhoff(t_bath_k)) / (1.0 + c)
    x_lo, y_lo = np.arange(n) * h, (np.arange(n + 1) - 0.5) * h
    x_hi, y_hi = x_lo + h, y_lo + h
    d_cos = np.cos(a * y_hi) - np.cos(a * y_lo)  # per row
    d_sin = np.sin(b * x_hi) - np.sin(b * x_lo)  # per column
    # the closed line integral of dV/dn around each cell, in W/cm
    flux_out = amp * np.outer(d_cos, a * h + c * d_sin * (a / b + b / a))
    source = -flux_out * sheet_um / UM_PER_CM
    source[0] = 0.0
    dirichlet = np.zeros((n + 1, n), dtype=bool)
    dirichlet[0] = True
    x_c, y_c = x_lo + 0.5 * h, y_lo + 0.5 * h
    v = amp * np.outer(np.sin(a * y_c), 1.0 + c * np.cos(b * x_c))
    t_exact = tr * ((t_bath_k / tr) ** (p + 1.0) + (p + 1.0) * v / (k_ref * tr)) ** (1.0 / (p + 1.0))
    grid = ThermalGrid(
        dx_um=h,
        x0_um=0.0,
        y0_um=-0.5 * h,
        kind=np.full((n + 1, n), device.MEMBRANE, dtype=np.int8),
        sheet_um=np.full((n + 1, n), sheet_um),
        source_w=source,
        dirichlet=dirichlet,
        t_bath_k=t_bath_k,
        material=material,
    )
    return grid, t_exact
