"""Suspended-membrane device geometry and its rasterization onto a thermal grid.

In-plane coordinates are micrometers with the origin at the lower-left corner
of the membrane; layer thicknesses are nanometers. Conductivities are quoted
in W K^-1 cm^-1 throughout the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

UM_PER_CM = 1.0e4

# cell classification codes
VOID = 0
MEMBRANE = 1
BRIDGE = 2
PAD = 3

SIDES = ("bottom", "top", "left", "right")

DEFAULT_BRIDGE_WIDTH_NM = 320.0
DEFAULT_BRIDGE_LENGTH_UM = 2.0
DEFAULT_BRIDGE_COUNT = 6


class LayoutError(ValueError):
    """A device layout violates a geometric invariant."""


class GridError(ValueError):
    """A thermal grid cannot be built or solved."""


@dataclass(frozen=True)
class Membrane:
    """Suspended slab holding the optical structures."""

    length_um: float = 12.0
    width_um: float = 4.0
    thickness_nm: float = 150.0

    @property
    def thickness_um(self) -> float:
        return self.thickness_nm * 1.0e-3


@dataclass(frozen=True)
class Bridge:
    """Narrow beam anchoring the membrane to the chip.

    The cross section is bridge width times membrane thickness; the far end
    is held at the bath temperature.
    """

    width_nm: float = DEFAULT_BRIDGE_WIDTH_NM
    length_um: float = DEFAULT_BRIDGE_LENGTH_UM
    side: str = "bottom"       # membrane edge the bridge is attached to
    position_um: float = 6.0   # anchor center along that edge

    @property
    def width_um(self) -> float:
        return self.width_nm * 1.0e-3


@dataclass(frozen=True)
class HeatingPad:
    """Metal-coated rectangle where the heating laser power is absorbed."""

    x_um: float = 0.0          # lower-left corner in membrane coordinates
    y_um: float = 0.5
    w_um: float = 3.0
    h_um: float = 3.0
    profile: str = "uniform"   # "uniform" or "gaussian"
    sigma_um: float = 1.0      # gaussian spot size; unused for uniform


@dataclass(frozen=True)
class MaterialModel:
    """Power-law conductivity kappa(T) = kappa_ref * (T / t_ref)^exponent."""

    kappa_ref_w_per_k_cm: float = 3.0e-2
    t_ref_k: float = 10.0
    exponent: float = 2.0


@dataclass(frozen=True)
class DeviceLayout:
    """Full geometric description: membrane, bridges, pad and named positions.

    body_kappa_scale multiplies the conductivity on the membrane body only
    (bridges keep the bare material law); it defaults to 1 so the body and
    the bridges share one conductivity, and exists for sensitivity studies.
    """

    membrane: Membrane
    bridges: tuple[Bridge, ...]
    pad: HeatingPad
    material: MaterialModel
    cavity_xy_um: tuple[float, float] | None = None
    qds: tuple[tuple[str, tuple[float, float]], ...] = ()
    body_kappa_scale: float = 1.0


def spread_bridges(
    count: int,
    width_nm: float,
    length_um: float,
    membrane: Membrane,
) -> tuple[Bridge, ...]:
    """Distribute bridges evenly over the two long membrane edges."""
    if count < 1:
        raise LayoutError("no heat path: bridge count must be >= 1")
    n_bottom = (count + 1) // 2
    n_top = count - n_bottom
    bridges: list[Bridge] = []
    for side, n in (("bottom", n_bottom), ("top", n_top)):
        for k in range(n):
            pos = membrane.length_um * (k + 1) / (n + 1)
            bridges.append(
                Bridge(width_nm=width_nm, length_um=length_um, side=side, position_um=pos)
            )
    return tuple(bridges)


def default_layout(
    bridge_width_nm: float = DEFAULT_BRIDGE_WIDTH_NM,
    bridge_length_um: float = DEFAULT_BRIDGE_LENGTH_UM,
    bridge_count: int = DEFAULT_BRIDGE_COUNT,
    material: MaterialModel | None = None,
) -> DeviceLayout:
    """Standard device: 12 x 4 um x 150 nm membrane, six bridges, pad at one
    end and the cavity region at the other."""
    membrane = Membrane()
    return DeviceLayout(
        membrane=membrane,
        bridges=spread_bridges(bridge_count, bridge_width_nm, bridge_length_um, membrane),
        pad=HeatingPad(),
        material=material if material is not None else MaterialModel(),
        cavity_xy_um=(10.0, 2.0),
        qds=(),
    )


def _require_inside(membrane: Membrane, x: float, y: float, what: str) -> None:
    if not (0.0 <= x <= membrane.length_um and 0.0 <= y <= membrane.width_um):
        raise LayoutError(f"{what} out of bounds: ({x}, {y}) um not on the membrane")


def validate_layout(layout: DeviceLayout) -> DeviceLayout:
    """Return the layout unchanged if every geometric invariant holds."""
    m = layout.membrane
    if m.length_um <= 0 or m.width_um <= 0 or m.thickness_nm <= 0:
        raise LayoutError("membrane dimensions must be positive")
    if len(layout.bridges) < 1:
        raise LayoutError("no heat path: layout needs at least one bridge")
    for b in layout.bridges:
        if b.side not in SIDES:
            raise LayoutError(f"unknown bridge side {b.side!r}")
        if b.width_nm <= 0 or b.length_um <= 0:
            raise LayoutError("bridge must have positive width and length")
        span = m.length_um if b.side in ("bottom", "top") else m.width_um
        if not 0.0 <= b.position_um <= span:
            raise LayoutError("bridge anchor off the membrane perimeter")
    p = layout.pad
    if p.w_um <= 0 or p.h_um <= 0:
        raise LayoutError("pad must have positive size")
    if (
        p.x_um < 0.0
        or p.y_um < 0.0
        or p.x_um + p.w_um > m.length_um
        or p.y_um + p.h_um > m.width_um
    ):
        raise LayoutError("pad out of bounds")
    if p.profile not in ("uniform", "gaussian"):
        raise LayoutError(f"unknown pad profile {p.profile!r}")
    if p.profile == "gaussian" and p.sigma_um <= 0:
        raise LayoutError("gaussian pad profile needs sigma_um > 0")
    mat = layout.material
    if mat.kappa_ref_w_per_k_cm <= 0 or mat.t_ref_k <= 0:
        raise LayoutError("material reference conductivity and temperature must be positive")
    if layout.body_kappa_scale <= 0:
        raise LayoutError("body conductivity scale must be positive")
    if layout.cavity_xy_um is not None:
        _require_inside(m, *layout.cavity_xy_um, what="cavity")
    for qd_id, (x, y) in layout.qds:
        _require_inside(m, x, y, what=f"QD {qd_id!r}")
    return layout


@dataclass(frozen=True)
class ThermalGrid:
    """Rasterized solve domain: square cells of pitch dx_um, arrays [iy, ix]."""

    dx_um: float
    x0_um: float
    y0_um: float
    kind: np.ndarray          # int8, VOID/MEMBRANE/BRIDGE/PAD
    thickness_um: np.ndarray  # slab thickness per cell
    source_w: np.ndarray      # absorbed power per cell, W
    dirichlet: np.ndarray     # bool, fixed-temperature cells (bridge far ends)
    dirichlet_k: np.ndarray   # fixed temperature, K (NaN where not fixed)
    material: MaterialModel
    absorbed_power_w: float = 0.0
    kappa_scale: np.ndarray | None = None  # per-cell conductivity multiplier

    def __post_init__(self) -> None:
        if self.kappa_scale is None:
            object.__setattr__(self, "kappa_scale", np.ones(self.kind.shape))
        for a in (
            self.kind,
            self.thickness_um,
            self.source_w,
            self.dirichlet,
            self.dirichlet_k,
            self.kappa_scale,
        ):
            a.setflags(write=False)

    @property
    def shape(self) -> tuple[int, int]:
        return self.kind.shape

    def active(self) -> np.ndarray:
        return self.kind != VOID

    def cell_x_um(self) -> np.ndarray:
        return self.x0_um + (np.arange(self.shape[1]) + 0.5) * self.dx_um

    def cell_y_um(self) -> np.ndarray:
        return self.y0_um + (np.arange(self.shape[0]) + 0.5) * self.dx_um


def rasterize(
    layout: DeviceLayout,
    dx_um: float,
    absorbed_power_w: float = 0.0,
    t_bath_k: float = 10.0,
) -> ThermalGrid:
    """Rasterize a layout onto a square-cell grid.

    Membrane and pad cells are classified by cell-center membership. Bridges
    are laid down as blocks of round(width/dx) x round(length/dx) cells so a
    narrow bridge keeps the same cell width at any grid phase; the far-end
    row of each bridge is flagged Dirichlet at the bath temperature. Pad
    cells share the absorbed power according to the pad profile, normalized
    so the cell sources add up to absorbed_power_w.
    """
    validate_layout(layout)
    if not 0.0 < t_bath_k < math.inf:
        raise GridError("bath temperature must be positive and finite")
    if dx_um <= 0:
        raise GridError("dx must be positive")
    if absorbed_power_w < 0:
        raise GridError("absorbed power must be non-negative")
    m = layout.membrane
    pad = layout.pad
    min_feature = min(min(b.width_um for b in layout.bridges), pad.w_um, pad.h_um)
    if dx_um > min_feature:
        raise GridError(
            f"dx too coarse: {dx_um} um pitch exceeds the smallest feature ({min_feature} um)"
        )

    extent = {side: 0 for side in SIDES}
    for b in layout.bridges:
        extent[b.side] = max(extent[b.side], max(1, int(round(b.length_um / dx_um))))

    nx = extent["left"] + max(1, int(round(m.length_um / dx_um))) + extent["right"]
    ny = extent["bottom"] + max(1, int(round(m.width_um / dx_um))) + extent["top"]
    x0 = -extent["left"] * dx_um
    y0 = -extent["bottom"] * dx_um

    kind = np.zeros((ny, nx), dtype=np.int8)
    thickness = np.zeros((ny, nx))
    source = np.zeros((ny, nx))
    dirichlet = np.zeros((ny, nx), dtype=bool)

    xc = x0 + (np.arange(nx) + 0.5) * dx_um
    yc = y0 + (np.arange(ny) + 0.5) * dx_um
    in_mem_x = (xc >= 0.0) & (xc <= m.length_um)
    in_mem_y = (yc >= 0.0) & (yc <= m.width_um)
    mem_mask = np.outer(in_mem_y, in_mem_x)
    kind[mem_mask] = MEMBRANE
    thickness[mem_mask] = m.thickness_um

    pad_mask = (
        np.outer(
            (yc >= pad.y_um) & (yc <= pad.y_um + pad.h_um),
            (xc >= pad.x_um) & (xc <= pad.x_um + pad.w_um),
        )
        & mem_mask
    )
    if not pad_mask.any():
        raise GridError("dx too coarse: the pad maps to zero cells")
    kind[pad_mask] = PAD

    i_mem = np.flatnonzero(in_mem_x)
    j_mem = np.flatnonzero(in_mem_y)
    i_lo, i_hi = int(i_mem[0]), int(i_mem[-1])
    j_lo, j_hi = int(j_mem[0]), int(j_mem[-1])

    for b in layout.bridges:
        n_w = max(1, int(round(b.width_um / dx_um)))
        n_len = max(1, int(round(b.length_um / dx_um)))
        if b.side in ("bottom", "top"):
            ic = int(np.clip(np.floor((b.position_um - x0) / dx_um), i_lo, i_hi))
            c0 = int(np.clip(ic - (n_w - 1) // 2, i_lo, i_hi - n_w + 1))
            cols = slice(c0, c0 + n_w)
            if b.side == "bottom":
                rows = slice(j_lo - n_len, j_lo)
                far = j_lo - n_len
            else:
                rows = slice(j_hi + 1, j_hi + 1 + n_len)
                far = j_hi + n_len
            kind[rows, cols] = BRIDGE
            thickness[rows, cols] = m.thickness_um
            dirichlet[far, cols] = True
        else:
            jc = int(np.clip(np.floor((b.position_um - y0) / dx_um), j_lo, j_hi))
            r0 = int(np.clip(jc - (n_w - 1) // 2, j_lo, j_hi - n_w + 1))
            rows = slice(r0, r0 + n_w)
            if b.side == "left":
                cols = slice(i_lo - n_len, i_lo)
                far = i_lo - n_len
            else:
                cols = slice(i_hi + 1, i_hi + 1 + n_len)
                far = i_hi + n_len
            kind[rows, cols] = BRIDGE
            thickness[rows, cols] = m.thickness_um
            dirichlet[rows, far] = True

    if absorbed_power_w > 0.0:
        pj, pi = np.nonzero(pad_mask)
        if pad.profile == "uniform":
            weights = np.ones(pj.size)
        else:
            cx = pad.x_um + pad.w_um / 2.0
            cy = pad.y_um + pad.h_um / 2.0
            rr = (xc[pi] - cx) ** 2 + (yc[pj] - cy) ** 2
            weights = np.exp(-rr / (2.0 * pad.sigma_um**2))
        weights = weights / weights.sum()
        source[pj, pi] = absorbed_power_w * weights

    kappa_scale = np.ones((ny, nx))
    kappa_scale[(kind == MEMBRANE) | (kind == PAD)] = layout.body_kappa_scale

    return ThermalGrid(
        dx_um=dx_um,
        x0_um=x0,
        y0_um=y0,
        kind=kind,
        thickness_um=thickness,
        source_w=source,
        dirichlet=dirichlet,
        dirichlet_k=np.where(dirichlet, t_bath_k, np.nan),
        material=layout.material,
        absorbed_power_w=absorbed_power_w,
        kappa_scale=kappa_scale,
    )
