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

DEFAULT_BRIDGE_WIDTH_NM = 320.0
DEFAULT_BRIDGE_LENGTH_UM = 2.0
DEFAULT_BRIDGE_COUNT = 6

# Largest grid rasterize builds: the device's bounding box (membrane plus
# the bridges below and above it) over dx^2. A 0.025 um pitch on the
# shipped devices is 153,600 cells.
MAX_GRID_CELLS = 1_000_000

# Most bridges a device may have; the shipped devices have six.
MAX_BRIDGES = 1_000


class LayoutError(ValueError):
    """A device input that is invalid: a layout that breaks a geometric
    invariant, or a pitch, power or bath it cannot be rasterized at."""


class GridError(ValueError):
    """The solver cannot conduct through a thermal grid."""


@dataclass(frozen=True)
class Membrane:
    """Suspended slab holding the optical structures."""

    length_um: float = 12.0
    width_um: float = 4.0
    thickness_nm: float = 150.0

    def __post_init__(self) -> None:
        if not (self.length_um > 0 and self.width_um > 0 and self.thickness_nm > 0):
            raise LayoutError("membrane dimensions must be positive")

    @property
    def thickness_um(self) -> float:
        return self.thickness_nm * 1.0e-3


@dataclass(frozen=True)
class Bridges:
    """The identical narrow beams anchoring the membrane to the chip.

    Each has a cross section of width times membrane thickness, and its far
    end is held at the bath temperature; rasterize spreads them over the two
    long membrane edges.
    """

    count: int = DEFAULT_BRIDGE_COUNT
    width_nm: float = DEFAULT_BRIDGE_WIDTH_NM
    length_um: float = DEFAULT_BRIDGE_LENGTH_UM

    def __post_init__(self) -> None:
        if not isinstance(self.count, int) or isinstance(self.count, bool) or self.count < 1:
            raise LayoutError("count must be an integer >= 1")
        if self.count > MAX_BRIDGES:
            raise LayoutError(f"bridge count {self.count} is over the cap of {MAX_BRIDGES:,}")
        if not (self.width_nm > 0 and self.length_um > 0):
            raise LayoutError("bridge must have positive width and length")

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

    def __post_init__(self) -> None:
        if not (self.w_um > 0 and self.h_um > 0):
            raise LayoutError("pad must have positive size")
        if self.profile not in ("uniform", "gaussian"):
            raise LayoutError(f"unknown pad profile {self.profile!r}")
        if self.profile == "gaussian" and not self.sigma_um > 0:
            raise LayoutError("gaussian pad profile needs sigma_um > 0")


@dataclass(frozen=True)
class MaterialModel:
    """Power-law conductivity kappa(T) = kappa_ref * (T / t_ref)^exponent."""

    kappa_ref_w_per_k_cm: float = 3.0e-2
    t_ref_k: float = 10.0
    exponent: float = 2.0

    def __post_init__(self) -> None:
        if not (self.kappa_ref_w_per_k_cm > 0 and self.t_ref_k > 0):
            raise LayoutError("material reference conductivity and temperature must be positive")


@dataclass(frozen=True)
class DeviceLayout:
    """Full geometric description: membrane, bridges, pad and named positions.

    body_kappa_scale multiplies the conductivity on the membrane body only
    (bridges keep the bare material law); it defaults to 1 so the body and
    the bridges share one conductivity, and exists for sensitivity studies.
    Each part checks its own rules; the layout checks those that join them,
    so no invalid layout can be built. The bottom edge of length L carries
    n = ceil(count / 2) bridges, the odd one included, so it sets how wide
    they may be: no wider than their spacing L / (n + 1) for n >= 2, or
    than the edge for n = 1, so that no two overlap.
    """

    membrane: Membrane
    bridges: Bridges
    pad: HeatingPad
    material: MaterialModel
    cavity_xy_um: tuple[float, float] | None = None
    qds: tuple[tuple[str, tuple[float, float]], ...] = ()
    body_kappa_scale: float = 1.0

    def __post_init__(self) -> None:
        m, b = self.membrane, self.bridges
        n = (b.count + 1) // 2
        limit_nm = 1e3 * m.length_um / (n + 1 if n > 1 else 1)
        if not b.width_nm <= limit_nm:
            raise LayoutError(
                f"{b.count} bridges of {b.width_nm} nm overlap: the {n} on the {m.length_um} um "
                f"bottom edge fit only up to {limit_nm:g} nm wide"
            )
        p = self.pad
        if not (
            0.0 <= p.x_um
            and 0.0 <= p.y_um
            and p.x_um + p.w_um <= m.length_um
            and p.y_um + p.h_um <= m.width_um
        ):
            raise LayoutError("pad out of bounds")
        if not self.body_kappa_scale > 0:
            raise LayoutError("body conductivity scale must be positive")
        cavity = () if self.cavity_xy_um is None else ((None, self.cavity_xy_um),)
        for qd_id, (x, y) in (*cavity, *self.qds):
            if not (0.0 <= x <= m.length_um and 0.0 <= y <= m.width_um):
                what = "cavity" if qd_id is None else f"QD {qd_id!r}"
                raise LayoutError(f"{what} out of bounds: ({x}, {y}) um not on the membrane")


def default_layout(
    bridge_width_nm: float = DEFAULT_BRIDGE_WIDTH_NM,
    bridge_length_um: float = DEFAULT_BRIDGE_LENGTH_UM,
    bridge_count: int = DEFAULT_BRIDGE_COUNT,
    material: MaterialModel | None = None,
) -> DeviceLayout:
    """Standard device: 12 x 4 um x 150 nm membrane, six bridges, pad at one
    end and the cavity region at the other."""
    return DeviceLayout(
        membrane=Membrane(),
        bridges=Bridges(bridge_count, bridge_width_nm, bridge_length_um),
        pad=HeatingPad(),
        material=material if material is not None else MaterialModel(),
        cavity_xy_um=(10.0, 2.0),
        qds=(),
    )


@dataclass(frozen=True)
class ThermalGrid:
    """Rasterized solve domain: square cells of pitch dx_um, arrays [iy, ix]."""

    dx_um: float
    x0_um: float
    y0_um: float
    kind: np.ndarray       # int8, VOID/MEMBRANE/BRIDGE/PAD
    sheet_um: np.ndarray   # conductivity multiplier x slab thickness per cell; 0 on void
    source_w: np.ndarray   # absorbed power per cell, W: the grid's only heat input
    dirichlet: np.ndarray  # bool, cells held at t_bath_k (bridge far ends)
    t_bath_k: float
    material: MaterialModel

    def __post_init__(self) -> None:
        for a in (self.kind, self.sheet_um, self.source_w, self.dirichlet):
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

    The membrane is the block of round(W/dx) rows by round(L/dx) columns
    that sizes the grid. The pad is the block of membrane cells whose
    centers lie on it, found by counts, each ratio to dx taken to 1e-9 of a
    cell: a center on a pad edge counts, and since dx is at most the pad's
    sides, the block has a cell. The bridges are spread evenly over the two
    long edges: n = ceil(count / 2) hang below the membrane and the rest above
    it, the k-th of an edge's n centered at length * (k + 1) / (n + 1) and
    clipped to the membrane's columns. Each is a block of
    round(width/dx) x round(length/dx) cells so a narrow bridge keeps the
    same cell width at any grid phase; the far-end row of each bridge is
    flagged Dirichlet at the bath temperature. sheet_um is the slab
    thickness, times body_kappa_scale on membrane and pad cells. Pad cells
    share the absorbed power according to the pad profile, normalized so
    the cell sources add up to absorbed_power_w. LayoutError refuses a power
    outside [0, inf), a bath not positive and finite, and a pitch that is not
    positive, coarser than the smallest feature or gives more than
    MAX_GRID_CELLS cells (before any array is built).
    """
    if not 0.0 < t_bath_k < math.inf:
        raise LayoutError("bath temperature must be positive and finite")
    if dx_um <= 0:
        raise LayoutError("dx must be positive")
    if not 0.0 <= absorbed_power_w < math.inf:  # NaN too
        raise LayoutError("absorbed power must be non-negative and finite")
    m, b, pad = layout.membrane, layout.bridges, layout.pad
    min_feature = min(b.width_um, pad.w_um, pad.h_um)
    if dx_um > min_feature:
        raise LayoutError(
            f"dx too coarse: {dx_um} um pitch exceeds the smallest feature ({min_feature} um)"
        )
    n_bottom = (b.count + 1) // 2  # a lone bridge leaves the top edge bare
    span_y = b.length_um + m.width_um + (b.length_um if b.count > n_bottom else 0.0)
    cells = (m.length_um / dx_um) * (span_y / dx_um)
    if not cells <= MAX_GRID_CELLS:
        raise LayoutError(
            f"dx too fine: {dx_um} um pitch gives about {cells:.3g} cells, "
            f"over the cap of {MAX_GRID_CELLS:,}"
        )

    n_w = int(round(b.width_um / dx_um))
    n_len = max(1, int(round(b.length_um / dx_um)))
    n_mem = int(round(m.width_um / dx_um))
    nx = int(round(m.length_um / dx_um))
    ny = n_len + n_mem + (n_len if b.count > n_bottom else 0)
    y0 = -n_len * dx_um
    mem_rows = slice(n_len, n_len + n_mem)

    def centered_in(lo: float, hi: float, n: int) -> np.ndarray:
        # the cells i < n whose center (i + 1/2) dx lies in [lo, hi], each ratio
        # taken to 1e-9 of a cell: a center on an edge is in, whatever its last bit
        return np.arange(math.ceil(round(lo / dx_um, 9) - 0.5), min(math.floor(round(hi / dx_um, 9) + 0.5), n))

    pad_i = centered_in(pad.x_um, pad.x_um + pad.w_um, nx)
    pad_j = n_len + centered_in(pad.y_um, pad.y_um + pad.h_um, n_mem)
    pad_cells = np.ix_(pad_j, pad_i)

    kind = np.zeros((ny, nx), dtype=np.int8)
    sheet = np.zeros((ny, nx))
    source = np.zeros((ny, nx))
    dirichlet = np.zeros((ny, nx), dtype=bool)

    kind[mem_rows] = MEMBRANE
    sheet[mem_rows] = layout.body_kappa_scale * m.thickness_um
    kind[pad_cells] = PAD

    sides = ((n_bottom, slice(0, n_len), 0), (b.count - n_bottom, slice(ny - n_len, ny), ny - 1))
    for n, rows, far in sides:
        for k in range(n):
            pos = m.length_um * (k + 1) / (n + 1)
            c0 = int(np.clip(np.floor(pos / dx_um) - (n_w - 1) // 2, 0, nx - n_w))
            cols = slice(c0, c0 + n_w)
            kind[rows, cols] = BRIDGE
            sheet[rows, cols] = m.thickness_um
            dirichlet[far, cols] = True

    if absorbed_power_w > 0.0:
        if pad.profile == "uniform":
            weights = np.ones((pad_j.size, pad_i.size))
        else:
            cx = pad.x_um + pad.w_um / 2.0
            cy = pad.y_um + pad.h_um / 2.0
            # the centers by cell_x_um's and cell_y_um's own arithmetic
            xc, yc = (pad_i + 0.5) * dx_um, y0 + (pad_j + 0.5) * dx_um
            rr = (xc - cx) ** 2 + (yc[:, None] - cy) ** 2
            # relative to the cell nearest the center, so that no weight
            # sum underflows to 0 however small sigma is
            weights = np.exp(-(rr - rr.min()) / (2.0 * pad.sigma_um**2))
        weights = weights / weights.sum()
        source[pad_cells] = absorbed_power_w * weights

    return ThermalGrid(
        dx_um=dx_um,
        x0_um=0.0,
        y0_um=y0,
        kind=kind,
        sheet_um=sheet,
        source_w=source,
        dirichlet=dirichlet,
        t_bath_k=t_bath_k,
        material=layout.material,
    )
