"""Steady-state heat conduction for rasterized devices plus the lumped bridge model.

The 2-D solver treats the membrane as a conducting sheet, div(kappa(T) t grad T)
+ q = 0, discretized by a 5-point finite-volume operator with harmonically
averaged face conductances g(T), and solves it by chord steps from the bath
field. It carries the rise theta = T - T_bath, not T, so that a rise far
below the bath keeps its digits. Because kappa is a power law, the Kirchhoff
transform U = integral of kappa dT makes the problem linear; at the bath
field the Newton system in U is that linear Kirchhoff operator, so the first
step, one linear solve in U plus a closed-form inverse per cell, lands next
to the answer (_faces computes each face's g0 in it once, and _rise is the
one inverse, the lumped model's too). The solve sets up one solver of that
operator, none where a g0 overflows, and it takes every later step too: the
chord step in U, one solve against the residual, mixed with the last few
steps by Anderson acceleration so that the iteration converges in a few
steps where the plain chord step would crawl.

Which solver depends on the grid. A grid that is one uniform sheet hung on
identical strips fixed at their far ends, as rasterize builds every device,
is solved without factoring the operator: a closed form of the strips, a 2-D
DCT of the sheet and a small capacitance matrix on the cells where the
strips meet it (_SheetOnStrips). Any other grid, a bar or a hand-edited
grid, is factored by SuperLU: the operator is a symmetric, diagonally
dominant M-matrix, so the LU is factored without pivot search, in symmetric
mode and with small supernodes, which factor this 5-point operator fastest.
A grid that is its own up-down mirror, as a device with an even bridge count
and a centred pad rasterizes to, carries no heat across the mirror line: the
solve takes its lower half, with that line as a zero-flux edge, and mirrors
the field back, which halves the operator and leaves field.csv unchanged.
The lumped model collapses the structure to an isothermal island drained by
the bridges; it is linear in U, so its island temperature is closed-form.

The solver refuses a grid it cannot conduct through with GridError (exit 3
from the CLI), e.g. one where a cell has no path of conducting faces to a
cell held at the bath temperature, or one with a cell source that is
negative, not finite, or on a void cell or a cell held at the bath. A
grid rasterized from a valid layout is refused only when its conductances
are so small that they underflow. Its shape proves the path exists when no
face underflows; only another grid is checked on the graph of its faces.

scipy is imported only inside the functions that factor and check a grid of
another shape: importing qdtuner.thermal costs only numpy, and a rasterized
device is solved with numpy alone, so no tuner command loads scipy (a cold
tuner thermal of a shipped device takes about 0.2 s, where importing scipy's
sparse stack alone took 0.45 s). The DCTs are dense matrices, so no FFT
module is needed either.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .device import UM_PER_CM, DeviceLayout, GridError, MaterialModel, ThermalGrid


class ThermalModelError(RuntimeError):
    """The lumped model has no island temperature for the power: the bridges
    saturate below it (exponent < -1), or it overflows a float."""


def kappa(material: MaterialModel, t_k):
    """Thermal conductivity at temperature t_k, in W K^-1 cm^-1."""
    t = np.asarray(t_k, dtype=float)
    if np.any(t <= 0.0):
        raise ValueError("temperature must be positive")
    out = material.kappa_ref_w_per_k_cm * (t / material.t_ref_k) ** material.exponent
    return out if out.ndim else float(out)


def kappa_integral(material: MaterialModel, t_lo_k: float, t_hi_k: float) -> float:
    """Closed-form integral of kappa(T) dT over [t_lo_k, t_hi_k], in W cm^-1."""
    if not 0.0 < t_lo_k <= t_hi_k:
        raise ValueError("need 0 < t_lo <= t_hi")
    u_hi, u_lo = _kirchhoff(material, np.float64(t_hi_k)), _kirchhoff(material, np.float64(t_lo_k))
    return float(material.kappa_ref_w_per_k_cm * (u_hi - u_lo))


def bridge_conductance_factor_cm(layout: DeviceLayout) -> float:
    """Geometric conductance of all bridges in parallel, count * A / L, in cm."""
    b = layout.bridges
    return b.count * (b.width_um * layout.membrane.thickness_um / b.length_um) / UM_PER_CM


def lumped_temperature(layout: DeviceLayout, p_abs_w: float, t_bath_k: float) -> float:
    """Isothermal-island temperature at a given absorbed power.

    p_abs = nA/L * integral(kappa, bath..island) = nA/L * kappa_ref *
    (U(island) - U(bath)) in the Kirchhoff variable U for n bridges, so the
    island lies _rise(p_abs / (kappa_ref * nA/L)) above the bath. The island is
    bridge-limited: the body of the device adds no thermal resistance in
    this approximation.
    """
    if not t_bath_k > 0.0:  # NaN too
        raise ValueError(f"bath temperature must be positive, got {t_bath_k}")
    if not p_abs_w >= 0.0:
        raise ValueError(f"absorbed power must be non-negative, got {p_abs_w}")
    if p_abs_w == 0.0:
        return t_bath_k
    m = layout.material
    du = p_abs_w / (m.kappa_ref_w_per_k_cm * bridge_conductance_factor_cm(layout))
    u = _kirchhoff(m, np.float64(t_bath_k)) + du
    if m.exponent < -1.0 and not u < 0.0:  # for p < -1, U tends to 0 as T grows
        raise ThermalModelError("no island temperature: the bridges saturate below this power")
    t = t_bath_k + _rise(m, t_bath_k, du)
    if not _valid(t):
        raise ThermalModelError("no island temperature: it overflows a float")
    return float(t)


def absorbed_power_for_temperature(
    layout: DeviceLayout, t_target_k: float, t_bath_k: float
) -> float:
    """Absorbed power that holds the island at t_target_k (closed form)."""
    if not t_bath_k > 0.0:  # NaN too
        raise ValueError(f"bath temperature must be positive, got {t_bath_k}")
    if not t_target_k >= t_bath_k:
        raise ValueError(f"target temperature must not lie below the bath, got {t_target_k}")
    if t_target_k == t_bath_k:
        return 0.0
    return bridge_conductance_factor_cm(layout) * kappa_integral(
        layout.material, t_bath_k, t_target_k
    )


@dataclass(frozen=True)
class TemperatureField:
    """Solved temperature map and its rise over the bath, which keeps digits
    that t_k rounds away (t_k - t_bath when not given); NaN on void cells."""

    grid: ThermalGrid
    t_k: np.ndarray
    rise_k: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.rise_k is None:
            object.__setattr__(self, "rise_k", self.t_k - self.grid.t_bath_k)
        self.t_k.setflags(write=False)
        self.rise_k.setflags(write=False)


@dataclass(frozen=True)
class SolveReport:
    """How a steady-state solve ended: its steps, energy residual and convergence."""

    iterations: int        # chord steps, one solve with the Kirchhoff operator each
    residual: float        # relative energy imbalance, from the solved field or its mirror half
    converged: bool
    tol: float
    max_rel_change: float  # largest relative temperature update of the last chord step


@dataclass(frozen=True)
class _Strips:
    """Where a grid is one uniform sheet hung on identical strips: the
    bounding box of its active cells, the sheet's rows r0:r1 in that box, the
    first column of each strip along the bottom and along the top edge, the
    strips' width n_w and length n_len in cells, far row included, and the
    one sheet_um of the sheet's cells and of the strips' cells."""

    box: tuple[slice, slice]
    r0: int
    r1: int
    bottom: np.ndarray
    top: np.ndarray
    n_w: int
    n_len: int
    sheet_um: float
    strip_um: float


def _strips(grid: ThermalGrid) -> _Strips | None:
    """The grid's strips where, cropped to its active cells, it is an H x N
    rectangle of free cells of one sheet_um with strips of n_w x n_len cells,
    all of one sheet_um, below its bottom row and/or above its top row, each
    fixed on its far row and nowhere else, as rasterize builds every device;
    None for any other grid, and for one too large for _SheetOnStrips. The
    grid has at least one active cell."""
    active = grid.active()
    rows, cols = np.flatnonzero(active.any(axis=1)), np.flatnonzero(active.any(axis=0))
    box = np.s_[rows[0] : rows[-1] + 1, cols[0] : cols[-1] + 1]
    act, sheet = active[box], grid.sheet_um[box]
    ny, nx = act.shape
    full = np.flatnonzero(act.all(axis=1))
    if not full.size:
        return None
    r0, r1 = int(full[0]), int(full[-1]) + 1  # the sheet's rows, if it has no gap
    n_len = max(r0, ny - r1)
    bottom = act[0] if r0 else np.zeros(nx, dtype=bool)
    top = act[-1] if r1 < ny else np.zeros(nx, dtype=bool)
    strips = np.zeros_like(act)
    strips[:r0], strips[r1:] = bottom, top
    far = np.zeros_like(act)
    far[0] |= bottom
    far[-1] |= top
    # each edge's strips: the runs of its far row, of widths[k] columns
    starts, widths = [], []
    for edge in (bottom, top):
        step = np.diff(edge.astype(np.int8), prepend=0, append=0)
        starts.append(np.flatnonzero(step == 1))
        widths.extend(np.flatnonzero(step == -1) - starts[-1])
    if not (
        n_len >= 2
        and r0 in (0, n_len)
        and ny - r1 in (0, n_len)
        and len(set(widths)) == 1
        and max(r1 - r0, nx, len(widths) * widths[0], n_len - 1) <= _DENSE_MAX
        and act[r0:r1].all()
        and np.array_equal(act[:r0], strips[:r0])
        and np.array_equal(act[r1:], strips[r1:])
        and np.array_equal(grid.dirichlet[box] & act, far)
        and np.all(sheet[r0:r1] == sheet[r0, 0])
        and np.all(sheet[strips] == sheet[strips][0])
    ):
        return None
    return _Strips(box, r0, r1, *starts, int(widths[0]), n_len, float(sheet[r0, 0]), float(sheet[strips][0]))


@dataclass(frozen=True)
class _Faces:
    """Face topology of a grid, built once per solve.

    Cells are numbered over the active set. Face k joins active cells a[k]
    and b[k]; slot_a and slot_b give each end's row among the free cells,
    or n_free for a fixed cell, so one bincount moves per-face terms into
    the free rows. g0[k] is the face's conductance in the Kirchhoff
    variable: the harmonic mean of its ends' prefactor conductances
    kappa_ref * sheet_um, inf where it overflows. Faces between two fixed
    cells, and faces whose g0 is not positive (an end of zero sheet
    conductance, or a product that underflows), are left out.
    """

    cells: np.ndarray     # flat grid ids of the active cells
    free: np.ndarray      # bool per active cell
    geom: np.ndarray      # sheet_um / UM_PER_CM: sheet conductance over kappa
    a: np.ndarray
    b: np.ndarray
    g0: np.ndarray
    slot_a: np.ndarray
    slot_b: np.ndarray
    outflow: np.ndarray   # +1 / -1 where heat on the face enters a fixed cell from b / a
    source_w: np.ndarray  # per free cell
    total_w: float        # source_w summed over the whole grid
    strips: _Strips | None  # the grid's sheet-on-strips shape, if it has it and every face conducts

    @property
    def n_free(self) -> int:
        return self.source_w.size


def _faces(grid: ThermalGrid) -> _Faces:
    """The grid's faces; GridError for no active cells, a cell source that is
    negative or not finite or that sits on a void or fixed cell (only free
    active cells take heat), an active cell whose sheet_um is negative or NaN
    (0 is allowed: such a cell conducts nothing), or a cell with no kept-face
    path to a fixed cell."""
    ny, nx = grid.shape
    cells = np.flatnonzero(grid.active())
    if not cells.size:
        raise GridError("grid has no active cells")
    total_w = float(grid.source_w.sum())
    free, source_w = ~grid.dirichlet.ravel()[cells], grid.source_w.ravel()[cells]
    # one rule: every non-zero source (a NaN is one) is a free cell's, each
    # is >= 0, and their sum, so each of them, is finite
    taken = source_w[free]
    if not (
        np.all(taken >= 0.0) and total_w < math.inf and np.count_nonzero(taken) == np.count_nonzero(grid.source_w)
    ):
        raise GridError("a cell source is negative or not finite, or on a void or fixed-temperature cell")
    sheet_um = grid.sheet_um.ravel()[cells]
    if not np.all(sheet_um >= 0.0):  # NaN too
        raise GridError("an active cell has a negative or NaN sheet_um")
    compact = np.full(ny * nx, -1, dtype=np.int64)
    compact[cells] = np.arange(cells.size)
    ids = compact.reshape(ny, nx)
    a = np.concatenate([ids[:, :-1].ravel(), ids[:-1, :].ravel()])
    b = np.concatenate([ids[:, 1:].ravel(), ids[1:, :].ravel()])
    geom = sheet_um / UM_PER_CM
    face = (a >= 0) & (b >= 0)
    a, b = a[face], b[face]
    # the harmonic mean 2 c_a c_b / (c_a + c_b) is 0 where the product
    # underflows, and such a face conducts nothing
    c = grid.material.kappa_ref_w_per_k_cm * geom
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        g0 = _harmonic(c[a], c[b])
    touches_free = free[a] | free[b]
    keep = (g0 > 0.0) & touches_free
    # On a sheet on strips where every face with a free end conducts, each
    # strip cell has a path along its strip to the fixed far row, and each
    # sheet cell one through the sheet to a strip, so only another grid needs
    # the graph of its kept faces.
    strips = _strips(grid) if np.array_equal(keep, touches_free) else None
    if strips is None:
        import scipy.sparse as sp
        from scipy.sparse.csgraph import connected_components

        links = sp.csr_matrix((np.ones(int(keep.sum())), (a[keep], b[keep])), shape=(cells.size, cells.size))
        n_parts, part = connected_components(links, directed=False)
        if np.unique(part[~free]).size < n_parts:  # a part holds no fixed cell
            raise GridError("disconnected grid: some cells cannot reach a fixed-temperature cell")
    a, b, g0 = a[keep], b[keep], g0[keep]

    n_free = int(free.sum())
    slot = np.full(cells.size, n_free, dtype=np.int64)
    slot[free] = np.arange(n_free)
    return _Faces(
        cells=cells,
        free=free,
        geom=geom,
        a=a,
        b=b,
        g0=g0,
        slot_a=slot[a],
        slot_b=slot[b],
        outflow=free[a].astype(float) - free[b].astype(float),
        source_w=taken,
        total_w=total_w,
        strips=strips,
    )


def _harmonic(sa: np.ndarray, sb: np.ndarray) -> np.ndarray:
    """2 sa sb / (sa + sb)."""
    return 2.0 * sa * sb / (sa + sb)


def _conduct(faces: _Faces, material: MaterialModel, t_bath_k: float, theta: np.ndarray):
    """Heat flow g * (theta_a - theta_b) per face, from the rise theta = T -
    T_bath, with g the harmonic mean of the cells' sheet conductances
    kappa(T) * sheet_um (W/K); None when a flow overflows, as it does
    wherever g does."""
    with np.errstate(over="ignore", invalid="ignore"):
        s = kappa(material, t_bath_k + theta) * faces.geom
        flow = _harmonic(s[faces.a], s[faces.b]) * (theta[faces.a] - theta[faces.b])
    return flow if np.isfinite(flow).all() else None


def _residual(faces: _Faces, flow: np.ndarray) -> np.ndarray:
    """Net heat leaving each free cell minus its source, in W."""
    n = faces.n_free
    net = np.bincount(faces.slot_a, flow, n + 1) - np.bincount(faces.slot_b, flow, n + 1)
    return net[:n] - faces.source_w


def _imbalance(faces: _Faces, flow: np.ndarray) -> float:
    """|flux into fixed cells - total source| / total source; 0 when sourceless."""
    if faces.total_w <= 0.0:
        return 0.0
    return abs(float(faces.outflow @ flow) - faces.total_w) / faces.total_w


def energy_residual(field: TemperatureField) -> float:
    """Recompute the relative energy imbalance directly from the field: NaN
    where a flow overflows, GridError for a grid the solver refuses."""
    faces = _faces(field.grid)
    theta = field.rise_k.reshape(-1)[faces.cells]
    flow = _conduct(faces, field.grid.material, field.grid.t_bath_k, theta)
    return math.nan if flow is None else _imbalance(faces, flow)


def _kirchhoff(material: MaterialModel, t: np.ndarray) -> np.ndarray:
    """Kirchhoff variable U = integral of (T / t_ref)^p dT, up to a constant.

    Written as t_ref * (T / t_ref)^(p + 1) / (p + 1), which stays finite for
    large |p| where T^(p + 1) and t_ref^p alone would overflow.
    """
    p, tr = material.exponent, material.t_ref_k
    with np.errstate(over="ignore"):
        return tr * np.log(t) if p == -1.0 else tr * (t / tr) ** (p + 1.0) / (p + 1.0)


def _rise(material: MaterialModel, t_bath_k: float, du: np.ndarray) -> np.ndarray:
    """Temperature rise theta = T - T_bath from the rise du = U(T) - U(T_bath).

    T_bath * expm1(log1p(du / U_b) / (p + 1)) with U_b = U(T_bath), or
    T_bath * expm1(du / t_ref) for p = -1: a rise far below T_bath keeps all
    its digits, where T = U^-1(U_b + du) would keep only those of T_bath +
    theta. inf where no temperature has that rise: for p != -1, a du with
    1 + du / U_b <= 0, since (p + 1) U / t_ref = (T / t_ref)^(p + 1) > 0 (for
    p < -1, U tends to 0 as T grows), even where the power alone would give
    a finite rise, as for p = -1.5 or -1.25, where 1 / (p + 1) is even.
    """
    p = material.exponent
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if p == -1.0:
            return t_bath_k * np.expm1(du / material.t_ref_k)
        ratio = du / _kirchhoff(material, np.float64(t_bath_k))
        return np.where(ratio > -1.0, t_bath_k * np.expm1(np.log1p(ratio) / (p + 1.0)), np.inf)


def _valid(t: np.ndarray) -> np.ndarray:
    return np.isfinite(t) & (t > 0.0)


def _kirchhoff_solver(grid: ThermalGrid, faces: _Faces):
    """The solver whose solve(rhs) takes the chord steps on the grid's free
    cells: _SheetOnStrips where the grid is a uniform sheet on identical
    strips, as rasterize builds it, and the LU of _kirchhoff_lu on any other."""
    return _kirchhoff_lu(faces) if faces.strips is None else _SheetOnStrips(grid, faces)


# longest side of the sheet, most interface cells and most free rows of a
# strip that _SheetOnStrips takes: each of its dense matrices (the DCTs, the
# capacitance matrix and the eigenvectors along a strip) holds at most
# 1024^2 entries
_DENSE_MAX = 1024


def _dct(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The orthonormal DCT-II matrix of size n, row k the k-th cosine over the
    cell centres, and the eigenvalues 4 sin^2(pi k / 2n) of the 1-D
    zero-flux Laplacian tridiag(-1, 2, -1) (corners 1) that it diagonalizes."""
    k = np.arange(n)
    # cos(pi k (2i + 1) / 2n) from a table over one period, read by the
    # exact integer k (2i + 1) mod 4n
    table = np.cos(np.pi * np.arange(4 * n) / (2 * n))
    phi = table[np.outer(k, 2 * k + 1) % (4 * n)] * math.sqrt(2.0 / n)
    phi[0] = math.sqrt(1.0 / n)
    return phi, 4.0 * np.sin(np.pi * k / (2 * n)) ** 2


class _SheetOnStrips:
    """Kirchhoff operator of a uniform H x N sheet hung on identical strips,
    solved without a factor of the whole (the capacitance-matrix method of
    Buzbee, Dorr, George and Golub, 1971).

    The grid has the shape that _strips finds. With the sheet row beside it
    held fixed, every strip has one operator K_B = I_w (x) T + g_s L_w (x) I
    on its n_w x (n_len - 1) free cells: T is g_s tridiag(-1, 2, -1) along
    the strip with its last diagonal entry g_s + g_i, L_w the zero-flux
    Laplacian across its n_w columns, g_s the conductance of a face inside
    the strip and g_i that of a face between strip and sheet. The DCT across
    the strip diagonalizes L_w and leaves n_w tridiagonal matrices T + g_s
    mu_k I, which share the eigenvectors of T: so one eigendecomposition of T
    and the DCT give K_B^-1 in closed form. Eliminating the strips
    leaves on the rectangle L + P C P^T: L the zero-flux Laplacian of face
    conductance g, and C = g_i I - g_i^2 (K_B^-1)[near, near] on each
    strip's m interface cells P, the strips' Dirichlet-to-Neumann block. The
    2-D DCT diagonalizes L with eigenvalues g (mu_y + mu_x), its constant
    mode's 0 replaced by g, and the Woodbury identity adds P C P^T and the -g
    that replacement owes the constant mode v: V = [P, v], M = diag(C, -g),
    and the (m + 1)-square capacitance matrix I + M V^T L~^-1 V, whose V^T
    L~^-1 V is a sum over the cosines in closed form. A solve is one solve
    of all strips at once, one forward and one inverse 2-D DCT (dense
    matrices, as fast as an FFT at these sizes), the (m + 1)-square solve
    and the strips' back-substitution: numpy matrix products only.
    """

    def __init__(self, grid: ThermalGrid, faces: _Faces):
        s = faces.strips
        r0, r1, n_w, n = s.r0, s.r1, s.n_w, s.n_len - 1
        ny, h = s.box[0].stop - s.box[0].start, r1 - r0
        self.shape = (faces.n_free, faces.n_free)
        slot = np.full(grid.shape, -1, dtype=np.int64)
        slot.reshape(-1)[faces.cells[faces.free]] = np.arange(faces.n_free)
        slot = slot[s.box]
        self.rect_idx = slot[r0:r1]
        # each strip's free cells, a column per strip: its n_w columns in
        # turn, each from the far end to the sheet, so that cell i of column j
        # is row j * n + i
        strips = [slot[1:r0, c : c + n_w] for c in s.bottom] + [slot[r1 : ny - 1, c : c + n_w][::-1] for c in s.top]
        self.strip_idx = np.column_stack([a.T.ravel() for a in strips])
        rows = np.repeat(np.r_[np.zeros(len(s.bottom), int), np.full(len(s.top), h - 1)], n_w)
        cols = (np.r_[s.bottom, s.top][:, None] + np.arange(n_w)).ravel()
        self.interface = (rows, cols)
        # g0 of a face in the sheet, between a strip and the sheet, and in a
        # strip, by _faces's arithmetic from the two sheet_um that _strips proved
        c_sheet, c_strip = grid.material.kappa_ref_w_per_k_cm * (np.array([s.sheet_um, s.strip_um]) / UM_PER_CM)
        g, g_i, g_s = _harmonic(np.array([c_sheet, c_sheet, c_strip]), np.array([c_sheet, c_strip, c_strip]))
        self.g_i = g_i

        # T + g_s mu_k I = V diag(lambda + g_s mu_k) V^T with T = V diag(lambda)
        # V^T, so K_B^-1 = (phi_w^T (x) V) diag(1 / (lambda_l + g_s mu_k))
        # (phi_w (x) V^T)
        t = g_s * (2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1))
        t[-1, -1] = g_s + g_i
        lam_t, self.v = np.linalg.eigh(t)
        self.phi_w, mu_w = _dct(n_w)
        self.inv_eig = 1.0 / (lam_t + g_s * mu_w[:, None])  # [k, l]
        # the columns of K_B^-1 on the near row: sum over k of phi_w[k, j] times
        # the near column of (T + g_s mu_k I)^-1 times phi_w[k]
        near_t = (self.inv_eig * self.v[-1]) @ self.v.T
        self.near_inv = (self.phi_w[:, :, None] * near_t[:, None, :]).reshape(n_w, -1).T @ self.phi_w
        dtn = g_i * np.eye(n_w) - g_i**2 * self.near_inv[n - 1 :: n]

        self.phi_y, mu_y = _dct(h)
        self.phi_x, mu_x = _dct(self.rect_idx.shape[1])
        self.lam = g * (mu_y[:, None] + mu_x)
        self.lam[0, 0] = g
        rows_u, self.iu = np.unique(rows, return_inverse=True)
        self.by = self.phi_y[:, rows_u]
        self.ax = self.phi_x[:, cols]
        self.onehot = (self.iu == np.arange(rows_u.size)[:, None]).astype(float)
        # V^T L~^-1 V on two interface cells: the sum over kx of their
        # cosines times w(kx), the sum over ky of their rows' cosines over lambda
        m = cols.size
        w = (self.by.T[:, None, :] * self.by.T[None, :, :]) @ (1.0 / self.lam)
        gram = np.empty((m + 1, m + 1))
        for u in range(rows_u.size):
            for v in range(rows_u.size):
                pu, pv = self.iu == u, self.iu == v
                gram[np.ix_(pu, pv)] = self.ax[:, pu].T @ (w[u, v][:, None] * self.ax[:, pv])
        gram[:m, m] = gram[m, :m] = self.by[0, self.iu] * self.ax[0] / self.lam[0, 0]
        gram[m, m] = 1.0 / self.lam[0, 0]
        weights = np.zeros((m + 1, m + 1))
        weights[:m, :m] = np.kron(np.eye(len(strips)), dtn)
        weights[m, m] = -g
        self.capacitance = np.linalg.solve(np.eye(m + 1) + weights @ gram, weights)

    def strip_solve(self, x: np.ndarray) -> np.ndarray:
        """K_B^-1 x for each strip's column of x: the transform across and
        along the strips, the division by the eigenvalues and the inverse
        transform."""
        (n_w, n), n_rhs = self.inv_eig.shape, x.shape[1]
        x_hat = self.v.T @ (self.phi_w @ x.reshape(n_w, -1)).reshape(n_w, n, n_rhs)
        y = self.v @ (x_hat * self.inv_eig[:, :, None])
        return (self.phi_w.T @ y.reshape(n_w, -1)).reshape(x.shape)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        n_w, n = self.inv_eig.shape
        y_strips = self.strip_solve(rhs[self.strip_idx])
        r = rhs[self.rect_idx]
        np.add.at(r, self.interface, self.g_i * y_strips[n - 1 :: n].T.ravel())
        r_hat = self.phi_y @ r @ self.phi_x.T
        y_hat = r_hat / self.lam
        y_interface = ((self.by.T @ y_hat)[self.iu] * self.ax.T).sum(axis=1)
        z = self.capacitance @ np.append(y_interface, y_hat[0, 0])
        correction = self.by @ ((self.onehot * z[:-1]) @ self.ax.T)
        correction[0, 0] += z[-1]
        u = self.phi_y.T @ ((r_hat - correction) / self.lam) @ self.phi_x
        out = np.empty_like(rhs)
        out[self.rect_idx] = u
        u_near = u[self.interface].reshape(-1, n_w).T
        out[self.strip_idx] = y_strips + self.g_i * (self.near_inv @ u_near)
        return out


def _kirchhoff_lu(faces: _Faces):
    """LU factors of the Kirchhoff operator: the linear operator in U of the
    face conductances g0."""
    import scipy.sparse as sp
    from scipy.sparse.linalg import splu

    n, g0 = faces.n_free, faces.g0
    diag = (np.bincount(faces.slot_a, g0, n + 1) + np.bincount(faces.slot_b, g0, n + 1))[:n]
    both_free = (faces.slot_a < n) & (faces.slot_b < n)
    sa, sb, off = faces.slot_a[both_free], faces.slot_b[both_free], -g0[both_free]
    rows = np.concatenate([np.arange(n), sa, sb])
    cols = np.concatenate([np.arange(n), sb, sa])
    # Built as CSC, the format splu factors, so it converts nothing and only
    # sorts each column. The operator is symmetric, so a symmetric
    # fill-reducing ordering gives about half the L+U fill of the default
    # COLAMD. It is also a diagonally dominant M-matrix, so diagonal pivots
    # are stable: the factor takes them without a pivot search
    # (diag_pivot_thresh=0), and symmetric mode keeps the one ordering for
    # rows and columns. On this 5-point operator small supernodes factor
    # fastest. The table below timed the whole operator of the full w320 /
    # w800 device grids, which _SheetOnStrips now solves without this
    # factor; it stands for the grids that still factor (bars and edited
    # grids). Median factor times in ms, w320 / w800, by relax/panel_size,
    # against the pivoting factor at SuperLU's defaults (2 cores, scipy
    # 1.17.1):
    #   dx     defaults     1/1         2/2         4/4
    #   0.1    18.8 / 13.4  10.5 / 6.6  10.6 / 6.8  11.9 / 9.1
    #   0.05   85.3 / 88.1  45.8 / 48.3 51.3 / 60.1 58.0 / 58.5
    #   0.025  393 / 540    257 / 374   263 / 371   278 / 396
    # Of the nine pairs from {1, 2, 4}, 1/1 and 2/1 were fastest; the L+U
    # fill is the same for all.
    return splu(
        sp.csc_matrix((np.concatenate([diag, off, off]), (rows, cols)), shape=(n, n)),
        permc_spec="MMD_AT_PLUS_A",
        diag_pivot_thresh=0.0,
        relax=1,
        panel_size=1,
        options={"SymmetricMode": True},
    )


# Anderson's depth m: each chord step is mixed with the last m steps.
_ANDERSON_DEPTH = 5

# A step has stalled when it moves no rise by more than _STALLED times the
# largest rise, 4 ulps of it. The chord step solves for the rise of U, whose
# round-off is about eps times its largest value, and _rise maps that to
# the rise of T by a division, log1p, a division, expm1 and a product, each
# within an ulp: a step that moves the field less than that moves it only
# by its own round-off, and the next step, taken from the same residual,
# moves it no further. A chord step from a field whose relative imbalance is
# above tol moves it by about that imbalance, far above 4 ulps for any tol
# that the round-off of the imbalance lets a solve meet.
_STALLED = 4.0 * np.finfo(float).eps


def solve_steady_state(
    grid: ThermalGrid,
    tol: float = 1e-6,
    max_iter: int = 200,
) -> tuple[TemperatureField, SolveReport]:
    """Solve the nonlinear conduction problem on the grid.

    A grid it cannot conduct through raises GridError: no active cells, a
    cell source that is negative or not finite or that sits on a void or
    fixed cell, or a cell with no conducting path to a fixed cell (a void
    gap, a cell of zero sheet_um, or prefactor conductances whose products
    underflow).
    rasterize builds such a grid from a valid layout only in the last case.

    A grid with an even row count whose kind, sheet_um, source_w and
    dirichlet arrays each equal their up-down mirror is solved on its lower
    half, by the same steps, with the mirror line as the half's zero-flux
    top edge. The field is the half's stacked on its mirror image and the
    report is the half's: the half carries the same discrete equations, so
    the field agrees with a full solve to round-off (field.csv is unchanged)
    and the residual is the same relative imbalance. Any other grid is
    solved whole.

    Chord steps on the discretization with harmonically averaged face
    conductances g(T) run from the bath field. With U = integral of
    (T / t_ref)^p dT the power-law problem is linear in U, and at the bath
    field the Newton system in U is that linear Kirchhoff operator K, so the
    first step is one solve with K and a closed-form inverse per cell: a
    near-exact field. The steps carry the rises of U and T over the bath,
    so that a tiny rise keeps its digits, and the field is T_bath + theta.
    The solver of K, set up once and only when the bath field has not
    converged, is _kirchhoff_solver's: the sheet-on-strips solve on a grid
    of that shape, which every rasterized device is, and the LU of K on any
    other. Every later step is the chord step dU = -K^-1 R, one solve with
    the same solver against the current residual R, and Anderson
    acceleration in Walker and Ni's form
    mixes it with the last _ANDERSON_DEPTH steps by one least-squares fit to
    their differences; no Jacobian is assembled. Where the mixed field has
    no temperature or a flow overflows, the plain chord step is taken and
    the mixing starts afresh; where that fails too, the solve stops with the
    last field, and max_rel_change is the failed full step's, which says how
    far that field still is from the discrete solution.

    iterations counts the chord steps, one solve with K each, so
    max_iter=1 stops after the first.
    Convergence requires both the largest relative temperature change of
    the last step and the recomputed energy imbalance to fall below tol,
    which must lie in (0, 1): the unheated bath field's imbalance is 1.
    Exhausting max_iter, a step that has stalled (it moves no rise by more
    than _STALLED times the largest rise) before the solve converged, a
    step with no temperature or an overflowing flow even unmixed, a bath
    field whose conductances overflow (residual NaN), or a g0 that does (no
    solver is set up, the bath field is returned) returns converged=False.
    """
    if not 0.0 < tol < 1.0:
        raise ValueError("tol must lie in (0, 1)")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    ny = grid.shape[0]
    arrays = {k: getattr(grid, k) for k in ("kind", "sheet_um", "source_w", "dirichlet")}
    mirrored = ny % 2 == 0 and all(np.array_equal(a, a[::-1]) for a in arrays.values())
    solved = grid
    if mirrored:  # no heat crosses the mirror line, so it is the solved half's zero-flux top edge
        lower = {k: a[: ny // 2] for k, a in arrays.items()}
        solved = replace(grid, **lower)
    material, t_b = grid.material, grid.t_bath_k
    faces = _faces(solved)
    free = faces.free
    theta = np.zeros(faces.cells.size)  # the rise over the bath
    flow = _conduct(faces, material, t_b, theta)
    res = math.nan if flow is None else _imbalance(faces, flow)
    rel, iterations, converged = 0.0, 0, res <= tol
    if flow is not None and not converged and np.all(faces.g0 < math.inf):
        solver = _kirchhoff_solver(solved, faces)
        u = np.zeros(faces.n_free)  # the rise of U, 0 at the bath
        du_hist, df_hist, last = [], [], None
        with np.errstate(over="ignore", invalid="ignore"):
            while not converged and iterations < max_iter:
                iterations += 1
                f = solver.solve(-_residual(faces, flow))
                if last is not None:
                    du_hist.append(u - last[0])
                    df_hist.append(f - last[1])
                    del du_hist[:-_ANDERSON_DEPTH], df_hist[:-_ANDERSON_DEPTH]
                last = u, f
                tries = [u + f]  # the plain chord step, tried after the mixed one
                if df_hist:
                    dfs = np.column_stack(df_hist)
                    if np.isfinite(dfs).all():  # so is f, and lstsq takes no NaN or inf
                        gamma = np.linalg.lstsq(dfs, f, rcond=None)[0]
                        tries.insert(0, tries[0] - (np.column_stack(du_hist) + dfs) @ gamma)
                for u_new in tries:
                    theta_new = theta.copy()
                    theta_new[free] = _rise(material, t_b, u_new)
                    valid = np.all(_valid(t_b + theta_new))
                    new = _conduct(faces, material, t_b, theta_new) if valid else None
                    if new is not None:
                        break
                rel = float(np.max(np.abs(theta_new[free] - theta[free]) / (t_b + theta[free])))
                if new is None:
                    converged = rel < tol and res <= tol
                    break
                if u_new is tries[-1]:  # the plain step: the mixing starts afresh
                    du_hist.clear()
                    df_hist.clear()
                stalled = np.max(np.abs(theta_new - theta)) <= _STALLED * np.max(np.abs(theta_new))
                u, theta, flow = u_new, theta_new, new
                res = _imbalance(faces, flow)
                converged = rel < tol and res <= tol
                if stalled:
                    break

    rise = np.full(solved.shape, np.nan)
    rise.reshape(-1)[faces.cells] = theta
    rise = np.concatenate([rise, rise[::-1]]) if mirrored else rise
    field = TemperatureField(grid=grid, t_k=t_b + rise, rise_k=rise)
    report = SolveReport(
        iterations=iterations,
        residual=res,
        converged=converged,
        tol=tol,
        max_rel_change=rel,
    )
    return field, report
