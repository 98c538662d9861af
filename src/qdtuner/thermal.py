"""Steady-state heat conduction for rasterized devices plus the lumped bridge model.

The 2-D solver treats the membrane as a conducting sheet, div(kappa(T) t grad T)
+ q = 0, discretized by a 5-point finite-volume operator with harmonically
averaged face conductances g(T). Because kappa is a power law, the Kirchhoff
transform U = integral of kappa dT makes the problem linear: one sparse solve
in U plus a closed-form inverse per cell gives the starting field, and one or
two backtracked Newton steps on the g(T) discretization finish the solve. The
lumped model collapses the structure to an isothermal island drained by the
bridges; it is linear in U, so its island temperature is closed-form.

The solver refuses a grid it cannot conduct through with GridError (exit 3
from the CLI), e.g. one where a cell has no path of conducting faces to a
cell held at the bath temperature. No grid rasterized from a valid layout is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import spsolve

from .device import UM_PER_CM, DeviceLayout, GridError, MaterialModel, ThermalGrid


class ThermalModelError(RuntimeError):
    """The lumped model has no island temperature for the power: the bridge
    conductance integral saturates below it (exponent < -1)."""


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
    """Geometric conductance of all bridges in parallel, sum(A_i / L_i), in cm."""
    t_um = layout.membrane.thickness_um
    total_um = sum(b.width_um * t_um / b.length_um for b in layout.bridges)
    return total_um / UM_PER_CM


def lumped_temperature(layout: DeviceLayout, p_abs_w: float, t_bath_k: float) -> float:
    """Isothermal-island temperature at a given absorbed power.

    p_abs = sum(A/L) * integral(kappa, bath..island) = sum(A/L) * kappa_ref *
    (U(island) - U(bath)) in the Kirchhoff variable U, so the island is
    U^-1(U(bath) + p_abs / (kappa_ref * sum(A/L))). The island is
    bridge-limited: the body of the device adds no thermal resistance in
    this approximation.
    """
    if t_bath_k <= 0.0:
        raise ValueError("bath temperature must be positive")
    if p_abs_w < 0.0:
        raise ValueError("absorbed power must be non-negative")
    if p_abs_w == 0.0:
        return t_bath_k
    m = layout.material
    du = p_abs_w / (m.kappa_ref_w_per_k_cm * bridge_conductance_factor_cm(layout))
    t = _kirchhoff_inverse(m, _kirchhoff(m, np.float64(t_bath_k)) + du)
    if not _valid(t):
        raise ThermalModelError("no island temperature: the bridges cannot carry this power")
    return float(t)


def absorbed_power_for_temperature(
    layout: DeviceLayout, t_target_k: float, t_bath_k: float
) -> float:
    """Absorbed power that holds the island at t_target_k (closed form)."""
    if t_target_k < t_bath_k:
        raise ValueError("target temperature below the bath")
    if t_target_k == t_bath_k:
        return 0.0
    return bridge_conductance_factor_cm(layout) * kappa_integral(
        layout.material, t_bath_k, t_target_k
    )


@dataclass(frozen=True)
class TemperatureField:
    """Solved temperature map; NaN on void cells."""

    grid: ThermalGrid
    t_k: np.ndarray

    def __post_init__(self) -> None:
        self.t_k.setflags(write=False)


@dataclass(frozen=True)
class SolveReport:
    iterations: int        # linear solves, the Kirchhoff start included
    residual: float        # relative energy imbalance, recomputed from the field
    converged: bool
    tol: float
    max_rel_change: float  # largest relative temperature update of the last solve

    def to_dict(self) -> dict:
        return {
            "iterations": self.iterations,
            "residual": self.residual,
            "converged": self.converged,
            "tol": self.tol,
            "max_rel_change": self.max_rel_change,
        }


@dataclass(frozen=True)
class _Faces:
    """Face topology of a grid, built once per solve.

    Cells are numbered over the active set. Face k joins active cells a[k]
    and b[k]; slot_a and slot_b give each end's row among the free cells,
    or n_free for a fixed cell, so one bincount moves per-face terms into
    the free rows. Faces between two fixed cells, and faces with an end of
    zero sheet conductance, are left out.
    """

    cells: np.ndarray     # flat grid ids of the active cells
    free: np.ndarray      # bool per active cell
    geom: np.ndarray      # kappa_scale * thickness / UM_PER_CM: sheet conductance over kappa
    a: np.ndarray
    b: np.ndarray
    slot_a: np.ndarray
    slot_b: np.ndarray
    outflow: np.ndarray   # +1 / -1 where heat on the face enters a fixed cell from b / a
    source_w: np.ndarray  # per free cell
    total_w: float        # over the whole grid, fixed cells included
    inner: np.ndarray     # faces with both ends free
    order: np.ndarray     # COO -> CSR permutation of [diagonal, (a, b), (b, a)] entries
    indices: np.ndarray
    indptr: np.ndarray

    @property
    def n_free(self) -> int:
        return self.source_w.size


def _faces(grid: ThermalGrid) -> _Faces:
    """The grid's faces; GridError for no active cells, sources that do not
    add up to the absorbed power, or a cell with no kept-face path to a fixed cell."""
    ny, nx = grid.shape
    cells = np.flatnonzero(grid.active())
    if not cells.size:
        raise GridError("grid has no active cells")
    total_w = float(grid.source_w.sum())
    power_w = grid.absorbed_power_w
    if power_w > 0.0 and abs(total_w - power_w) > 1e-12 * power_w:
        raise GridError("cell sources do not add up to the absorbed power")
    compact = np.full(ny * nx, -1, dtype=np.int64)
    compact[cells] = np.arange(cells.size)
    ids = compact.reshape(ny, nx)
    a = np.concatenate([ids[:, :-1].ravel(), ids[:-1, :].ravel()])
    b = np.concatenate([ids[:, 1:].ravel(), ids[1:, :].ravel()])
    geom = (grid.kappa_scale * grid.thickness_um).ravel()[cells] / UM_PER_CM
    face = (a >= 0) & (b >= 0)
    a, b = a[face], b[face]
    free = ~grid.dirichlet.ravel()[cells]
    keep = (geom[a] > 0.0) & (geom[b] > 0.0) & (free[a] | free[b])
    a, b = a[keep], b[keep]
    links = sp.csr_matrix((np.ones(a.size), (a, b)), shape=(cells.size, cells.size))
    n_parts, part = connected_components(links, directed=False)
    if np.unique(part[~free]).size < n_parts:  # a part holds no fixed cell
        raise GridError("disconnected grid: some cells cannot reach a fixed-temperature cell")

    n_free = int(free.sum())
    slot = np.full(cells.size, n_free, dtype=np.int64)
    slot[free] = np.arange(n_free)
    slot_a, slot_b = slot[a], slot[b]
    inner = free[a] & free[b]
    diag = np.arange(n_free)
    rows = np.concatenate([diag, slot_a[inner], slot_b[inner]])
    cols = np.concatenate([diag, slot_b[inner], slot_a[inner]])
    order = np.lexsort((cols, rows))
    indptr = np.zeros(n_free + 1, dtype=np.intc)
    np.cumsum(np.bincount(rows, minlength=n_free), out=indptr[1:])
    return _Faces(
        cells=cells,
        free=free,
        geom=geom,
        a=a,
        b=b,
        slot_a=slot_a,
        slot_b=slot_b,
        outflow=free[a].astype(float) - free[b].astype(float),
        source_w=grid.source_w.ravel()[cells][free],
        total_w=total_w,
        inner=inner,
        order=order,
        indices=cols[order].astype(np.intc),
        indptr=indptr,
    )


def _harmonic(sa: np.ndarray, sb: np.ndarray) -> np.ndarray:
    return 2.0 * sa * sb / (sa + sb)


def _conduct(faces: _Faces, material: MaterialModel, t: np.ndarray):
    """Sheet conductance kappa(T) * thickness per cell (W/K), harmonically
    averaged face conductance g and heat flow g * (T_a - T_b) per face; None
    when a flow overflows, as it does wherever g does."""
    with np.errstate(over="ignore", invalid="ignore"):
        s = kappa(material, t) * faces.geom
        g = _harmonic(s[faces.a], s[faces.b])
        flow = g * (t[faces.a] - t[faces.b])
    return (s, g, flow) if np.isfinite(flow).all() else None


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
    state = _conduct(faces, field.grid.material, field.t_k.reshape(-1)[faces.cells])
    return math.nan if state is None else _imbalance(faces, state[2])


def _assemble(faces: _Faces, g: np.ndarray, da=0.0, db=0.0) -> sp.csr_matrix:
    """Derivative of the free-cell residual for face flows g * (T_a - T_b)
    whose conductance also moves as dg/dT_a = da / (T_a - T_b), likewise
    db; with da = db = 0 it is the linear operator of fixed conductances g."""
    n = faces.n_free
    diag = (
        np.bincount(faces.slot_a, g + da, n + 1) + np.bincount(faces.slot_b, g - db, n + 1)
    )[:n]
    inner = faces.inner
    data = np.concatenate([diag, (db - g)[inner], -(g + da)[inner]])[faces.order]
    return sp.csr_matrix((data, faces.indices, faces.indptr), shape=(n, n))


def _solve(a: sp.csr_matrix, rhs: np.ndarray) -> np.ndarray:
    # The operator pattern is symmetric, so a symmetric fill-reducing
    # ordering gives about half the L+U fill of the default COLAMD.
    return spsolve(a, rhs, permc_spec="MMD_AT_PLUS_A")


def _kirchhoff(material: MaterialModel, t: np.ndarray) -> np.ndarray:
    """Kirchhoff variable U = integral of (T / t_ref)^p dT, up to a constant.

    Written as t_ref * (T / t_ref)^(p + 1) / (p + 1), which stays finite for
    large |p| where T^(p + 1) and t_ref^p alone would overflow.
    """
    p, tr = material.exponent, material.t_ref_k
    with np.errstate(over="ignore"):
        return tr * np.log(t) if p == -1.0 else tr * (t / tr) ** (p + 1.0) / (p + 1.0)


def _kirchhoff_inverse(material: MaterialModel, u: np.ndarray) -> np.ndarray:
    """T from U; NaN or inf where no temperature has that U (p < -1 saturates)."""
    p, tr = material.exponent, material.t_ref_k
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if p == -1.0:
            return np.exp(u / tr)
        return tr * ((p + 1.0) * u / tr) ** (1.0 / (p + 1.0))


def _valid(t: np.ndarray) -> np.ndarray:
    return np.isfinite(t) & (t > 0.0)


def _kirchhoff_start(faces: _Faces, material: MaterialModel, t: np.ndarray) -> np.ndarray:
    """Temperatures from one linear solve in U, with face conductances from
    the temperature-independent prefactor kappa_ref * thickness.

    The field is exact for constant kappa; otherwise it differs from the
    harmonic-g(T) solution only where T varies strongly across a cell.
    Cells whose U has no temperature keep their value from t.
    """
    u = _kirchhoff(material, t)
    c = material.kappa_ref_w_per_k_cm * faces.geom
    g0 = _harmonic(c[faces.a], c[faces.b])
    rhs = -_residual(faces, g0 * (u[faces.a] - u[faces.b]))
    start = _kirchhoff_inverse(material, u[faces.free] + _solve(_assemble(faces, g0), rhs))
    out = t.copy()
    out[faces.free] = np.where(_valid(start), start, t[faces.free])
    return out


_MAX_HALVINGS = 30


def _newton_step(faces: _Faces, material: MaterialModel, t, s, g, flow):
    """One Newton step on the harmonic-g(T) residual R.

    The step is taken in U: dU = (T / t_ref)^p dT, mapped back through the
    closed-form inverse, which keeps the update close to the near-linear
    path of the Kirchhoff start. It is halved until every free T is finite
    and positive, no flow overflows and |R| decreases. Returns the new t
    with its (s, g, flow) from _conduct, or, when no halving reduces |R|,
    the full step's t with None.
    """
    p, tr = material.exponent, material.t_ref_k
    ta, tb = t[faces.a], t[faces.b]
    sa, sb = s[faces.a], s[faces.b]
    r = _residual(faces, flow)
    # dg/ds_a = 2 s_b^2 / (s_a + s_b)^2 and ds/dT = p s / T
    with np.errstate(over="ignore", invalid="ignore"):
        w = 2.0 * p * (ta - tb) / (sa + sb) ** 2
        jac = _assemble(faces, g, w * sb**2 * sa / ta, w * sa**2 * sb / tb)
        norm = np.linalg.norm(r)
    tf = t[faces.free]
    du = _solve(jac, -r) * (tf / tr) ** p
    u = _kirchhoff(material, tf)
    step = 1.0
    for _ in range(_MAX_HALVINGS):
        t_new = t.copy()
        t_new[faces.free] = _kirchhoff_inverse(material, u + step * du)
        if np.all(_valid(t_new)):
            state = _conduct(faces, material, t_new)
            with np.errstate(over="ignore"):
                if state is not None and np.linalg.norm(_residual(faces, state[2])) < norm:
                    return t_new, state
        step *= 0.5
    t_new[faces.free] = _kirchhoff_inverse(material, u + du)
    return t_new, None


def solve_steady_state(
    grid: ThermalGrid,
    tol: float = 1e-6,
    max_iter: int = 100,
) -> tuple[TemperatureField, SolveReport]:
    """Solve the nonlinear conduction problem on the grid.

    A grid it cannot conduct through raises GridError: no active cells,
    cell sources that do not add up to the absorbed power, or a cell with no
    conducting path to a fixed cell (a void gap, zero thickness or zero
    kappa_scale). rasterize builds no such grid from a valid layout.

    The first linear solve is the Kirchhoff start: with U = integral of
    (T / t_ref)^p dT the power-law problem becomes linear in U, so one solve
    and a closed-form inverse per cell give a near-exact field. Newton steps
    on the discretization with harmonically averaged face conductances
    g(T) then remove the remaining difference, each backtracked until all
    temperatures stay positive and the residual norm drops.

    iterations counts linear solves, the Kirchhoff start included, so
    max_iter=1 stops after the start. Convergence requires both the
    largest relative temperature change of the last solve and the
    recomputed energy imbalance to fall below tol. Exhausting max_iter, a
    Newton step that no backtracking makes reduce the residual, or a state
    whose conductances overflow (the start field included, with residual
    NaN) returns converged=False instead of raising.
    """
    if not 0.0 < tol < math.inf:
        raise ValueError("tol must be positive and finite")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    material = grid.material
    faces = _faces(grid)

    t = grid.dirichlet_k.reshape(-1)[faces.cells].copy()
    t[faces.free] = np.min(t[~faces.free])

    state = _conduct(faces, material, t)
    res = math.nan if state is None else _imbalance(faces, state[2])
    iterations = 0
    rel = 0.0
    converged = res <= tol
    while state is not None and not converged and iterations < max_iter:
        iterations += 1
        if iterations == 1:
            t_new = _kirchhoff_start(faces, material, t)
            new = _conduct(faces, material, t_new)
        else:
            t_new, new = _newton_step(faces, material, t, *state)
        old = t[faces.free]
        rel = float(np.max(np.abs(t_new[faces.free] - old) / old))
        if new is None:
            # No halving lowers |R|, or the start overflows: T stays, and the
            # full correction, rel, says how far it still is from the
            # discrete solution.
            converged = rel < tol and res <= tol
            break
        t, state = t_new, new
        res = _imbalance(faces, state[2])
        converged = rel < tol and res <= tol

    t_k = np.full(grid.shape, np.nan)
    t_k.reshape(-1)[faces.cells] = t
    field = TemperatureField(grid=grid, t_k=t_k)
    report = SolveReport(
        iterations=iterations,
        residual=res,
        converged=converged,
        tol=tol,
        max_rel_change=rel,
    )
    return field, report
