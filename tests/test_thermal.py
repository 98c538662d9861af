import json
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse.csgraph
import scipy.sparse.linalg
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import (
    CONFIGS,
    DEVICES,
    bar_end_temperature_analytic,
    bar_grid,
    layouts_and_pitches,
    manufactured_sheet,
    rounding_pitches,
)
from qdtuner import cli, device, thermal
from qdtuner.config import load_device
from qdtuner.device import GridError, HeatingPad, LayoutError, MaterialModel, default_layout, rasterize
from qdtuner.thermal import (
    TemperatureField,
    ThermalModelError,
    absorbed_power_for_temperature,
    bridge_conductance_factor_cm,
    energy_residual,
    kappa,
    kappa_integral,
    lumped_temperature,
    solve_steady_state,
)

MAT = MaterialModel()


def test_kappa_reference_point():
    assert math.isclose(kappa(MAT, 10.0), 3.0e-2, rel_tol=1e-12)


def test_kappa_quadratic_growth():
    assert math.isclose(kappa(MAT, 20.0), 0.12, rel_tol=1e-12)


def test_kappa_constant_mode():
    flat = MaterialModel(exponent=0.0)
    for t in (5.0, 10.0, 300.0):
        assert kappa(flat, t) == flat.kappa_ref_w_per_k_cm


def test_kappa_rejects_nonpositive_temperature():
    with pytest.raises(ValueError):
        kappa(MAT, 0.0)
    with pytest.raises(ValueError):
        kappa(MAT, np.array([10.0, -1.0]))


def test_kappa_integral_empty_interval():
    assert kappa_integral(MAT, 10.0, 10.0) == 0.0


def test_kappa_integral_closed_form():
    # 1e-4 * (40^3 - 10^3) for the default power law
    assert math.isclose(kappa_integral(MAT, 10.0, 40.0), 6.3, rel_tol=1e-12)


def test_kappa_integral_constant_kappa():
    flat = MaterialModel(exponent=0.0)
    assert math.isclose(kappa_integral(flat, 10.0, 20.0), 0.3, rel_tol=1e-12)


def test_kappa_integral_inverse_power_branch():
    recip = MaterialModel(exponent=-1.0)
    expected = 3.0e-2 * 10.0 * math.log(2.0)
    assert math.isclose(kappa_integral(recip, 10.0, 20.0), expected, rel_tol=1e-12)


def test_kappa_integral_rejects_bad_bounds():
    with pytest.raises(ValueError):
        kappa_integral(MAT, 40.0, 10.0)
    with pytest.raises(ValueError):
        kappa_integral(MAT, 0.0, 10.0)


def test_conductance_factor_matches_geometry():
    # six 320 nm x 150 nm / 2 um bridges: 6 * (0.32 * 0.15 / 2) um = 1.44e-5 cm
    expected = 6.0 * (0.32 * 0.15 / 2.0) * 1.0e-4
    assert math.isclose(bridge_conductance_factor_cm(default_layout()), expected, rel_tol=1e-12)


def test_conductance_ratio_is_width_ratio():
    f320 = bridge_conductance_factor_cm(default_layout(320.0))
    f800 = bridge_conductance_factor_cm(default_layout(800.0))
    assert math.isclose(f800 / f320, 2.5, rel_tol=1e-12)
    assert 800.0 / 320.0 == 2.5


def test_lumped_temperature_zero_power():
    assert lumped_temperature(default_layout(), 0.0, 10.0) == 10.0


def test_lumped_temperature_forty_kelvin_point():
    lay = default_layout()
    p_40 = 6.0 * (0.32 * 0.15 / 2.0) * 1.0e-4 * (0.03 / 300.0) * (40.0**3 - 10.0**3)
    assert math.isclose(p_40, 9.072e-5, rel_tol=1e-12)
    assert math.isclose(lumped_temperature(lay, p_40, 10.0), 40.0, abs_tol=2e-6)


def test_lumped_temperature_hundredth_milliwatt():
    # cube-root inversion of the closed form at 1e-2 mW absorbed
    g_cm = 6.0 * (0.32 * 0.15 / 2.0) * 1.0e-4
    expected = (10.0**3 + 1.0e-5 / (g_cm * (0.03 / 300.0))) ** (1.0 / 3.0)
    assert math.isclose(expected, 19.9536, abs_tol=1e-4)
    assert math.isclose(lumped_temperature(default_layout(), 1.0e-5, 10.0), expected, abs_tol=2e-6)


def test_lumped_temperature_rejects_negative_power():
    with pytest.raises(ValueError):
        lumped_temperature(default_layout(), -1e-6, 10.0)


def test_lumped_temperature_no_bracket():
    lay = default_layout(material=MaterialModel(exponent=-2.0))
    # integral of kappa saturates near 0.3 W/cm for this exponent
    p = bridge_conductance_factor_cm(lay) * 0.31
    with pytest.raises(ThermalModelError, match="no island temperature"):
        lumped_temperature(lay, p, 10.0)


def test_lumped_temperature_names_the_cause():
    # exponent -1: U = t_ref log T is unbounded, only the float overflows
    lay = default_layout(material=MaterialModel(exponent=-1.0))
    with pytest.raises(ThermalModelError, match="overflows a float"):
        lumped_temperature(lay, 1e-2, 10.0)
    # exponent -1.5: 1 / (p + 1) = -2 is even, so the inverse of a saturated
    # U would be a finite temperature below the bath
    lay = default_layout(material=MaterialModel(exponent=-1.5))
    with pytest.raises(ThermalModelError, match="saturate below this power"):
        lumped_temperature(lay, 1e-2, 10.0)


def test_the_lumped_model_names_a_nan_input():
    lay = default_layout()
    with pytest.raises(ValueError, match="absorbed power must be non-negative, got nan"):
        lumped_temperature(lay, math.nan, 10.0)
    with pytest.raises(ValueError, match="bath temperature must be positive, got nan"):
        lumped_temperature(lay, 1e-6, math.nan)
    with pytest.raises(ValueError, match="target temperature must not lie below the bath, got nan"):
        absorbed_power_for_temperature(lay, math.nan, 10.0)
    with pytest.raises(ValueError, match="bath temperature must be positive, got nan"):
        absorbed_power_for_temperature(lay, 40.0, math.nan)


def test_absorbed_power_inverts_lumped_temperature():
    lay = default_layout()
    assert absorbed_power_for_temperature(lay, 10.0, 10.0) == 0.0
    for t in (12.0, 25.0, 40.0, 70.0):
        p = absorbed_power_for_temperature(lay, t, 10.0)
        assert math.isclose(lumped_temperature(lay, p, 10.0), t, abs_tol=2e-6)
    with pytest.raises(ValueError):
        absorbed_power_for_temperature(lay, 9.0, 10.0)


def test_absorbed_power_for_forty_kelvin_value():
    p = absorbed_power_for_temperature(default_layout(), 40.0, 10.0)
    assert math.isclose(p, 9.072e-5, rel_tol=1e-12)


def test_solve_zero_source_is_uniform_bath():
    grid = rasterize(default_layout(), 0.1, absorbed_power_w=0.0)
    field, report = solve_steady_state(grid, tol=1e-8)
    assert report.converged
    active = grid.active()
    assert np.allclose(field.t_k[active], 10.0, atol=1e-9)
    assert np.all(field.t_k[grid.dirichlet] == 10.0)
    assert np.isnan(field.t_k[~active]).all()


def test_solve_bar_matches_closed_form_within_one_percent():
    grid = bar_grid(64, 1.5e-6)
    field, report = solve_steady_state(grid, tol=1e-10, max_iter=500)
    assert report.converged
    t_end = field.t_k[0, -1]
    t_exact = bar_end_temperature_analytic(grid, 1.5e-6)
    assert t_exact > 35.0  # strong heating, well into the nonlinear regime
    assert abs(t_end - t_exact) / (t_exact - 10.0) < 0.01


def test_solve_default_device_field_shape():
    grid = rasterize(default_layout(), 0.1, absorbed_power_w=1e-5)
    field, report = solve_steady_state(grid)
    assert report.converged
    pad_mean = float(np.mean(field.t_k[grid.kind == device.PAD]))
    cavity_ix = int(np.argmin(np.abs(grid.cell_x_um() - 10.0)))
    cavity_iy = int(np.argmin(np.abs(grid.cell_y_um() - 2.0)))
    t_cavity = field.t_k[cavity_iy, cavity_ix]
    assert pad_mean > t_cavity > 10.0
    # monotone decay along each bottom bridge toward its anchored far end
    membrane_rows = np.flatnonzero((grid.kind == device.MEMBRANE).any(axis=1))
    bottom = np.flatnonzero(grid.dirichlet[0, :])
    for i in bottom:
        rows = np.flatnonzero(grid.kind[:, i] == device.BRIDGE)
        rows = rows[rows < membrane_rows[0]]
        along = field.t_k[rows, i]  # row 0 is the far end
        assert np.all(np.diff(along) >= -1e-12)


def test_solve_maximum_principle():
    grid = rasterize(default_layout(), 0.1, absorbed_power_w=1e-5)
    field, _ = solve_steady_state(grid)
    active = grid.active()
    assert float(np.nanmin(field.t_k[active])) >= 10.0 - 1e-9
    assert math.isclose(float(np.min(field.t_k[grid.dirichlet])), 10.0, abs_tol=0.0)


def test_solve_monotone_in_power():
    lay = default_layout()
    fields = []
    for p in (2e-6, 5e-6, 1e-5):
        grid = rasterize(lay, 0.1, absorbed_power_w=p)
        field, report = solve_steady_state(grid)
        assert report.converged
        fields.append(field.t_k)
    for low, high in zip(fields, fields[1:]):
        active = ~np.isnan(low)
        assert np.all(high[active] >= low[active] - 1e-9)


def test_solve_linear_in_power_for_constant_kappa():
    lay = default_layout(material=MaterialModel(exponent=0.0))
    rises = []
    for p in (1e-6, 2e-6):
        grid = rasterize(lay, 0.1, absorbed_power_w=p)
        field, report = solve_steady_state(grid, tol=1e-10)
        assert report.converged
        free = grid.active() & ~grid.dirichlet
        rises.append(field.t_k[free] - 10.0)
    ratio = rises[1] / rises[0]
    assert np.all(np.abs(ratio - 2.0) < 1e-9)


def test_body_conductivity_scale_approaches_lumped_island():
    # a very conductive body makes the device isothermal, so the pad
    # temperature collapses onto the bridge-limited lumped value
    p = 1e-5
    lumped = lumped_temperature(default_layout(), p, 10.0)
    pad_means = []
    for scale in (1.0, 100.0):
        lay = replace(default_layout(), body_kappa_scale=scale)
        grid = rasterize(lay, 0.1, absorbed_power_w=p)
        field, report = solve_steady_state(grid)
        assert report.converged
        pad_means.append(float(np.mean(field.t_k[grid.kind == device.PAD])))
    assert abs(pad_means[1] - lumped) < abs(pad_means[0] - lumped)
    assert abs(pad_means[1] - lumped) / lumped < 0.02


def test_energy_residual_zero_source():
    grid = rasterize(default_layout(), 0.1, absorbed_power_w=0.0)
    field, _ = solve_steady_state(grid)
    assert energy_residual(field) == 0.0


def test_energy_residual_converged_solve():
    grid = rasterize(default_layout(), 0.1, absorbed_power_w=1e-5)
    field, report = solve_steady_state(grid, tol=1e-6)
    assert report.converged
    assert energy_residual(field) <= 1e-3
    assert math.isclose(energy_residual(field), report.residual, rel_tol=1e-9, abs_tol=1e-15)


def test_energy_residual_under_iterated_solve():
    grid = rasterize(default_layout(), 0.1, absorbed_power_w=1e-5)
    field, report = solve_steady_state(grid, tol=1e-6, max_iter=1)
    assert not report.converged
    assert report.residual > 1e-6
    assert energy_residual(field) > 1e-6


def test_solve_rejects_disconnected_grid():
    # an 8-cell bar held at its left end, heated at its right end
    bar = bar_grid(8, 1e-6)
    cut = bar.kind.copy()
    cut[0, 4] = device.VOID
    thin = bar.sheet_um.copy()
    thin[0, 4] = 0.0
    dead = bar.sheet_um.copy()
    dead[0, -1] = 0.0
    cases = [
        (replace(bar, kind=cut), "disconnected"),
        # active cells of zero sheet conductance: the operator would be singular
        (replace(bar, sheet_um=thin), "disconnected"),
        (replace(bar, sheet_um=dead), "disconnected"),
        (replace(bar, kind=np.zeros_like(bar.kind)), "no active cells"),
        # an invalid conductance is named as such, not as a disconnected grid
        (replace(bar, sheet_um=np.full(bar.shape, -0.15)), "negative or NaN sheet_um"),
        (replace(bar, sheet_um=np.full(bar.shape, math.nan)), "negative or NaN sheet_um"),
        (replace(bar, sheet_um=np.where(np.arange(8) == 4, math.nan, bar.sheet_um)), "negative or NaN sheet_um"),
    ]
    for grid, match in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(GridError, match=match):
                solve_steady_state(grid)
            with pytest.raises(GridError, match=match):
                energy_residual(TemperatureField(grid, np.full(grid.shape, 10.0)))


# source_w is a grid's only record of its heat, so each cell's is checked:
# edits of the 16-cell bar of 1 uW, as {column: source} and a column made void
@pytest.mark.parametrize(
    "sources, void",
    [
        # 6 uW in at the end and 5 uW out next to it add up to 1 uW, but a
        # membrane has no sinks: unchecked, the solve converged on them
        pytest.param({14: -5e-6, 15: 6e-6}, None, id="negative"),
        pytest.param({15: math.nan}, None, id="nan"),
        pytest.param({15: math.inf}, None, id="inf"),
        # a void cell has no equation, so half the heat had nowhere to go:
        # the solve took 8 steps and stopped unconverged at residual 0.5
        pytest.param({14: 5e-7, 15: 5e-7}, 15, id="void"),
        # a fixed cell's heat would count as heat that must flow into the
        # bath, and no face carries it there
        pytest.param({0: 1e-6}, None, id="fixed"),
    ],
)
def test_a_cell_source_that_is_not_a_free_cells_finite_heat_is_refused(sources, void):
    bar = bar_grid(16, 1e-6)
    source, kind = bar.source_w.copy(), bar.kind.copy()
    for column, value in sources.items():
        source[0, column] = value
    if void is not None:
        kind[0, void] = device.VOID
    grid = replace(bar, source_w=source, kind=kind)
    match = "a cell source is negative or not finite, or on a void or fixed-temperature cell"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(GridError, match=match):
            solve_steady_state(grid)
        with pytest.raises(GridError, match=match):
            energy_residual(TemperatureField(grid, np.full(grid.shape, 10.0)))


@pytest.mark.parametrize("power_mw", [1e-20, 1e-15, 1e-12, 1e-9])
def test_a_tiny_power_converges_in_one_step(configs_dir, power_mw):
    # the solve carries the rise T - T_bath, so a rise of 1e-12 K (1e-15 mW)
    # or 1e-17 K keeps its digits, where T = 10 + rise would keep few or none;
    # the field keeps it too, so energy_residual agrees with the report (from
    # t_k it read 1.0 at 1e-20 mW and 2.4e-3 at 1e-15 mW)
    grid = rasterize(
        load_device(configs_dir / "device_w320.json").layout, 0.1, absorbed_power_w=power_mw * 1e-3
    )
    field, report = solve_steady_state(grid)
    assert report.converged
    assert report.iterations == 1
    assert report.residual <= 1e-12
    assert energy_residual(field) == report.residual


def test_solve_parameter_validation():
    grid = bar_grid(8, 0.0)
    for tol in (0.0, 1.0, 1e308, math.nan, math.inf):
        with pytest.raises(ValueError):
            solve_steady_state(grid, tol=tol)
    with pytest.raises(ValueError):
        solve_steady_state(grid, max_iter=0)


@pytest.mark.parametrize("exponent", [2.0, 3.0])
@pytest.mark.parametrize("power_w", [1e-2, 1e-1])
def test_solve_converges_far_above_the_shipped_powers(exponent, power_w):
    # 10 and 100 mW absorbed heat the pad to hundreds or thousands of kelvin;
    # an undamped Newton step from a poor start drives cells below 0 K here
    lay = default_layout(material=MaterialModel(exponent=exponent))
    grid = rasterize(lay, 0.1, absorbed_power_w=power_w)
    field, report = solve_steady_state(grid)
    assert report.converged
    assert np.all(field.t_k[grid.active()] > 0.0)
    assert energy_residual(field) <= 1e-6


def test_solve_constant_kappa_is_exact_after_the_kirchhoff_start():
    grid = rasterize(default_layout(material=MaterialModel(exponent=0.0)), 0.1, absorbed_power_w=1e-5)
    _, report = solve_steady_state(grid)
    assert report.converged
    assert report.iterations <= 2
    # with kappa constant the discrete problem is linear in T, so the first
    # step from the bath solves it outright if the factored operator is the
    # discrete conduction operator
    _, first = solve_steady_state(grid, max_iter=1)
    assert first.iterations == 1
    assert first.residual <= 1e-11


def test_solve_inverse_kappa_branch():
    grid = rasterize(default_layout(material=MaterialModel(exponent=-1.0)), 0.1, absorbed_power_w=1e-5)
    field, report = solve_steady_state(grid)
    assert report.converged
    assert energy_residual(field) <= 1e-6


def test_solve_saturating_kappa_reports_no_convergence(monkeypatch):
    # for exponent -2 the integral of kappa is bounded, so the bridges cannot
    # carry 10 uW (the lumped model finds no bracket) and no steady state exists
    grid = rasterize(default_layout(material=MaterialModel(exponent=-2.0)), 0.1, absorbed_power_w=1e-5)
    setups = _setups(monkeypatch)
    field, report = solve_steady_state(grid, max_iter=10)
    assert not report.converged
    assert setups == [(_STRIPS, _free_cells(grid) // 2)]
    assert np.all(field.t_k[grid.active()] > 0.0)


def test_an_overflowing_kirchhoff_conductance_sets_up_no_solver(configs_dir, tmp_path, monkeypatch, capsys):
    # kappa_ref * sheet_um squared overflows in the Kirchhoff operator, while
    # the conductances at a 5 K bath, scaled by (5 / 10)^8, do not: the solve
    # sets up no solver and ends on the bath field, where the LU of an
    # operator with infinite faces raised "Factor is exactly singular"
    device = json.loads((configs_dir / "device_w320.json").read_text(encoding="utf-8"))
    device["material"] = {"kappa_ref": 1e160, "t_ref": 10.0, "exponent": 8.0}
    path, out = tmp_path / "d.json", tmp_path / "out"
    path.write_text(json.dumps(device), encoding="utf-8")
    setups = _setups(monkeypatch)
    argv = ["thermal", path, "--dx-um", 0.1, "--power-abs-mw", 0.02, "--bath-k", 5, "--out", out]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main([str(a) for a in argv]) == 3
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert (report["converged"], report["iterations"], report["max_k"]) == (False, 0, 5.0)
    assert capsys.readouterr().err == "solver error: no convergence in 0 iterations (residual 1)\n"
    assert setups == []


@settings(max_examples=40, deadline=None)
@given(
    log_kappa=st.floats(min_value=-300.0, max_value=300.0),
    t_ref=st.floats(min_value=0.01, max_value=1e3),
    exponent=st.sampled_from([-2.0, -1.0, 1.0, 2.0, 8.0, 50.0]),
    t_bath=st.floats(min_value=0.01, max_value=300.0),
    power_w=st.floats(min_value=0.0, max_value=1e-2),
)
@example(log_kappa=math.log10(1.66e172), t_ref=54.9, exponent=50.0, t_bath=0.0186, power_w=8.1e-13)
def test_any_material_solves_or_is_refused(log_kappa, t_ref, exponent, t_bath, power_w):
    material = MaterialModel(10.0**log_kappa, t_ref, exponent)
    grid = rasterize(default_layout(material=material), 0.1, absorbed_power_w=power_w, t_bath_k=t_bath)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            _, report = solve_steady_state(grid)
        except GridError:
            return
    assert not report.converged or report.residual <= report.tol


def test_underflowing_conductances_end_unconverged_without_warnings():
    # at 10 mW with kappa ~ 1/T the first step's U = t_ref log T maps past
    # the float range, where the sheet conductances underflow to 0: no step
    # has a temperature and finite flows, so the solve stops unconverged;
    # the warning filters make a warning fail
    grid = rasterize(default_layout(material=MaterialModel(exponent=-1.0)), 0.1, absorbed_power_w=1e-2)
    _, report = solve_steady_state(grid)
    assert not report.converged


def test_a_non_finite_step_stops_the_solve_before_the_mixing(monkeypatch):
    # lstsq raises LinAlgError on NaN or inf: a step that is not finite
    # must end the solve unconverged, on the last field, without a fit
    kirchhoff_solver = thermal._kirchhoff_solver

    class BlowsUp:
        def __init__(self, solver):
            self.solver, self.solves = solver, 0

        def solve(self, rhs):
            self.solves += 1
            return self.solver.solve(rhs) if self.solves == 1 else np.full_like(rhs, np.inf)

    monkeypatch.setattr(thermal, "_kirchhoff_solver", lambda *args: BlowsUp(kirchhoff_solver(*args)))
    grid = rasterize(default_layout(), 0.1, absorbed_power_w=1e-5)
    field, report = solve_steady_state(grid)
    assert not report.converged
    assert report.iterations == 2
    assert np.all(np.isfinite(field.t_k[grid.active()]))
    assert np.nanmax(field.t_k) > 10.0  # the first step's field


def _counted(monkeypatch, module, name):
    """Record the shape of the matrix of each call of <module>.<name> in the
    returned list; thermal imports scipy's functions where it calls them, so
    it calls the patch."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def _scipy_calls(monkeypatch):
    """The shapes of the operators that splu factors and of the graphs whose
    connected components are counted, as two lists."""
    return (
        _counted(monkeypatch, scipy.sparse.linalg, "splu"),
        _counted(monkeypatch, scipy.sparse.csgraph, "connected_components"),
    )


_LU, _STRIPS = "SuperLU", "_SheetOnStrips"


def _setups(monkeypatch):
    """Record each stepping solver that a solve sets up in the returned list,
    as its kind and unknown count: (_LU, n) for the LU of the Kirchhoff
    operator, (_STRIPS, n) for the sheet-on-strips solve."""
    calls = []
    original = thermal._kirchhoff_solver

    def recorded(grid, faces):
        solver = original(grid, faces)
        calls.append((type(solver).__name__, solver.shape[0]))
        return solver

    monkeypatch.setattr(thermal, "_kirchhoff_solver", recorded)
    return calls


def _refused(*args, **kwargs):
    raise AssertionError("the thermal solve takes no Krylov or direct sparse step")


@pytest.mark.parametrize("name", ["device_w320.json", "device_w800.json"])
def test_solve_iterations_on_shipped_devices(configs_dir, monkeypatch, name):
    # one stepping solver per solve, the sheet-on-strips solve of the mirror
    # half, takes every chord step
    setups = _setups(monkeypatch)
    layout = load_device(configs_dir / name).layout
    for power_mw in np.linspace(0.002, 0.02, 5):
        grid = rasterize(layout, 0.1, absorbed_power_w=power_mw * 1e-3)
        setups.clear()
        _, report = solve_steady_state(grid)
        assert report.converged
        assert report.iterations <= 5
        assert setups == [(_STRIPS, _free_cells(grid) // 2)]


@pytest.mark.parametrize("dx", [0.1, 0.05])
@pytest.mark.parametrize("name", ["device_w320.json", "device_w800.json"])
def test_solve_factors_once_and_takes_only_chord_steps(configs_dir, monkeypatch, name, dx):
    setups = _setups(monkeypatch)
    factors, graphs = _scipy_calls(monkeypatch)
    for solver in ("gmres", "spsolve"):
        monkeypatch.setattr(scipy.sparse.linalg, solver, _refused)
    layout = load_device(configs_dir / name).layout
    grid = rasterize(layout, dx, absorbed_power_w=2e-5)
    field, report = solve_steady_state(grid)
    assert report.converged
    assert setups == [(_STRIPS, _free_cells(grid) // 2)]
    energy_residual(field)
    # the strips are solved in closed form and the grid's shape proves it
    # connected, so no scipy code runs
    assert (factors, graphs) == ([], [])


@pytest.mark.parametrize("power_mw", [0.002, 0.02, 2.0])
def test_solve_reaches_the_discrete_field_of_a_tight_tolerance(configs_dir, power_mw):
    # the stop rule lands within tol of the one discrete solution, however
    # the steps were mixed on the way
    grid = rasterize(
        load_device(configs_dir / "device_w320.json").layout, 0.1, absorbed_power_w=power_mw * 1e-3
    )
    field, report = solve_steady_state(grid)
    tight, tight_report = solve_steady_state(grid, tol=1e-11)
    assert report.converged and tight_report.converged
    active = grid.active()
    rel = np.abs(field.t_k[active] - tight.t_k[active]) / tight.t_k[active]
    assert np.max(rel) <= 1e-5


@settings(max_examples=8, deadline=None)
@given(
    exponent=st.sampled_from([-1.0, 0.0, 1.0, 2.0, 3.0]),
    p_low=st.floats(min_value=1e-7, max_value=5e-5),
    factor=st.floats(min_value=1.01, max_value=4.0),
)
def test_solve_invariants_over_random_powers(exponent, p_low, factor):
    lay = default_layout(material=MaterialModel(exponent=exponent))
    fields = []
    for p in (p_low, p_low * factor):
        grid = rasterize(lay, 0.1, absorbed_power_w=p)
        field, report = solve_steady_state(grid)
        if not report.converged:
            # for kappa ~ 1/T, s * T is a constant c per cell, so the harmonic
            # face flow 2 c (T_a - T_b) / (T_a + T_b) stays below 2 c: above
            # about 0.16 mW this discretization has no steady state
            assert exponent == -1.0 and p > 1.5e-4
            return
        # energy balance, recomputed from the field
        assert energy_residual(field) <= report.tol
        # maximum principle: no active cell below the bath, and the hottest
        # active cell is a pad cell, where the heat enters
        assert float(np.nanmin(field.t_k)) >= 10.0 - 1e-9
        assert np.max(field.t_k[grid.kind == device.PAD]) == np.nanmax(field.t_k)
        fields.append(field.t_k)
    low, high = fields
    active = ~np.isnan(low)
    assert np.all(high[active] >= low[active] - 1e-9)


_ARRAYS = ("kind", "sheet_um", "source_w", "dirichlet")


def _padded(grid, bottom=0, top=0, left=0, right=0):
    """The grid inside a frame of void rows and columns, which change no equation."""
    return replace(
        grid,
        x0_um=grid.x0_um - left * grid.dx_um,
        y0_um=grid.y0_um - bottom * grid.dx_um,
        **{k: np.pad(getattr(grid, k), ((bottom, top), (left, right))) for k in _ARRAYS},
    )


def _pad_moved_up(grid):
    """The grid with its pad, and the sources on it, one row higher: no
    longer its own up-down mirror."""
    pad = grid.kind == device.PAD
    kind = np.where(pad, device.MEMBRANE, grid.kind).astype(grid.kind.dtype)
    kind[np.roll(pad, 1, axis=0)] = device.PAD
    moved = replace(grid, kind=kind, source_w=np.roll(grid.source_w, 1, axis=0))
    assert not np.array_equal(moved.kind, moved.kind[::-1])
    return moved


def _free_cells(grid):
    return int((grid.active() & ~grid.dirichlet).sum())


def _assert_half_solve_matches_the_full_solve(grid):
    # one void row on top makes the row count odd, which forces the full
    # solve, and changes no equation
    assert grid.shape[0] % 2 == 0
    assert all(np.array_equal(getattr(grid, k), getattr(grid, k)[::-1]) for k in _ARRAYS)
    field, report = solve_steady_state(grid)
    full, full_report = solve_steady_state(_padded(grid, top=1))
    active = grid.active()
    rel = np.abs(field.t_k[active] - full.t_k[:-1][active]) / full.t_k[:-1][active]
    assert np.max(rel) <= 1e-12
    assert np.isnan(field.t_k[~active]).all()
    assert report.converged and full_report.converged
    assert report.iterations == full_report.iterations


@pytest.mark.parametrize("power_mw", [0.002, 2.0])
@pytest.mark.parametrize("dx", [0.1, 0.05])
@pytest.mark.parametrize("name", ["device_w320.json", "device_w800.json"])
def test_mirror_half_solve_matches_the_full_solve(configs_dir, name, dx, power_mw):
    grid = rasterize(load_device(configs_dir / name).layout, dx, absorbed_power_w=power_mw * 1e-3)
    _assert_half_solve_matches_the_full_solve(grid)


def test_mirror_half_solve_on_the_lu_matches_the_full_solve(monkeypatch):
    # a thicker cell and its mirror keep the grid symmetric, but no longer a
    # uniform sheet on strips, so both solves take the LU
    grid = rasterize(default_layout(), 0.1, absorbed_power_w=2e-5)
    sheet = grid.sheet_um.copy()
    row = grid.shape[0] // 2 - 3
    sheet[[row, grid.shape[0] - 1 - row], 60] = 0.3
    grid = replace(grid, sheet_um=sheet)
    setups = _setups(monkeypatch)
    _assert_half_solve_matches_the_full_solve(grid)
    assert setups == [(_LU, _free_cells(grid) // 2), (_LU, _free_cells(grid))]


def _one_top_cell(a, value):
    out = a.copy()
    out[-1, np.flatnonzero(a[-1])[0]] = value
    return out


# a symmetric grid, made asymmetric in one of the four arrays the solve reads
_ASYMMETRIC = {
    "kind-five-bridges": lambda g: rasterize(default_layout(bridge_count=5), 0.1, absorbed_power_w=2e-5),
    "kind-pad-one-cell-up": _pad_moved_up,
    "kind-top-bath-cell-void": lambda g: replace(g, kind=_one_top_cell(g.kind, device.VOID)),
    "source_w-one-row-up": lambda g: replace(g, source_w=np.roll(g.source_w, 1, axis=0)),
    "sheet_um-thicker-top-cell": lambda g: replace(g, sheet_um=_one_top_cell(g.sheet_um, 0.3)),
    "dirichlet-top-bath-cell-freed": lambda g: replace(g, dirichlet=_one_top_cell(g.dirichlet, False)),
}
# the edits of a bath cell, a sheet and a fixed cell leave a grid that is no
# uniform sheet on identical strips, so the LU takes its steps
_OF_ANOTHER_SHAPE = {"kind-top-bath-cell-void", "sheet_um-thicker-top-cell", "dirichlet-top-bath-cell-freed"}


@pytest.mark.parametrize("asymmetric", list(_ASYMMETRIC))
def test_an_asymmetric_grid_factors_the_full_operator(monkeypatch, asymmetric):
    grid = _ASYMMETRIC[asymmetric](rasterize(default_layout(), 0.1, absorbed_power_w=2e-5))
    setups = _setups(monkeypatch)
    _, report = solve_steady_state(grid)
    assert report.converged
    kind = _LU if asymmetric in _OF_ANOTHER_SHAPE else _STRIPS
    assert setups == [(kind, _free_cells(grid))]


def test_a_symmetric_grid_factors_its_lower_half(monkeypatch):
    grid = rasterize(default_layout(), 0.1, absorbed_power_w=2e-5)
    setups = _setups(monkeypatch)
    field, report = solve_steady_state(grid)
    assert report.converged
    assert setups == [(_STRIPS, _free_cells(grid) // 2)]
    assert np.array_equal(field.t_k, field.t_k[::-1], equal_nan=True)
    assert math.isclose(energy_residual(field), report.residual, rel_tol=1e-6, abs_tol=1e-15)


@pytest.mark.parametrize("count", range(1, 9))
def test_every_rasterized_grid_takes_the_sheet_on_strips_solve(monkeypatch, count):
    # the mirror half of an even count, the whole grid of an odd one, and a
    # whole grid with the pad one cell up
    grid = rasterize(default_layout(bridge_count=count), 0.1, absorbed_power_w=2e-5)
    setups = _setups(monkeypatch)
    for each in (grid, _pad_moved_up(grid)):
        _, report = solve_steady_state(each)
        assert report.converged
    solved = _free_cells(grid) // 2 if count % 2 == 0 else _free_cells(grid)
    assert setups == [(_STRIPS, solved), (_STRIPS, _free_cells(grid))]


@pytest.mark.parametrize("name", DEVICES)
def test_every_shipped_device_is_a_sheet_on_strips_at_any_pitch(name):
    # wherever its bridges are at least two cells long and its membrane at
    # most _DENSE_MAX cells long, as README says
    layout = load_device(CONFIGS / name).layout
    bridge_um, membrane_um = layout.bridges.length_um, layout.membrane.length_um
    for dx in rounding_pitches(layout):
        if round(bridge_um / dx) < 2 or round(membrane_um / dx) > thermal._DENSE_MAX:
            continue
        try:
            grid = rasterize(layout, dx, absorbed_power_w=1e-5)
        except LayoutError:
            continue
        assert thermal._faces(grid).strips is not None, dx


def test_a_grid_of_another_shape_takes_the_lu(monkeypatch):
    setups = _setups(monkeypatch)
    factors, graphs = _scipy_calls(monkeypatch)
    bar, (sheet, _) = bar_grid(64, 1e-6), manufactured_sheet(16)
    for grid in (bar, sheet):
        solve_steady_state(grid, max_iter=1)
    assert setups == [(_LU, 63), (_LU, 16 * 16)]
    # and the graph of its faces checks that every cell reaches a fixed one
    assert factors == [(63, 63), (16 * 16, 16 * 16)]
    assert graphs == [(64, 64), (17 * 16, 17 * 16)]


@pytest.mark.parametrize("power_w", [0.0, 2e-5])
def test_a_sheet_on_strips_whose_strip_faces_underflow_is_refused(power_w):
    # with the bridges' sheet_um at 1e-160 their prefactor conductance c_s is
    # 3e-166: c_s^2 underflows to 0, so every face inside a strip conducts
    # nothing, but c_s times the membrane's (1.4e-172) does not. The grid
    # still has the sheet-on-strips shape, so only the dropped faces say
    # that the graph must run; at zero power the bath field needs no solver
    grid = rasterize(default_layout(), 0.1, absorbed_power_w=power_w)
    grid = replace(grid, sheet_um=np.where(grid.kind == device.BRIDGE, 1e-160, grid.sheet_um))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(GridError, match="disconnected"):
            solve_steady_state(grid)
        with pytest.raises(GridError, match="disconnected"):
            energy_residual(TemperatureField(grid, np.full(grid.shape, 10.0)))


def _sheet_on_one_strip(n_w, n_len, ratio):
    """A 3-row sheet of sheet_um 0.15, n_w + 2 columns wide, on one strip of
    n_w x n_len cells of sheet_um 0.15 * ratio, fixed on its far row."""
    shape = (n_len + 3, n_w + 2)
    kind = np.full(shape, device.MEMBRANE, dtype=np.int8)
    kind[:n_len] = device.VOID
    kind[:n_len, 1 : n_w + 1] = device.BRIDGE
    sheet_um = np.select([kind == device.BRIDGE, kind == device.MEMBRANE], [0.15 * ratio, 0.15])
    dirichlet = np.zeros(shape, dtype=bool)
    dirichlet[0] = kind[0] == device.BRIDGE
    return device.ThermalGrid(
        dx_um=0.1,
        x0_um=0.0,
        y0_um=0.0,
        kind=kind,
        sheet_um=sheet_um,
        source_w=np.zeros(shape),
        dirichlet=dirichlet,
        t_bath_k=10.0,
        material=MAT,
    )


@settings(max_examples=40, deadline=None)
@given(
    n_w=st.integers(min_value=1, max_value=8),
    n_len=st.integers(min_value=2, max_value=12),
    log_ratio=st.floats(min_value=-3.0, max_value=3.0),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_the_closed_form_strip_solve_agrees_with_the_strip_lu(n_w, n_len, log_ratio, seed):
    grid = _sheet_on_one_strip(n_w, n_len, 10.0**log_ratio)
    faces = thermal._faces(grid)
    assert faces.strips is not None
    solver = thermal._SheetOnStrips(grid, faces)
    # the reference: the LU of the strip with the sheet row beside it held
    # fixed, factored as a grid of its own
    strip = np.s_[: n_len + 1, 1 : n_w + 1]
    held = np.zeros((n_len + 1, n_w), dtype=bool)
    held[-1] = True
    strip_grid = replace(
        grid,
        kind=grid.kind[strip],
        sheet_um=grid.sheet_um[strip],
        source_w=np.zeros(held.shape),
        dirichlet=grid.dirichlet[strip] | held,
    )
    lu = thermal._kirchhoff_lu(thermal._faces(strip_grid))
    # the LU numbers cell i of column j i * n_w + j, the closed form j * n + i
    n = n_len - 1
    order = np.arange(n * n_w).reshape(n, n_w).T.ravel()
    near = np.zeros((n * n_w, n_w))
    near[-n_w:] = np.eye(n_w)
    rhs = np.random.default_rng(seed).standard_normal((n * n_w, 3))
    lu_rhs = np.empty_like(rhs)
    lu_rhs[order] = rhs
    for got, want in [
        (solver.near_inv, lu.solve(near)[order]),
        (solver.strip_solve(rhs), lu.solve(lu_rhs)[order]),
    ]:
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_a_step_that_moves_no_temperature_ends_the_solve(monkeypatch):
    # a solver whose chord steps after the first are 0: the mixed step then
    # moves no temperature, and the solve ends unconverged at once instead
    # of repeating that step until max_iter
    kirchhoff_solver = thermal._kirchhoff_solver

    class Stalls:
        def __init__(self, solver):
            self.solver, self.solves = solver, 0

        def solve(self, rhs):
            self.solves += 1
            return self.solver.solve(rhs) if self.solves == 1 else np.zeros_like(rhs)

    monkeypatch.setattr(thermal, "_kirchhoff_solver", lambda *args: Stalls(kirchhoff_solver(*args)))
    grid = rasterize(default_layout(), 0.1, absorbed_power_w=2e-5)
    field, report = solve_steady_state(grid)
    assert not report.converged
    assert report.residual > report.tol
    assert (report.iterations, report.max_rel_change) == (2, 0.0)
    assert np.nanmax(field.t_k) > 10.0  # the first step's field


@settings(max_examples=25, deadline=None)
@given(
    count=st.integers(min_value=1, max_value=8),
    width=st.floats(min_value=0.0, max_value=1.0),
    body_scale=st.sampled_from([1e-3, 1.0, 1e3]),
    profile=st.sampled_from(["uniform", "gaussian"]),
    dx=st.sampled_from([0.1, 0.05]),
    exponent=st.sampled_from([-0.5, 1.0, 2.0, 8.0]),
    power_mw=st.sampled_from([0.002, 0.02, 0.2, 2.0]),
)
def test_the_sheet_on_strips_solve_agrees_with_the_lu(count, width, body_scale, profile, dx, exponent, power_mw):
    # widths from one cell to the most the bottom edge's bridges may have
    n = (count + 1) // 2
    widest_nm = 12e3 / (n + 1 if n > 1 else 1)
    width_nm = min(1e3 * dx + 1.0 + width * (widest_nm - 1e3 * dx), widest_nm)
    layout = replace(
        default_layout(width_nm, bridge_count=count, material=MaterialModel(exponent=exponent)),
        pad=HeatingPad(profile=profile),
        body_kappa_scale=body_scale,
    )
    grid = rasterize(layout, dx, absorbed_power_w=power_mw * 1e-3)
    field, report = solve_steady_state(grid)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(thermal, "_kirchhoff_solver", lambda g, faces: thermal._kirchhoff_lu(faces))
        lu_field, lu_report = solve_steady_state(grid)
    active = grid.active()
    rel = np.max(np.abs(lu_field.t_k[active] - field.t_k[active]) / field.t_k[active])
    if lu_report.iterations <= 5:
        # a few contracting chord steps, as on the shipped devices, keep the
        # two solvers' round-off at round-off
        assert (report.converged, report.iterations) == (lu_report.converged, lu_report.iterations)
        # a solve that stops unconverged, on a step with no temperature (a
        # thin sheet at the higher powers), returns its first step's field,
        # whose LU round-off no later step corrects: 3e-11 seen
        assert rel <= (1e-12 if report.converged else 1e-10)
    elif report.converged and lu_report.converged:
        # over more steps round-off steers the Anderson fit (see
        # _same_solution, and the solve at exponent 8 and 2 mW): both land
        # within the stop rule of the one discrete field. Where only one of
        # them converges, the other sits on that round-off knife edge.
        assert rel <= 1e-5


def _kirchhoff_applied(faces, u):
    """K u on the free cells, with no solver: each kept face's flow
    g0 (u_a - u_b), u being 0 on a fixed cell, summed per free cell by
    bincount as _residual sums the flows."""
    n = faces.n_free
    u = np.append(u, 0.0)  # slot n is every fixed cell's
    flow = faces.g0 * (u[faces.slot_a] - u[faces.slot_b])
    return (np.bincount(faces.slot_a, flow, n + 1) - np.bincount(faces.slot_b, flow, n + 1))[:n]


def _gamma(k):
    eps = np.finfo(float).eps
    return k * eps / (1.0 - k * eps)


@settings(max_examples=100, deadline=None)
@given(case=layouts_and_pitches(), seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_the_sheet_on_strips_solve_gives_its_right_hand_side_back(case, seed):
    """An oracle that factors nothing: K u, applied face by face to the
    solution u of K u = b, gives b back to round-off.

    The bound. The solve makes u from b by a chain of dense products and
    divisions by eigenvalues: the transforms across (n_w) and along
    (n_len - 1) the strips, the sheet's 2-D DCT (h and n_x) forward and
    back, and the (m + 1)-square capacitance product. A product of inner
    dimension d errs by at most gamma_d = d eps / (1 - d eps) times the
    product of its operands' magnitudes (Higham, Accuracy and Stability of
    Numerical Algorithms, eq. 3.11), and to first order the errors of a
    chain add (gamma_j + gamma_k <= gamma_(j + k)). The transforms are
    orthonormal and scale no operand, so the computed u solves K u = b + e
    with |e|_inf <= gamma_N (|K|_inf |u|_inf + |b|_inf), N = n_w + n_len +
    h + n_x + m + 1. Applying K adds one product and a sum of at most four
    flows per cell, gamma_5 |K|_inf |u|_inf. So
    |K u - b|_inf <= gamma_(N + 5) (|K|_inf |u|_inf + |b|_inf), with
    |K|_inf taken as twice the largest diagonal entry, which bounds it. It
    is a first-order estimate that takes the capacitance matrix to be well
    conditioned, not a proof: over 1,500 draws the worst backward error was
    9.2 eps, 0.054 of the bound, while a g_i off by 1e-12 of itself fails it.

    Each drawn layout whose grid takes _SheetOnStrips is solved whole and on
    its lower half, the grid that the solve of a mirrored device takes,
    with the pad source and with two random right-hand sides, one of them
    spread over 60 decades.
    """
    layout, dx = case
    grid = rasterize(layout, dx, absorbed_power_w=1e-6)
    rows = grid.shape[0] // 2
    half = replace(grid, **{k: getattr(grid, k)[:rows] for k in ("kind", "sheet_um", "source_w", "dirichlet")})
    assume(thermal._faces(grid).strips is not None)
    rng = np.random.default_rng(seed)
    for g in (grid, half):
        faces = thermal._faces(g)
        if faces.strips is None:
            continue
        solver, s, n = thermal._SheetOnStrips(g, faces), faces.strips, faces.n_free
        diagonal = np.bincount(faces.slot_a, faces.g0, n + 1) + np.bincount(faces.slot_b, faces.g0, n + 1)
        norm_k = 2.0 * np.max(diagonal[:n])
        m = (len(s.bottom) + len(s.top)) * s.n_w
        bound = _gamma(s.n_w + s.n_len + (s.r1 - s.r0) + g.shape[1] + m + 1 + 5)
        for b in (faces.source_w, rng.standard_normal(n), rng.standard_normal(n) * 10.0 ** rng.uniform(-30, 30, n)):
            u = solver.solve(b)
            error = np.max(np.abs(_kirchhoff_applied(faces, u) - b))
            assert error <= bound * (norm_k * np.max(np.abs(u)) + np.max(np.abs(b)))


# the metamorphic relations of the solve, on the default device at dx 0.1
_RELATION_CASES = pytest.mark.parametrize("power_mw", [0.002, 0.02, 2.0])
_RELATION_EXPONENTS = pytest.mark.parametrize("exponent", [-0.5, 1.0, 2.0, 8.0])


def _relation_grid(exponent, power_mw):
    lay = default_layout(material=MaterialModel(exponent=exponent))
    return rasterize(lay, 0.1, absorbed_power_w=power_mw * 1e-3)


def _same_solution(case, field, report, other_t_k, other_report):
    """Two solves of one discrete problem, which differ in round-off only,
    agree within 1e-12 after as many steps. At exponent 8 and 2 mW the
    solve takes 40-100 chord steps, and there round-off steers the Anderson
    fit: the flips of the pad-moved-up grid take 45 and 98 steps against 48,
    the full grid 39 against its mirror half's 40, and the fields part by up
    to 8.5e-7, so the two agree only as closely as the stop rule lands on
    the discrete field."""
    active = field.grid.active()
    rel = np.max(np.abs(other_t_k[active] - field.t_k[active]) / field.t_k[active])
    if case == (8.0, 2.0):
        assert report.converged and other_report.converged and rel <= 1e-5
    else:
        assert rel <= 1e-12 and other_report.iterations == report.iterations


@_RELATION_EXPONENTS
@_RELATION_CASES
def test_exact_scalings_and_void_padding_give_the_same_field(exponent, power_mw):
    # scaling by a power of two is exact in binary, and void cells carry no
    # equation, so each of these solves is the base solve bit for bit
    grid = _relation_grid(exponent, power_mw)
    field, report = solve_steady_state(grid)
    material = replace(grid.material, kappa_ref_w_per_k_cm=4.0 * grid.material.kappa_ref_w_per_k_cm)
    field4, report4 = solve_steady_state(replace(grid, material=material, source_w=4.0 * grid.source_w))
    assert np.array_equal(field4.t_k, field.t_k, equal_nan=True)
    assert report4.iterations == report.iterations
    field2, report2 = solve_steady_state(replace(grid, sheet_um=2.0 * grid.sheet_um, source_w=2.0 * grid.source_w))
    assert np.array_equal(field2.t_k, field.t_k, equal_nan=True)
    assert report2.iterations == report.iterations
    # equal rows below and above keep the grid its own mirror, so it takes
    # the same (half) path; unequal ones make the row count odd, and the
    # full solve agrees within round-off
    same_path, _ = solve_steady_state(_padded(grid, bottom=3, top=3, left=1, right=4))
    assert np.array_equal(same_path.t_k[3:-3, 1:-4], field.t_k, equal_nan=True)
    other_path, other_report = solve_steady_state(_padded(grid, bottom=3, top=2, left=1, right=4))
    _same_solution((exponent, power_mw), field, report, other_path.t_k[3:-2, 1:-4], other_report)


@_RELATION_EXPONENTS
@_RELATION_CASES
def test_a_flipped_asymmetric_grid_gives_the_flipped_field(exponent, power_mw):
    grid = _pad_moved_up(_relation_grid(exponent, power_mw))
    field, report = solve_steady_state(grid)
    for flip in (np.flipud, np.fliplr):
        flipped_grid = replace(grid, **{k: flip(getattr(grid, k)) for k in _ARRAYS})
        flipped, flipped_report = solve_steady_state(flipped_grid)
        _same_solution((exponent, power_mw), field, report, flip(flipped.t_k), flipped_report)


@pytest.mark.parametrize("max_iter", [1, 500])
def test_manufactured_sheet_converges_at_second_order(max_iter):
    # the first step solves the Kirchhoff scheme, the converged solve the
    # harmonic-g(T) scheme; both approach the exact field at order 2
    errors = []
    for n in (32, 64, 128):
        grid, t_exact = manufactured_sheet(n)
        field, report = solve_steady_state(grid, tol=1e-11, max_iter=max_iter)
        assert report.converged == (max_iter > 1)
        errors.append(np.max(np.abs(field.t_k - t_exact)))
    orders = [math.log2(errors[k] / errors[k + 1]) for k in range(2)]
    assert min(orders) >= 1.8
