import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import bar_end_temperature_analytic, bar_grid
from qdtuner import device
from qdtuner.config import load_device
from qdtuner.device import GridError, MaterialModel, default_layout, rasterize
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


def test_solve_bar_grid_convergence_order():
    errors = []
    for n in (64, 128, 256):
        # the bar is one cell wide, so scale the power with dx to keep the
        # flux density (and hence the continuum problem) fixed under refinement
        p = 1.5e-6 * 64 / n
        grid = bar_grid(n, p)
        field, report = solve_steady_state(grid, tol=1e-11, max_iter=800)
        assert report.converged
        errors.append(abs(field.t_k[0, -1] - bar_end_temperature_analytic(grid, p)))
    orders = [math.log2(errors[k] / errors[k + 1]) for k in range(2)]
    assert min(orders) >= 1.8


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
    thin = bar.thickness_um.copy()
    thin[0, 4] = 0.0
    dead = bar.kappa_scale.copy()
    dead[0, -1] = 0.0
    cases = [
        (replace(bar, kind=cut), "disconnected"),
        # active cells of zero sheet conductance: the operator would be singular
        (replace(bar, thickness_um=thin), "disconnected"),
        (replace(bar, kappa_scale=dead), "disconnected"),
        (replace(bar, kind=np.zeros_like(bar.kind)), "no active cells"),
        (replace(bar, absorbed_power_w=2e-6), "do not add up"),
    ]
    for grid, match in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(GridError, match=match):
                solve_steady_state(grid)
            with pytest.raises(GridError, match=match):
                energy_residual(TemperatureField(grid, np.full(grid.shape, 10.0)))


def test_solve_parameter_validation():
    grid = bar_grid(8, 0.0)
    for tol in (0.0, math.nan, math.inf):
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


def test_solve_inverse_kappa_branch():
    grid = rasterize(default_layout(material=MaterialModel(exponent=-1.0)), 0.1, absorbed_power_w=1e-5)
    field, report = solve_steady_state(grid)
    assert report.converged
    assert energy_residual(field) <= 1e-6


def test_solve_saturating_kappa_reports_no_convergence():
    # for exponent -2 the integral of kappa is bounded, so the bridges cannot
    # carry 10 uW (the lumped model finds no bracket) and no steady state exists
    grid = rasterize(default_layout(material=MaterialModel(exponent=-2.0)), 0.1, absorbed_power_w=1e-5)
    field, report = solve_steady_state(grid, max_iter=10)
    assert not report.converged
    assert np.all(field.t_k[grid.active()] > 0.0)


@pytest.mark.parametrize("name", ["device_w320.json", "device_w800.json"])
def test_solve_iterations_on_shipped_devices(configs_dir, name):
    layout = load_device(configs_dir / name).layout
    for power_mw in np.linspace(0.002, 0.02, 5):
        grid = rasterize(layout, 0.1, absorbed_power_w=power_mw * 1e-3)
        _, report = solve_steady_state(grid)
        assert report.converged
        assert report.iterations <= 5


@settings(max_examples=8, deadline=None)
@given(
    p_low=st.floats(min_value=1e-7, max_value=5e-5),
    factor=st.floats(min_value=1.01, max_value=4.0),
)
def test_solve_invariants_over_random_powers(p_low, factor):
    lay = default_layout()
    fields = []
    for p in (p_low, p_low * factor):
        grid = rasterize(lay, 0.1, absorbed_power_w=p)
        field, report = solve_steady_state(grid)
        assert report.converged
        # energy balance, recomputed from the field
        assert energy_residual(field) <= report.tol
        # maximum principle: no active cell below the bath
        assert float(np.nanmin(field.t_k)) >= 10.0 - 1e-9
        fields.append(field.t_k)
    low, high = fields
    active = ~np.isnan(low)
    assert np.all(high[active] >= low[active] - 1e-9)
