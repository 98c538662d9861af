from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from qdtuner import device
from qdtuner.device import MaterialModel, ThermalGrid

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


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
        absorbed_power_w=power_w,
    )


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
