"""Explicit conservative update of the radial solver, the reference that
test_solver checks the variable-step BDF integrator of ``solver.run``
against."""

import numpy as np

from expdiff import solver as S
from expdiff.errors import StiffnessError


def advance(grid: S.RadialGrid, u: np.ndarray, t: float, config: S.SolverConfig,
            t_target: float, safety: float) -> tuple[float, float]:
    """Advance the cell averages ``u`` on ``grid`` in place from ``t`` to
    exactly ``t_target`` by forward Euler on the solver's face fluxes,
    each step ``safety`` times the Gershgorin-stable step of
    ``S._gershgorin_dt`` (a state without flux steps by
    ``safety / S.CFL_SAFETY`` times 1e-3 times the last output time of
    ``config``); the last step is shortened to land on ``t_target``.
    Negative values are set to 0 after each step.  First order in time.
    Returns t_target and the last step."""
    eq = config.eq
    t_last = float(max(config.output_times))
    t_floor = 1e-15 * t_last
    idle_dt = 1e-3 * t_last
    scale = safety / S.CFL_SAFETY
    inv_dc = 1.0 / np.diff(grid.centers)
    w_dc = grid.face_coeffs * inv_dc
    inv_vols = 1.0 / grid.cell_weighted_volumes
    dudt = np.empty_like(inv_vols)
    rows = S._flux_rows(inv_dc.size)
    conduct, flux = rows.k, rows.flux
    dt = np.nan
    while t < t_target:
        with np.errstate(divide="ignore"):  # 0^(p-2) on flat faces for p < 2
            S._face_fluxes(u, inv_dc, w_dc, eq, rows)
        dt = scale * S._gershgorin_dt(conduct, inv_vols, eq.p, idle_dt)
        if dt < t_floor:
            raise StiffnessError(f"stable dt {dt:.3e} underflowed at t={t:.6g}")
        if t + dt >= t_target:
            dt = t_target - t
            t = t_target
        else:
            t += dt
        dudt[0] = flux[0]
        dudt[1:-1] = flux[1:] - flux[:-1]
        dudt[-1] = -flux[-1]
        np.multiply(dudt, inv_vols, out=dudt)
        u += dt * dudt
        np.maximum(u, 0.0, out=u)
    return t, dt
