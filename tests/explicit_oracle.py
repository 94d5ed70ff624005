"""Explicit conservative update of the radial solver, the reference that
test_solver checks the variable-step BDF integrator of ``solver.run``
against."""

import numpy as np

from expdiff import solver as S
from expdiff.errors import StiffnessError


def advance(state: S.SolverState, config: S.SolverConfig, t_target: float,
            safety: float) -> None:
    """Advance ``state`` in place to exactly ``t_target`` by forward Euler
    on the solver's face fluxes, each step ``safety`` times the
    Gershgorin-stable step of ``S._gershgorin_dt`` (a state without flux
    steps by ``safety / S.CFL_SAFETY`` times t_end * 1e-3); the last step
    is shortened to land on ``t_target``.  First order in time."""
    eq, grid = config.eq, state.grid
    t_floor = 1e-15 * config.t_end
    idle_dt = 1e-3 * config.t_end
    scale = safety / S.CFL_SAFETY
    inv_dc = 1.0 / np.diff(grid.centers)
    w_dc = grid.face_coeffs * inv_dc
    inv_vols = 1.0 / grid.cell_weighted_volumes
    dudt = np.empty_like(inv_vols)
    while state.t < t_target:
        flux, conduct, _ = S._face_fluxes(state.u, inv_dc, w_dc, eq)
        dt = scale * S._gershgorin_dt(conduct, inv_vols, eq.p, idle_dt)
        if dt < t_floor:
            raise StiffnessError(f"stable dt {dt:.3e} underflowed at t={state.t:.6g}")
        if state.t + dt >= t_target:
            dt = t_target - state.t
            state.t = t_target
        else:
            state.t += dt
        dudt[0] = flux[0]
        dudt[1:-1] = flux[1:] - flux[:-1]
        dudt[-1] = -flux[-1]
        np.multiply(dudt, inv_vols, out=dudt)
        state.u += dt * dudt
        S._clip_negative(state, state.u)
        state.last_dt = dt
