"""Explicit finite-volume solver for the radial weighted equation

    e^g(r) r^(N-1) du/dt = d/dr ( r^(N-1) e^g(r) u^(m-1) |du/dr|^(p-2) du/dr )

on [0, r_max] with zero-flux boundaries.  The scheme is conservative:
cell averages are updated from face fluxes weighted by the measure
r^(N-1) e^g, so the weighted mass telescopes exactly.  The time step is
adaptive, from a Gershgorin bound on the frozen-coefficient update (see
the stability note in ``_explicit_kernel``).

An unweighted (g = 0) validation mode, gated behind ``allow_unweighted``,
exists solely to calibrate the scheme against classical self-similar
decay of the porous-medium equation; it is outside the weighted theory
and skips the weighted admissibility checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import envelopes as env_mod
from . import measure
from .errors import (
    FitRefusedError,
    InvalidParameterError,
    MassConservationError,
    StiffnessError,
    SupportBoundaryError,
)
from .measure import GROWING, RadialMeasure
from .weights import EquationParams, WeightSpec, invert_g

SUP_ENVELOPE = "sup_envelope"
SUPPORT_ENVELOPE = "support_envelope"

#: per-run relative mass conservation tolerance
MASS_DRIFT_TOL = 1e-6
#: fraction of sup(u0) below which a cell does not count as support
SUPPORT_THRESHOLD_REL = 1e-12
#: fraction of the Gershgorin-stable step taken by the explicit update
CFL_SAFETY = 0.4


@dataclass(frozen=True)
class RadialGrid:
    """Cell-centered uniform radial mesh, with weighted cell volumes and
    face coefficients omega * r^(N-1) e^g(r) at the interior faces."""

    dim_n: int
    r_max: float
    n_cells: int
    faces: np.ndarray
    centers: np.ndarray
    cell_weighted_volumes: np.ndarray
    face_coeffs: np.ndarray  # at faces[1:-1]

    @property
    def dr(self) -> np.ndarray:
        return np.diff(self.faces)


def make_grid(weight: WeightSpec, dim_n: int, r_max: float, n_cells: int) -> RadialGrid:
    if not (r_max > 0 and n_cells >= 8):
        raise InvalidParameterError("grid requires r_max > 0 and n_cells >= 8")
    faces = np.linspace(0.0, r_max, n_cells + 1)
    centers = 0.5 * (faces[:-1] + faces[1:])
    meas = RadialMeasure(weight, dim_n, GROWING)
    vols = measure.cell_weighted_volumes(meas, faces)
    omega = measure.sphere_area(dim_n)
    inner = faces[1:-1]
    face_coeffs = omega * meas.density(inner)
    return RadialGrid(dim_n=dim_n, r_max=r_max, n_cells=n_cells,
                      faces=faces, centers=centers, cell_weighted_volumes=vols,
                      face_coeffs=face_coeffs)


@dataclass
class SolverState:
    grid: RadialGrid
    t: float
    u: np.ndarray
    mass0: float
    support_threshold: float
    clipped_mass: float = 0.0
    max_step_clip: float = 0.0
    last_dt: float = math.nan
    scale_lambda: float = 1.0  # data rescaling applied by normalize=True

    def sup(self) -> float:
        return float(self.u.max())

    def mass(self) -> float:
        return float(np.dot(self.u, self.grid.cell_weighted_volumes))

    def support_radius(self) -> float:
        above = np.nonzero(self.u > self.support_threshold)[0]
        if above.size == 0:
            return 0.0
        return float(self.grid.faces[above[-1] + 1])


@dataclass(frozen=True)
class SolverConfig:
    eq: EquationParams
    weight: WeightSpec
    r_max: float
    n_cells: int
    t_end: float
    bump_radius: float = 1.0
    bump_height: float = 1.0
    output_times: Sequence[float] | None = None
    regularization_eps: float = 0.0
    allow_unweighted: bool = False
    normalize: bool = False

    def __post_init__(self):
        if not self.weight.is_weighted and not self.allow_unweighted:
            raise InvalidParameterError(
                "the unweighted (g = 0) mode is a calibration device; "
                "set allow_unweighted=True to use it"
            )
        self.eq.validate_with_weight(self.weight)
        if not self.t_end > 0:
            raise InvalidParameterError("t_end must be positive")
        for name in ("bump_height", "bump_radius"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise InvalidParameterError(f"{name} must be finite and positive, got {value}")
        if self.bump_radius > self.r_max / 8.0:
            raise InvalidParameterError(
                "bump radius must be at most r_max/8 to leave room for spreading"
            )
        if not 2.0 * self.n_cells * self.bump_radius > self.r_max:
            # the bump is sampled at cell centres: a smaller one samples to u0 = 0
            raise InvalidParameterError(
                "bump_radius must be finite and positive and exceed the first cell "
                f"centre r_max/(2 n_cells), got {self.bump_radius} with "
                f"r_max={self.r_max}, n_cells={self.n_cells}"
            )


@dataclass(frozen=True)
class Trajectory:
    times: np.ndarray
    sup_u: np.ndarray
    support_radius: np.ndarray
    mass: np.ndarray
    dt_last: np.ndarray
    mass0: float
    scale_lambda: float
    config: SolverConfig

    def rows(self) -> list[tuple]:
        return list(zip(self.times, self.sup_u, self.support_radius,
                        self.mass, self.dt_last))

    COLUMNS = ("t", "sup_u", "support_radius", "mass", "dt_last")


def initial_state(config: SolverConfig) -> SolverState:
    grid = make_grid(config.weight, config.eq.dim_n, config.r_max, config.n_cells)
    core = 1.0 - (grid.centers / config.bump_radius) ** 2
    u0 = config.bump_height * np.maximum(0.0, core)
    scale = 1.0
    mass_raw = float(np.dot(u0, grid.cell_weighted_volumes))
    if config.normalize:
        scale = 1.0 / mass_raw
        u0 = u0 * scale
    mass0 = float(np.dot(u0, grid.cell_weighted_volumes))
    threshold = SUPPORT_THRESHOLD_REL * float(u0.max())
    return SolverState(grid=grid, t=0.0, u=u0, mass0=mass0,
                       support_threshold=threshold, scale_lambda=scale)


def _flux_terms(u: np.ndarray, inv_dc: np.ndarray, eq: EquationParams,
                eps: float) -> tuple[np.ndarray, np.ndarray]:
    """Face slope-flux factor D = ubar^(m-1) |s|^(p-2) and the signed
    slope s at the interior faces."""
    p, m = eq.p, eq.m
    s = (u[1:] - u[:-1]) * inv_dc
    ubar = 0.5 * (u[1:] + u[:-1])
    np.maximum(ubar, 0.0, out=ubar)
    if m == 2.0:
        um = ubar
    elif m == 1.0:
        um = np.ones_like(ubar)
    elif m > 1.0:
        um = ubar ** (m - 1.0)
    else:
        # singular at vanishing ubar, but the slope vanishes there too:
        # the flux is 0 on empty face pairs
        pos = ubar > 0.0
        um = np.zeros_like(ubar)
        um[pos] = ubar[pos] ** (m - 1.0)
    if p == 2.0:
        d_fac = um
    else:
        if eps > 0.0:
            sp = (s * s + eps * eps) ** (0.5 * (p - 2.0))
        else:
            with np.errstate(divide="ignore", invalid="ignore"):
                sp = np.abs(s) ** (p - 2.0)
            sp[~np.isfinite(sp)] = 0.0  # |s|^(p-2) := 0 at s = 0
        d_fac = um * sp
    return d_fac, s


def _explicit_kernel(grid: RadialGrid,
                     config: SolverConfig) -> Callable[[SolverState, float], None]:
    """The explicit conservative update on ``grid``, as a function
    ``update(state, t_target)`` that advances the state in place by one
    stable step, shortened to end exactly at ``t_target`` if it would
    pass it.

    Stability: with face conductances c_f = w_f * max(p-1, 1) * D_f / dc_f,
    forward Euler on the frozen-coefficient operator is stable for
    dt <= 1 / max_i (sum of adjacent c_f / V_i) (Gershgorin).  In the
    unweighted uniform case this is the classical dr^2/(2 (p-1) D) rule;
    unlike that literal rule it also accounts for the face-to-volume
    weight ratio, which grows near r = 0 (curvature) and wherever e^g
    climbs across a cell.  A state without flux steps by t_end * 1e-3.
    """
    eq = config.eq
    eps = config.regularization_eps
    t_floor = 1e-15 * config.t_end
    idle_dt = 1e-3 * config.t_end
    face_w = grid.face_coeffs
    vols = grid.cell_weighted_volumes
    inv_dc = 1.0 / np.diff(grid.centers)
    inv_vols = 1.0 / vols
    cond_scale = face_w * (max(eq.p - 1.0, 1.0) * inv_dc)
    rate = np.empty_like(vols)
    dudt = np.empty_like(vols)

    def update(state: SolverState, t_target: float) -> None:
        u = state.u
        d_fac, s = _flux_terms(u, inv_dc, eq, eps)
        conduct = cond_scale * d_fac
        rate[:] = 0.0
        rate[:-1] += conduct * inv_vols[:-1]
        rate[1:] += conduct * inv_vols[1:]
        peak = rate.max()
        dt = CFL_SAFETY / peak if peak > 0.0 else idle_dt
        if dt < t_floor:
            raise StiffnessError(
                f"stable dt {dt:.3e} underflowed at t={state.t:.6g}; "
                "coarsen the grid or change parameters"
            )
        if state.t + dt >= t_target:
            dt = t_target - state.t
            state.t = t_target
        else:
            state.t += dt
        flux = face_w * d_fac * s
        dudt[0] = flux[0]
        dudt[1:-1] = flux[1:] - flux[:-1]
        dudt[-1] = -flux[-1]
        np.multiply(dudt, inv_vols, out=dudt)
        u += dt * dudt
        if u.min() < 0.0:
            neg = u < 0.0
            clip = float(-np.dot(u[neg], vols[neg]))
            state.clipped_mass += clip
            state.max_step_clip = max(state.max_step_clip, clip)
            u[neg] = 0.0
        state.last_dt = dt

    return update


def step(state: SolverState, config: SolverConfig) -> SolverState:
    """One explicit conservative update; chooses its own stable dt."""
    _explicit_kernel(state.grid, config)(state, math.inf)
    return state


def _advance(state: SolverState, config: SolverConfig, t_target: float) -> None:
    """Advance in place to exactly ``t_target``."""
    update = _explicit_kernel(state.grid, config)
    while state.t < t_target:
        update(state, t_target)


def default_output_times(t_end: float, n: int = 61, decades: float = 4.0) -> np.ndarray:
    return np.geomspace(t_end * 10.0 ** (-decades), t_end, n)


def run(config: SolverConfig) -> Trajectory:
    """Integrate to t_end, recording (t, sup, support radius, mass, dt)
    at the output times.  Raises if the support reaches the outer
    boundary or the weighted mass drifts beyond 1e-6 relative."""
    state = initial_state(config)
    scale = state.scale_lambda
    if config.output_times is not None:
        outs = np.asarray(sorted(config.output_times), dtype=float)
        if outs.size == 0 or outs[-1] > config.t_end * (1 + 1e-12):
            raise InvalidParameterError("output times must lie in (0, t_end]")
    else:
        outs = default_output_times(config.t_end)
    times = [0.0]
    sups = [state.sup()]
    supports = [state.support_radius()]
    masses = [state.mass()]
    dts = [math.nan]
    boundary_face = state.grid.faces[-1]
    for t_out in outs:
        _advance(state, config, float(t_out))
        times.append(state.t)
        sups.append(state.sup())
        supports.append(state.support_radius())
        masses.append(state.mass())
        dts.append(state.last_dt)
        if supports[-1] >= boundary_face:
            raise SupportBoundaryError(
                f"numerical support reached r_max={boundary_face:g} at t={state.t:g}; "
                "enlarge r_max"
            )
        drift = abs(masses[-1] / state.mass0 - 1.0)
        if drift > MASS_DRIFT_TOL:
            raise MassConservationError(
                f"relative mass drift {drift:.3e} exceeds {MASS_DRIFT_TOL:g} "
                f"at t={state.t:g}"
            )
    return Trajectory(
        times=np.asarray(times), sup_u=np.asarray(sups),
        support_radius=np.asarray(supports), mass=np.asarray(masses),
        dt_last=np.asarray(dts), mass0=state.mass0, scale_lambda=scale,
        config=config,
    )


# ---------------------------------------------------------------------------
# rate fitting


@dataclass(frozen=True)
class FitReport:
    model: str
    slope: float
    target_slope: float
    c_fit: float
    band_max: float
    band_min: float
    window: tuple[float, float]
    n_points: int
    extras: dict = field(default_factory=dict)

    @property
    def band_ratio(self) -> float:
        return self.band_max / self.band_min if self.band_min > 0 else math.inf


def fit_rates(traj: Trajectory, model: str, weight: WeightSpec,
              eq: EquationParams) -> FitReport:
    """Fit the large-time window of a trajectory against the predicted
    envelope shape.

    support model: regress log R against log log(e + t * M^(p+m-3));
    the slope approaches 1/alpha for power-like weights.  sup model:
    form the ratio sup(t) / envelope(t) with unit prefactor and report
    the max/min band over the last decade (the theory asserts
    boundedness, not a value).
    """
    if model not in (SUP_ENVELOPE, SUPPORT_ENVELOPE):
        raise InvalidParameterError(f"unknown fit model {model!r}")
    if not weight.is_weighted:
        raise FitRefusedError("envelope fits are undefined without a weight")
    par = env_mod.EnvelopeParams(eq=eq, weight=weight, mass0=traj.mass0)
    idx = np.flatnonzero(par.large_time(traj.times))
    if idx.size < 5:
        raise FitRefusedError("too few samples in the large-time window")
    t_all = traj.times[idx]
    if t_all[-1] / t_all[0] < 100.0:
        raise FitRefusedError(
            f"need >= 2 decades in the large-time window, got {t_all[-1] / t_all[0]:.3g}x"
        )
    # fit over the last two decades; transients forget the data there
    keep = t_all >= t_all[-1] / 100.0
    idx = idx[keep]
    t = t_all[keep]
    last = t >= t[-1] / 10.0
    log_arg = np.log(math.e + par.log_arg(t))

    if model == SUPPORT_ENVELOPE:
        radius = traj.support_radius[idx]
        if np.any(radius <= 0):
            raise FitRefusedError("support radius vanished inside the fit window")
        x = np.log(log_arg)
        y = np.log(radius)
        slope = float(np.polyfit(x, y, 1)[0])
        c_series = radius / invert_g(weight, log_arg)
        c_last = c_series[last]
        c_fit = float(np.exp(np.mean(np.log(c_last))))
        target = 1.0 / weight.alpha1 if weight.alpha1 == weight.alpha2 else math.nan
        return FitReport(
            model=model, slope=slope, target_slope=target, c_fit=c_fit,
            band_max=float(c_last.max()), band_min=float(c_last.min()),
            window=(float(t[0]), float(t[-1])), n_points=int(idx.size),
            extras={"c_series_spread": float(c_last.max() / c_last.min())},
        )

    ratio = traj.sup_u[idx] / env_mod.sup_envelope(par, t)
    r_last = ratio[last]
    slope = float(np.polyfit(np.log(t[last]), np.log(r_last), 1)[0])
    c_fit = float(np.exp(np.mean(np.log(r_last))))
    return FitReport(
        model=model, slope=slope, target_slope=0.0, c_fit=c_fit,
        band_max=float(r_last.max()), band_min=float(r_last.min()),
        window=(float(t[last][0]), float(t[-1])), n_points=int(r_last.size),
        extras={"ratio_full_max": float(ratio.max()),
                "ratio_full_min": float(ratio.min())},
    )
