"""Implicit finite-volume solver for the radial weighted equation

    e^g(r) r^(N-1) du/dt = d/dr ( r^(N-1) e^g(r) u^(m-1) |du/dr|^(p-2) du/dr )

on [0, r_max] with zero-flux boundaries.  The scheme is conservative:
cell averages are updated from face fluxes weighted by the measure
r^(N-1) e^g, so the weighted mass telescopes exactly.  ``run`` advances
with variable-step BDF4 (backward Euler, BDF2 and BDF3 for the first
three steps), each step solved by Newton's method on the tridiagonal
flux Jacobian, started from the quartic extrapolation of the last five
levels and stopped on the residual, and a local-error step controller
on that same start, each step at most RATIO_MAX times the one before.
The tridiagonal solve is LAPACK's ``dgtsv`` from the OpenBLAS bundled
with numpy's wheel, and where numpy ships no such library a Python sweep
that gives the same solutions bitwise (see ``_thomas``).  ``run`` holds
the whole scheme and its reasons.  The solution is exactly 0 beyond a
moving front, so each step works only on the leading cells its support
can reach within the step (see ``_window``).

An unweighted (g = 0) weight (``make_unweighted``) runs as a validation
mode that exists solely to calibrate the scheme against classical
self-similar decay of the porous-medium equation; it is outside the
weighted theory and skips the weighted admissibility checks.
"""

from __future__ import annotations

import ctypes
import functools
import math
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple, Sequence

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
from .weights import EquationParams, WeightSpec

SUP_ENVELOPE = "sup_envelope"
SUPPORT_ENVELOPE = "support_envelope"
SUP_POWER_LAW = "sup_power_law"

#: per-run relative mass conservation tolerance
MASS_DRIFT_TOL = 1e-6
#: fraction of sup(u0) below which a cell does not count as support
SUPPORT_THRESHOLD_REL = 1e-12
#: fraction of the Gershgorin-stable forward-Euler step taken by the
#: first implicit step as its first try
CFL_SAFETY = 0.4
#: local error tolerance of the BDF step controller, relative to the mass
BDF_TOL = 2e-7
#: largest ratio of a step to the one before it: variable-step BDF4 is
#: zero-stable only under a step-ratio bound (Calvo, Grande & Grigorieff,
#: Numer. Math. 57, 1990)
RATIO_MAX = 1.2
#: Newton stops at |R(u)|_1 <= NEWTON_KAPPA * BDF_TOL * mass (Hairer &
#: Wanner II, IV.8); for an M-matrix Jacobian that bounds the weighted
#: L1 norm of the update a further solve would make
NEWTON_KAPPA = 5e-3
#: solves before Newton gives up and the step is rejected
NEWTON_MAX_ITER = 8
#: Newton failures allowed before one output time; one more raises
#: StiffnessError instead of crawling on steps that need no solve
MAX_NEWTON_FAILURES = 50
#: fewest samples a rate fit takes from its window
MIN_FIT_SAMPLES = 5


@dataclass(frozen=True)
class RadialGrid:
    """Cell-centered uniform radial mesh, with weighted cell volumes and
    face coefficients omega * r^(N-1) e^g(r) at the interior faces."""

    n_cells: int
    faces: np.ndarray
    centers: np.ndarray
    cell_weighted_volumes: np.ndarray
    face_coeffs: np.ndarray  # at faces[1:-1]


def make_grid(weight: WeightSpec, dim_n: int, r_max: float, n_cells: int) -> RadialGrid:
    if not (r_max > 0 and n_cells >= 8):
        raise InvalidParameterError("grid requires r_max > 0 and n_cells >= 8")
    faces = np.linspace(0.0, r_max, n_cells + 1)
    centers = 0.5 * (faces[:-1] + faces[1:])
    vols = measure.cell_weighted_volumes(weight, dim_n, faces)
    omega = measure.sphere_area(dim_n)
    face_coeffs = omega * measure.growing_density(weight, dim_n)(faces[1:-1])
    return RadialGrid(n_cells=n_cells, faces=faces, centers=centers,
                      cell_weighted_volumes=vols, face_coeffs=face_coeffs)


@dataclass(frozen=True)
class SolverConfig:
    eq: EquationParams
    weight: WeightSpec
    r_max: float
    n_cells: int
    output_times: Sequence[float]  # the run ends at the largest
    bump_radius: float = 1.0
    bump_height: float = 1.0

    def __post_init__(self):
        self.eq.validate_with_weight(self.weight)
        for name in ("r_max", "bump_height", "bump_radius"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise InvalidParameterError(f"{name} must be finite and positive, got {value}")
        outs = np.asarray(self.output_times, dtype=float)
        bad = outs[~((outs > 0) & np.isfinite(outs))]
        if outs.size == 0 or bad.size:
            got = format(bad[0], "g") if bad.size else "none"
            raise InvalidParameterError(
                f"output times must be a non-empty set of finite positive times, got {got}"
            )
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
    """What ``run`` returns: the cell averages ``profiles`` on ``grid``
    at ``times``, one row for t = 0 (the initial data) and one per
    output time, the step ``dt_last`` that ended at each row (NaN in row
    0), and the run's counts.  ``sup_u``, ``mass`` and
    ``support_radius`` are computed from the profiles on first access
    and kept; like the profiles they are read-only."""

    times: np.ndarray
    profiles: np.ndarray
    dt_last: np.ndarray
    grid: RadialGrid
    config: SolverConfig
    steps: int
    rejected_steps: int
    newton_iterations: int
    clipped_mass: float

    @functools.cached_property
    def sup_u(self) -> np.ndarray:
        return _read_only(self.profiles.max(axis=1))

    @functools.cached_property
    def mass(self) -> np.ndarray:
        # row by row, bitwise the sum of run's drift check; the product
        # profiles @ vols is another BLAS call and rounds differently
        vols = self.grid.cell_weighted_volumes
        return _read_only(np.array([np.dot(u, vols) for u in self.profiles]))

    @functools.cached_property
    def support_radius(self) -> np.ndarray:
        u0, faces = self.profiles[0], self.grid.faces
        return _read_only(np.array([support_radius_of(u, u0, faces) for u in self.profiles]))

    @property
    def mass0(self) -> float:
        return float(self.mass[0])


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def support_radius_of(u: np.ndarray, u0: np.ndarray, faces: np.ndarray) -> float:
    """The numerical support radius of the cell averages ``u`` on the
    mesh with ``faces``: the outer face of the last cell above
    SUPPORT_THRESHOLD_REL times sup(u0), or 0 when no cell is."""
    above = np.flatnonzero(u > SUPPORT_THRESHOLD_REL * float(u0.max()))
    return float(faces[above[-1] + 1]) if above.size else 0.0


def initial_state(config: SolverConfig) -> tuple[RadialGrid, np.ndarray]:
    """The grid of ``config`` and the initial cell averages on it."""
    grid = make_grid(config.weight, config.eq.dim_n, config.r_max, config.n_cells)
    core = 1.0 - (grid.centers / config.bump_radius) ** 2
    u0 = config.bump_height * np.maximum(0.0, core)
    return grid, u0


class FluxRows(NamedTuple):
    """The rows ``_face_fluxes`` and ``_flux_derivatives`` write, one
    entry per face: du, ubar, k and flux as ``_face_fluxes`` describes,
    then a float scratch row and a bool mask row.  ``_flux_rows``
    makes rows of their own, ``over_bands`` the rows ``run`` lays over
    its workspace."""

    du: np.ndarray
    ubar: np.ndarray
    k: np.ndarray
    flux: np.ndarray
    scratch: np.ndarray
    mask: np.ndarray

    @classmethod
    def over_bands(cls, sub: np.ndarray, diag: np.ndarray, sup: np.ndarray,
                   scratch: np.ndarray, mask: np.ndarray) -> FluxRows:
        """The rows laid over a Newton iteration's own rows ``sub``,
        ``diag`` and ``sup``, each of which the iteration reads before
        it writes it: du and the flux on ``sub``, ubar on ``diag`` and k
        on ``sup``, which ``_flux_derivatives`` then overwrites with the
        bands.  Pass the very views the bands are written through:
        numpy copies an operand that is another view of an output's
        memory (``np.multiply`` 2.4 against 0.35 us at 170 floats)."""
        return cls(sub, diag, sup, sub, scratch, mask)


def _flux_rows(n_faces: int) -> FluxRows:
    """Six rows of their own on ``n_faces`` faces.  Every entry is
    written before it is read, so they start empty."""
    return FluxRows(*np.empty((5, n_faces)), np.empty(n_faces, dtype=bool))


#: the flux law's fixed scalars as 0-d operands, which a ufunc takes about
#: 0.2 us faster than a Python float (``**=`` keeps its Python-float
#: exponent: numpy's fast paths of ``x ** e`` need it)
_HALF, _ZERO = _read_only(np.array(0.5)), _read_only(np.array(0.0))


def _face_fluxes(u: np.ndarray, inv_dc: np.ndarray, w_dc: np.ndarray,
                 eq: EquationParams, rows: FluxRows) -> None:
    """Face fluxes F = w A(ubar) B(s) at the interior faces, with
    A = ubar^(m-1), B = |s|^(p-2) s and s the slope, written into
    ``rows`` of len(u) - 1 entries each: the differences du, the face
    mean ubar (clipped at 0), the frozen conductance k = w A |s|^(p-2) /
    dc and the flux F = k du, from which ``_flux_derivatives`` builds
    the Newton derivatives.  For m = 1, A = 1 and neither k nor those
    derivatives read ubar, so its row is not written.  |s|^(p-2) goes
    through scratch, and mask is scratch too.  du and flux may be one
    row: du is read last by F = k du, in place.
    ``w_dc`` is the constant face factor w / dc (``face_coeffs *
    inv_dc``), which is never written: p + m > 3 rules out (p, m) =
    (2, 1), so k always has a factor of its own.  A power with a scalar
    exponent is taken by ``**=`` on a row holding its base, which keeps
    numpy's fast paths of ``x ** e``: for e = 0.5 a square root, about
    40% cheaper than ``np.power`` into a row at 170 faces.

    For m < 1, A is singular at vanishing ubar, but the slope vanishes
    there too: A := 0 on empty faces, so the flux is 0 there.  At s = 0,
    |s|^(p-2) is infinite for p < 2 and set to 0; for p > 2 it is 0 and
    stays finite on finite data, so only p < 2 runs that mask.  Since
    p + m > 3, a face between two empty cells carries no flux and k = 0
    for every admissible (p, m): A = 0 there unless m = 1, and then
    p > 2.  Call under an ``np.errstate`` that
    ignores the division by zero of 0^(p-2) for p < 2, and the invalid
    values and overflow of a diverging Newton iterate; the caller holds
    it, since a step evaluates the fluxes several times.
    """
    du, ubar, k, flux, sp, mask = rows
    p, m = eq.p, eq.m
    right, left = u[1:], u[:-1]
    np.subtract(right, left, out=du)
    if m != 1.0:
        np.add(right, left, out=ubar)
        ubar *= _HALF
        np.maximum(ubar, _ZERO, out=ubar)
        if m == 2.0:
            np.multiply(w_dc, ubar, out=k)
        elif m > 1.0:
            k[...] = ubar
            k **= m - 1.0
            k *= w_dc
        else:
            np.greater(ubar, _ZERO, out=mask)
            k.fill(0.0)
            np.power(ubar, m - 1.0, out=k, where=mask)
            k *= w_dc
    if p != 2.0:
        np.multiply(du, inv_dc, out=sp)
        np.absolute(sp, out=sp)
        sp **= p - 2.0
        if p < 2.0:
            np.isfinite(sp, out=mask)
            np.logical_not(mask, out=mask)
            np.copyto(sp, _ZERO, where=mask)
        if m == 1.0:
            np.multiply(w_dc, sp, out=k)
        else:
            k *= sp
    np.multiply(k, du, out=flux)


def _flux_derivatives(rows: FluxRows, eq: EquationParams, gdt: float,
                      sub: np.ndarray, sup: np.ndarray) -> None:
    """Newton's flux bands from the ``rows`` ``_face_fluxes`` wrote: the
    derivatives (a, b) of the face fluxes with respect to the left and
    right cell value, a, b = A' B w / 2 -+ (p-1) k, with A' B w = (m-1)
    F / ubar, which is 0 for m = 1, where ubar is not read; written as
    a gdt into ``sub`` and b (-gdt) into ``sup``, the flux parts of the
    sub- and super-diagonal of J.  For m = 1 the two are -(p-1) k gdt
    bitwise, so one is built and copied.  The scratch and mask rows are
    scratch.  ``sub`` may be the flux row and ``sup`` the k row, as in
    ``run``: each is read before it is written.

    For m < 2, A' ~ ubar^(m-2) is unbounded as ubar -> 0+; on a face
    where the A' term overflows it is dropped, leaving a, b = -+ (p-1) k
    there, an inexact Newton step whose convergence is still judged on
    the residual.  On an empty face F = ubar = 0 and the term is 0.
    Call under an ``np.errstate`` that ignores the 0/0 and overflow.
    """
    _, ubar, conduct, flux, half, mask = rows
    p, m = eq.p, eq.m
    if m == 1.0:  # so p != 2
        np.multiply(conduct, p - 1.0, out=sub)
        sub *= -gdt
        sup[...] = sub
        return
    np.divide(flux, ubar, out=half)
    half *= 0.5 * (m - 1.0)
    np.isfinite(half, out=mask)
    np.logical_not(mask, out=mask)
    np.copyto(half, _ZERO, where=mask)
    grad = conduct if p == 2.0 else np.multiply(conduct, p - 1.0, out=sup)
    np.subtract(half, grad, out=sub)
    np.add(half, grad, out=sup)
    sub *= gdt
    sup *= -gdt


def _gershgorin_dt(conduct: np.ndarray, inv_vols: np.ndarray, p: float,
                   idle_dt: float) -> float:
    """CFL_SAFETY times the forward-Euler stable step for the frozen
    conductances ``conduct``; ``idle_dt`` when nothing flows.

    Stability: with face conductances c_f = max(p-1, 1) * k_f, where
    k_f = w_f A |s|^(p-2) / dc_f is the frozen conductance of
    ``_face_fluxes``, forward Euler on the frozen-coefficient operator
    is stable for dt <= 1 / max_i (sum of adjacent c_f / V_i)
    (Gershgorin).  In the unweighted uniform case this is the classical
    dr^2/(2 (p-1) D) rule, D = A |s|^(p-2); unlike that literal rule it
    also accounts for the face-to-volume weight ratio, which grows near
    r = 0 (curvature) and wherever e^g climbs across a cell.
    """
    rate = np.zeros_like(inv_vols)
    c_f = max(p - 1.0, 1.0) * conduct
    rate[:-1] += c_f * inv_vols[:-1]
    rate[1:] += c_f * inv_vols[1:]
    peak = rate.max()
    return CFL_SAFETY / peak if peak > 0.0 else idle_dt


def _thomas(sub: np.ndarray, diag: np.ndarray, sup: np.ndarray,
            rhs: np.ndarray) -> np.ndarray:
    """Solve the tridiagonal system with sub-diagonal ``sub`` (row i+1,
    column i), diagonal ``diag`` and super-diagonal ``sup`` by ``dgtsv``'s
    elimination without row interchanges, in its order of operations; a
    zero pivot raises ``ZeroDivisionError``.  Newton uses it only where
    ``_tridiagonal_solver`` finds no ``dgtsv``.  The solution is bitwise
    ``dgtsv``'s where ``dgtsv`` interchanges no rows, which the column
    diagonal dominance of Newton's J gives, and does not fuse
    multiply-adds, as numpy's bundled x86-64 build does not; a build that
    fuses them (aarch64, say) may differ at roundoff.  A Python loop over lists of
    floats beats numpy's per-call overhead at these sizes."""
    d, b, du = diag.tolist(), rhs.tolist(), sup.tolist()
    for i, (lo, up) in enumerate(zip(sub.tolist(), du)):
        fact = lo / d[i]
        d[i + 1] -= fact * up
        b[i + 1] -= fact * b[i]
    b[-1] /= d[-1]
    for i in range(len(du) - 1, -1, -1):
        b[i] = (b[i] - du[i] * b[i + 1]) / d[i]
    return np.array(b)


def _bind_thomas(sub: np.ndarray, diag: np.ndarray, sup: np.ndarray,
                 rhs: np.ndarray):
    """``_thomas`` bound as ``_tridiagonal_solver`` binds ``dgtsv``: a
    function of ``rows`` that solves the leading rows of the bands into
    ``rhs[:rows]``."""
    def solve(rows: int) -> None:
        rhs[:rows] = _thomas(sub[:rows - 1], diag[:rows], sup[:rows - 1], rhs[:rows])

    return solve


@functools.cache
def _tridiagonal_solver():
    """The tridiagonal solve of Newton's step, as a binding: given 1-D
    arrays for the sub-diagonal, diagonal, super-diagonal and right side
    of the largest system, ``bind(sub, diag, sup, rhs)`` returns a
    function of ``rows`` that solves the system on the leading ``rows``
    rows in ``_thomas``'s order, overwriting the four arrays there and
    leaving the solution in ``rhs[:rows]``, and raises
    ``ZeroDivisionError`` on an exactly zero pivot.  ``run`` binds once
    per run, to rows of its workspace.

    It is LAPACK's ``dgtsv`` (Gaussian elimination with partial
    pivoting) from the scipy-openblas64 library that numpy's Linux
    wheels bundle in ``numpy.libs`` and have already loaded, called
    through ctypes: about 4 µs on 170 rows, where marshalling the four
    arrays on every call took 7.5 µs, against 50-90 µs for the
    ``_thomas`` sweep.  That library's LAPACK takes 64-bit integers
    (ILP64) and is exported as ``scipy_dgtsv_64_``; only that spelling
    is looked up, since a guessed symbol with 32-bit integers would
    corrupt memory silently.  Where it is not found (numpy from conda
    or a Linux distribution, or a macOS wheel) the binding is
    ``_bind_thomas``, which gives the same solutions bitwise on Newton's
    systems.  LAPACK trusts the addresses and sizes it is given, so
    binding checks that the arrays are writable C-contiguous float64 and
    that the bands fit ``rhs.size`` rows, and each solve checks its row
    count against that capacity: a mismatch raises instead of letting
    LAPACK write past an array.  ``dgtsv`` gets bare addresses, so the
    binding holds the arrays and the ctypes integers behind them for as
    long as it lives.  Resolved on the first call, so importing the
    package does not pay for it.
    """
    lib_dir = Path(np.__file__).parents[1] / "numpy.libs"
    libs = sorted(lib_dir.glob("libscipy_openblas64_*.so"))
    try:
        dgtsv = ctypes.CDLL(str(libs[0])).scipy_dgtsv_64_
    except (IndexError, OSError, AttributeError):
        return _bind_thomas
    # (n, nrhs, dl, d, du, b, ldb, info), all by address
    dgtsv.argtypes = [ctypes.c_void_p] * 8
    dgtsv.restype = None

    def bind(sub: np.ndarray, diag: np.ndarray, sup: np.ndarray, rhs: np.ndarray):
        capacity = rhs.size
        bands = (sub, diag, sup, rhs)
        if not (diag.size == capacity and min(sub.size, sup.size) >= capacity - 1
                and all(x.dtype == np.float64 for x in bands)):
            raise ValueError(f"dgtsv: bands do not fit {capacity} float64 rows")
        if not all(x.flags.c_contiguous and x.flags.writeable for x in bands):
            raise TypeError("dgtsv: bands must be writable C-contiguous arrays")
        n, one, info = ctypes.c_int64(), ctypes.c_int64(1), ctypes.c_int64()
        args = (ctypes.addressof(n), ctypes.addressof(one),
                *(x.ctypes.data for x in bands), ctypes.addressof(n), ctypes.addressof(info))

        def solve(rows: int) -> None:
            if not 0 < rows <= capacity:
                raise ValueError(f"dgtsv: {rows} rows do not fit the {capacity} bound")
            n.value = rows
            dgtsv(*args)
            if info.value > 0:
                raise ZeroDivisionError(f"dgtsv: zero pivot in row {info.value}")
            if info.value < 0:
                raise RuntimeError(f"dgtsv: argument {-info.value} is invalid")

        solve.held = (one, bands)  # what args points into besides n and info
        return solve

    return bind


def _window(reach: int, n_cells: int) -> int:
    """End of the cells a BDF step works on, given ``reach``: one past
    the last cell the last five levels ever made nonzero.  A face
    between two empty cells carries no flux and no derivative (see
    ``_face_fluxes``), so the first step's start along the initial
    slope and each Newton solve move the support out by at most one
    cell: past reach + NEWTON_MAX_ITER every cell stays exactly 0, and
    the window's right edge is a true zero-flux face."""
    return min(n_cells, reach + NEWTON_MAX_ITER + 2)


def _bdf_weights(steps: Sequence[float]) -> tuple[float, list[float], list[float]]:
    """Scalar weights of one variable-step BDF step to t_(n+1) from the
    levels u^n, u^(n-1), ... held, given one step per level: ``steps`` =
    [t_(n+1) - t_n, t_n - t_(n-1), ...].  Returns (gdt, c, e).

    The step has order k = min(4, levels).  With l_j the Lagrange basis
    on t_(n+1), t_n, ..., t_(n+1-k), gdt = 1/l_0' and c_j = -l_j'/l_0'
    at t_(n+1), so the step solves u - sum_j c_j u^(n-j) = gdt du/dt,
    and the c_j sum to 1.  For j >= 1, l_j'(t_(n+1)) = -e~_j / s_j, with
    s_j = t_(n+1) - t_(n+1-j) and e~ the extrapolation weights through
    the k levels, and l_0' = -sum_j l_j'.  e are the extrapolation
    weights through the last min(5, levels) levels: the Newton start.

    The extrapolation weights through the levels s_1, ..., s_L are
    e_j = prod_(i != j) s_i / (s_i - s_j), multiplied in order of i.
    Each level added multiplies every e_j by its own factor and brings
    its own product, so they are built level by level in straight
    lines, bitwise those of the loop over the products in a third of
    its time: through the first four levels for gdt and c, then with a
    fifth level, if held, for e.  A level not held enters gdt with the
    weight 0, which leaves the sum unchanged.
    """
    levels = len(steps)
    s1 = steps[0]
    s2 = s3 = s4 = 1.0
    e1, e2, e3, e4 = 1.0, 0.0, 0.0, 0.0
    if levels > 1:
        s2 = s1 + steps[1]
        e1, e2 = s2 / (s2 - s1), s1 / (s1 - s2)
    if levels > 2:
        s3 = s2 + steps[2]
        e1, e2, e3 = (e1 * (s3 / (s3 - s1)), e2 * (s3 / (s3 - s2)),
                      s1 / (s1 - s3) * (s2 / (s2 - s3)))
    if levels > 3:
        s4 = s3 + steps[3]
        e1, e2, e3, e4 = (e1 * (s4 / (s4 - s1)), e2 * (s4 / (s4 - s2)), e3 * (s4 / (s4 - s3)),
                          s1 / (s1 - s4) * (s2 / (s2 - s4)) * (s3 / (s3 - s4)))
    d1, d2, d3, d4 = e1 / s1, e2 / s2, e3 / s3, e4 / s4
    gdt = 1.0 / sum((d1, d2, d3, d4))
    c, e = [gdt * d1, gdt * d2, gdt * d3, gdt * d4], [e1, e2, e3, e4]
    if levels < 5:
        return gdt, c[:levels], e[:levels]
    s5 = s4 + steps[4]
    return gdt, c, [e1 * (s5 / (s5 - s1)), e2 * (s5 / (s5 - s2)), e3 * (s5 / (s5 - s3)),
                    e4 * (s5 / (s5 - s4)),
                    s1 / (s1 - s5) * (s2 / (s2 - s5)) * (s3 / (s3 - s5)) * (s4 / (s4 - s5))]


def run(config: SolverConfig) -> Trajectory:
    """Integrate to the last output time by variable-step BDF, storing
    the cell averages and the last step at each output time, each step
    shortened to end exactly at the next output time if it would pass
    it.  Raises if the support (``support_radius_of``) reaches the outer
    boundary or the weighted mass drifts beyond MASS_DRIFT_TOL relative.

    The step's order is min(4, levels held): backward Euler, BDF2 and
    BDF3 for the first three steps, then BDF4.  Each step solves

        R(u) = V (u - u~) - gdt div F(u) = 0,  u~ = sum_j c_j u^(n-j),

    with the scalar weights gdt and c_j of ``_bdf_weights`` at the
    unequal steps, by Newton's method on the tridiagonal flux Jacobian
    J.  Newton starts from the extrapolation through the last five
    levels (through all levels held while fewer exist, and on the first
    step from the explicit Euler step u^0 + dt V^-1 div F(u^0)) and
    stops once |R(u)|_1 <= NEWTON_KAPPA * BDF_TOL * mass; it builds the
    flux derivatives and J only when it is about to solve.  The columns of
    J = V - gdt d(div F)/du sum to the cell volumes, so for an M-matrix
    J (the frozen-conductance matrix exactly) |V J^-1 R|_1 <= |R|_1:
    the residual bounds the weighted update the next solve would make.
    NEWTON_MAX_ITER caps the solves.  The c_j sum to 1, div F telescopes
    and the flux part of J has zero column sums, so every update keeps
    the weighted mass of u~, which is that of u^n.  Where the mobility
    derivative overflows at the front (m < 2), J drops it face by face
    (see ``_flux_derivatives``).  When Newton yields a non-finite value
    or does not converge, the step is rejected at a fifth of its size;
    after MAX_NEWTON_FAILURES such rejections before the next output
    time the run raises ``StiffnessError``.

    Window: the solution is exactly 0 beyond its support, so each step
    works on the leading cells ``[:_window(reach, n)]`` only, where
    ``reach`` is one past the last cell any of the last five levels ever
    made nonzero: start, residual, Jacobian, tridiagonal solve, error
    estimate and clipping all run on that slice, and the accepted slice
    is written into the levels.

    Workspace: the five levels and the step's own arrays (residual and
    right side, the three bands, start, Newton iterate, u~ and a
    scratch row) are the rows of one array allocated once per run, and
    a step writes them in place.  The flux law writes into rows of it
    too (``FluxRows.over_bands``), each a row that a Newton iteration
    overwrites only after reading the flux law's values, so it adds
    only a bool mask; ``_flux_derivatives`` writes the flux parts of
    the bands over the flux and k.  A Newton iteration allocates no
    array, a step attempt only the arrays ``np.matmul`` makes of the
    BDF weight lists, and an accepted step the index arrays of the
    support search and of the clipping.  The views of the window are
    built again only when the window moves or a level is added, and the
    tridiagonal solve is bound to the band rows once per run (see
    ``_tridiagonal_solver``).  The start and u~ are one ``np.matmul``
    each, which reads the strided level rows in place where ``np.dot``
    copied them first (the same values bitwise).  One ``np.errstate``
    covers the initial slope and the whole integration loop: the fluxes,
    evaluated once per step attempt, once per Newton solve and once for
    the slope, enter none of their own.

    Step control: the Milne estimate on the Newton start,
    err = 12/137 |V (u - start)|_1 / mass, where 12/137 = C / (1 + C)
    for C = 12/125, the error constant of constant-step BDF4 against
    that of the quartic extrapolation.  The sum runs in cell order
    (``np.add.accumulate``), so trailing zero cells leave err bitwise
    unchanged and the window does not move the step controller.  While
    fewer than five levels exist the start is one order short of the
    step, so err overstates the error.  On the first step the explicit
    Euler start makes err O(dt^2); from the constant start u^0 it was
    O(dt), and nine rejections cut the Gershgorin step about 6e4-fold.
    A step with err > BDF_TOL is rejected.  The next step wanted is
    dt * 0.7 (BDF_TOL/err)^(1/5), the factor clipped to [0.2,
    RATIO_MAX], and every step taken is at most RATIO_MAX times the one
    before, also the first step after a landing: variable-step BDF is
    zero-stable only under a step-ratio bound that tightens with the
    order.  A step shortened to land on an output time or by the ratio
    cap keeps the step the controller wants.  When less than two
    allowed steps remain, the rest is split in halves, so no landing
    step is a sliver (without the split, the ratio after a landing
    reached 523 under BDF2 on the 800-cell power-weight run).  The
    first step tries the Gershgorin step (see ``_gershgorin_dt``),
    which scales like the data, so runs commute with the equation's
    scaling.
    """
    grid, u0 = initial_state(config)
    outs = np.asarray(sorted(config.output_times), dtype=float)
    eq = config.eq
    t_last = float(outs[-1])
    t_floor = 1e-15 * t_last
    n_cells = grid.n_cells
    vols = grid.cell_weighted_volumes
    boundary_face = grid.faces[-1]
    inv_dc = 1.0 / np.diff(grid.centers)
    w_dc = grid.face_coeffs * inv_dc
    mass0 = float(np.dot(u0, vols))
    # the workspace: rows 0-4 are the levels u^n, u^(n-1), ..., u^(n-4)
    # (len(steps) + 1 held), the rest the step's own arrays
    work = np.zeros((13, n_cells))
    lev = work[:5]
    lev[0] = u0
    resid_row, sub_row, diag_row, sup_row, start_row, u_row, tilde_row, scratch_row = work[5:]
    mask_row = np.empty(n_cells - 1, dtype=bool)
    solve = _tridiagonal_solver()(sub_row, diag_row, sup_row, resid_row)
    steps: list[float] = []  # the steps that ended at u^n, ..., u^(n-3)
    reach = int(np.flatnonzero(u0)[-1]) + 1
    t, dt = 0.0, math.nan  # dt: the last step taken
    n_steps = rejected = newton_iterations = 0
    clipped_mass = 0.0
    times = np.concatenate(([0.0], outs))  # t lands on each output exactly
    profiles = np.empty((times.size, n_cells))
    dts = np.empty(times.size)
    viewed = None  # (window end, steps held) the window's views were built for

    def converge(gdt: float) -> bool:
        # in place on the window: u -> root of R; False when Newton
        # fails.  The cap counts solves; the residual after the last
        # one still counts.  The window's views are run's names, so
        # they are written through out= (an augmented assignment would
        # make them local here).
        nonlocal newton_iterations
        tol = NEWTON_KAPPA * BDF_TOL * mass0
        solves = NEWTON_MAX_ITER
        while True:
            _face_fluxes(u, idc, w, eq, rows)
            np.subtract(u, tilde, out=resid)
            np.multiply(resid, vol, out=resid)
            np.multiply(flux, gdt, out=gflux)
            np.subtract(resid_lo, gflux, out=resid_lo)
            np.add(resid_hi, gflux, out=resid_hi)
            np.abs(resid, out=scratch)
            norm = float(np.add.reduce(scratch))
            if not math.isfinite(norm):
                return False
            if norm <= tol:
                return True
            if solves == 0:
                return False
            solves -= 1
            _flux_derivatives(rows, eq, gdt, sub, sup)
            diag[...] = vol
            np.subtract(diag_lo, sub, out=diag_lo)
            np.subtract(diag_hi, sup, out=diag_hi)
            try:  # overwrites the bands and leaves the update in resid
                solve(hi)
            except ZeroDivisionError:
                return False
            np.subtract(u, resid, out=u)
            newton_iterations += 1

    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        rows = FluxRows.over_bands(sub_row[:-1], diag_row[:-1], sup_row[:-1],
                                   scratch_row[:-1], mask_row)
        _face_fluxes(u0, inv_dc, w_dc, eq, rows)
        conduct, flux = rows.k, rows.flux
        slope0 = np.zeros(n_cells)  # V^-1 div F(u^0)
        slope0[:-1] += flux
        slope0[1:] -= flux
        np.divide(slope0, vols, out=slope0)
        dt_want = _gershgorin_dt(conduct, 1.0 / vols, eq.p, 1e-3 * t_last)
        for i, t_out in enumerate(times.tolist()):  # row 0 stores u0
            failures = 0  # Newton failures since the last output time
            while t < t_out:
                hi = _window(reach, n_cells)
                if viewed != (hi, len(steps)):
                    # about once in 9 steps on the 800-cell power-weight run
                    viewed = hi, len(steps)
                    levels = lev[:len(steps) + 1, :hi]
                    bdf_levels = levels[:4]
                    # row by row from the oldest, so no row is written before
                    # it is read (one overlapping copy would go through a temporary)
                    shifts = [(lev[j, :hi], lev[j - 1, :hi]) for j in (4, 3, 2, 1)]
                    u_new = lev[0, :hi]
                    vol, w, idc = vols[:hi], w_dc[:hi - 1], inv_dc[:hi - 1]
                    start, u, tilde = start_row[:hi], u_row[:hi], tilde_row[:hi]
                    resid, scratch, gflux = resid_row[:hi], scratch_row[:hi], scratch_row[:hi - 1]
                    resid_lo, resid_hi = resid[:-1], resid[1:]
                    sub, diag, sup = sub_row[:hi - 1], diag_row[:hi], sup_row[:hi - 1]
                    diag_lo, diag_hi = diag[:-1], diag[1:]
                    # |s|^(p-2) in the scratch row, which gdt F takes next
                    rows = FluxRows.over_bands(sub, diag_lo, sup, gflux, mask_row[:hi - 1])
                    flux = rows.flux
                while True:
                    if dt_want < t_floor:
                        raise StiffnessError(
                            f"step {dt_want:.3e} underflowed at t={t:.6g}; "
                            "coarsen the grid or change parameters"
                        )
                    dt = min(dt_want, RATIO_MAX * steps[0]) if steps else dt_want
                    remaining = t_out - t
                    landing = dt >= remaining
                    dt = remaining if landing else min(dt, 0.5 * remaining)
                    gdt, c, e = _bdf_weights([dt] + steps)
                    np.matmul(e, levels, out=start)
                    if not steps:
                        start += dt * slope0[:hi]
                    u[...] = start
                    np.matmul(c, bdf_levels, out=tilde)
                    if not converge(gdt):
                        rejected += 1
                        failures += 1
                        if failures > MAX_NEWTON_FAILURES:
                            raise StiffnessError(
                                f"Newton failed {failures} times before the output time "
                                f"{t_out:.6g}: at t={t:.6g} with dt={dt:.3e}, "
                                f"after {rejected} rejected steps"
                            )
                        dt_want = 0.2 * dt
                        continue
                    np.subtract(u, start, out=scratch)
                    np.abs(scratch, out=scratch)
                    scratch *= vol
                    change = np.add.accumulate(scratch, out=scratch)[-1]  # in cell order
                    err = 12.0 / 137.0 * float(change) / mass0
                    fac = RATIO_MAX if err == 0.0 else min(RATIO_MAX, max(0.2, 0.7 * (BDF_TOL / err) ** 0.2))
                    if err > BDF_TOL:
                        rejected += 1
                        dt_want = dt * fac
                        continue
                    break
                dt_want = max(dt_want, dt * fac) if dt < dt_want else dt * fac
                if np.minimum.reduce(u) < 0.0:
                    neg = np.flatnonzero(u < 0.0)
                    clipped_mass += float(-np.dot(u[neg], vols[neg]))
                    u[neg] = 0.0
                nonzero = u[reach:].nonzero()[0]
                if nonzero.size:
                    reach += int(nonzero[-1]) + 1
                for older, newer in shifts:
                    older[...] = newer
                u_new[...] = u
                steps = [dt] + steps[:3]
                t = t_out if landing else t + dt
                n_steps += 1
            profiles[i], dts[i] = lev[0], dt
            if support_radius_of(lev[0], u0, grid.faces) >= boundary_face:
                raise SupportBoundaryError(
                    f"numerical support reached r_max={boundary_face:g} at t={t:g}; "
                    "enlarge r_max"
                )
            drift = abs(float(np.dot(lev[0], vols)) / mass0 - 1.0)
            if drift > MASS_DRIFT_TOL:
                raise MassConservationError(
                    f"relative mass drift {drift:.3e} exceeds {MASS_DRIFT_TOL:g} "
                    f"at t={t:g}"
                )
    return Trajectory(
        times=times, profiles=_read_only(profiles), dt_last=dts, grid=grid,
        config=config, steps=n_steps, rejected_steps=rejected,
        newton_iterations=newton_iterations, clipped_mass=clipped_mass,
    )


# ---------------------------------------------------------------------------
# rate fitting


@dataclass(frozen=True)
class FitReport:
    slope: float
    target_slope: float
    window: tuple[float, float]
    n_points: int
    c_fit: float | None = None
    band_max: float | None = None
    band_min: float | None = None

    @property
    def band_ratio(self) -> float:
        return self.band_max / self.band_min if self.band_min > 0 else math.inf


def line_slope(x: np.ndarray, y: np.ndarray) -> float:
    """Least-squares slope of y against x, from the centred data:
    sum(dx dy) / sum(dx^2).  The first ``np.polyfit`` of a process, a
    LAPACK least-squares solve, adds about 1 MB to its peak memory."""
    dx = x - x.mean()
    return float(np.dot(dx, y - y.mean()) / np.dot(dx, dx))


def _last_decade(t: np.ndarray) -> np.ndarray:
    """Mask of the last decade of the times ``t``, which every fit reads;
    refused with fewer than MIN_FIT_SAMPLES in it."""
    last = t >= t[-1] / 10.0
    if np.count_nonzero(last) < MIN_FIT_SAMPLES:
        raise FitRefusedError(f"too few samples in the last decade "
                              f"({np.count_nonzero(last)} < {MIN_FIT_SAMPLES})")
    return last


def fit_rates(traj: Trajectory, model: str) -> FitReport:
    """Fit a trajectory against the law predicted for its own weight and
    equation; slopes are least-squares fits (``line_slope``).

    sup power-law model (unweighted run only): regress log sup(u)
    against log t over the last decade; the slope approaches the
    Barenblatt exponent -N/(N(p+m-3)+p), with no prefactor or band.
    support model (weighted run only, as the sup model): regress log R
    against log log(e + t * M^(p+m-3)) over the last two decades of the
    large-time window; the slope approaches 1/alpha for power-like
    weights, and the prefactor and its band come from the last decade.
    sup model: form the ratio sup(t) / envelope(t) with unit prefactor
    over the last decade and report its max/min band (the theory
    asserts boundedness, not a value) and the slope of its log against
    log t.  Refused with ``FitRefusedError`` for the other kind of
    weight, and when fewer than MIN_FIT_SAMPLES output times fall in
    the large-time window or in the last decade.
    """
    if model not in (SUP_ENVELOPE, SUPPORT_ENVELOPE, SUP_POWER_LAW):
        raise InvalidParameterError(f"unknown fit model {model!r}")
    eq, weight = traj.config.eq, traj.config.weight
    if model == SUP_POWER_LAW:
        if weight.is_weighted:
            raise FitRefusedError("the Barenblatt power law is undefined with a weight")
        t = traj.times[1:]
        last = _last_decade(t)
        return FitReport(
            slope=line_slope(np.log(t[last]), np.log(traj.sup_u[1:][last])),
            target_slope=-eq.dim_n / (eq.dim_n * eq.kappa + eq.p),
            window=(float(t[last][0]), float(t[-1])), n_points=int(np.count_nonzero(last)))
    if not weight.is_weighted:
        raise FitRefusedError("envelope fits are undefined without a weight")
    par = env_mod.EnvelopeParams(eq=eq, weight=weight, mass0=traj.mass0)
    idx = np.flatnonzero(par.large_time(traj.times))
    if idx.size < MIN_FIT_SAMPLES:
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
    last = _last_decade(t)
    log_arg = np.log(math.e + par.log_arg(t))

    if model == SUPPORT_ENVELOPE:
        radius = traj.support_radius[idx]
        if np.any(radius <= 0):
            raise FitRefusedError("support radius vanished inside the fit window")
        x = np.log(log_arg)
        y = np.log(radius)
        slope = line_slope(x, y)
        c_series = radius / env_mod.support_envelope(par, t)
        c_last = c_series[last]
        c_fit = float(np.exp(np.mean(np.log(c_last))))
        target = 1.0 / weight.alpha1 if weight.alpha1 == weight.alpha2 else math.nan
        return FitReport(
            slope=slope, target_slope=target, c_fit=c_fit,
            band_max=float(c_last.max()), band_min=float(c_last.min()),
            window=(float(t[0]), float(t[-1])), n_points=int(idx.size),
        )

    ratio = traj.sup_u[idx] / env_mod.sup_envelope(par, t)
    r_last = ratio[last]
    slope = line_slope(np.log(t[last]), np.log(r_last))
    c_fit = float(np.exp(np.mean(np.log(r_last))))
    return FitReport(
        slope=slope, target_slope=0.0, c_fit=c_fit,
        band_max=float(r_last.max()), band_min=float(r_last.min()),
        window=(float(t[last][0]), float(t[-1])), n_points=int(r_last.size),
    )
