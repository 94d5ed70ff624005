"""Radial solver: conservation, positivity, calibration, fits."""

import itertools
import math
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from expdiff import solver as S
from expdiff import weights as W
from expdiff.errors import (
    FitRefusedError,
    InvalidParameterError,
    MassConservationError,
    StiffnessError,
    SupportBoundaryError,
)
from explicit_oracle import advance


@pytest.fixture(scope="module")
def eq_ref():
    return W.EquationParams(3, 2.0, 2.0)


@pytest.fixture(scope="module")
def w_half():
    return W.make_power_weight(0.5)


def quick_config(t_end=10.0, **kw):
    """A small power-weight run; unless given, its output times are 61
    over four decades ending at t_end."""
    defaults = dict(eq=W.EquationParams(3, 2.0, 2.0),
                    weight=W.make_power_weight(0.5), r_max=40.0, n_cells=200,
                    output_times=np.geomspace(t_end * 10.0 ** (-4.0), t_end, 61))
    defaults.update(kw)
    return S.SolverConfig(**defaults)


def uneven_steps():
    """40 runs of five steps, spread over nine decades, each step 0.2 to
    2 times the one after it."""
    rng = np.random.default_rng(5)
    for _ in range(40):
        steps = [10.0 ** rng.uniform(-6.0, 3.0)]
        for _ in range(4):
            steps.append(steps[-1] / rng.uniform(0.2, 2.0))
        yield steps


def extrapolation_weights(back):
    """Weights of the value at t_(n+1) of the polynomial through the
    levels that lie ``back`` = [s_1, s_2, ...] before it (distinct s_j):
    e_j = prod_(i != j) s_i / (s_i - s_j), multiplied left to right in
    order of i; they sum to 1.  The loop form of the solver's BDF weights
    (``S._bdf_weights``) and their reference."""
    weights = []
    for sj in back:
        w = 1.0
        for si in back:
            if si != sj:
                w *= si / (si - sj)
        weights.append(w)
    return weights


def array_face_fluxes(u, inv_dc, w_dc, eq):
    """The flux law as it returned fresh arrays (flux, k, ubar), ubar None
    for m = 1: the reference of ``S._face_fluxes``."""
    p, m = eq.p, eq.m
    du = u[1:] - u[:-1]
    k = w_dc
    ubar = None
    if m != 1.0:
        ubar = u[1:] + u[:-1]
        ubar *= 0.5
        np.maximum(ubar, 0.0, out=ubar)
        if m == 2.0:
            k = k * ubar
        elif m > 1.0:
            k = k * ubar ** (m - 1.0)
        else:
            k = k * np.power(ubar, m - 1.0, out=np.zeros_like(ubar), where=ubar > 0.0)
    if p != 2.0:
        sp = np.abs(du * inv_dc) ** (p - 2.0)
        if p < 2.0:
            sp[~np.isfinite(sp)] = 0.0
        k = k * sp
    return k * du, k, ubar


def array_flux_derivatives(flux, conduct, ubar, eq):
    """The flux derivatives (a, b) as fresh arrays: the reference of
    ``S._flux_derivatives``, which writes a gdt and b (-gdt)."""
    grad = conduct if eq.p == 2.0 else (eq.p - 1.0) * conduct
    if eq.m == 1.0:
        return -grad, grad
    half = flux / ubar
    half *= 0.5 * (eq.m - 1.0)
    half[~np.isfinite(half)] = 0.0
    return half - grad, half + grad


def solve_once(bind, sub, diag, sup, rhs):
    """The solution of one tridiagonal system by a binding of
    ``_tridiagonal_solver``'s kind, bound to copies of the arrays, which
    the solve overwrites."""
    sub, diag, sup, rhs = (np.array(x, dtype=float) for x in (sub, diag, sup, rhs))
    bind(sub, diag, sup, rhs)(rhs.size)
    return rhs


@pytest.fixture(params=["dgtsv", "thomas"])
def tridiagonal(request):
    # the solve Newton uses (dgtsv wherever numpy bundles it) and the
    # Python sweep, each as a function of (sub, diag, sup, rhs)
    bind = S._tridiagonal_solver() if request.param == "dgtsv" else S._bind_thomas
    return lambda *arrays: solve_once(bind, *arrays)


@pytest.fixture(scope="module")
def quick_traj():
    return S.run(quick_config(output_times=np.geomspace(0.01, 100.0, 25)))


class TestImplicitIntegrator:
    def test_matches_explicit_oracle(self, quick_traj):
        # The explicit update is first order in time: at safety 0.4 its own
        # sup(u) error here is 1.2e-2 relative near t = 0.1 and 2.4e-3 at
        # t_end, halving with the safety factor.  So the oracle is the
        # Richardson extrapolation 2 u(0.1) - u(0.2) of two explicit runs.
        # Measured: sup(u) within 1.2e-4 relative at every output and
        # 2.9e-7 at t_end; support equal.  (BDF3 read 2.4e-6 at t_end; BDF2
        # read 1.04e-3 at t < 0.1, from its first backward Euler step, taken
        # at the Gershgorin step without an error estimate, and 8.7e-6 at
        # t_end.)
        cfg = quick_traj.config
        sups, supports = {}, {}
        for safety in (0.2, 0.1):
            grid, u = S.initial_state(cfg)
            u0 = u.copy()
            t, rows = 0.0, []
            for t_out in cfg.output_times:
                t, _ = advance(grid, u, t, cfg, t_out, safety)
                rows.append((u.max(), S.support_radius_of(u, u0, grid.faces)))
            sups[safety], supports[safety] = np.array(rows).T
        oracle = 2.0 * sups[0.1] - sups[0.2]
        rel = np.abs(quick_traj.sup_u[1:] / oracle - 1.0)
        assert rel.max() <= 2e-3
        assert rel[-1] <= 2e-5
        one_cell = cfg.r_max / cfg.n_cells
        assert np.abs(quick_traj.support_radius[1:] - supports[0.1]).max() <= one_cell + 1e-12

    def test_solver_counts(self, quick_traj):
        assert quick_traj.steps > 0
        # Newton stops at NEWTON_KAPPA BDF_TOL mass, so this holds at a tight
        # BDF_TOL too: 1,608 solves in 1,601 steps at 1e-10 (stopped at a
        # fixed 1e-10 mass, a step's quartic start often met the stop:
        # 1,520 solves in 1,647 steps)
        assert quick_traj.newton_iterations >= quick_traj.steps
        # residual stop and quartic start: measured 385 Newton solves in 380
        # steps (BDF3: 589 in 585; BDF2: 1,568 in 1,562; the explicit oracle
        # takes 609 steps)
        assert quick_traj.newton_iterations <= 1.2 * quick_traj.steps
        assert quick_traj.steps <= 1.1 * 380
        assert quick_traj.clipped_mass == 0.0
        # dt_last is the last accepted step, shortened to land on the output
        assert np.all(quick_traj.dt_last[1:] > 0)
        assert np.all(quick_traj.dt_last[2:] <= np.diff(quick_traj.times[1:]) * (1 + 1e-12))

    def test_quartic_start_counts(self, weighted_traj):
        # the 800-cell power-weight run over 8 decades: measured 2,844 Newton
        # solves in 2,840 steps (BDF3 from its cubic start: 3,606 in 3,576;
        # BDF2 from its quadratic start: 5,681 in 4,739; both with Newton
        # stopped at 1e-10 mass)
        assert weighted_traj.newton_iterations <= 1.3 * weighted_traj.steps

    def test_step_ratio_bounded(self, quick_traj, weighted_traj, monkeypatch):
        # variable-step BDF4 is zero-stable only under a step-ratio bound:
        # every step tried, also the first after a landing, is at most
        # RATIO_MAX times the one before (BDF3 with its growth clip of 2
        # read 2.000 here, with 33 and 382 ratios above 1.2)
        bdf_weights = S._bdf_weights
        ratios = []

        def spy(steps):
            if len(steps) > 1:
                ratios.append(steps[0] / steps[1])
            return bdf_weights(steps)

        monkeypatch.setattr(S, "_bdf_weights", spy)
        for traj in (quick_traj, weighted_traj):
            ratios.clear()
            assert S.run(traj.config).steps == traj.steps
            assert max(ratios) <= S.RATIO_MAX * (1 + 1e-12)

    def test_bdf_weights_exact(self):
        # at uneven nodes (step ratios in [0.2, 2]) the step's derivative
        # weights 1/gdt and -c_j/gdt are exact on polynomials of its order
        # min(4, levels), so they sum to 0 and the c_j to 1 (u~ keeps the
        # weighted mass of u^n), and the start's weights reproduce
        # polynomials of degree levels - 1 at t_(n+1) and sum to 1
        for steps in uneven_steps():
            for levels in range(1, 6):
                gdt, c, e = S._bdf_weights(steps[:levels])
                assert (len(c), len(e)) == (min(4, levels), levels)
                nodes = -np.cumsum(steps[:levels])  # t - t_(n+1) of u^n, u^(n-1), ...
                scale = -nodes[-1]
                for degree in range(levels):
                    poly = (nodes / scale) ** degree  # values of (t - t_(n+1))^degree
                    assert np.dot(e, poly) == pytest.approx(float(degree == 0), abs=1e-12)
                for degree in range(min(4, levels) + 1):
                    poly = (nodes[:len(c)] / scale) ** degree
                    slope = (float(degree == 0) - np.dot(c, poly)) * scale / gdt
                    assert slope == pytest.approx(float(degree == 1), abs=1e-9)

    def test_bdf_weights_one_pass(self):
        # the straight-line weights are bitwise those of the loop form: c
        # and gdt from the extrapolation weights through four levels, e
        # through five; also on 2,000 histories whose step ratios lie in
        # the controller's [0.2, RATIO_MAX] (repr tells every float apart)
        rng = np.random.default_rng(8)
        histories = list(uneven_steps())
        for _ in range(2000):
            steps = [10.0 ** rng.uniform(-9.0, 3.0)]
            for ratio in rng.uniform(0.2, S.RATIO_MAX, 4):
                steps.append(steps[-1] / ratio)
            histories.append(steps)
        for steps in histories:
            for levels in range(1, 6):
                back = list(itertools.accumulate(steps[:levels]))
                d = [w / s for w, s in zip(extrapolation_weights(back[:4]), back)]
                gdt = 1.0 / sum(d)
                assert repr(S._bdf_weights(steps[:levels])) == repr(
                    (gdt, [gdt * x for x in d], extrapolation_weights(back[:5])))

    @pytest.mark.parametrize("weight, eq", [
        (W.make_power_weight(0.5), W.EquationParams(3, 2.0, 2.0)),
        (W.make_zygmund_weight(0.6, 0.2, 2.0), W.EquationParams(3, 2.5, 1.0)),
        (W.make_power_weight(0.5), W.EquationParams(4, 3.0, 0.5)),
        (W.make_power_weight(0.5), W.EquationParams(3, 1.8, 1.5)),
    ], ids=["power-m2", "zygmund-plap", "power-m-half", "power-p-1.8"])
    def test_temporal_order(self, monkeypatch, weight, eq):
        # the sup(u) error at t_end against a run at BDF_TOL = 1e-10 falls
        # like steps^-q over BDF_TOL = 1e-6, 1e-7 and 1e-8.  Measured q =
        # 4.52 and 4.26 (power-m2: 299, 447 and 676 steps, errors 1.3e-6,
        # 2.1e-7 and 3.6e-8, reference 1,601 steps), 4.32 and 4.23
        # (zygmund-plap), 3.99 and 4.48 (power-m-half), 4.45 and 4.33
        # (power-p-1.8); BDF3 gave 3.08-3.20, a third-order step gives q = 3.
        # The reference's Newton stop tightens with its BDF_TOL: stopped at
        # a fixed 1e-9 mass, Newton noise kept its error estimate above
        # 1e-10 and its steps underflowed
        def run(tol):
            monkeypatch.setattr(S, "BDF_TOL", tol)
            return S.run(quick_config(t_end=100.0, weight=weight, eq=eq))

        ref = run(1e-10).sup_u[-1]
        trajs = [run(tol) for tol in (1e-6, 1e-7, 1e-8)]
        errs = [abs(traj.sup_u[-1] / ref - 1.0) for traj in trajs]
        for i in range(2):
            order = math.log(errs[i] / errs[i + 1]) / math.log(trajs[i + 1].steps / trajs[i].steps)
            assert order >= 3.7

    @pytest.mark.parametrize("dim_n, p, m", [(4, 3.0, 0.5), (4, 3.5, 0.3), (4, 2.5, 1.01)])
    def test_newton_converges_at_overflowing_mobility(self, monkeypatch, dim_n, p, m):
        # A' = (m-1) A / ubar overflows as ubar -> 0+ at the front; with the
        # term dropped on those faces Newton converges in about one solve
        # per step, where the full Jacobian failed on almost every step.
        # Measured: 190, 200 and 156 solves in 183, 194 and 149 steps; each
        # run's 6 or 7 extra solves are spent by the first step, whose four
        # rejections cut the Gershgorin step 130- to 140-fold.  A stop 1e4
        # times tighter takes 192, 203 and 158 solves, sup(u) within 9.5e-15
        def run():
            return S.run(S.SolverConfig(eq=W.EquationParams(dim_n, p, m),
                                        weight=W.make_power_weight(0.5), r_max=40.0,
                                        n_cells=200, output_times=[0.5]))
        traj = run()
        assert traj.steps <= traj.newton_iterations <= 1.05 * traj.steps
        assert traj.clipped_mass == 0.0
        monkeypatch.setattr(S, "NEWTON_KAPPA", 5e-7)
        tight = run()
        assert tight.newton_iterations > traj.newton_iterations
        assert np.abs(traj.sup_u[1:] / tight.sup_u[1:] - 1.0).max() <= 1e-8

    def test_window_matches_full_solve(self, tridiagonal):
        # the tridiagonal solve equals a dense solve; past a tail with zero
        # right-hand side and no coupling back its solution is exactly 0,
        # and the leading window alone gives the same values
        rng = np.random.default_rng(7)
        n = 12
        sub, sup = -rng.random(n - 1), -rng.random(n - 1)
        sub[7:] = 0.0
        diag = 3.0 + rng.random(n)
        rhs = np.zeros(n)
        rhs[:6] = rng.random(6)
        dense = np.diag(diag) + np.diag(sub, -1) + np.diag(sup, 1)
        x = tridiagonal(sub, diag, sup, rhs)
        assert np.all(x[8:] == 0.0)
        np.testing.assert_allclose(x, np.linalg.solve(dense, rhs), rtol=0, atol=1e-14)
        assert np.array_equal(tridiagonal(sub[:7], diag[:8], sup[:7], rhs[:8]), x[:8])
        sub[6:] = -rng.random(n - 7)  # coupling to the end: the whole system
        dense = np.diag(diag) + np.diag(sub, -1) + np.diag(sup, 1)
        np.testing.assert_allclose(tridiagonal(sub, diag, sup, rhs),
                                   np.linalg.solve(dense, rhs), rtol=0, atol=1e-14)
        # on column diagonally dominant systems, as Newton's J, dgtsv
        # interchanges no rows and the sweep gives its solution bitwise
        dgtsv = S._tridiagonal_solver()
        if dgtsv is S._bind_thomas:
            pytest.skip("numpy bundles no scipy-openblas64 here")
        for rows in rng.integers(2, 200, 50):
            sub, sup, rhs = (rng.standard_normal(size) for size in (rows - 1, rows - 1, rows))
            diag = np.abs(np.append(sub, 0.0)) + np.abs(np.insert(sup, 0, 0.0)) + rng.random(rows)
            diag *= rng.choice([-1.0, 1.0], rows)
            assert np.array_equal(tridiagonal(sub, diag, sup, rhs),
                                  solve_once(dgtsv, sub, diag, sup, rhs))

    def test_residual_bounds_update(self, tridiagonal):
        # Newton stops on |R|_1 <= NEWTON_KAPPA BDF_TOL mass: for an
        # M-matrix J whose columns sum to the cell volumes V,
        # |V J^-1 R|_1 <= |R|_1, so the residual bounds the update that the
        # step would still make
        def assert_bounded(vols, a, b, rhs):
            diag = vols.copy()
            diag[:-1] -= a
            diag[1:] += b
            delta = tridiagonal(a, diag, -b, rhs)
            assert np.dot(vols, np.abs(delta)) <= np.abs(rhs).sum() * (1 + 1e-12)

        rng = np.random.default_rng(11)
        n = 40
        vols = rng.uniform(0.1, 2.0, n)
        a, b = -rng.exponential(5.0, n - 1), rng.exponential(5.0, n - 1)
        for _ in range(20):
            assert_bounded(vols, a, b, rng.standard_normal(n))
        assert_bounded(vols, a, b, rng.random(n))  # one sign: equality
        # the frozen-conductance matrix at a quick_config state, with the
        # residual of a backward Euler step from it and random right-hand sides
        cfg = quick_config()
        grid, u = S.initial_state(cfg)
        _, last_dt = advance(grid, u, 0.0, cfg, 0.05, S.CFL_SAFETY)
        inv_dc = 1.0 / np.diff(grid.centers)
        rows = S._flux_rows(inv_dc.size)
        S._face_fluxes(u, inv_dc, grid.face_coeffs * inv_dc, cfg.eq, rows)
        k, flux = rows.k, rows.flux
        dt = 1e3 * last_dt
        resid = np.zeros_like(u)
        resid[:-1] -= dt * flux
        resid[1:] += dt * flux
        for rhs in [resid, rng.random(u.size)] + [rng.standard_normal(u.size)
                                                  for _ in range(5)]:
            assert_bounded(grid.cell_weighted_volumes, -dt * k, dt * k, rhs)

    @pytest.mark.parametrize("weight, eq", [
        (W.make_power_weight(0.5), W.EquationParams(3, 2.0, 2.0)),
        (W.make_zygmund_weight(0.5, 1.0, 2.0), W.EquationParams(3, 2.5, 1.0)),
        (W.make_power_weight(0.5), W.EquationParams(4, 3.0, 0.5)),
    ], ids=["power-m2", "zygmund-plap", "power-m-half"])
    def test_window_is_exact(self, monkeypatch, weight, eq):
        # each step works on the leading cells [:_window(reach, n)]; on the
        # whole grid the run takes the same steps and solves, agrees to
        # roundoff and is exactly 0 past the last window.  The error
        # estimate sums in cell order, so trailing zeros leave it bitwise
        # unchanged: measured 0.0 on all three cases (summed by np.dot,
        # whose rounding depends on the length, zygmund-plap read 9.1e-15)
        cfg = quick_config(weight=weight, eq=eq)
        window = S._window
        his = []

        def spy(reach, n_cells):
            his.append(window(reach, n_cells))
            return his[-1]

        monkeypatch.setattr(S, "_window", spy)
        sliced = S.run(cfg)
        assert his[-1] < cfg.n_cells
        monkeypatch.setattr(S, "_window", lambda reach, n_cells: n_cells)
        whole = S.run(cfg)
        assert (sliced.steps, sliced.rejected_steps, sliced.newton_iterations) == (
            whole.steps, whole.rejected_steps, whole.newton_iterations)
        assert np.abs(sliced.sup_u / whole.sup_u - 1.0).max() <= 1e-12
        assert np.all(whole.profiles[:, his[-1]:] == 0.0)
        assert np.all(sliced.profiles[:, his[-1]:] == 0.0)

    def test_derivatives_once_per_solve(self, monkeypatch):
        # the residual check that accepts a solve builds no derivatives:
        # each build feeds one Newton solve
        builds = []
        derivatives = S._flux_derivatives

        def counted(*args):
            builds.append(1)
            return derivatives(*args)

        monkeypatch.setattr(S, "_flux_derivatives", counted)
        traj = S.run(quick_config())
        assert len(builds) == traj.newton_iterations

    def test_flux_evaluations_per_step(self, monkeypatch):
        # one flux evaluation per step attempt and per Newton solve, and
        # one for the initial slope (measured 2,841 on the 800-cell
        # zygmund p-Laplacian run and 5,690 on the power-weight run)
        calls = []
        face_fluxes = S._face_fluxes

        def counted(*args):
            calls.append(1)
            return face_fluxes(*args)

        monkeypatch.setattr(S, "_face_fluxes", counted)
        traj = S.run(quick_config())
        assert len(calls) == traj.steps + traj.rejected_steps + traj.newton_iterations + 1

    def test_newton_failures_raise(self, monkeypatch):
        # with no solve allowed, Newton fails at every step size and the run
        # could only crawl on steps whose start already meets the Newton stop
        # (t = 5.4e-9 after 5,000 updates); the failure cap stops it
        monkeypatch.setattr(S, "NEWTON_MAX_ITER", 0)
        cfg = S.SolverConfig(eq=W.EquationParams(4, 3.0, 0.5),
                             weight=W.make_power_weight(0.5), r_max=40.0,
                             n_cells=200, output_times=[0.5])
        with pytest.raises(StiffnessError, match=r"Newton failed 51 times.* t=.*dt=.*rejected"):
            S.run(cfg)

    def test_tight_newton_agrees(self, monkeypatch):
        # the residual stop does not change the answer: measured with
        # NEWTON_KAPPA = 5e-7 (1e-13 mass), sup(u) within 8.1e-15 at every
        # output in the same 250 steps, with 255 Newton solves against 253
        base = S.run(quick_config())
        monkeypatch.setattr(S, "NEWTON_KAPPA", 5e-7)
        tight = S.run(quick_config())
        assert tight.steps == base.steps
        assert tight.newton_iterations > base.newton_iterations
        assert np.abs(tight.sup_u[1:] / base.sup_u[1:] - 1.0).max() <= 1e-9

    def test_dgtsv_selected_where_bundled(self):
        # Newton solves through dgtsv whenever numpy's wheel bundles its
        # OpenBLAS, so no test or benchmark measures the sweep unnoticed
        libs = list((Path(np.__file__).parents[1] / "numpy.libs").glob("libscipy_openblas64_*.so"))
        assert (S._tridiagonal_solver() is not S._bind_thomas) == bool(libs)

    def test_dgtsv_checks_bands(self):
        # LAPACK trusts the addresses and sizes it is given: a short band,
        # one of another dtype, a strided one or a row count past the bound
        # capacity raises before the call instead of being overrun
        bind = S._tridiagonal_solver()
        if bind is S._bind_thomas:
            pytest.skip("numpy bundles no scipy-openblas64 here")
        sub, diag, rhs = -np.ones(4), 3.0 * np.ones(5), np.ones(5)
        for bad in ((sub[:3].copy(), diag, sub, rhs), (sub.astype(np.float32), diag, sub, rhs)):
            with pytest.raises(ValueError, match="do not fit 5 float64 rows"):
                bind(*(x.copy() for x in bad))
        with pytest.raises(TypeError, match="contiguous"):
            bind(sub.copy(), diag.copy(), sub.copy(), np.ones(10)[::2])
        bands = np.zeros((4, 8))  # bound at 5 rows in rows of 8: LAPACK could run on
        bands[:, :5] = [[-1.0], [3.0], [-1.0], [1.0]]
        before = bands.copy()
        solve = bind(bands[0, :4], bands[1, :5], bands[2, :4], bands[3, :5])
        for rows in (6, 0):
            with pytest.raises(ValueError, match="do not fit the 5 bound"):
                solve(rows)
        assert np.array_equal(bands, before)
        solve(5)
        assert np.array_equal(bands[3, :5], solve_once(S._bind_thomas, sub, diag, sub, rhs))
        assert np.all(bands[:, 5:] == 0.0)

    def test_dgtsv_binding_outlives_gc(self):
        # the binding passes bare addresses: it holds the arrays and ctypes
        # integers behind them, so a collection between binding and solving
        # frees none of them, and memory allocated after it does not alias them
        import gc

        bind = S._tridiagonal_solver()
        if bind is S._bind_thomas:
            pytest.skip("numpy bundles no scipy-openblas64 here")
        rng = np.random.default_rng(3)
        rows = 170
        sub, sup, rhs = -rng.random(rows - 1), -rng.random(rows - 1), rng.random(rows)
        diag = 3.0 + rng.random(rows)
        want = solve_once(S._bind_thomas, sub, diag, sup, rhs)
        out = rhs.copy()
        solve = bind(sub.copy(), diag.copy(), sup.copy(), out)
        gc.collect()
        clobber = [np.full(rows, 7.0) for _ in range(64)]
        solve(rows)
        assert np.array_equal(out, want)
        assert all(np.all(x == 7.0) for x in clobber)

    def test_sweep_run_matches_dgtsv(self, quick_traj, weighted_traj, monkeypatch):
        # the sweep does dgtsv's elimination in the same order, so a run is
        # bitwise the same on either path (row 0's dt_last is NaN), on the
        # 200-cell and the 800-cell power-weight runs
        if S._tridiagonal_solver() is S._bind_thomas:
            pytest.skip("numpy bundles no scipy-openblas64 here")
        monkeypatch.setattr(S, "_tridiagonal_solver", lambda: S._bind_thomas)
        for traj in (quick_traj, weighted_traj):
            sweep = S.run(traj.config)
            assert (sweep.steps, sweep.rejected_steps, sweep.newton_iterations) == (
                traj.steps, traj.rejected_steps, traj.newton_iterations)
            for col in ("times", "sup_u", "support_radius", "mass", "dt_last", "profiles"):
                assert np.array_equal(getattr(sweep, col), getattr(traj, col),
                                      equal_nan=True), col

    def test_zero_pivot_rejects_step(self, monkeypatch):
        # dgtsv's INFO > 0 is the sweep's ZeroDivisionError, so an exactly
        # zero pivot fails Newton and rejects the step the same way
        binders = [S._tridiagonal_solver(), S._bind_thomas]
        for bind in binders:
            with pytest.raises(ZeroDivisionError):
                solve_once(bind, np.zeros(3), np.zeros(4), np.ones(3), np.ones(4))
        base = S.run(quick_config())
        counts = []
        for bind in binders:
            calls = []

            def singular(sub, diag, sup, rhs, bind=bind):
                solve = bind(sub, diag, sup, rhs)

                def solve_rows(rows):
                    calls.append(1)
                    if len(calls) == 20:  # a zero first column
                        sub[0] = diag[0] = 0.0
                    solve(rows)

                return solve_rows

            monkeypatch.setattr(S, "_tridiagonal_solver", lambda: singular)
            traj = S.run(quick_config())
            counts.append((traj.steps, traj.rejected_steps, traj.newton_iterations))
        assert counts[0] == counts[1]
        assert counts[0][1] == base.rejected_steps + 1

    def test_workspace_isolated_between_runs(self, weighted_traj):
        # each run binds its own workspace: runs of other sizes and
        # exponents in between leave a run bitwise what it is when alone
        other = quick_config(eq=W.EquationParams(4, 3.0, 0.5))
        alone = S.run(other)
        first = S.run(weighted_traj.config)
        between = S.run(other)
        again = S.run(weighted_traj.config)
        for fresh, runs in ((weighted_traj, (first, again)), (alone, (between,))):
            for traj in runs:
                assert (traj.steps, traj.rejected_steps, traj.newton_iterations,
                        traj.clipped_mass) == (fresh.steps, fresh.rejected_steps,
                                               fresh.newton_iterations, fresh.clipped_mass)
                for col in ("times", "profiles", "dt_last"):
                    assert np.array_equal(getattr(traj, col), getattr(fresh, col),
                                          equal_nan=True), col

    def test_no_scipy_import(self, tmp_path):
        # importing scipy.linalg doubles peak memory and adds ~0.4 s of
        # start-up; concurrent.futures pulls in multiprocessing and logging,
        # which only a sweep with --jobs > 1 needs; the first
        # np.random.default_rng adds 5-6 MB of peak memory, and a run
        # draws nothing
        ini = tmp_path / "small.ini"
        ini.write_text("[weight]\nkind = power\nalpha = 0.5\n"
                       "[equation]\ndim_n = 3\np = 2.0\nm = 2.0\n"
                       "[grid]\nr_max = 40\nn_cells = 200\n"
                       "[simulate]\nt_end = 10\nn_outputs = 5\noutput_decades = 2\n")
        code = ("import sys\n"
                "from expdiff import cli\n"
                f"assert cli.main(['simulate', '--config', {str(ini)!r}, "
                f"'--out', {str(tmp_path / 'o')!r}]) == 0\n"
                "heavy = sorted(m for m in sys.modules if m.split('.')[0] in\n"
                "               ('scipy', 'concurrent', 'multiprocessing')\n"
                "               or m.startswith('numpy.random'))\n"
                "assert not heavy, heavy\n")
        src = str(Path(__file__).resolve().parents[1] / "src")
        proc = subprocess.run([sys.executable, "-c", code],
                              env={**os.environ, "PYTHONPATH": src},
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr


class TestRun:
    def test_nonnegative_after_steps(self, quick_traj):
        assert np.all(quick_traj.profiles >= 0.0)

    def test_mass_conserved(self, eq_ref, w_half):
        cfg = quick_config(output_times=np.geomspace(0.01, 100.0, 25))
        traj = S.run(cfg)
        drift = np.abs(traj.mass / traj.mass0 - 1.0)
        assert drift.max() <= 1e-6
        assert drift.max() <= 1e-12  # conservative scheme: telescoping exact

    def test_mass_drift_raises(self, quick_traj, monkeypatch):
        # the conservative scheme never drifts near MASS_DRIFT_TOL, so the
        # tolerance drops below the first nonzero drift of a run that passed
        drift = np.abs(quick_traj.mass / quick_traj.mass0 - 1.0)
        k = int(np.flatnonzero(drift)[0])
        monkeypatch.setattr(S, "MASS_DRIFT_TOL", 0.5 * drift[k])
        with pytest.raises(MassConservationError) as info:
            S.run(quick_traj.config)
        message = str(info.value)
        assert f"{drift[k]:.3e}" in message and f"t={quick_traj.times[k]:g}" in message

    def test_support_monotone(self, eq_ref, w_half):
        cfg = quick_config(output_times=np.geomspace(0.01, 100.0, 25))
        traj = S.run(cfg)
        one_cell = traj.config.r_max / traj.config.n_cells
        diffs = np.diff(traj.support_radius)
        assert np.all(diffs >= -one_cell - 1e-12)

    def test_taller_data_dominates(self):
        outs = np.geomspace(0.1, 50.0, 11)
        t1 = S.run(quick_config(output_times=outs, bump_height=1.0))
        t2 = S.run(quick_config(output_times=outs, bump_height=2.0))
        assert np.all(t2.sup_u >= t1.sup_u - 1e-14)

    def test_support_boundary_error(self):
        cfg = quick_config(r_max=8.0, n_cells=64, t_end=1e5, bump_radius=1.0)
        with pytest.raises(SupportBoundaryError):
            S.run(cfg)

    def test_bump_radius_cap(self):
        with pytest.raises(InvalidParameterError):
            quick_config(r_max=8.0, bump_radius=2.0)

    # bump_radius=0.05 lies below the first cell centre 40/(2*200) = 0.1, so
    # the cell-centre samples of the bump would all be 0
    @pytest.mark.parametrize("bump", [dict(bump_height=-1.0), dict(bump_height=0.0),
                                      dict(bump_height=math.nan), dict(bump_radius=0.0),
                                      dict(bump_radius=0.05)])
    def test_bump_must_be_positive(self, bump):
        with pytest.raises(InvalidParameterError, match="finite and positive"):
            quick_config(**bump)

    # output times <= 0 or NaN used to run and come back as duplicated
    # rows at t = 0 and 5, and r_max = inf was reported as a bump_radius
    # error
    @pytest.mark.parametrize("bad, match", [
        (dict(output_times=[-1.0, 5.0, math.nan]), "output times"),
        (dict(output_times=[0.0, 5.0]), "output times"),
        (dict(output_times=[math.nan]), "output times"),
        (dict(output_times=[5.0, math.inf]), "output times"),
        (dict(output_times=[]), "output times"),
        (dict(r_max=math.inf), "r_max must be finite and positive"),
    ], ids=["negative-nan", "zero", "nan", "inf", "empty", "r_max-inf"])
    def test_times_and_radius_checked(self, bad, match):
        with pytest.raises(InvalidParameterError, match=match):
            quick_config(**bad)


class TestSemigroup:
    # the equation preserves order, contracts the weighted L1 distance of
    # two solutions, never raises its sup and keeps its mass (Otto, JDE 131,
    # 1996; Carrillo & Wittbold, JDE 156, 1999).  BDF2-4 are not monotone
    # schemes, so each property is checked on the stored profiles, four runs
    # a case.  Measured: max(u - v) = 0.0 in all four cases; sup falls by at
    # least 0.37% per output on the ordered data and 1.2e-5 relative on the
    # crossing data; the L1 distance falls from 18.48 to 16.94, 24.50 to
    # 23.03, 50.59 to 49.52 and 18.48 to 16.94, and its largest rise is
    # 5.1e-15 relative; the mass drift is at most 4.7e-14, but for 8.3e-13
    # on the height-1 crossing datum of power-m2 at t = 0.1: a step whose
    # start meets the Newton stop keeps its residual's sum, at most
    # NEWTON_KAPPA BDF_TOL = 1e-9 of the mass
    @pytest.mark.parametrize("weight, eq", [
        (W.make_power_weight(0.5), W.EquationParams(3, 2.0, 2.0)),
        (W.make_zygmund_weight(0.5, 1.0, 2.0), W.EquationParams(3, 2.5, 1.0)),
        (W.make_power_weight(0.9), W.EquationParams(4, 3.0, 0.5)),
        (W.make_power_weight(0.5), W.EquationParams(3, 1.8, 1.5)),
    ], ids=["power-m2", "zygmund-plap", "power-m-half", "power-p-1.8"])
    def test_order_contraction_sup_mass(self, weight, eq):
        ordered = np.geomspace(1e-3, 1e3, 13)
        crossing = np.geomspace(1e-4, 1e2, 25)
        u, v = (S.run(quick_config(weight=weight, eq=eq, output_times=ordered,
                                   bump_height=h)) for h in (1.0, 1.1))
        a = S.run(quick_config(weight=weight, eq=eq, output_times=crossing))
        b = S.run(quick_config(weight=weight, eq=eq, output_times=crossing,
                               bump_height=0.5, bump_radius=2.0))
        for traj in (u, v, a, b):
            assert np.all(np.diff(traj.sup_u) <= 0.0)
            assert np.abs(traj.mass / traj.mass0 - 1.0).max() <= 1e-10
            assert traj.clipped_mass == 0.0
        assert np.all(u.profiles <= v.profiles)
        vols = a.grid.cell_weighted_volumes
        dist = np.array([np.dot(np.abs(x - y), vols) for x, y in zip(a.profiles, b.profiles)])
        assert np.all(np.diff(dist) <= 1e-13 * dist[:-1])


class TestScalingCoherence:
    def test_exact_commutation(self, eq_ref, w_half):
        # data lam*u0 at time t matches lam * (data u0 at lam^(p+m-3) t);
        # the discrete scheme commutes with the scaling exactly
        lam = 2.0
        outs = np.geomspace(1.0, 1e3, 13)
        base = S.run(quick_config(n_cells=400, output_times=outs, bump_height=1.0))
        scaled = S.run(quick_config(n_cells=400, output_times=outs / lam,
                                    bump_height=lam))
        rel = np.abs(scaled.sup_u[1:] - lam * base.sup_u[1:]) / (lam * base.sup_u[1:])
        assert rel.max() <= 0.02
        assert rel.max() <= 1e-12  # in fact exact up to roundoff


class TestGrid:
    def test_face_coeffs_closed_form(self):
        # power(1) at N = 2: omega r^(N-1) e^g(r) = 2 pi r e^r at the interior faces
        grid = S.make_grid(W.make_power_weight(1.0), 2, 5.0, 20)
        inner = grid.faces[1:-1]
        assert inner.size == grid.n_cells - 1
        np.testing.assert_allclose(grid.face_coeffs, 2.0 * math.pi * inner * np.exp(inner),
                                   rtol=1e-14)


class TestGridConvergence:
    def test_sup_stable_under_refinement(self):
        outs = [1e3]
        coarse = S.run(quick_config(n_cells=400, output_times=outs))
        fine = S.run(quick_config(n_cells=800, output_times=outs))
        change = abs(fine.sup_u[-1] - coarse.sup_u[-1]) / coarse.sup_u[-1]
        assert change <= 0.05

    def test_observed_order_weighted(self, weighted_traj):
        # power(0.5), N = 3, p = m = 2 to t = 1e6: sup(u) at t_end reads
        # 2.162848e-5, 2.139058e-5 and 2.132954e-5 at 200, 400 and 800
        # cells (2.131418e-5 at 1600), observed order 1.963 (1.99 on
        # 400/800/1600); the Richardson-extrapolated relative error of the
        # 800-cell value, a grid-convergence index (Roache 1994) without
        # its safety factor, is 9.89e-4
        coarse = [S.run(replace(weighted_traj.config, n_cells=n)).sup_u[-1]
                  for n in (200, 400)]
        f1, f2, f3 = *coarse, weighted_traj.sup_u[-1]
        order = math.log2((f1 - f2) / (f2 - f3))
        extrapolated = f3 + (f3 - f2) / (2.0 ** order - 1.0)
        assert order >= 1.9
        assert abs(f3 - extrapolated) / extrapolated <= 1.05e-3


class TestUnweightedCalibration:
    def test_pme_sup_decay_exponent_n1(self):
        # self-similar decay of the porous-medium equation (p = 2, m = 2,
        # N = 1): sup ~ t^(-1/3); modest resolution keeps this test quick,
        # the acceptance suite runs the full 2000-cell version
        eq = W.EquationParams(1, 2.0, 2.0)
        cfg = S.SolverConfig(eq=eq, weight=W.make_unweighted(), r_max=30.0,
                             n_cells=500, output_times=np.geomspace(0.04, 400.0, 49))
        traj = S.run(cfg)
        rep = S.fit_rates(traj, S.SUP_POWER_LAW)
        assert rep.target_slope == -1.0 / 3.0
        assert rep.slope == pytest.approx(rep.target_slope, rel=0.10)
        drift = np.abs(traj.mass / traj.mass0 - 1.0).max()
        assert drift <= 1e-6

    def test_barenblatt_implicit(self):
        # the default bump (1 - r^2)_+ is the Barenblatt profile of
        # u_t = (u u_x)_x at t0 = 1/6: u = T^(-1/3) (C - x^2 / (6 T^(2/3)))_+
        # with T = t0 + t and C = 6^(-1/3); compare cell averages at t = 10.
        # Measured: L1 5.21e-5 at 400 cells, observed order 1.976, peak
        # 2.78e-5 relative (3.04e-5 once converged in time), front within
        # 2.18 cells
        t_end, big_t, c = 10.0, 1.0 / 6.0 + 10.0, 6.0 ** (-1.0 / 3.0)
        front = math.sqrt(6.0 * c) * big_t ** (1.0 / 3.0)
        l1 = []
        for n in (100, 200, 400):
            cfg = S.SolverConfig(eq=W.EquationParams(1, 2.0, 2.0), weight=W.make_unweighted(),
                                 r_max=8.0, n_cells=n, output_times=[t_end])
            traj = S.run(cfg)
            dr = cfg.r_max / n
            x = np.minimum(traj.grid.faces, front)
            primitive = big_t ** (-1.0 / 3.0) * (c * x - x ** 3 / (18.0 * big_t ** (2.0 / 3.0)))
            exact = np.diff(primitive) / dr
            l1.append(np.sum(np.abs(traj.profiles[-1] - exact)) / np.sum(exact))
            assert abs(traj.support_radius[-1] - front) <= 3.0 * dr
        assert math.log2(l1[1] / l1[2]) >= 1.95
        assert l1[2] <= 5.5e-5
        assert traj.sup_u[-1] == pytest.approx(big_t ** (-1.0 / 3.0) * c, rel=3.1e-5)


_GAUSS_X, _GAUSS_W = np.polynomial.legendre.leggauss(40)


def _barenblatt(n, p, m, big_t):
    """The unweighted self-similar solution with C = 1 at time big_t,
    u = T^-a (1 - k xi^(p/(p-1)))_+^((p-1)/(p+m-3)) with xi = r T^-b,
    b = 1/(N(p+m-3) + p), a = N b, k = (p+m-3)/p b^(1/(p-1)), and its
    front R(T) = k^(-(p-1)/p) T^b (Barenblatt 1952; Kamin & Vazquez 1988)."""
    kappa = p + m - 3.0
    b = 1.0 / (n * kappa + p)
    k = kappa / p * b ** (1.0 / (p - 1.0))

    def u(r):
        core = 1.0 - k * (r * big_t ** -b) ** (p / (p - 1.0))
        return big_t ** (-n * b) * np.maximum(core, 0.0) ** ((p - 1.0) / kappa)

    return u, k ** (-(p - 1.0) / p) * big_t ** b


def _cell_averages(n, u, faces):
    """Averages of u against r^(N-1) dr, 40-point Gauss per cell."""
    lo, hi = faces[:-1, None], faces[1:, None]
    r = 0.5 * (lo + hi) + 0.5 * (hi - lo) * _GAUSS_X
    wts = 0.5 * (hi - lo) * _GAUSS_W * r ** (n - 1)
    return (wts * u(r)).sum(axis=1) / wts.sum(axis=1)


class TestBarenblattReference:
    # every branch of the flux law (p = 2 or not, m = 1, m < 1, p < 2) and
    # the curvature terms at N > 1 against the exact solution: started at
    # t0 = 1 from its exact cell averages and run 4 time units.  Measured
    # volume-weighted L1 errors relative to the mass at 200 / 400 / 800
    # cells, with orders: (1, 2, 2) 2.460e-5, 6.348e-6, 1.643e-6 (1.955,
    # 1.950); (3, 2, 2) 1.020e-4, 2.749e-5, 7.115e-6 (1.891, 1.950);
    # (3, 2.5, 1) 1.046e-4, 2.609e-5, 6.477e-6 (2.003, 2.010); (4, 3, 0.5)
    # 2.236e-4, 5.574e-5, 1.374e-5 (2.005, 2.020); (3, 1.8, 1.5) 1.827e-4,
    # 4.602e-5, 1.154e-5 (1.989, 1.995).  At 800 cells the support radius
    # reads 0 to 4 cells above R(5)
    @pytest.mark.parametrize("n, p, m, finest", [
        (1, 2.0, 2.0, 1.643e-6),
        (3, 2.0, 2.0, 7.115e-6),
        (3, 2.5, 1.0, 6.477e-6),
        (4, 3.0, 0.5, 1.374e-5),
        (3, 1.8, 1.5, 1.154e-5),
    ])
    def test_second_order_against_exact(self, monkeypatch, n, p, m, finest):
        u_start, _ = _barenblatt(n, p, m, 1.0)
        u_end, front = _barenblatt(n, p, m, 5.0)
        built = S.initial_state

        def exact_start(config):
            grid, _ = built(config)
            return grid, _cell_averages(n, u_start, grid.faces)

        monkeypatch.setattr(S, "initial_state", exact_start)
        r_max = 1.6 * front
        errors = []
        for cells in (200, 400, 800):
            # the bump radius only has to pass the config's checks
            cfg = S.SolverConfig(eq=W.EquationParams(n, p, m), weight=W.make_unweighted(),
                                 r_max=r_max, n_cells=cells, output_times=[4.0],
                                 bump_radius=0.2 * front)
            traj = S.run(cfg)
            exact = _cell_averages(n, u_end, traj.grid.faces)
            vols = traj.grid.cell_weighted_volumes
            errors.append(np.sum(vols * np.abs(traj.profiles[-1] - exact)) / np.sum(vols * exact))
            assert abs(traj.support_radius[-1] - front) <= 5.0 * r_max / cells
        assert math.log2(errors[1] / errors[2]) >= 1.9
        assert errors[2] <= 1.05 * finest


@pytest.fixture(scope="module")
def weighted_traj(eq_ref, w_half):
    cfg = S.SolverConfig(eq=eq_ref, weight=w_half, r_max=40.0, n_cells=800,
                         output_times=np.geomspace(1e-2, 1e6, 97))
    return S.run(cfg)


@pytest.fixture(scope="module")
def unweighted_traj():
    cfg = S.SolverConfig(eq=W.EquationParams(1, 2.0, 2.0), weight=W.make_unweighted(),
                         r_max=30.0, n_cells=200, output_times=np.geomspace(0.5, 50.0, 13))
    return S.run(cfg)


class TestFitRates:
    def test_support_slope(self, weighted_traj, eq_ref, w_half):
        rep = S.fit_rates(weighted_traj, S.SUPPORT_ENVELOPE)
        assert rep.target_slope == pytest.approx(2.0)
        assert rep.slope == pytest.approx(2.0, rel=0.15)

    def test_sup_band(self, weighted_traj, eq_ref, w_half):
        rep = S.fit_rates(weighted_traj, S.SUP_ENVELOPE)
        assert rep.band_ratio <= 10.0
        assert rep.band_min > 0

    def test_support_constant_stable(self, weighted_traj, eq_ref, w_half):
        rep = S.fit_rates(weighted_traj, S.SUPPORT_ENVELOPE)
        # fitted prefactor varies within +-20% over the last decade
        assert rep.band_max / rep.band_min <= 1.2 / 0.8

    def test_finite_propagation_bound(self, weighted_traj, eq_ref, w_half):
        # support stays below (1.25 * C_fit) * ginv(log(e + t * mass^(p+m-3)))
        # over the last decade: the fitted constant is stable within +-20%
        rep = S.fit_rates(weighted_traj, S.SUPPORT_ENVELOPE)
        t = weighted_traj.times[1:]
        R = weighted_traj.support_radius[1:]
        arg = np.log(math.e + t * weighted_traj.mass0 ** eq_ref.kappa)
        bound = 1.25 * rep.c_fit * W.invert_g(w_half, arg)
        keep = t >= t[-1] / 10.0
        assert np.all(R[keep] <= bound[keep])
        assert weighted_traj.support_radius[-1] < weighted_traj.config.r_max

    def test_unweighted_refused(self, unweighted_traj):
        with pytest.raises(FitRefusedError):
            S.fit_rates(unweighted_traj, S.SUPPORT_ENVELOPE)

    def test_sup_power_law(self, unweighted_traj):
        # the slope over the last decade of the output times, bitwise
        rep = S.fit_rates(unweighted_traj, S.SUP_POWER_LAW)
        t = unweighted_traj.times[1:]
        keep = t >= t[-1] / 10.0
        assert rep.slope == S.line_slope(np.log(t[keep]),
                                         np.log(unweighted_traj.sup_u[1:][keep]))
        assert rep.target_slope == -1.0 / 3.0  # -N/(N(p+m-3)+p) at N = 1, p = m = 2
        assert rep.window == (t[keep][0], t[-1]) and rep.n_points == keep.sum() == 6
        assert rep.c_fit is rep.band_max is rep.band_min is None

    def test_sup_power_law_refused_with_weight(self, weighted_traj):
        with pytest.raises(FitRefusedError, match="with a weight"):
            S.fit_rates(weighted_traj, S.SUP_POWER_LAW)

    def test_sup_power_law_refuses_short_last_decade(self):
        cfg = S.SolverConfig(eq=W.EquationParams(1, 2.0, 2.0), weight=W.make_unweighted(),
                             r_max=30.0, n_cells=100, output_times=[0.4, 40.0])
        with pytest.raises(FitRefusedError) as exc:
            S.fit_rates(S.run(cfg), S.SUP_POWER_LAW)
        assert str(exc.value) == "too few samples in the last decade (1 < 5)"

    def test_short_run_refused(self, eq_ref, w_half):
        cfg = quick_config(output_times=np.geomspace(8.0, 20.0, 9))
        traj = S.run(cfg)
        with pytest.raises(FitRefusedError):
            S.fit_rates(traj, S.SUPPORT_ENVELOPE)


class TestGeneralExponents:
    def test_fast_diffusion_with_regularization(self):
        # p < 2: |s|^(p-2) is singular at s = 0, where the flux is set to 0
        eq = W.EquationParams(3, 1.8, 1.5)
        cfg = S.SolverConfig(eq=eq, weight=W.make_power_weight(0.5),
                             r_max=40.0, n_cells=200, output_times=[0.5])
        traj = S.run(cfg)
        assert np.isfinite(traj.sup_u).all()
        assert abs(traj.mass[-1] / traj.mass0 - 1.0) <= 1e-12

    def test_p_large_m_small(self):
        # p > 2 with m < 1: singular u-factor masked at empty faces
        eq = W.EquationParams(4, 3.0, 0.5)
        cfg = S.SolverConfig(eq=eq, weight=W.make_power_weight(0.5),
                             r_max=40.0, n_cells=200, output_times=[0.5])
        traj = S.run(cfg)
        assert np.isfinite(traj.sup_u).all()
        assert np.all(traj.sup_u >= 0)
        assert abs(traj.mass[-1] / traj.mass0 - 1.0) <= 1e-12

    @pytest.mark.parametrize("eq", [W.EquationParams(3, 1.8, 1.5),
                                    W.EquationParams(4, 3.0, 0.5), None],
                             ids=["p-1.8", "m-half", "quick"])
    def test_no_warnings_escape(self, eq):
        # run holds one np.errstate over every flux evaluation, and the
        # flux enters none: 0^(p-2) on flat faces for p < 2 warns nowhere;
        # the explicit oracle holds its own around the call
        if eq is None:
            cfg = quick_config()
        else:
            cfg = S.SolverConfig(eq=eq, weight=W.make_power_weight(0.5), r_max=40.0,
                                 n_cells=200, output_times=[0.5])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            S.run(cfg)
            if eq is not None and eq.p < 2.0:
                grid, u = S.initial_state(cfg)
                advance(grid, u, 0.0, cfg, 0.01, S.CFL_SAFETY)
                assert np.isfinite(u).all()

    def test_face_fluxes_edges(self):
        # a flat face carries no flux: for p > 2, 0^(p-2) = 0 is finite
        # without a mask or an errstate; for p < 2 the infinite power is
        # still set to 0; for m = 1 the face mean's row is not written, and
        # flux and k are bitwise those of k = w |s|^(p-2) / dc
        rng = np.random.default_rng(3)
        n = 40
        inv_dc, w_dc = rng.uniform(1.0, 2.0, n - 1), rng.uniform(0.5, 1.5, n - 1)
        u = rng.random(n)
        u[10:13] = u[9]  # flat faces inside the support
        u[30:] = 0.0  # flat empty faces beyond it
        du = u[1:] - u[:-1]
        flat = du == 0.0
        rows = S._flux_rows(n - 1)
        ubar, k, flux = rows.ubar, rows.k, rows.flux
        ubar.fill(np.nan)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            S._face_fluxes(u, inv_dc, w_dc, W.EquationParams(3, 2.5, 1.0), rows)
        assert np.isnan(ubar).all()
        assert np.isfinite(flux).all() and np.isfinite(k).all()
        assert np.all(k[flat] == 0.0) and np.all(flux[flat] == 0.0)
        sp = np.abs(du * inv_dc) ** 0.5
        sp[~np.isfinite(sp)] = 0.0
        ref_k = w_dc * sp
        assert (k.tobytes(), flux.tobytes()) == (ref_k.tobytes(), (ref_k * du).tobytes())
        with np.errstate(divide="ignore"):
            S._face_fluxes(u, inv_dc, w_dc, W.EquationParams(3, 1.8, 1.5), rows)
        assert np.isfinite(flux).all() and np.isfinite(k).all()
        assert np.all(k[flat] == 0.0) and np.all(flux[flat] == 0.0)
        assert np.array_equal(ubar, np.maximum(0.5 * (u[1:] + u[:-1]), 0.0))

    @pytest.mark.parametrize("p, m", [
        (2.5, 1.0), (3.0, 1.0), (4.0, 1.0),
        (1.5, 2.0), (2.0, 2.0), (2.5, 2.0),
        (1.8, 1.5), (2.0, 1.5), (2.5, 1.5), (2.0, 2.5), (1.6, 3.0), (2.0, 3.0),
        (3.0, 0.5), (4.0, 0.5), (2.7, 0.5),
    ])
    def test_flux_rows_match_array_forms(self, p, m):
        # every branch of the flux law and band build, written into rows,
        # is bitwise the array-returning form it replaced (kept here as
        # the reference): m = 1, m = 2, 1 < m != 2 (the exponent 0.5 and
        # 2 fast paths included) and m < 1, each with p < 2, p = 2 and
        # p > 2 where p + m > 3 admits it; the data hold flat faces, a
        # negative cell, a diverging pair whose fluxes and mobility
        # derivatives overflow, nearly empty faces and an empty tail.  So
        # are rows laid over the bands as ``run`` lays them, and a call on
        # a short window after one on all faces writes what fresh rows get
        eq = W.EquationParams(3, p, m)
        rng = np.random.default_rng(21)
        n, gdt = 60, 0.37
        inv_dc, w_dc = rng.uniform(1.0, 2.0, n - 1), rng.uniform(0.5, 1.5, n - 1)
        u = rng.random(n)
        u[10:13] = u[9]
        u[20] = -0.01
        u[25:27] = 1e300, -0.9e300  # a diverging iterate: infinite fluxes
        u[40:44] = 1e-300, 1e-310, 0.0, 1e-200
        u[50:] = 0.0

        def as_bytes(ubar, *arrays):  # ubar is not formed for m = 1
            return [x.tobytes() for x in ([ubar] if m != 1.0 and ubar is not None else [])
                    + list(arrays)]

        def written(u, rows=None, bands=None):
            if rows is None:
                rows = S.FluxRows._make(
                    np.full_like(row, np.nan if row.dtype == float else True)
                    for row in S._flux_rows(u.size - 1))
            if bands is None:
                bands = np.full((2, u.size - 1), np.nan)
            sub, sup = bands
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                S._face_fluxes(u, inv_dc[:u.size - 1], w_dc[:u.size - 1], eq, rows)
                fluxes = as_bytes(rows.ubar, rows.k, rows.flux)  # before the bands
                S._flux_derivatives(rows, eq, gdt, sub, sup)
            return fluxes + as_bytes(None, sub, sup)

        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            flux, k, ubar = array_face_fluxes(u, inv_dc, w_dc, eq)
            a, b = array_flux_derivatives(flux, k, ubar, eq)
        expected = as_bytes(ubar, k, flux) + as_bytes(None, a * gdt, b * -gdt)
        assert written(u) == expected
        # run's layout: du and the flux on the sub band, ubar on the
        # diagonal, k on the super band, which the bands then overwrite
        sub, diag, sup, scratch = np.full((4, n - 1), np.nan)
        over_bands = S.FluxRows.over_bands(sub, diag, sup, scratch, np.ones(n - 1, dtype=bool))
        assert written(u, over_bands, (sub, sup)) == expected
        long_rows = S._flux_rows(n - 1)
        written(u, long_rows)
        short = u[:30].copy()
        assert written(short, S.FluxRows._make(row[:29] for row in long_rows)) == written(short)

    def test_stiffness_error(self):
        cfg = quick_config(bump_height=1e20, n_cells=2000, output_times=[1.0])
        with pytest.raises(StiffnessError):
            S.run(cfg)
