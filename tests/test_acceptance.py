"""Acceptance suite: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion with its measured quantities and runtime.
"""

import math
import sys
import time

import numpy as np
import pytest

from expdiff import cli
from expdiff import inequalities as I
from expdiff import solver as S
from expdiff import weights as W
from expdiff.envelopes import EnvelopeParams, support_envelope
from sobolev_profile import sobolev_profile_bounds

SAMPLES = np.geomspace(1e-3, 1e3, 200)


def _report(n, ok, detail):
    # write to the real stdout so the verdict lines survive pytest capture
    line = f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {detail}"
    sys.__stdout__.write(line + "\n")
    sys.__stdout__.flush()
    return ok


@pytest.fixture(scope="module")
def reference_run():
    """Power(0.5), p = 2, m = 2, N = 3 run shared by criteria 4 and 5.

    Grid and horizon chosen by the convergence study: at r_max = 40 with
    1600 cells the support slope over [1e4, 1e6] is stable to ~1% under
    refinement (800/1600/3200 cells give 1.999/2.011/2.014).
    """
    eq = W.EquationParams(3, 2.0, 2.0)
    w = W.make_power_weight(0.5)
    cfg = S.SolverConfig(eq=eq, weight=w, r_max=40.0, n_cells=1600,
                         output_times=np.geomspace(1e-2, 1e6, 97))
    start = time.monotonic()
    traj = S.run(cfg)
    return traj, w, eq, time.monotonic() - start


def test_criterion_1_weight_class_suite():
    start = time.monotonic()
    weights_under_test = [W.make_power_weight(a) for a in (0.3, 0.5, 0.9)]
    weights_under_test.append(W.make_zygmund_weight(0.5, 1.0, 2.0))
    eq = W.EquationParams(3, 2.0, 2.0)
    rng = np.random.default_rng(2024)
    failures = []
    for w in weights_under_test:
        checks = [
            W.validate_envelope(w, SAMPLES),            # 1e-10 relative
            W.check_sandwich(w, np.sort(np.exp(rng.uniform(
                math.log(1e-3), math.log(1e3), 1000)))),
            W.check_lambda_bounds(w, np.sort(np.exp(rng.uniform(
                math.log(1e-3), math.log(1e3), 1000)))),
            W.check_inversion_roundtrip(w, np.exp(rng.uniform(
                math.log(1e-2), math.log(1e4), 100))),
            W.check_inverse_scaling(w, [(float(z), float(lam)) for z, lam in zip(
                np.exp(rng.uniform(math.log(1e-2), math.log(1e2), 100)),
                np.concatenate([np.exp(rng.uniform(0.0, math.log(100.0), 50)),
                                np.exp(rng.uniform(math.log(0.01), 0.0, 50))]))]),
        ]
        cond = W.check_structural_conditions(w, eq)
        if cond.flux_monotone_ok and cond.dual_monotone_ok:
            checks.append(W.check_monotone_quantities(w, eq, SAMPLES))
        failures.extend((w.label(), k, c.worst_violation)
                        for k, c in enumerate(checks) if not c.passed)
    elapsed = time.monotonic() - start
    ok = not failures and elapsed < 10.0
    assert _report(1, ok, f"weight-class suite (4 weights, all batteries), "
                          f"{elapsed:.1f}s < 10s, failures={failures}")


def test_criterion_2_inequality_suite():
    start = time.monotonic()
    problems = []

    # weighted Poincare: 5 (weight, p, N) combinations x 12 bumps
    combos = [
        (W.make_power_weight(0.3), W.EquationParams(3, 2.0, 2.0)),
        (W.make_power_weight(0.5), W.EquationParams(3, 2.0, 2.0)),
        (W.make_power_weight(0.9), W.EquationParams(4, 3.0, 0.5)),
        (W.make_power_weight(0.5), W.EquationParams(4, 2.5, 1.0)),
        (W.make_zygmund_weight(0.5, 1.0, 2.0), W.EquationParams(3, 2.0, 2.0)),
    ]
    n_funcs = 0
    for w, eq in combos:
        consts = I.poincare_constant(w, eq)
        if consts.beta_numeric > consts.criterion_bound * (1 + 1e-9):
            problems.append(("criterion bound exceeded", w.label(), eq.p, eq.dim_n))
        rep = I.verify_inequality(I.POINCARE, w, eq, family=I.bump_family())
        n_funcs += len(rep.per_function)
        if not rep.verdict:
            problems.append(("poincare violated", w.label(), eq.p, eq.dim_n))

    # radial Sobolev with the closed-form constant and profile bounds
    w = W.make_power_weight(0.5)
    eq = W.EquationParams(3, 2.0, 2.0)
    q = 3.0
    rep = I.verify_inequality(I.RADIAL_SOBOLEV, w, eq, q=q, family=I.bump_family())
    if not rep.verdict:
        problems.append(("radial sobolev violated",))
    _, samples = I.hardy_criterion_sup(w, eq, q)
    bounds = sobolev_profile_bounds(w, eq, q, samples[:, 0], r0=1.0)
    slack = 1 + 1e-8
    small = samples[:, 0] <= 1.0
    if not (np.all(samples[small, 1] <= bounds["constant_small"] * slack)
            and np.all(samples[:, 1] <= bounds["large"] * slack)):
        problems.append(("profile bounds violated",))

    # bounded-ball Sobolev for bumps inside B_R, R in {1, 2, 4}
    for big_r in (1.0, 2.0, 4.0):
        fam = I.bump_family(radii=(big_r / 4, big_r / 2, big_r),
                            powers=(1.0, 2.0, 3.0))
        repb = I.verify_inequality(I.BOUNDED_SOBOLEV, w, eq, q=q,
                                   big_r=big_r, family=fam)
        if not repb.verdict:
            problems.append(("bounded sobolev violated", big_r))

    elapsed = time.monotonic() - start
    ok = not problems and n_funcs >= 4 * 12 and elapsed < 60.0
    assert _report(2, ok, f"inequality suite ({len(combos)} Poincare combos, "
                          f"{n_funcs} test functions, Sobolev+bounded), "
                          f"{elapsed:.1f}s < 60s, problems={problems}")


def test_criterion_3_solver_calibration():
    start = time.monotonic()
    eq = W.EquationParams(1, 2.0, 2.0)
    cfg = S.SolverConfig(eq=eq, weight=W.make_unweighted(), r_max=30.0,
                         n_cells=2000, output_times=np.geomspace(0.04, 400.0, 61))
    traj = S.run(cfg)
    # self-similar exponent -N/(N(p+m-3)+p), -1/3 at N = 1, p = m = 2
    rep = S.fit_rates(traj, S.SUP_POWER_LAW)
    slope, target = rep.slope, rep.target_slope
    rel_err = abs(slope - target) / abs(target)
    drift = float(np.abs(traj.mass / traj.mass0 - 1.0).max())
    elapsed = time.monotonic() - start
    ok = rel_err <= 0.10 and drift <= 1e-6 and elapsed < 120.0
    assert _report(3, ok, f"porous-medium calibration at 2000 cells: "
                          f"slope={slope:.4f} vs {target:.4f} "
                          f"(rel err {rel_err:.3f} <= 0.10), "
                          f"mass drift {drift:.2e} <= 1e-6, "
                          f"{elapsed:.0f}s < 120s")


def test_criterion_4_finite_speed_of_propagation(reference_run):
    traj, w, eq, run_time = reference_run
    start = time.monotonic()
    rep = S.fit_rates(traj, S.SUPPORT_ENVELOPE)
    rel_err = abs(rep.slope - 2.0) / 2.0
    decades = math.log10(rep.window[1] / rep.window[0])
    elapsed = run_time + (time.monotonic() - start)
    ok = (rel_err <= 0.15 and decades >= 2.0 - 1e-9
          and traj.support_radius[-1] < traj.config.r_max and elapsed < 600.0)
    assert _report(4, ok, f"finite speed of propagation: support slope "
                          f"{rep.slope:.3f} vs 1/alpha=2 (rel err {rel_err:.3f} "
                          f"<= 0.15) over {decades:.1f} decades, bounded "
                          f"support {traj.support_radius[-1]:g} < "
                          f"{traj.config.r_max:g}, {elapsed:.0f}s < 600s")


def test_criterion_5_sup_envelope_shape(reference_run):
    traj, w, eq, _ = reference_run
    rep = S.fit_rates(traj, S.SUP_ENVELOPE)
    band = rep.band_ratio
    ok = band <= 10.0
    assert _report(5, ok, f"sup-envelope shape: ratio band over final decade "
                          f"max/min = {band:.2f} <= 10 "
                          f"(drift slope {rep.slope:+.3f} on log-log axes)")


def test_criterion_6_zygmund_asymptotics():
    start = time.monotonic()
    table = W.zygmund_inverse_asymptotics(W.make_zygmund_weight(0.5, 1.0, 2.0),
                                          [1e2, 1e4, 1e6, 1e8])
    gaps = [abs(a - 1.0) for _, a in table]
    decreasing = all(b < a for a, b in zip(gaps, gaps[1:]))

    eq = W.EquationParams(3, 2.0, 2.0)
    par = EnvelopeParams(eq=eq, weight=W.make_zygmund_weight(0.5, 1.0, 2.0),
                         mass0=1.0)
    limit = 0.5 ** (1.0 / 0.5)  # alpha^(beta/alpha): inverse correction -> 1

    def leading(t):  # (log t / (log log t)^beta)^(1/alpha), beta = 1, alpha = 0.5
        return (math.log(t) / math.log(math.log(t))) ** 2.0

    d6, d12 = (abs(support_envelope(par, t) / leading(t) - limit) for t in (1e6, 1e12))
    converges = d12 < d6
    elapsed = time.monotonic() - start
    ok = decreasing and converges and elapsed < 10.0
    assert _report(6, ok, f"zygmund asymptotics: |A-1| decreasing "
                          f"{[round(g, 4) for g in gaps]}, support-envelope "
                          f"ratio distance to limit {d6:.4f} -> {d12:.4f}, "
                          f"{elapsed:.1f}s < 10s")


def test_criterion_7_scaling_coherence():
    # U(x, t) = lam u(x, lam^(p+m-3) t): a run with data lam*u0 must match
    # the rescaled run with data u0 within 2% in sup norm
    eq = W.EquationParams(3, 2.0, 2.0)
    w = W.make_power_weight(0.5)
    lam = 2.0
    outs = np.geomspace(1.0, 1e3, 13)
    base = S.run(S.SolverConfig(eq=eq, weight=w, r_max=40.0, n_cells=800,
                                output_times=outs, bump_height=1.0))
    scaled = S.run(S.SolverConfig(eq=eq, weight=w, r_max=40.0, n_cells=800,
                                  output_times=outs / lam, bump_height=lam))
    rel = np.abs(scaled.sup_u[1:] - lam * base.sup_u[1:]) / (lam * base.sup_u[1:])
    ok = float(rel.max()) <= 0.02
    assert _report(7, ok, f"scaling coherence: max sup-norm mismatch "
                          f"{rel.max():.2e} <= 2e-2 across {outs.size} times")


def test_criterion_8_determinism(tmp_path):
    ini = tmp_path / "cfg.ini"
    ini.write_text("""
[weight]
kind = power
alpha = 0.5
[equation]
dim_n = 3
p = 2.0
m = 2.0
[grid]
r_max = 40
n_cells = 200
[simulate]
t_end = 1e4
n_outputs = 25
output_decades = 5
""")
    blobs = []
    for name in ("r1", "r2"):
        rc = cli.main(["simulate", "--config", str(ini),
                       "--out", str(tmp_path / name), "--seed", "123"])
        assert rc == 0
        blobs.append(b"".join(
            (tmp_path / name / f).read_bytes()
            for f in ("trajectory.csv", "envelope_comparison.csv",
                      "fit_summary.csv")))
    ok = blobs[0] == blobs[1]
    assert _report(8, ok, "determinism: repeated simulate with fixed seed is "
                          "byte-identical across all CSV outputs")
