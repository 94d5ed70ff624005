"""Configuration-driven command line front end.

Subcommands: weight-check, inequalities, simulate, sweep.  Every command
reads a flat INI config (sections below), writes CSV files with a
17-significant-digit float format into --out, and prints a one-line
verdict per check.  Identical config + seed produces byte-identical
output files.

Config sections; a key marked * is required (exit 2 when missing) and
the others show their defaults; sweep needs a [sweep] section::

    [weight]            kind = power | zygmund | custom | unweighted
                        alpha*                 (power, zygmund)
                        beta*  c*              (zygmund)
                        g_expr*  g_prime_expr*   (custom, in s)
                        alpha1*  alpha2*         (custom)
    [equation]          dim_n*   p*   m*
    [grid]              r_max*   n_cells*
    [simulate]          t_end*   bump_radius = 1   bump_height = 1
                        n_outputs = 97   output_decades = 8
    [weight_check]      s_min = 1e-3  <  s_max = 1e3   n_samples = 200
                        tau_grid = 1e2, 1e4, 1e6, 1e8   (each tau > e)
    [inequalities]      kinds = poincare, radial_sobolev, bounded_sobolev
                        q = 3.0   radii = 1, 2, 4   n_random = 4
    [sweep]             alphas = 0.5   (power or zygmund weight;
                        beta and c stay as configured)
                        ps = 2.0   ms = 2.0
                        t_ends = t_end for every alpha, or one per alpha
"""

from __future__ import annotations

import argparse
import ast
import configparser
import csv
import math
import sys
from pathlib import Path

import numpy as np

from . import envelopes as env_mod
from . import inequalities as ineq
from . import solver
from . import weights
from .errors import ExpdiffError, FitRefusedError, InvalidParameterError

FLOAT_FMT = ".17g"

_EXPR_NAMES = {
    "exp": np.exp, "log": np.log, "sqrt": np.sqrt, "sin": np.sin,
    "cos": np.cos, "tanh": np.tanh, "abs": np.abs, "power": np.power,
    "pi": math.pi, "e": math.e,
}


def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "PASS" if x else "FAIL"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return format(float(x), FLOAT_FMT)
    return str(x)


def write_csv(path: Path, header: list[str], rows: list, meta: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for key in sorted(meta):
            fh.write(f"# {key}={meta[key]}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _floats(text: str) -> list[float]:
    return [float(tok) for tok in text.replace(",", " ").split()]


def _nonempty_floats(text: str) -> list[float]:
    values = _floats(text)
    if not values:
        raise ValueError("must list at least one value")
    return values


#: the kinds ``[inequalities] kinds`` accepts, in the order of its default
_INEQUALITY_KINDS = (ineq.POINCARE, ineq.RADIAL_SOBOLEV, ineq.BOUNDED_SOBOLEV)


def _kinds(text: str) -> list[str]:
    kinds = [tok.strip() for tok in text.split(",") if tok.strip()]
    if not kinds:
        raise ValueError("must list at least one value")
    for kind in kinds:
        if kind not in _INEQUALITY_KINDS:
            raise ValueError(f"unknown kind {kind!r}, expected one of "
                             f"{', '.join(_INEQUALITY_KINDS)}")
    return kinds


def _taus(text: str) -> list[float]:
    taus = _nonempty_floats(text)
    if not all(math.isfinite(tau) and tau > math.e for tau in taus):
        raise ValueError("every tau must be finite and exceed e so that log(tau) > 1")
    return taus


def _positive(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise ValueError("must be finite and positive")
    return value


def _radii(text: str) -> list[float]:
    radii = _nonempty_floats(text)
    if not all(math.isfinite(r) and r > 0 for r in radii):
        raise ValueError("every radius must be finite and positive")
    return radii


def _count(low: int):
    """Conversion to an int that is at least ``low``."""
    def convert(text: str) -> int:
        value = int(text)
        if value < low:
            raise ValueError(f"must be at least {low}")
        return value
    return convert


def _value(cfg: configparser.ConfigParser, section: str, key: str,
           convert=float, fallback=None):
    """``[section] key`` read by ``convert`` (float, int, _floats,
    _nonempty_floats, _kinds, _taus, _radii, _positive or a _count):
    ``fallback`` when the key is absent, or without one the
    configparser.Error that names the missing section or key.  Text that
    ``convert`` refuses raises InvalidParameterError naming the key and
    the reason."""
    if fallback is not None and not cfg.has_option(section, key):
        return fallback
    text = cfg.get(section, key)
    try:
        return convert(text)
    except ValueError as exc:
        raise InvalidParameterError(
            f"[{section}] {key}: malformed value {text!r} ({exc})") from None


#: arithmetic allowed in config expressions
_EXPR_OPS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.FloorDiv, ast.Mod,
             ast.Pow, ast.UAdd, ast.USub)


def _expr_node_ok(node: ast.AST) -> bool:
    if isinstance(node, ast.Constant):
        return type(node.value) in (int, float)
    if isinstance(node, ast.Name):
        return node.id == "s" or node.id in _EXPR_NAMES
    if isinstance(node, ast.Call):
        return isinstance(node.func, ast.Name) and callable(_EXPR_NAMES.get(node.func.id))
    return isinstance(node, (ast.Expression, ast.Load, ast.UnaryOp, ast.BinOp) + _EXPR_OPS)


def _compile_expr(expr: str, name: str):
    """Compile the config expression ``name`` in ``s``, built only from
    numbers, the names in _EXPR_NAMES, arithmetic and calls of
    whitelisted functions.  Every number is made a float, so a constant
    power overflows at once instead of growing an exact integer.  An
    evaluation runs with numpy's divide, overflow and invalid errors
    raised (underflow is benign), and an ArithmeticError of it is
    refused as InvalidParameterError naming the expression."""
    try:
        tree = ast.parse(expr, mode="eval")
    except SyntaxError as exc:
        raise InvalidParameterError(
            f"{name}: cannot parse expression {expr!r}: {exc.msg}") from None
    for node in ast.walk(tree):
        if not _expr_node_ok(node):
            raise InvalidParameterError(
                f"{name}: expression {expr!r} uses {type(node).__name__}, "
                "which is not allowed"
            )
        if isinstance(node, ast.Constant):
            try:
                node.value = float(node.value)
            except OverflowError:
                raise InvalidParameterError(
                    f"{name}: constant in {expr!r} is too large for a float") from None
    code = compile(tree, "<config>", "eval")

    def fn(s):
        try:
            with np.errstate(divide="raise", over="raise", invalid="raise"):
                return eval(code, {"__builtins__": {}}, dict(_EXPR_NAMES, s=s))
        except ArithmeticError as exc:  # FloatingPointError included
            raise InvalidParameterError(f"{name} = {expr!r} failed: {exc}") from None

    return fn


def _weight_kind(cfg: configparser.ConfigParser) -> str:
    return cfg.get("weight", "kind", fallback="power").strip().lower()


def build_weight(cfg: configparser.ConfigParser) -> weights.WeightSpec:
    """The [weight] section's weight; a missing section or key raises the
    configparser.Error that names it."""
    kind = _weight_kind(cfg)
    if kind == "power":
        return weights.make_power_weight(_value(cfg, "weight", "alpha"))
    if kind == "zygmund":
        return weights.make_zygmund_weight(_value(cfg, "weight", "alpha"),
                                           _value(cfg, "weight", "beta"),
                                           _value(cfg, "weight", "c"))
    if kind == "custom":
        return weights.make_custom_weight(
            _compile_expr(cfg.get("weight", "g_expr"), "[weight] g_expr"),
            _compile_expr(cfg.get("weight", "g_prime_expr"), "[weight] g_prime_expr"),
            _value(cfg, "weight", "alpha1"), _value(cfg, "weight", "alpha2"))
    if kind == "unweighted":
        return weights.make_unweighted()
    raise InvalidParameterError(f"unknown weight kind {kind!r}")


def build_equation(cfg: configparser.ConfigParser) -> weights.EquationParams:
    return weights.EquationParams(dim_n=_value(cfg, "equation", "dim_n", int),
                                  p=_value(cfg, "equation", "p"),
                                  m=_value(cfg, "equation", "m"))


def _require_section(cfg: configparser.ConfigParser, name: str) -> None:
    """NoSectionError for a section whose keys all have defaults."""
    if not cfg.has_section(name):
        raise configparser.NoSectionError(name)


def _load_config(path: str) -> configparser.ConfigParser:
    cfg = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    read = cfg.read(path)
    if not read:
        raise InvalidParameterError(f"config file {path} not found")
    return cfg


def _growing_weight(cfg: configparser.ConfigParser, command: str) -> weights.WeightSpec:
    """The [weight] section's weight, refused when it is the unweighted
    (g = 0) mode, which has no envelope or structural condition to check."""
    w = build_weight(cfg)
    if not w.is_weighted:
        raise InvalidParameterError(
            f"{command} applies to growing weights, not the unweighted (g = 0) mode")
    return w


# ---------------------------------------------------------------------------
# weight-check


def cmd_weight_check(cfg, out: Path, seed: int) -> int:
    w = _growing_weight(cfg, "weight-check")
    eq = build_equation(cfg)
    eq.validate_with_weight(w)
    s_min = _value(cfg, "weight_check", "s_min", _positive, 1e-3)
    s_max = _value(cfg, "weight_check", "s_max", _positive, 1e3)
    n = _value(cfg, "weight_check", "n_samples", _count(1), 200)
    samples = np.geomspace(s_min, s_max, n)
    if not s_min < s_max or np.any(np.diff(samples) <= 0):
        raise InvalidParameterError(
            f"[weight_check] s_min, s_max: need s_min < s_max with {n} distinct "
            f"samples between them, got s_min={s_min!r}, s_max={s_max!r}")
    if w.kind == weights.KIND_ZYGMUND:
        taus = _value(cfg, "weight_check", "tau_grid", _taus, [1e2, 1e4, 1e6, 1e8])
    rng = np.random.default_rng(seed)
    zs = np.exp(rng.uniform(math.log(1e-2), math.log(1e3), size=40))
    pairs = [(float(z), float(lam)) for z, lam in zip(
        np.exp(rng.uniform(math.log(1e-2), math.log(1e2), size=40)),
        np.concatenate([np.exp(rng.uniform(0.0, math.log(100.0), size=20)),
                        np.exp(rng.uniform(math.log(0.01), 0.0, size=20))]))]
    cond = weights.check_structural_conditions(w, eq)

    # unguarded: an error of a config expression at the samples ends the command
    envelope = weights.validate_envelope(w, samples)
    # (name, check, gated): the name heads the check's row whatever its
    # outcome, an error is the row's note, and an ungated check is
    # reported but cannot fail the command
    checks = [
        ("envelope alpha1*g(s)/s <= g'(s) <= alpha2*g(s)/s", lambda: envelope, True),
        ("primitive sandwich g(s)s/(a2+1) <= int_0^s g <= g(s)s/(a1+1)",
         lambda: weights.check_sandwich(w, samples), True),
        ("lam bounds a1/(a1+1) g/s <= lam <= a2/(a2+1) g/s",
         lambda: weights.check_lambda_bounds(w, samples), True),
        ("inversion round trip |g(ginv(z)) - z| <= tol * max(1, z)",
         lambda: weights.check_inversion_roundtrip(w, zs), True),
        ("inverse scaling ginv(z) lam^(1/a2) <= ginv(z lam) <= ginv(z) lam^(1/a1)",
         lambda: weights.check_inverse_scaling(w, pairs), True),
        ("monotone radial quantities (finite differences)",
         lambda: weights.check_monotone_quantities(w, eq, samples),
         cond.flux_monotone_ok and cond.dual_monotone_ok),
    ]
    rows = []
    gated_failures = 0
    for name, check, gated in checks:
        try:
            rep = check()
            row = (name, "PASS" if rep.passed else "FAIL", rep.worst_violation,
                   rep.tolerance, "" if gated else "structural conditions not satisfied")
        except ExpdiffError as exc:
            row = (name, "FAIL", "", "", f"error: {exc}")
        rows.append(row)
        gated_failures += gated and row[1] == "FAIL"
    for name, ok in (("flux monotonicity condition", cond.flux_monotone_ok),
                     ("dual monotonicity condition", cond.dual_monotone_ok),
                     ("sup-decay alpha range", cond.sup_decay_range_ok),
                     ("alpha2 < 1", cond.alpha2_below_one),
                     ("alpha2 < min(N, p/(p-1))", cond.alpha2_below_cap)):
        rows.append((name, "TRUE" if ok else "FALSE", "", "", "informational"))

    meta = {"seed": seed, "weight": w.label(), "dim_n": eq.dim_n,
            "p": _fmt(eq.p), "m": _fmt(eq.m)}
    write_csv(out / "weight_check.csv",
              ["check", "verdict", "worst_violation", "tolerance", "note"],
              rows, meta)

    if w.kind == weights.KIND_ZYGMUND:
        write_csv(out / "zygmund_asymptotics.csv", ["tau", "A"],
                  weights.zygmund_inverse_asymptotics(w, taus), meta)

    for row in rows:
        print(f"{row[1]:>5}  {row[0]}")
    return 0 if gated_failures == 0 else 1


# ---------------------------------------------------------------------------
# inequalities


def cmd_inequalities(cfg, out: Path, seed: int) -> int:
    w = _growing_weight(cfg, "inequalities")
    eq = build_equation(cfg)
    eq.validate_with_weight(w)
    kinds = _value(cfg, "inequalities", "kinds", _kinds, list(_INEQUALITY_KINDS))
    q = _value(cfg, "inequalities", "q", _positive, 3.0)
    radii = _value(cfg, "inequalities", "radii", _radii, [1.0, 2.0, 4.0])
    n_random = _value(cfg, "inequalities", "n_random", _count(0), 4)
    rng = np.random.default_rng(seed)

    rows = []
    all_pass = True
    for kind in kinds:
        if kind == ineq.BOUNDED_SOBOLEV:
            reports = []
            for big_r in radii:
                family = (ineq.bump_family(radii=(big_r / 4, big_r / 2, big_r),
                                           powers=(1.0, 2.0, 3.0))
                          + ineq.random_family(rng, n_random, fixed_radius=big_r))
                reports.append(ineq.verify_inequality(kind, w, eq, q=q,
                                                      big_r=big_r, family=family))
        else:
            family = ineq.bump_family() + ineq.random_family(rng, n_random)
            reports = [ineq.verify_inequality(
                kind, w, eq, q=q if kind == ineq.RADIAL_SOBOLEV else None, family=family)]
        for rep in reports:
            all_pass &= rep.verdict
            for label, lhs, rhs, ratio in rep.per_function:
                rows.append((rep.kind, rep.params["weight"], eq.dim_n, eq.p,
                             rep.params["q"], rep.params.get("R") or "",
                             label, lhs, rhs, ratio, rep.certified_constant,
                             rep.beta_sup, rep.closed_form_bound, rep.kqp,
                             rep.verdict))
            print(f"{'PASS' if rep.verdict else 'FAIL':>5}  {rep.kind}"
                  f"  worst_ratio={rep.empirical_worst_ratio:.6g}"
                  f"  certified={rep.certified_constant:.6g}")

    meta = {"seed": seed, "weight": w.label(), "dim_n": eq.dim_n,
            "p": _fmt(eq.p), "m": _fmt(eq.m)}
    write_csv(out / "inequalities.csv",
              ["kind", "weight", "N", "p", "q", "R", "function", "lhs", "rhs",
               "ratio", "certified", "beta_sup", "closed_form_bound", "kqp",
               "verdict"],
              rows, meta)
    return 0 if all_pass else 1


# ---------------------------------------------------------------------------
# simulate


def _solver_config(cfg) -> solver.SolverConfig:
    w = build_weight(cfg)
    eq = build_equation(cfg)
    r_max, n_cells = _value(cfg, "grid", "r_max"), _value(cfg, "grid", "n_cells", int)
    _require_section(cfg, "simulate")
    t_end = _value(cfg, "simulate", "t_end", _positive)
    # one output would end the run at t_end * 10^-decades
    n_outputs = _value(cfg, "simulate", "n_outputs", _count(2), 97)
    decades = _value(cfg, "simulate", "output_decades", _positive, 8.0)
    outs = np.geomspace(t_end * 10.0 ** (-decades), t_end, n_outputs)
    return solver.SolverConfig(
        eq=eq, weight=w, r_max=r_max, n_cells=n_cells, output_times=outs,
        bump_radius=_value(cfg, "simulate", "bump_radius", fallback=1.0),
        bump_height=_value(cfg, "simulate", "bump_height", fallback=1.0),
    )


def _barenblatt_exponent(eq: weights.EquationParams) -> float:
    """Self-similar sup decay exponent of the unweighted doubly nonlinear
    equation: -N / (N(p+m-3) + p)."""
    n = eq.dim_n
    return -n / (n * eq.kappa + eq.p)


def _refused_fit_row(model: str, reason: str) -> tuple:
    return (model, "", "", "", "", "", "", "", 0, reason)


def _fit_rows(traj: solver.Trajectory, scfg: solver.SolverConfig) -> list:
    rows = []
    if scfg.weight.is_weighted:
        for model in (solver.SUPPORT_ENVELOPE, solver.SUP_ENVELOPE):
            try:
                rep = solver.fit_rates(traj, model)
                rows.append((model, rep.slope, rep.target_slope, rep.c_fit,
                             rep.band_max, rep.band_min,
                             rep.window[0], rep.window[1], rep.n_points, "ok"))
            except FitRefusedError as exc:
                rows.append(_refused_fit_row(model, str(exc)))
    else:
        t = traj.times[1:]
        keep = t >= t[-1] / 10.0
        n_keep = int(keep.sum())
        if n_keep < solver.MIN_FIT_SAMPLES:
            rows.append(_refused_fit_row(
                "sup_power_law", f"too few samples in the last decade "
                                 f"({n_keep} < {solver.MIN_FIT_SAMPLES})"))
        else:
            slope = solver.line_slope(np.log(t[keep]), np.log(traj.sup_u[1:][keep]))
            rows.append(("sup_power_law", slope, _barenblatt_exponent(scfg.eq),
                         "", "", "", t[keep][0], t[-1], n_keep, "ok"))
    return rows


def _envelope_rows(traj: solver.Trajectory, scfg: solver.SolverConfig) -> list:
    if not scfg.weight.is_weighted:
        return []
    par = env_mod.EnvelopeParams(eq=scfg.eq, weight=scfg.weight, mass0=traj.mass0)
    t, sup_u, radius = traj.times[1:], traj.sup_u[1:], traj.support_radius[1:]
    late = par.large_time(t)
    sup_env = np.full_like(t, math.nan)
    sup_env[late] = env_mod.sup_envelope(par, t[late])
    support_env = env_mod.support_envelope(par, t)
    return list(zip(t, sup_u, sup_env, sup_u / sup_env,
                    radius, support_env, radius / support_env))


def cmd_simulate(cfg, out: Path, seed: int) -> int:
    scfg = _solver_config(cfg)
    traj = solver.run(scfg)
    meta = {"seed": seed, "weight": scfg.weight.label(), "dim_n": scfg.eq.dim_n,
            "p": _fmt(scfg.eq.p), "m": _fmt(scfg.eq.m),
            "mass0": _fmt(traj.mass0), "n_cells": scfg.n_cells,
            "r_max": _fmt(scfg.r_max)}
    write_csv(out / "trajectory.csv", ["t", "sup_u", "support_radius", "mass", "dt_last"],
              list(zip(traj.times, traj.sup_u, traj.support_radius, traj.mass,
                       traj.dt_last)), meta)
    write_csv(out / "envelope_comparison.csv",
              ["t", "sup_u", "sup_envelope", "sup_ratio",
               "support_radius", "support_envelope", "support_ratio"],
              _envelope_rows(traj, scfg), meta)
    fit_rows = _fit_rows(traj, scfg)
    write_csv(out / "fit_summary.csv",
              ["model", "slope", "target_slope", "c_fit", "band_max",
               "band_min", "window_lo", "window_hi", "n_points", "status"],
              fit_rows, meta)
    print(f"simulated to t={traj.times[-1]:g}: mass drift "
          f"{abs(traj.mass[-1] / traj.mass0 - 1.0):.3e}, "
          f"sup={traj.sup_u[-1]:.6g}, support={traj.support_radius[-1]:g}, "
          f"steps={traj.steps} rejected={traj.rejected_steps} "
          f"newton={traj.newton_iterations} "
          f"clipped_mass={traj.clipped_mass:.3e}")
    for row in fit_rows:
        print(f"  fit {row[0]}: slope={row[1]} target={row[2]} ({row[-1]})")
    return 0


# ---------------------------------------------------------------------------
# sweep


def _sweep_config(cfg, alpha: float, p: float, m: float,
                  t_end: float | None) -> solver.SolverConfig:
    """The solver config of ``cfg`` with its weight's alpha, p, m and,
    when given, t_end replaced, written into ``cfg`` (``repr`` of a float
    reads back exactly)."""
    for section, key, value in (("weight", "alpha", alpha), ("equation", "p", p),
                                ("equation", "m", m), ("simulate", "t_end", t_end)):
        if value is not None:
            cfg.set(section, key, repr(value))
    return _solver_config(cfg)


def _sweep_one(args):
    """One sweep row; an ExpdiffError empties its numbers and is its status."""
    cfg_path, alpha, p, m, t_end = args
    try:
        scfg = _sweep_config(_load_config(cfg_path), alpha, p, m, t_end)
        traj = solver.run(scfg)
        rep = solver.fit_rates(traj, solver.SUPPORT_ENVELOPE)
        sup_rep = solver.fit_rates(traj, solver.SUP_ENVELOPE)
    except ExpdiffError as exc:
        return (alpha, p, m, "", "", "", "", "", "", str(exc))
    return (alpha, p, m, traj.mass0, rep.slope, rep.target_slope,
            abs(rep.slope - rep.target_slope) / abs(rep.target_slope),
            rep.c_fit, sup_rep.band_ratio, "ok")


def cmd_sweep(cfg, out: Path, seed: int, jobs: int, cfg_path: str) -> int:
    _require_section(cfg, "sweep")
    kind = _weight_kind(cfg)
    if kind not in (weights.KIND_POWER, weights.KIND_ZYGMUND):
        raise InvalidParameterError(
            f"an alpha sweep needs a power or zygmund weight, got {kind}")
    alphas = _value(cfg, "sweep", "alphas", _nonempty_floats, [0.5])
    ps = _value(cfg, "sweep", "ps", _nonempty_floats, [2.0])
    ms = _value(cfg, "sweep", "ms", _nonempty_floats, [2.0])
    # optional per-alpha end times: the asymptotic window opens later for
    # weaker weights, so each alpha may carry its own horizon
    t_ends = _value(cfg, "sweep", "t_ends", _floats, []) or [None] * len(alphas)
    if len(t_ends) != len(alphas):
        raise InvalidParameterError("t_ends must match alphas in length")
    tasks = [(cfg_path, a, p, m, te)
             for a, te in zip(alphas, t_ends) for p in ps for m in ms]
    if jobs > 1 and len(tasks) > 1:
        # imported here: concurrent.futures pulls in multiprocessing and
        # logging, which no other command needs
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
            results = list(pool.map(_sweep_one, tasks))
    else:
        results = [_sweep_one(t) for t in tasks]
    meta = {"seed": seed, "jobs_invariant": "aggregation ordered by config"}
    write_csv(out / "sweep.csv",
              ["alpha", "p", "m", "mass0", "support_slope", "target_slope",
               "slope_rel_err", "c_fit", "sup_band_ratio", "status"],
              results, meta)
    for row in results:
        what = (f"slope={row[4]:.4f} target={row[5]:.4f} rel_err={row[6]:.3f}"
                if row[-1] == "ok" else row[-1])
        print(f"alpha={row[0]:g} p={row[1]:g} m={row[2]:g}: {what}")
    return 0 if all(row[-1] == "ok" for row in results) else 1


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="expdiff",
        description="Numerical laboratory for exponentially weighted "
                    "degenerate diffusion")
    parser.add_argument("command",
                        choices=["weight-check", "inequalities", "simulate", "sweep"])
    parser.add_argument("--config", required=True, help="INI config path")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--jobs", type=int, default=1)
    args = parser.parse_args(argv)
    out = Path(args.out)
    try:
        if args.seed < 0:
            raise InvalidParameterError(f"--seed must be at least 0, got {args.seed}")
        if args.jobs < 1:
            raise InvalidParameterError(f"--jobs must be at least 1, got {args.jobs}")
        cfg = _load_config(args.config)
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise InvalidParameterError(f"cannot create --out {out}: {exc.strerror}") from None
        if args.command == "weight-check":
            return cmd_weight_check(cfg, out, args.seed)
        if args.command == "inequalities":
            return cmd_inequalities(cfg, out, args.seed)
        if args.command == "simulate":
            return cmd_simulate(cfg, out, args.seed)
        return cmd_sweep(cfg, out, args.seed, args.jobs, args.config)
    except (ExpdiffError, configparser.Error) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
