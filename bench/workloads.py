"""The benchmark's workloads: inputs from a seed, set-up, one operation,
and the checks every operation's output must pass.

Import ``bootstrap`` and call it before importing this module.

Each workload offers:

* ``make_inputs(seed, smoke, workdir)`` -> a JSON-able dict.  All inputs
  the program sees are generated here (config files go to ``workdir``).
* ``setup(inputs)`` -> state: what a fresh interpreter does before its
  first useful operation.  ``probe.py`` times it for ``setup_s``.
* ``operation(state)`` -> result: the timed unit of work.
* ``check(state, result)`` -> (problems, observations).  An operation
  whose problem list is non-empty counts as failed.
"""

from __future__ import annotations

import configparser
import contextlib
import csv
import io
import json
import shutil
from pathlib import Path

import numpy as np

from expdiff import cli, inequalities, solver, weights
from expdiff.errors import ExpdiffError

from bootstrap import ROOT

#: mass conservation the solver promises, checked on trajectory.csv
MASS_DRIFT_MAX = 1e-6
#: largest accepted max/min band of sup(u) / sup envelope
SUP_BAND_MAX = 10.0
#: accepted relative error of the power-weight support slope against 1/alpha
SLOPE_RTOL = 0.15
#: slack on beta_numeric <= criterion_bound, as in the acceptance suite
CRITERION_SLACK = 1e-9
#: tolerance against the recorded reference table; equal to
#: measure.INTEGRATE_RTOL at the commit that recorded the table
REFERENCE_RTOL = 1e-10
REFERENCE_PATH = Path(__file__).resolve().parent / "reference_certify.json"
#: bump heights drawn by seeds other than 0 (seed 0 keeps height 1).  Every
#: check passes on [0.5, 2], but the explicit solver's step count grows with
#: the mass: on simulate_power_ref one run takes 4.7 s at height 0.5 and
#: 8.3 s at height 2, so seeds drawn from that range would spread
#: time_to_solution_s by ~25% between quartiles.  This band keeps the
#: seed's share of that spread near 4%.
HEIGHT_RANGE = (0.9, 1.1)


def _read_csv(path: Path) -> tuple[dict, list[dict]]:
    """Rows of a CLI CSV file and its ``# key=value`` header."""
    meta, lines = {}, []
    with open(path, encoding="utf-8", newline="") as fh:
        for line in fh:
            if line.startswith("# "):
                key, _, val = line[2:].rstrip("\n").partition("=")
                meta[key] = val
            else:
                lines.append(line)
    return meta, list(csv.DictReader(lines))


# ---------------------------------------------------------------------------
# simulate_*


def _power_ref_config() -> configparser.ConfigParser:
    cfg = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    if not cfg.read(ROOT / "configs" / "power_reference.ini"):
        raise FileNotFoundError(ROOT / "configs" / "power_reference.ini")
    return cfg


def _zygmund_plap_config() -> configparser.ConfigParser:
    cfg = configparser.ConfigParser()
    cfg.read_dict({
        "weight": {"kind": "zygmund", "alpha": "0.5", "beta": "1.0", "c": "2.0"},
        "equation": {"dim_n": "3", "p": "2.5", "m": "1.0"},
        "grid": {"r_max": "60", "n_cells": "800"},
        "simulate": {"t_end": "1e6", "bump_radius": "1.0", "bump_height": "1.0",
                     "n_outputs": "97", "output_decades": "8"},
    })
    return cfg


class SimulateWorkload:
    """``expdiff simulate`` run in-process on a generated config."""

    def __init__(self, name: str, why: str, base_config, check_slope: bool):
        self.name = name
        self.why = why
        self._base_config = base_config
        self._check_slope = check_slope

    def make_inputs(self, seed: int, smoke: bool, workdir: Path) -> dict:
        cfg = self._base_config()
        if seed != 0:
            height = float(np.random.default_rng(seed).uniform(*HEIGHT_RANGE))
            cfg["simulate"]["bump_height"] = repr(height)
        if smoke:
            cfg["grid"]["n_cells"] = "200"
        path = workdir / f"{self.name}.ini"
        with open(path, "w", encoding="utf-8") as fh:
            cfg.write(fh)
        return {"config": str(path), "seed": seed, "out": str(workdir / "out")}

    def setup(self, inputs: dict):
        cfg = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
        cfg.read(inputs["config"])
        w = cli.build_weight(cfg)
        eq = cli.build_equation(cfg)
        solver.make_grid(w, eq.dim_n, cfg["grid"].getfloat("r_max"),
                         cfg["grid"].getint("n_cells"))
        return {"inputs": inputs, "r_max": cfg["grid"].getfloat("r_max"),
                "alpha": w.alpha1}

    def operation(self, state) -> int:
        inputs = state["inputs"]
        shutil.rmtree(inputs["out"], ignore_errors=True)
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(["simulate", "--config", inputs["config"],
                             "--out", inputs["out"], "--seed", str(inputs["seed"])])

    def check(self, state, rc: int) -> tuple[list[str], dict]:
        if rc != 0:
            return [f"exit code {rc}"], {}
        out = Path(state["inputs"]["out"])
        problems = []
        _, fits = _read_csv(out / "fit_summary.csv")
        by_model = {row["model"]: row for row in fits}
        for model in (solver.SUPPORT_ENVELOPE, solver.SUP_ENVELOPE):
            status = by_model.get(model, {}).get("status")
            if status != "ok":
                problems.append(f"fit {model}: status {status!r}")
        if not problems:
            sup_row = by_model[solver.SUP_ENVELOPE]
            band = float(sup_row["band_max"]) / float(sup_row["band_min"])
            if not band <= SUP_BAND_MAX:
                problems.append(f"sup band {band:.4g} > {SUP_BAND_MAX:g}")
            slope = float(by_model[solver.SUPPORT_ENVELOPE]["slope"])
            target = 1.0 / state["alpha"]
            if self._check_slope and not abs(slope / target - 1.0) <= SLOPE_RTOL:
                problems.append(f"support slope {slope:.4f} not within "
                                f"{SLOPE_RTOL:.0%} of {target:g}")
        meta, traj = _read_csv(out / "trajectory.csv")
        mass0 = float(meta["mass0"])
        drift = max(abs(float(row["mass"]) / mass0 - 1.0) for row in traj)
        if not drift <= MASS_DRIFT_MAX:
            problems.append(f"mass drift {drift:.3e} > {MASS_DRIFT_MAX:g}")
        support = float(traj[-1]["support_radius"])
        if not support < state["r_max"]:
            problems.append(f"final support {support:g} reached r_max")
        return problems, {"dt_final": float(traj[-1]["dt_last"])}


# ---------------------------------------------------------------------------
# certify_mixed

#: (weight, (N, p, m)) cases of the Poincare certification
POINCARE_CASES = (
    (("power", 0.3), (3, 2.0, 2.0)),
    (("power", 0.5), (3, 2.0, 2.0)),
    (("power", 0.9), (4, 3.0, 0.5)),
    (("power", 0.5), (4, 2.5, 1.0)),
    (("zygmund", 0.5, 1.0, 2.0), (3, 2.0, 2.0)),
)
SOBOLEV_CASE = (("power", 0.5), (3, 2.0, 2.0))
SOBOLEV_Q = 3.0
BALL_RADII = (1.0, 2.0, 4.0)
N_RANDOM = 4


def _make_weight(spec) -> weights.WeightSpec:
    if spec[0] == "power":
        return weights.make_power_weight(spec[1])
    return weights.make_zygmund_weight(*spec[1:])


def reference_key(rep, eq, label: str) -> str:
    """Row key of the reference table, as in the columns of inequalities.csv."""
    big_r = rep.params.get("R")
    return "|".join((rep.kind, rep.params["weight"], str(eq.dim_n), repr(eq.p),
                     repr(rep.params["q"]), "" if big_r is None else repr(big_r),
                     label))


class CertifyWorkload:
    """The criterion-2 certification set: Poincare on five (weight, N, p, m)
    cases, radial Sobolev, and bounded-ball Sobolev on three radii, each
    against the fixed bump families plus seeded random draws."""

    name = "certify_mixed"
    why = ("criterion-2 certification set: solver idle, time in quadrature, "
           "weights and measure, mostly the zygmund Poincare scan")

    def make_inputs(self, seed: int, smoke: bool, workdir: Path) -> dict:
        return {"seed": seed, "n_random": 1 if smoke else N_RANDOM}

    def setup(self, inputs: dict):
        rng = np.random.default_rng(inputs["seed"])
        n_random = inputs["n_random"]
        tasks = []
        for wspec, (n, p, m) in POINCARE_CASES:
            w = _make_weight(wspec)
            fixed = inequalities.bump_family()
            family = fixed + inequalities.random_family(rng, n_random)
            tasks.append((inequalities.POINCARE, w, weights.EquationParams(n, p, m),
                          {"family": family}, len(fixed)))
        w = _make_weight(SOBOLEV_CASE[0])
        eq = weights.EquationParams(*SOBOLEV_CASE[1])
        fixed = inequalities.bump_family()
        tasks.append((inequalities.RADIAL_SOBOLEV, w, eq,
                      {"q": SOBOLEV_Q,
                       "family": fixed + inequalities.random_family(rng, n_random)},
                      len(fixed)))
        for big_r in BALL_RADII:
            fixed = inequalities.bump_family(radii=(big_r / 4, big_r / 2, big_r),
                                             powers=(1.0, 2.0, 3.0))
            family = fixed + inequalities.random_family(rng, n_random,
                                                        fixed_radius=big_r)
            tasks.append((inequalities.BOUNDED_SOBOLEV, w, eq,
                          {"q": SOBOLEV_Q, "big_r": big_r, "family": family},
                          len(fixed)))
        for _, w, _, _, _ in tasks:
            w.g_primitive(1.0)  # builds the cached primitive anchors (zygmund)
        reference = (json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))["rows"]
                     if REFERENCE_PATH.is_file() else None)
        return {"tasks": tasks, "reference": reference}

    def operation(self, state) -> list:
        """Per task: (poincare constants or None, report); an ExpdiffError
        ends the operation and is returned in place of the list."""
        results = []
        try:
            for kind, w, eq, kwargs, _ in state["tasks"]:
                consts = (inequalities.poincare_constant(w, eq)
                          if kind == inequalities.POINCARE else None)
                results.append((consts, inequalities.verify_inequality(
                    kind, w, eq, **kwargs)))
        except ExpdiffError as exc:
            return exc
        return results

    def check(self, state, results) -> tuple[list[str], dict]:
        if isinstance(results, ExpdiffError):
            return [f"raised {type(results).__name__}: {results}"], {}
        reference = state["reference"]
        if reference is None:
            return [f"reference table {REFERENCE_PATH.name} missing"], {}
        problems = []
        for (_, w, eq, _, n_fixed), (consts, rep) in zip(state["tasks"], results):
            where = f"{rep.kind} {w.label()} N={eq.dim_n} p={eq.p:g}"
            if not rep.verdict:
                problems.append(f"{where}: verdict FAIL")
            if consts is not None and not (
                    consts.beta_numeric <= consts.criterion_bound * (1 + CRITERION_SLACK)):
                problems.append(f"{where}: beta_numeric {consts.beta_numeric!r} "
                                f"> criterion bound {consts.criterion_bound!r}")
            for label, lhs, rhs, _ in rep.per_function[:n_fixed]:
                ref = reference.get(reference_key(rep, eq, label))
                if ref is None:
                    problems.append(f"{where} {label}: no reference row")
                    continue
                got = {"lhs": lhs, "rhs": rhs, "certified": rep.certified_constant}
                for col, val in got.items():
                    if not abs(val - ref[col]) <= REFERENCE_RTOL * abs(ref[col]):
                        problems.append(f"{where} {label}: {col} {val!r} != "
                                        f"reference {ref[col]!r}")
        return problems, {}


def reference_rows(state, results) -> dict:
    """Reference-table rows (fixed families only) of one certification."""
    rows = {}
    for (_, _, eq, _, n_fixed), (_, rep) in zip(state["tasks"], results):
        for label, lhs, rhs, _ in rep.per_function[:n_fixed]:
            rows[reference_key(rep, eq, label)] = {
                "lhs": lhs, "rhs": rhs, "certified": rep.certified_constant}
    return rows


WORKLOADS = {wl.name: wl for wl in (
    SimulateWorkload(
        "simulate_power_ref",
        "paper's reference run (power weight, p = m = 2): the explicit solver "
        "fast path is ~98% of the time, quadrature only builds the grid",
        _power_ref_config, check_slope=True),
    SimulateWorkload(
        "simulate_zygmund_plap",
        "same solver on the general p-Laplacian flux path, a weight with no "
        "closed-form primitive, and fit_rates inverting g by bisection",
        _zygmund_plap_config, check_slope=False),
    CertifyWorkload(),
)}
