"""Command line front end: config validation, outputs, determinism."""

import configparser
import csv
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from expdiff import cli, solver, weights
from expdiff.errors import InvalidParameterError

ROOT = Path(__file__).resolve().parents[1]

POWER_INI = """
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
[weight_check]
s_min = 1e-3
s_max = 1e3
n_samples = 120
[inequalities]
kinds = poincare
q = 3.0
radii = 1
n_random = 2
[sweep]
alphas = 0.5
ps = 2.0
ms = 2.0
"""

BAD_CUSTOM_INI = """
[weight]
kind = custom
# g'(s) s / g(s) = s e^s/(e^s - 1) is unbounded: no alpha2 can work
g_expr = exp(s) - 1
g_prime_expr = exp(s)
alpha1 = 1.0
alpha2 = 1.9
[equation]
dim_n = 5
p = 2.0
m = 2.0
[weight_check]
s_min = 1e-2
s_max = 10
n_samples = 60
"""

ZYGMUND_INI = """
[weight]
kind = zygmund
alpha = 0.5
beta = 1.0
c = 2.0
[equation]
dim_n = 3
p = 2.0
m = 2.0
[weight_check]
tau_grid = 1e2, 1e4
"""


@pytest.fixture
def power_cfg(tmp_path):
    path = tmp_path / "power.ini"
    path.write_text(POWER_INI)
    return str(path)


def test_weight_check_power_exits_zero(power_cfg, tmp_path, capsys):
    rc = cli.main(["weight-check", "--config", power_cfg,
                   "--out", str(tmp_path / "o")])
    assert rc == 0
    assert (tmp_path / "o" / "weight_check.csv").exists()


def test_weight_check_invalid_custom_nonzero(tmp_path, capsys):
    path = tmp_path / "bad.ini"
    path.write_text(BAD_CUSTOM_INI)
    rc = cli.main(["weight-check", "--config", str(path),
                   "--out", str(tmp_path / "o")])
    assert rc != 0
    out = capsys.readouterr().out
    # the report must name the envelope condition that failed
    assert "FAIL" in out
    assert "alpha1*g(s)/s <= g'(s) <= alpha2*g(s)/s" in out


TANH_INI = """
[weight]
kind = custom
# g = tanh(s) is bounded, so inverting it at z >= 1 raises
g_expr = tanh(s)
g_prime_expr = 1 - tanh(s)**2
alpha1 = 0.5
alpha2 = 1.0
[equation]
dim_n = 3
p = 2.0
m = 2.0
"""


def test_weight_check_row_names_do_not_depend_on_outcome(power_cfg, tmp_path):
    # a check that raised was written under a shorter name than the one
    # it has when it passes or fails
    tanh_cfg = tmp_path / "tanh.ini"
    tanh_cfg.write_text(TANH_INI)
    tables = []
    for name, config in (("tanh", str(tanh_cfg)), ("power", power_cfg)):
        cli.main(["weight-check", "--config", config, "--out", str(tmp_path / name)])
        text = (tmp_path / name / "weight_check.csv").read_text()
        tables.append(list(csv.DictReader(l for l in text.splitlines()
                                          if not l.startswith("#"))))
    tanh_rows, power_rows = tables
    assert sum(row["note"].startswith("error:") for row in tanh_rows) == 2
    assert not any(row["note"].startswith("error:") for row in power_rows)
    assert [row["check"] for row in tanh_rows] == [row["check"] for row in power_rows]


def test_weight_check_zygmund_writes_asymptotics(tmp_path):
    path = tmp_path / "z.ini"
    path.write_text(ZYGMUND_INI)
    rc = cli.main(["weight-check", "--config", str(path),
                   "--out", str(tmp_path / "o")])
    assert rc == 0
    table = (tmp_path / "o" / "zygmund_asymptotics.csv").read_text()
    assert table.splitlines()[-2].startswith("100,")  # tau column
    assert "A" in table


def test_inequalities_csv_schema(power_cfg, tmp_path):
    rc = cli.main(["inequalities", "--config", power_cfg,
                   "--out", str(tmp_path / "o"), "--seed", "5"])
    assert rc == 0
    lines = (tmp_path / "o" / "inequalities.csv").read_text().splitlines()
    header = [l for l in lines if not l.startswith("#")][0]
    assert header.split(",") == [
        "kind", "weight", "N", "p", "q", "R", "function", "lhs", "rhs",
        "ratio", "certified", "beta_sup", "closed_form_bound", "kqp", "verdict"]
    assert any(l.startswith("# seed=5") for l in lines)


def test_inequalities_keep_numpy_ma_out(tmp_path):
    # np.unique, np.isin and np.union1d import numpy.ma on their first
    # call, which raises peak memory, and so does importing
    # numpy.polynomial; a zygmund weight runs the family pass, g's
    # primitive below its first anchor and its primitive table
    ini = tmp_path / "small.ini"
    ini.write_text("[weight]\nkind = zygmund\nalpha = 0.5\nbeta = 1.0\nc = 2.0\n"
                   "[equation]\ndim_n = 3\np = 2.0\nm = 2.0\n"
                   "[inequalities]\nkinds = poincare\nn_random = 0\n")
    code = ("import sys\n"
            "from expdiff import cli\n"
            f"assert cli.main(['inequalities', '--config', {str(ini)!r}, "
            f"'--out', {str(tmp_path / 'o')!r}]) == 0\n"
            "assert 'numpy.ma' not in sys.modules\n"
            "assert 'numpy.polynomial' not in sys.modules\n")
    proc = subprocess.run([sys.executable, "-c", code],
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_simulate_outputs_and_schema(power_cfg, tmp_path):
    rc = cli.main(["simulate", "--config", power_cfg,
                   "--out", str(tmp_path / "o")])
    assert rc == 0
    traj = (tmp_path / "o" / "trajectory.csv").read_text().splitlines()
    header = [l for l in traj if not l.startswith("#")][0]
    assert header == "t,sup_u,support_radius,mass,dt_last"
    env = (tmp_path / "o" / "envelope_comparison.csv").read_text().splitlines()
    env_header = [l for l in env if not l.startswith("#")][0]
    assert env_header == ("t,sup_u,sup_envelope,sup_ratio,support_radius,"
                          "support_envelope,support_ratio")
    fit = (tmp_path / "o" / "fit_summary.csv").read_text()
    assert "support_envelope" in fit and "sup_envelope" in fit


def test_simulate_prints_solver_counts(power_cfg, tmp_path, capsys):
    rc = cli.main(["simulate", "--config", power_cfg, "--out", str(tmp_path / "o")])
    assert rc == 0
    summary = capsys.readouterr().out.splitlines()[0]
    counts = dict(item.split("=") for item in summary.split(", ")[-1].split())
    assert set(counts) == {"steps", "rejected", "newton", "clipped_mass"}
    assert int(counts["steps"]) > 0
    # holds only at the default BDF_TOL: at a tight one a step's start
    # often meets NEWTON_TOL without a solve
    assert int(counts["newton"]) >= int(counts["steps"])
    assert float(counts["clipped_mass"]) == 0.0


def test_simulate_deterministic(power_cfg, tmp_path):
    for name in ("a", "b"):
        rc = cli.main(["simulate", "--config", power_cfg,
                       "--out", str(tmp_path / name), "--seed", "9"])
        assert rc == 0
    for fname in ("trajectory.csv", "envelope_comparison.csv", "fit_summary.csv"):
        a = (tmp_path / "a" / fname).read_bytes()
        b = (tmp_path / "b" / fname).read_bytes()
        assert a == b, fname


def test_simulate_same_bytes_on_either_solve(tmp_path, monkeypatch):
    # the Python sweep does dgtsv's elimination, so the reference run
    # writes the same files on an install without the bundled LAPACK
    if solver._tridiagonal_solver() is solver._bind_thomas:
        pytest.skip("numpy bundles no scipy-openblas64 here")
    ini = str(ROOT / "configs" / "power_reference.ini")
    assert cli.main(["simulate", "--config", ini, "--out", str(tmp_path / "dgtsv")]) == 0
    monkeypatch.setattr(solver, "_tridiagonal_solver", lambda: solver._bind_thomas)
    assert cli.main(["simulate", "--config", ini, "--out", str(tmp_path / "sweep")]) == 0
    for fname in ("trajectory.csv", "envelope_comparison.csv", "fit_summary.csv"):
        a = (tmp_path / "dgtsv" / fname).read_bytes()
        b = (tmp_path / "sweep" / fname).read_bytes()
        assert a == b, fname


def test_sweep_single_matches_simulate(power_cfg, tmp_path):
    rc = cli.main(["sweep", "--config", power_cfg, "--out", str(tmp_path / "sw")])
    assert rc == 0
    rows = [l for l in (tmp_path / "sw" / "sweep.csv").read_text().splitlines()
            if not l.startswith("#")]
    assert len(rows) == 2  # header + one combination
    # degenerate sweep reproduces the simulate fit for the same config
    rc = cli.main(["simulate", "--config", power_cfg, "--out", str(tmp_path / "sim")])
    assert rc == 0
    fit_lines = [l for l in (tmp_path / "sim" / "fit_summary.csv").read_text().splitlines()
                 if l.startswith("support_envelope")]
    slope_sim = float(fit_lines[0].split(",")[1])
    slope_sweep = float(rows[1].split(",")[4])
    assert slope_sim == pytest.approx(slope_sweep, rel=1e-12)


def test_sweep_independent_of_worker_count(tmp_path):
    # two rows, so that --jobs 2 runs them in a pool of two workers
    path = tmp_path / "sw.ini"
    path.write_text(POWER_INI.replace("alphas = 0.5", "alphas = 0.4, 0.5"))
    for name, jobs in (("j1", "1"), ("j2", "2")):
        rc = cli.main(["sweep", "--config", str(path), "--jobs", jobs,
                       "--out", str(tmp_path / name)])
        assert rc == 0
    a = (tmp_path / "j1" / "sweep.csv").read_bytes()
    b = (tmp_path / "j2" / "sweep.csv").read_bytes()
    assert a == b


def test_sweep_keeps_rows_after_a_refusal(tmp_path):
    # t_end = 20 leaves no large-time window, so the second fit is refused
    path = tmp_path / "sw.ini"
    path.write_text(POWER_INI.replace("alphas = 0.5", "alphas = 0.5, 0.5\nt_ends = 1e6, 20"))
    rc = cli.main(["sweep", "--config", str(path), "--out", str(tmp_path / "sw")])
    assert rc == 1
    lines = [l for l in (tmp_path / "sw" / "sweep.csv").read_text().splitlines()
             if not l.startswith("#")]
    header, first, second = csv.reader(lines)
    assert header[-1] == "status"
    assert first[-1] == "ok" and float(first[4]) > 0
    assert second[3:9] == [""] * 6
    assert "large-time window" in second[-1]


def test_unweighted_needs_no_flag(tmp_path):
    # the weight states g = 0; the run fits sup(u) against the Barenblatt
    # exponent in place of the weighted envelopes
    ini = tmp_path / "u.ini"
    ini.write_text("""
[weight]
kind = unweighted
[equation]
dim_n = 1
p = 2.0
m = 2.0
[grid]
r_max = 20
n_cells = 100
[simulate]
t_end = 10
n_outputs = 9
output_decades = 2
""")
    rc = cli.main(["simulate", "--config", str(ini), "--out", str(tmp_path / "o")])
    assert rc == 0
    fit = (tmp_path / "o" / "fit_summary.csv").read_text().splitlines()
    rows = list(csv.DictReader(l for l in fit if not l.startswith("#")))
    assert [(row["model"], row["status"]) for row in rows] == [("sup_power_law", "ok")]


def test_unweighted_fit_refuses_short_last_decade(tmp_path):
    # two outputs leave one sample in the last decade, and polyfit took a
    # line through that one point
    cfg = _cfg((ROOT / "configs" / "pme_calibration.ini").read_text())
    cfg.set("simulate", "t_end", "40")
    cfg.set("simulate", "n_outputs", "2")
    ini = tmp_path / "short.ini"
    with open(ini, "w") as fh:
        cfg.write(fh)
    rc = cli.main(["simulate", "--config", str(ini), "--out", str(tmp_path / "o")])
    assert rc == 0
    fit = (tmp_path / "o" / "fit_summary.csv").read_text().splitlines()
    [row] = list(csv.DictReader(l for l in fit if not l.startswith("#")))
    assert row["model"] == "sup_power_law"
    assert row["slope"] == row["target_slope"] == row["window_lo"] == ""
    assert row["n_points"] == "0"
    assert row["status"] == "too few samples in the last decade (1 < 5)"


def test_weighted_fits_refuse_short_last_decade(tmp_path):
    # one output per decade leaves 3 samples in the support fit's two
    # decades and 2 in the last decade, which both fits read; each was
    # fitted and written as ok
    cfg = _cfg((ROOT / "configs" / "power_reference.ini").read_text())
    cfg.set("simulate", "n_outputs", "9")
    cfg.set("simulate", "output_decades", "8")
    ini = tmp_path / "sparse.ini"
    with open(ini, "w") as fh:
        cfg.write(fh)
    rc = cli.main(["simulate", "--config", str(ini), "--out", str(tmp_path / "o")])
    assert rc == 0
    fit = (tmp_path / "o" / "fit_summary.csv").read_text().splitlines()
    rows = list(csv.DictReader(l for l in fit if not l.startswith("#")))
    assert [(row["model"], row["slope"], row["n_points"], row["status"]) for row in rows] == [
        (model, "", "0", "too few samples in the last decade (2 < 5)")
        for model in (solver.SUPPORT_ENVELOPE, solver.SUP_ENVELOPE)]


@pytest.mark.parametrize("ini", [None, "pme_calibration.ini"])
def test_simulate_calls_no_polyfit(power_cfg, tmp_path, monkeypatch, ini):
    # the first np.polyfit of a process, a LAPACK least-squares solve,
    # raised the peak memory of a run by about 1 MB; the fits take their
    # slopes in closed form
    def refuse(*args, **kwargs):
        raise AssertionError("np.polyfit called")

    monkeypatch.setattr(np, "polyfit", refuse)
    path = power_cfg if ini is None else str(ROOT / "configs" / ini)
    assert cli.main(["simulate", "--config", path, "--out", str(tmp_path / "o")]) == 0
    fit = (tmp_path / "o" / "fit_summary.csv").read_text().splitlines()
    rows = list(csv.DictReader(l for l in fit if not l.startswith("#")))
    assert rows and all(row["status"] == "ok" and row["slope"] for row in rows)


@pytest.mark.parametrize("command", ["weight-check", "inequalities"])
def test_unweighted_refused_before_checks(tmp_path, capsys, monkeypatch, command):
    # inequalities reached check_structural_conditions inside its first check
    conditions = _record_calls(monkeypatch, cli.weights, ["check_structural_conditions"])
    checks = _record_calls(monkeypatch, cli.ineq, ["verify_inequality"])
    rc = cli.main([command, "--config", str(ROOT / "configs" / "pme_calibration.ini"),
                   "--out", str(tmp_path / "o")])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {command} applies to growing weights")
    assert len(captured.err.splitlines()) == 1
    assert captured.out == ""
    assert conditions == checks == []
    assert not list((tmp_path / "o").glob("*.csv"))


def test_inadmissible_parameters_named(tmp_path, capsys):
    ini = tmp_path / "bad_eq.ini"
    ini.write_text("""
[weight]
kind = power
alpha = 0.5
[equation]
dim_n = 2
p = 2.0
m = 2.0
[grid]
r_max = 20
n_cells = 100
[simulate]
t_end = 10
""")
    rc = cli.main(["simulate", "--config", str(ini), "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "1 < p < N" in err


def test_alpha_cap_named(tmp_path, capsys):
    ini = tmp_path / "bad_alpha.ini"
    ini.write_text("""
[weight]
kind = power
alpha = 2.5
[equation]
dim_n = 3
p = 2.0
m = 2.0
[grid]
r_max = 20
n_cells = 100
[simulate]
t_end = 10
""")
    rc = cli.main(["simulate", "--config", str(ini), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "min(N, p/(p-1))" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["weight-check", "inequalities", "simulate", "sweep"])
def test_negative_seed_refused(power_cfg, tmp_path, capsys, command):
    # weight-check and inequalities died in np.random.default_rng with a
    # traceback and exit 1, the code of a failed gated check
    rc = cli.main([command, "--config", power_cfg, "--seed", "-1",
                   "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "--seed" in err and len(err.splitlines()) == 1


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_jobs_below_one_refused(power_cfg, tmp_path, capsys, jobs):
    # ran serially with exit 0
    rc = cli.main(["sweep", "--config", power_cfg, "--jobs", jobs,
                   "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "--jobs" in err and len(err.splitlines()) == 1
    assert not (tmp_path / "o" / "sweep.csv").exists()


@pytest.fixture
def pool_sizes(monkeypatch):
    """max_workers of every sweep pool, started as an in-process fake, and
    rows that _sweep_one answers at once."""
    import concurrent.futures

    sizes = []

    class InProcessPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    monkeypatch.setattr(cli, "_sweep_one", lambda task: (
        task[1], task[2], task[3], 1.0, 1.0, 1.0, 0.0, 1.0, 1.0, "ok"))
    return sizes


def test_sweep_pool_no_larger_than_rows(tmp_path, pool_sizes):
    # a fork pool starts all max_workers processes up front, so --jobs 500
    # on a two-row sweep forked 500 interpreters
    path = tmp_path / "sw.ini"
    path.write_text(POWER_INI.replace("alphas = 0.5", "alphas = 0.4, 0.5"))
    rc = cli.main(["sweep", "--config", str(path), "--jobs", "500",
                   "--out", str(tmp_path / "o")])
    assert rc == 0
    assert pool_sizes == [2]


def test_one_row_sweep_starts_no_pool(power_cfg, tmp_path, pool_sizes):
    # a pool for one row would fork a worker to run that row alone
    rc = cli.main(["sweep", "--config", power_cfg, "--jobs", "2",
                   "--out", str(tmp_path / "o")])
    assert rc == 0
    assert pool_sizes == []


def test_out_not_creatable(power_cfg, tmp_path, capsys):
    # ran the whole command, then died in write_csv with a traceback
    (tmp_path / "afile").write_text("")
    rc = cli.main(["weight-check", "--config", power_cfg,
                   "--out", str(tmp_path / "afile" / "sub")])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""  # refused before the checks ran
    err = captured.err
    assert err.startswith("error:") and "--out" in err and len(err.splitlines()) == 1


def test_missing_config(tmp_path):
    rc = cli.main(["simulate", "--config", str(tmp_path / "none.ini"),
                   "--out", str(tmp_path / "o")])
    assert rc == 2


def test_missing_section_named(tmp_path, capsys):
    # the weight-check config has no [grid] or [simulate] section
    ini = tmp_path / "zygmund.ini"
    ini.write_text(ZYGMUND_INI)
    rc = cli.main(["simulate", "--config", str(ini), "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "'grid'" in err and len(err.splitlines()) == 1


def test_missing_key_named(tmp_path, capsys):
    ini = tmp_path / "no_alpha.ini"
    ini.write_text(POWER_INI.replace("alpha = 0.5\n", ""))
    rc = cli.main(["weight-check", "--config", str(ini), "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "'alpha'" in err and "'weight'" in err
    assert len(err.splitlines()) == 1


# n_samples = -1, s_min = 0 and n_outputs = -1 escaped as numpy tracebacks;
# n_outputs = 1 ended the run at t_end * 10^-decades and output_decades = 0
# wrote every row at t_end, both with exit 0; t_end = inf warned in numpy
# before the solver refused it; n_random = -3 ran with no random functions
# and an empty alphas, ps or ms wrote a sweep.csv of only a header, both
# with exit 0; so did an empty radii or kinds with an inequalities.csv of
# only a header, and an empty tau_grid with a header-only
# zygmund_asymptotics.csv; tau_grid = 2 wrote weight_check.csv before the
# refusal, which did not name the key; radii = 1, -2 ran the poincare and
# radial_sobolev checks before a refusal that did not name the key;
# tau_grid = 1e2, inf wrote weight_check.csv before a refusal that did not
# name the key; q = nan, inf or -1 ran the poincare check (which does not
# read q) and exited 0
@pytest.mark.parametrize("command, section, key, bad", [
    ("weight-check", "weight", "alpha", "abc"),
    ("weight-check", "weight_check", "n_samples", "many"),
    ("inequalities", "inequalities", "radii", "1, two"),
    ("inequalities", "inequalities", "radii", "1, -2"),
    ("weight-check", "weight_check", "n_samples", "-1"),
    ("weight-check", "weight_check", "s_min", "0"),
    ("weight-check", "weight_check", "s_max", "-5"),
    ("simulate", "simulate", "n_outputs", "-1"),
    ("simulate", "simulate", "n_outputs", "1"),
    ("simulate", "simulate", "t_end", "inf"),
    ("simulate", "simulate", "output_decades", "0"),
    ("inequalities", "inequalities", "n_random", "-3"),
    ("sweep", "sweep", "alphas", ""),
    ("sweep", "sweep", "ps", ""),
    ("sweep", "sweep", "ms", ""),
    ("inequalities", "inequalities", "radii", ""),
    ("inequalities", "inequalities", "kinds", ""),
    ("weight-check", "weight_check", "tau_grid", ""),
    ("weight-check", "weight_check", "tau_grid", "2, 1e4"),
    ("weight-check", "weight_check", "tau_grid", "1e2, inf"),
    ("inequalities", "inequalities", "q", "nan"),
    ("inequalities", "inequalities", "q", "inf"),
    ("inequalities", "inequalities", "q", "-1"),
], ids=["alpha", "n_samples", "radii", "radii-negative", "n_samples-negative", "s_min-zero",
        "s_max-negative", "n_outputs-negative", "n_outputs-one", "t_end-inf",
        "output_decades-zero", "n_random-negative", "alphas-empty", "ps-empty",
        "ms-empty", "radii-empty", "kinds-empty", "tau_grid-empty",
        "tau_grid-below-e", "tau_grid-inf", "q-nan", "q-inf", "q-negative"])
def test_malformed_value_named(tmp_path, capsys, command, section, key, bad):
    cfg = _cfg(POWER_INI)
    if key == "tau_grid":
        cfg.read_string(ZYGMUND_INI)  # tau_grid is read for a zygmund weight only
    cfg[section][key] = bad
    ini = tmp_path / "bad_value.ini"
    with open(ini, "w", encoding="utf-8") as fh:
        cfg.write(fh)
    rc = cli.main([command, "--config", str(ini), "--out", str(tmp_path / "o")])
    assert rc == 2
    out, err = capsys.readouterr()
    assert out == ""  # refused before any check ran
    assert err.startswith("error:") and f"[{section}] {key}" in err and repr(bad) in err
    assert len(err.splitlines()) == 1
    assert not list((tmp_path / "o").glob("*.csv"))

SWEEP_SECTIONS = """
[grid]
r_max = 40
n_cells = 200
[simulate]
t_end = 1e4
[sweep]
alphas = 0.4
"""


def _cfg(text):
    cfg = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    cfg.read_string(text)
    return cfg


def test_sweep_keeps_zygmund_weight(tmp_path, monkeypatch):
    path = tmp_path / "z.ini"
    path.write_text(ZYGMUND_INI + SWEEP_SECTIONS)
    seen = []

    def stop(scfg):
        seen.append(scfg.weight)
        raise InvalidParameterError("stopped before the run")

    monkeypatch.setattr(cli.solver, "run", stop)
    rc = cli.main(["sweep", "--config", str(path), "--out", str(tmp_path / "o")])
    assert rc == 1
    [w] = seen
    assert w.kind == "zygmund"
    assert w.params == {"alpha": 0.4, "beta": 1.0, "c": 2.0}
    assert w.alpha2 == pytest.approx(1.4)


@pytest.mark.parametrize("weight_section", [
    "[weight]\nkind = unweighted\n",
    "[weight]\nkind = custom\ng_expr = s\ng_prime_expr = 1 + 0 * s\n"
    "alpha1 = 1\nalpha2 = 1\n",
])
def test_sweep_refuses_weight_without_alpha(weight_section, tmp_path, capsys, monkeypatch):
    # refused once, before any row
    path = tmp_path / "sw.ini"
    path.write_text(weight_section + "[equation]\ndim_n = 3\np = 2.0\nm = 2.0\n"
                    + SWEEP_SECTIONS)
    rows = []
    monkeypatch.setattr(cli, "_sweep_one", rows.append)
    rc = cli.main(["sweep", "--config", str(path), "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and _cfg(weight_section)["weight"]["kind"] in err
    assert len(err.splitlines()) == 1
    assert not rows
    assert not (tmp_path / "o" / "sweep.csv").exists()


@pytest.mark.parametrize("expr", [
    "s.__class__.__name__",
    "(1).__class__.__mro__[-1].__subclasses__()",
    "pi(2)",
    "exp(s, out=s)",
    "__import__('os')",
])
def test_expression_sandbox_rejects(expr):
    with pytest.raises(InvalidParameterError):
        cli._compile_expr(expr, "[weight] g_expr")


CUSTOM_TERM_INI = """
[weight]
kind = custom
g_expr = s**0.5{g_term}
g_prime_expr = 0.5 / sqrt(s){gp_term}
alpha1 = 0.5
alpha2 = 0.5
[equation]
dim_n = 3
p = 2.0
m = 2.0
"""


@pytest.mark.parametrize("key, term", [
    ("g_expr", "1/0"),
    ("g_expr", "0**-1"),
    ("g_expr", "1e308**2"),
    # an exact integer power that would not end: a float one overflows
    ("g_expr", "9**9**9"),
    ("g_prime_expr", "0**-1"),
    # numpy errors on arrays: 0/0 and log(0) at s = 0 gave warnings and
    # g(0) = nan instead of an error
    ("g_expr", "s/0"),
    ("g_expr", "s*log(s)"),
])
def test_expression_arithmetic_error_named(tmp_path, key, term):
    # a subprocess, so that an evaluation without end fails by its timeout
    # instead of hanging the suite
    path = tmp_path / "custom.ini"
    terms = {"g_term": "", "gp_term": ""}
    terms["g_term" if key == "g_expr" else "gp_term"] = " + " + term
    path.write_text(CUSTOM_TERM_INI.format(**terms))
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "expdiff.cli", "weight-check", "--config", str(path),
         "--out", str(tmp_path / "o")],
        capture_output=True, text=True, env=env, timeout=30)
    elapsed = time.monotonic() - start
    assert proc.returncode == 2, proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr
    assert lines[0].startswith(f"error: [weight] {key} = ")
    assert elapsed < 5.0


def _record_calls(monkeypatch, module, names):
    """The list that the functions ``names`` of ``module`` append their
    names to when called."""
    calls = []
    for name in names:
        def wrapped(*args, _fn=getattr(module, name), _name=name, **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapped)
    return calls


@pytest.mark.parametrize("s_min, s_max, n_samples", [
    ("10", "10", "120"), ("10", "1", "120"), ("1", "1.0000000000000002", "120"),
    ("10", "1", "1"),
], ids=["10-10", "10-1", "1-1.0000000000000002", "10-1-n_samples-1"])
def test_weight_check_range_refused_before_checks(tmp_path, capsys, monkeypatch,
                                                  s_min, s_max, n_samples):
    # s_max <= s_min reached validate_envelope, whose error named no key;
    # with one sample a reversed range ran every check and exited 0
    cfg = _cfg(POWER_INI)
    cfg["weight_check"]["s_min"], cfg["weight_check"]["s_max"] = s_min, s_max
    cfg["weight_check"]["n_samples"] = n_samples
    ini = tmp_path / "range.ini"
    with open(ini, "w", encoding="utf-8") as fh:
        cfg.write(fh)
    calls = _record_calls(monkeypatch, weights, [
        "validate_envelope", "check_sandwich", "check_lambda_bounds",
        "check_inversion_roundtrip", "check_inverse_scaling",
        "check_monotone_quantities", "check_structural_conditions"])
    rc = cli.main(["weight-check", "--config", str(ini), "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: [weight_check] s_min, s_max:")
    assert len(err.splitlines()) == 1
    assert calls == []
    assert not list((tmp_path / "o").glob("*.csv"))


def test_unknown_inequality_kind_refused_before_checks(tmp_path, capsys, monkeypatch):
    # kinds = poincare, bogus ran the Poincare check before the refusal
    ini = tmp_path / "kinds.ini"
    ini.write_text(POWER_INI.replace("kinds = poincare", "kinds = poincare, bogus"))
    calls = _record_calls(monkeypatch, cli.ineq, ["verify_inequality"])
    rc = cli.main(["inequalities", "--config", str(ini), "--out", str(tmp_path / "o")])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: [inequalities] kinds:") and "'bogus'" in captured.err
    assert len(captured.err.splitlines()) == 1
    assert captured.out == ""
    assert calls == []
    assert not list((tmp_path / "o").glob("*.csv"))


def test_expression_constant_too_large_for_float():
    with pytest.raises(InvalidParameterError, match=r"\[weight\] g_expr.*too large"):
        cli._compile_expr("s + 1" + "0" * 400, "[weight] g_expr")


def test_expression_constants_are_floats():
    # integer literals evaluate as floats, with the same values
    fn = cli._compile_expr("s**2 + 7 // 2 + 10**3", "[weight] g_expr")
    assert fn(2.0) == 4.0 + 3.0 + 1000.0
    assert type(fn(2)) is float


def test_readme_custom_weight_example():
    cfg = _cfg("""
[weight]
kind = custom
g_expr = sqrt(s) * log(2 + s)
g_prime_expr = 0.5 / sqrt(s) * log(2 + s) + sqrt(s) / (2 + s)
alpha1 = 0.5
alpha2 = 1.5
""")
    w = cli.build_weight(cfg)
    samples = np.geomspace(1e-3, 1e3, 200)
    assert weights.validate_envelope(w, samples).passed
    ref = weights.make_zygmund_weight(0.5, 1.0, 2.0)
    np.testing.assert_allclose(w.g(samples), ref.g(samples), rtol=1e-15)
    np.testing.assert_allclose(w.gp(samples), ref.gp(samples), rtol=1e-14)


def test_readme_cli_lines_parse(tmp_path, monkeypatch):
    # every command line of README's CLI block reaches its command
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## CLI\n", 1)[1].split("```")[1]
    lines = [line for line in block.splitlines() if line.startswith("expdiff ")]
    assert lines
    called = []
    for name in ("weight_check", "inequalities", "simulate", "sweep"):
        monkeypatch.setattr(cli, f"cmd_{name}",
                            lambda *args, name=name: called.append(name) or 0)
    monkeypatch.chdir(ROOT)  # the config paths are relative to the repository
    for line in lines:
        argv = shlex.split(line)[1:]
        argv[argv.index("--out") + 1] = str(tmp_path / "out")
        try:
            assert cli.main(argv) == 0, line
        except SystemExit as exc:
            pytest.fail(f"{line!r} exits {exc.code}")
        assert called[-1] == argv[0].replace("-", "_")
