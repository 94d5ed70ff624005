"""expdiff benchmark: time to a checked solution on three workloads.

Run from the root of a checkout::

    python3 bench/run.py --workload simulate_power_ref --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seconds 30      # every workload in turn
    python3 bench/run.py --smoke                          # fast self-check

Load is a closed loop with one client: a single process runs one
operation at a time, in-process, for ``--seconds`` seconds.  One
operation is one ``expdiff simulate`` call (``simulate_*``) or one full
certification set (``certify_mixed``); every operation's output is
checked, and one that fails a check counts in ``failed``.

Every time is reported at a fixed reference CPU speed: ``speed.Meter``
samples a fixed probe during each operation and scales the operation's
wall time by the probe's nominal over measured time (see ``speed.py``;
the host's vCPU speed drifts by up to 2x in phases longer than a run).
The raw wall times and their factors are in the detail line.

``--trace 0`` reports the end-to-end metrics, from untraced operations:

* ``time_to_solution_s`` - median time of the operations whose output
  passed every check;
* ``setup_s`` - median over fresh interpreters (``probe.py``) of the time
  from spawn to the end of the workload's set-up: importing expdiff,
  parsing the config, building the weight and the grid or the primitive
  anchors; each scaled by ``speed.probe_now`` taken just before and after;
* ``peak_rss_mb`` - peak resident memory of this process.

``--trace 1`` alternates traced and untraced operations and reports, per
span of ``spans.SPANS``, its call count and self time (median over the
traced operations, scaled by each operation's speed factor), the counters
of ``spans.Tracer.summarize``, ``solver.run.dt_final`` and
``tracing_overhead_s`` (median traced minus median untraced operation
time).  Counters must repeat exactly across traced
operations.  The spans are written to ``bench/out/spans-<workload>.npz``.

The line before the last holds the run context, the sample counts, every
operation time and the tail percentile; the last line is the result
object ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from importlib import metadata

from bootstrap import ROOT, bootstrap, checkout_commit

# numpy, expdiff and the bench modules that import them are imported inside
# functions: bootstrap() must pin the thread pools before numpy loads.

BENCH = ROOT / "bench"
OUT = BENCH / "out"
WORKLOAD_NAMES = ("simulate_power_ref", "simulate_zygmund_plap", "certify_mixed")
#: timed fresh interpreters per run for setup_s (after one untimed warm-up
#: that also leaves compiled bytecode behind)
SETUP_PROBES = 9
PROBE_TIMEOUT_S = 120
#: tail percentile needs this many samples beyond it
TAIL_BEYOND = 10

E2E_UNITS = {"time_to_solution_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def per_layer_units() -> dict:
    from spans import UNITS

    return {**UNITS, "solver.run.dt_final": "model_time", "tracing_overhead_s": "s"}


@dataclass
class Op:
    wall: float  # at the reference speed
    raw: float  # wall time as measured
    factor: float  # reference seconds per wall second during the operation
    traced: bool
    problems: list
    observations: dict
    counters: dict = field(default_factory=dict)
    self_s: dict = field(default_factory=dict)


def run_context(wl, seed: int) -> dict:
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    import numpy

    return {
        "workload": wl.name, "why": wl.why, "seed": seed,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": version("scipy"), "nproc": os.cpu_count(), "cpu": cpu,
        "loadavg_start": os.getloadavg(), "commit": checkout_commit(),
        "threads": {var: os.environ.get(var) for var in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def measure_setup(wl, inputs: dict, probes: int) -> list[float]:
    """Spawn-to-ready times of ``probes`` fresh interpreters (plus one
    untimed warm-up)."""
    from speed import PROBE_NOMINAL_S, probe_now

    times = []
    for i in range(probes + 1):
        before = probe_now()
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, str(BENCH / "probe.py"), wl.name,
                               json.dumps(inputs)],
                              stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            try:
                rc = proc.wait(timeout=PROBE_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                raise
        if line.strip() != "ready" or rc != 0:
            raise RuntimeError(f"set-up probe for {wl.name} failed (exit {rc})")
        if i > 0:
            times.append(elapsed * PROBE_NOMINAL_S / statistics.fmean((before, probe_now())))
    return times


def run_operation(wl, state, tracer=None) -> Op:
    from speed import Meter

    meter = Meter()
    if tracer is None:
        with meter:
            t0 = time.perf_counter()
            result = wl.operation(state)
            wall = time.perf_counter() - t0
    else:
        tracer.install()
        try:
            with meter:
                t0 = time.perf_counter()
                result, first = tracer.operation(wl.operation, state)
                wall = time.perf_counter() - t0
        finally:
            tracer.uninstall()
    problems, observations = wl.check(state, result)
    op = Op(meter.scaled(wall), wall, meter.factor(), tracer is not None,
            problems, observations)
    if tracer is not None:
        op.counters, self_s = tracer.summarize(first, len(tracer.name))
        op.self_s = {key: val * op.factor for key, val in self_s.items()}
    return op


def run_loop(wl, state, seconds: float, tracer=None) -> list[Op]:
    """Operations until the next one would end after ``seconds``; with a
    tracer, alternate traced and untraced ones, at least two traced and
    one untraced."""
    ops = []
    start = time.perf_counter()
    while True:
        n_traced = sum(op.traced for op in ops)
        traced = tracer is not None and n_traced <= len(ops) - n_traced
        ops.append(run_operation(wl, state, tracer if traced else None))
        n_traced += traced
        enough = tracer is None or (n_traced >= 2 and len(ops) - n_traced >= 1)
        expected = time.perf_counter() - start + statistics.median(op.raw for op in ops)
        if enough and expected > seconds:
            return ops


def tail(values: list[float]) -> dict:
    """Highest percentile with at least TAIL_BEYOND samples above it."""
    n = len(values)
    if n <= TAIL_BEYOND:
        return {"percentile": None, "value": None, "samples": n}
    ordered = sorted(values)
    k = n - TAIL_BEYOND
    return {"percentile": 100.0 * k / n, "value": ordered[k - 1], "samples": n}


def end_to_end(ops: list[Op], setup_times: list[float]) -> tuple[dict, dict]:
    untraced = [op for op in ops if not op.traced]
    passed = [op.wall for op in untraced if not op.problems]
    walls = passed or [op.wall for op in untraced]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values = {"time_to_solution_s": statistics.median(walls),
              "setup_s": statistics.median(setup_times),
              "peak_rss_mb": rss_mb}
    detail = {
        "time_to_solution_s": {"samples": len(passed),
                               "values": [op.wall for op in untraced],
                               "raw_wall_s": [op.raw for op in untraced],
                               "factors": [op.factor for op in untraced]},
        "time_to_solution_s_tail": tail(passed),
        "setup_s": {"samples": len(setup_times), "values": setup_times},
        "failed_frac": sum(bool(op.problems) for op in untraced) / len(untraced),
    }
    return values, detail


def per_layer(ops: list[Op]) -> tuple[dict, list[str]]:
    traced = [op for op in ops if op.traced]
    untraced = [op for op in ops if not op.traced]
    values = dict(traced[0].counters)
    mismatches = [f"{key}: {[op.counters[key] for op in traced]}"
                  for key in values if any(op.counters[key] != values[key] for op in traced)]
    for key in traced[0].self_s:
        values[key] = statistics.median(op.self_s[key] for op in traced)
    dt_final = {op.observations.get("dt_final", 0.0) for op in traced}
    if len(dt_final) > 1:
        mismatches.append(f"solver.run.dt_final: {sorted(dt_final)}")
    values["solver.run.dt_final"] = dt_final.pop()
    values["tracing_overhead_s"] = (statistics.median(op.wall for op in traced)
                                    - statistics.median(op.wall for op in untraced))
    return values, mismatches


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool = False) -> tuple[dict, dict]:
    """One run of one workload: (result object, detail record)."""
    from spans import Tracer
    from workloads import WORKLOADS

    wl = WORKLOADS[name]
    workdir = OUT / f"work-{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        context = run_context(wl, seed)
        inputs = wl.make_inputs(seed, smoke, workdir)
        setup_times = measure_setup(wl, inputs, 1 if smoke else SETUP_PROBES)
        state = wl.setup(inputs)
        tracer = Tracer() if trace else None
        ops = run_loop(wl, state, seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    e2e, detail = end_to_end(ops, setup_times)
    failed = sum(bool(op.problems) for op in ops)
    units = E2E_UNITS
    values = e2e
    mismatches = []
    if trace:
        values, mismatches = per_layer(ops)
        units = per_layer_units()
        tracer.save(OUT / f"spans-{name}.npz")
        detail["trace"] = {
            "traced_op_s": [op.wall for op in ops if op.traced],
            "untraced_op_s": [op.wall for op in ops if not op.traced],
            "counter_mismatches": mismatches,
            "spans": len(tracer.name),
        }
    detail = {"context": context, "attempted": len(ops), "failed": failed,
              "problems": sorted({p for op in ops for p in op.problems})[:20],
              **detail, "end_to_end": e2e}
    result = {
        "correct": failed == 0 and not mismatches,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {key: {"value": values[key], "unit": unit}
                    for key, unit in units.items()},
    }
    return result, detail


def run_all(args) -> int:
    """Each workload in its own process (peak RSS is per process)."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        done = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, check=False)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"bench: {name} exited with {done.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines), flush=True)
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = metric
    print(json.dumps(combined))
    return 0


def smoke() -> int:
    """Each workload at reduced size: one traced, one untraced and one
    more traced operation.  Asserts every metric of BENCHMARK.json is
    reported with its unit, counters repeat across the two traced
    operations, and no operation fails."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    want_e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    want_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    problems = []
    if want_e2e != E2E_UNITS:
        problems.append(f"BENCHMARK.json end_to_end {want_e2e} != {E2E_UNITS}")
    if want_layer != per_layer_units():
        problems.append("BENCHMARK.json per_layer differs from the traced metrics")
    from workloads import WORKLOADS

    listed = {w["name"]: w["why"] for w in spec["workloads"]}
    if listed != {name: WORKLOADS[name].why for name in WORKLOAD_NAMES}:
        problems.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    for name in WORKLOAD_NAMES:
        result, detail = run_workload(name, 0, 0.0, trace=True, smoke=True)
        metrics = {**{k: {"value": v, "unit": E2E_UNITS[k]}
                      for k, v in detail["end_to_end"].items()},
                   **result["metrics"]}
        for key, unit in {**want_e2e, **want_layer}.items():
            if metrics.get(key, {}).get("unit") != unit:
                problems.append(f"{name}: metric {key} [{unit}] missing")
        problems += [f"{name}: counter differs {m}"
                     for m in detail["trace"]["counter_mismatches"]]
        if detail["failed_frac"] != 0 or result["failed"]:
            problems.append(f"{name}: failed operations {detail['problems']}")
        print(f"{name}: " + ", ".join(
            f"{k}={v:.4g} {E2E_UNITS[k]}" for k, v in detail["end_to_end"].items())
            + f", failed_frac={detail['failed_frac']:g}", flush=True)
    for problem in problems:
        print(f"SMOKE FAIL {problem}", file=sys.stderr)
    print("smoke: " + ("FAIL" if problems else "OK"))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOAD_NAMES, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="fast self-check of the harness at reduced size")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required")
    bootstrap()
    if args.smoke:
        return smoke()
    if args.workload == "all":
        return run_all(args)
    result, detail = run_workload(args.workload, args.seed, args.seconds,
                                  bool(args.trace))
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
