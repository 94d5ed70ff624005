"""The benchmark reads names, report fields and CSV columns of the package
(``bench/workloads.py``); one smoke operation per declared workload must
pass every check the benchmark makes of its output."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"
WORKLOAD_NAMES = [wl["name"] for wl in
                  json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["workloads"]]


@pytest.fixture(scope="module")
def workloads():
    """``bench/workloads.py``, imported with ``bench/`` on the path only
    while it loads (it imports the benchmark's ``bootstrap`` module)."""
    sys.path.insert(0, str(BENCH))
    try:
        spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(BENCH))
        sys.modules.pop("bootstrap", None)
    return module


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_smoke_operation_passes_checks(workloads, name, tmp_path):
    wl = workloads.WORKLOADS[name]
    state = wl.setup(wl.make_inputs(0, True, tmp_path))
    problems, _ = wl.check(state, wl.operation(state))
    assert problems == []
