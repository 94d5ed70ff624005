"""The benchmark traces expdiff functions by their names in
``bench/spans.py``; every one of those names must resolve to a function."""

import importlib.util
from pathlib import Path

SPANS_PATH = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_traced_names_resolve():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.SPANS
    for span in spans.SPANS:
        owner, attr = spans._owner(span)
        assert callable(getattr(owner, attr, None)), span
