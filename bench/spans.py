"""Spans around the public functions of each expdiff module.

``Tracer.install()`` replaces every traced function by a wrapper that
records one span per call: its name, start, end, parent span and whether
it raised.  The wrapper replaces the function under every name that
holds it in any ``expdiff`` module, so calls through names bound by
``from .x import y`` are traced too.  Spans stay in flat arrays in
memory; ``save`` writes them out once, at the end of a run.
"""

from __future__ import annotations

import array
import importlib
import os
import sys
import time
from pathlib import Path

import numpy as np

from expdiff import weights

#: traced functions, "module.name"; the module is expdiff.<module>
SPANS = (
    "cli.main",
    "cli.write_csv",
    "solver.run",
    "solver.make_grid",
    "solver.fit_rates",
    "measure.cell_weighted_volumes",
    "measure.integrate_with_error",
    "quadrature.adaptive",
    "quadrature.gl_fixed",
    "quadrature.cumulative",
    "weights.g_primitive_many",
    "weights.lambda_many",
    "weights.invert_g",
    "inequalities.hardy_criterion_sup",
    "inequalities.verify_inequality",
    "envelopes.sup_envelope",
    "envelopes.support_envelope",
)
#: root span around each traced operation
OPERATION = "operation"

#: amounts summed per span next to its call count:
#: span -> (metric suffix, unit, amount from the call's arguments)
AMOUNTS = {
    # args[0] is the WeightSpec instance
    "weights.g_primitive_many": ("points", "count", lambda args: np.size(args[1])),
    "cli.write_csv": ("bytes", "bytes", lambda args: os.path.getsize(args[0])),
}
#: name -> unit of every metric ``Tracer.summarize`` returns
UNITS = {}
for _span in SPANS:
    UNITS[f"{_span}.calls"] = "count"
    UNITS[f"{_span}.self_s"] = "s"
    if _span in AMOUNTS:
        UNITS[f"{_span}.{AMOUNTS[_span][0]}"] = AMOUNTS[_span][1]
UNITS["quadrature.adaptive.failures"] = "count"
UNITS["measure.cell_weighted_volumes.fallbacks"] = "count"


def _owner(span: str):
    """The object whose attribute is the traced function, and its name."""
    module, name = span.split(".")
    if span == "weights.g_primitive_many":
        return weights.WeightSpec, name
    return importlib.import_module(f"expdiff.{module}"), name


class Tracer:
    """Records spans of the functions in SPANS while installed."""

    def __init__(self):
        self.names = [OPERATION, *SPANS]
        self.name = array.array("i")
        self.parent = array.array("q")
        self.start = array.array("d")
        self.end = array.array("d")
        self.raised = array.array("b")
        self.amount = array.array("d")
        self._stack = [-1]
        self._patched = []  # (owner, attribute, original)

    # -- recording ---------------------------------------------------------

    def _wrap(self, name_id: int, fn, amount):
        name, parent, start, end = self.name, self.parent, self.start, self.end
        raised, amounts, stack = self.raised, self.amount, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = len(name)
            name.append(name_id)
            parent.append(stack[-1])
            raised.append(0)
            amounts.append(0.0)
            end.append(0.0)
            stack.append(sid)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except Exception:
                raised[sid] = 1
                raise
            finally:
                end[sid] = clock()
                stack.pop()
            if amount is not None:
                amounts[sid] = amount(args)
            return result

        traced.__wrapped__ = fn
        return traced

    def operation(self, fn, *args):
        """Run ``fn(*args)`` under a root span; return (result, first span id)."""
        first = len(self.name)
        return self._wrap(0, fn, None)(*args), first

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        modules = [mod for key, mod in sys.modules.items()
                   if key == "expdiff" or key.startswith("expdiff.")]
        for name_id, span in enumerate(SPANS, start=1):
            owner, attr = _owner(span)
            original = getattr(owner, attr)
            amount = AMOUNTS[span][2] if span in AMOUNTS else None
            wrapper = self._wrap(name_id, original, amount)
            holders = [owner] + [m for m in modules if m is not owner]
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapper)
                        self._patched.append((holder, key, original))

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._patched):
            setattr(holder, key, original)
        self._patched.clear()

    # -- results -----------------------------------------------------------

    def arrays(self, first: int = 0, stop: int | None = None) -> dict:
        """Copies of the span columns (a view would pin the arrays' size)."""
        return {key: np.array(getattr(self, key)[first:stop]) for key in
                ("name", "parent", "start", "end", "raised", "amount")}

    def summarize(self, first: int, stop: int) -> tuple[dict, dict]:
        """Counters and self times of the spans with ids in [first, stop).

        Self time is a span's duration minus the durations of its direct
        children; spans nest, so the children never overlap.
        """
        a = self.arrays(first, stop)
        dur = a["end"] - a["start"]
        parent = a["parent"] - first
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=dur[has_parent],
                                 minlength=dur.size)
        self_time = dur - child_time
        counters, self_s = {}, {}
        n = len(self.names)
        calls = np.bincount(a["name"], minlength=n)
        self_by_name = np.bincount(a["name"], weights=self_time, minlength=n)
        amount_by_name = np.bincount(a["name"], weights=a["amount"], minlength=n)
        for name_id, span in enumerate(self.names):
            if span == OPERATION:
                continue
            counters[f"{span}.calls"] = int(calls[name_id])
            self_s[f"{span}.self_s"] = float(self_by_name[name_id])
            if span in AMOUNTS:
                counters[f"{span}.{AMOUNTS[span][0]}"] = int(amount_by_name[name_id])
        adaptive = self.names.index("quadrature.adaptive")
        counters["quadrature.adaptive.failures"] = int(
            np.count_nonzero((a["name"] == adaptive) & (a["raised"] == 1)))
        volumes = self.names.index("measure.cell_weighted_volumes")
        integrate = self.names.index("measure.integrate_with_error")
        parent_name = np.where(has_parent, a["name"][np.maximum(parent, 0)], -1)
        counters["measure.cell_weighted_volumes.fallbacks"] = int(
            np.count_nonzero((a["name"] == integrate) & (parent_name == volumes)))
        return counters, self_s

    def save(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names), **self.arrays())
