"""Composite Gauss-Legendre quadrature: batched fixed panels with a
local adaptive fallback.

All integrands are expected to be vectorized over numpy arrays.  Each
panel carries an error estimate, the difference of its 10- and
20-point rules.  ``panels`` integrates many panels at once, calling the
integrand once per rule on all nodes, and hands only the panels whose
estimate misses the tolerance to ``adaptive``.  ``adaptive`` keeps a
worklist of sub-panels and refines the worst one until the summed
estimate meets the relative tolerance.  Every integral over a partition
(cumulative integrals, graded breakpoints, cell volumes, criterion
tails) goes through ``panels``.
"""

from __future__ import annotations

import heapq
from typing import Callable

import numpy as np

from .errors import NumericFailureError

_NODE_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}

#: hard cap on the number of panels before giving up
MAX_PANELS = 20_000


def _nodes(order: int) -> tuple[np.ndarray, np.ndarray]:
    if order not in _NODE_CACHE:
        _NODE_CACHE[order] = np.polynomial.legendre.leggauss(order)
    return _NODE_CACHE[order]


def gl_fixed(f: Callable, a, b, order: int = 20):
    """Fixed-order Gauss-Legendre rule on the panel [a, b].

    ``a`` and ``b`` may be equal-shape numpy arrays of panel ends; f is
    then called once on all their nodes and the result has their shape.
    """
    x, w = _nodes(order)
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    if not isinstance(half, np.ndarray):
        # one panel, as in each refinement of ``adaptive``: the batch
        # reshaping below would double the cost of a refinement
        return half * float(np.dot(w, f(mid + half * x)))
    nodes = mid[..., None] + half[..., None] * x
    vals = np.asarray(f(nodes.ravel()), dtype=float).reshape(nodes.shape)
    return half * (vals @ w)


def _panel(f: Callable, a: float, b: float) -> tuple[float, float]:
    """Return (value, error estimate) from the 10/20 point rule pair."""
    coarse = gl_fixed(f, a, b, order=10)
    fine = gl_fixed(f, a, b, order=20)
    return fine, abs(fine - coarse)


def adaptive(
    f: Callable,
    a: float,
    b: float,
    rel_tol: float = 1e-12,
    abs_floor: float = 0.0,
    max_panels: int = MAX_PANELS,
) -> tuple[float, float]:
    """Integrate f over [a, b] to relative tolerance ``rel_tol``.

    Returns (value, error_estimate).  Raises NumericFailureError (with
    the achieved estimate attached) if the panel budget is exhausted.
    """
    if a == b:
        return 0.0, 0.0
    if b < a:
        val, err = adaptive(f, b, a, rel_tol, abs_floor, max_panels)
        return -val, err

    val, err = _panel(f, a, b)
    # heap entries: (-err, a, b, val); tie-break by interval bounds
    heap = [(-err, a, b, val)]
    total_val = val
    total_err = err
    n_panels = 1
    stagnant = 0
    while total_err > max(rel_tol * abs(total_val), abs_floor, 1e-300):
        if n_panels >= max_panels or stagnant >= 64:
            raise NumericFailureError(
                f"quadrature did not converge on [{a:g}, {b:g}]: "
                f"estimated error {total_err:.3e} after {n_panels} panels"
                + (" (stalled; integrand may be noisy at this tolerance)"
                   if stagnant >= 64 else ""),
                achieved=total_err,
            )
        neg_err, pa, pb, pval = heapq.heappop(heap)
        mid = 0.5 * (pa + pb)
        if mid <= pa or mid >= pb:
            # interval at floating point resolution; accept as is
            heapq.heappush(heap, (0.0, pa, pb, pval))
            total_err += neg_err  # remove this panel's error from the budget
            if total_err <= max(rel_tol * abs(total_val), abs_floor, 1e-300):
                break
            continue
        lval, lerr = _panel(f, pa, mid)
        rval, rerr = _panel(f, mid, pb)
        total_val += lval + rval - pval
        total_err += lerr + rerr + neg_err
        # a split that barely reduces the estimate signals an integrand
        # evaluated with cancellation noise: bail out before burning panels
        if -neg_err > 0 and (lerr + rerr) > 0.95 * (-neg_err):
            stagnant += 1
        else:
            stagnant = 0
        heapq.heappush(heap, (-lerr, pa, mid, lval))
        heapq.heappush(heap, (-rerr, mid, pb, rval))
        n_panels += 1
    return total_val, total_err


def panels(f: Callable, lo: np.ndarray, hi: np.ndarray, rel_tol: float,
           abs_floor: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """Integrals of f over the panels [lo_k, hi_k] of two 1-d arrays.

    One batched 10/20-point pass covers every panel.  A panel whose two
    rules differ by more than ``max(rel_tol * |value|, abs_floor)`` is
    integrated again by ``adaptive`` with the same tolerance, so each
    returned value meets the tolerance on its own panel.  Returns
    (values, error estimates).
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    values = gl_fixed(f, lo, hi, order=20)
    errors = np.abs(values - gl_fixed(f, lo, hi, order=10))
    for k in np.flatnonzero(errors > np.maximum(rel_tol * np.abs(values), abs_floor)):
        values[k], errors[k] = adaptive(f, float(lo[k]), float(hi[k]),
                                        rel_tol=rel_tol, abs_floor=abs_floor)
    return values, errors


def cumulative(
    f: Callable,
    breakpoints: np.ndarray,
    rel_tol: float = 1e-12,
) -> np.ndarray:
    """Cumulative integrals ``I_k = int_{b_0}^{b_k} f`` along sorted breakpoints.

    Each consecutive segment is one panel of ``panels``; the result has
    the same length as ``breakpoints`` with I_0 = 0.
    """
    bp = np.asarray(breakpoints, dtype=float)
    if bp.ndim != 1 or bp.size < 1:
        raise ValueError("breakpoints must be a 1-d array")
    if np.any(np.diff(bp) < 0):
        raise ValueError("breakpoints must be sorted ascending")
    segs, _ = panels(f, bp[:-1], bp[1:], rel_tol)
    return np.concatenate([[0.0], np.cumsum(segs)])


def geometric_breakpoints(a: float, b: float, n_decades_inner: int = 12) -> np.ndarray:
    """Breakpoints on [a, b] refined geometrically toward a (a may be 0).

    Useful for integrands with a branch-point singularity at the left
    endpoint, e.g. s**alpha with 0 < alpha < 1.
    """
    if b <= a:
        raise ValueError("need b > a")
    if a > 0 and b / a < 4.0:
        return np.array([a, b])
    lo = b * 2.0 ** (-4 * n_decades_inner)
    pts = [a] if a < lo else []
    start = max(a, lo)
    ratios = np.geomspace(start, b, num=4 * n_decades_inner + 1)
    pts.extend(float(r) for r in ratios)
    return np.unique(np.asarray(pts))
