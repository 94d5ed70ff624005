"""Composite Gauss-Legendre quadrature over batched panels.

All integrands are expected to be vectorized over numpy arrays.  Each
panel carries an error estimate, the difference of its 10- and
20-point rules.  ``panels`` integrates many panels at once, calling the
integrand once per rule on all nodes, and refines the panels that miss
their tolerance level by level, with one batched rule pair per level
for the sub-panels of all of them; ``adaptive`` is its one-panel call.
Every integral over a partition (cumulative integrals, graded
breakpoints, cell volumes, criterion tails) goes through ``panels``.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import NumericFailureError

_NODE_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}

#: absolute error every panel may keep, so that integrals of 0 converge
ABS_FLOOR = 1e-300
#: hard cap on the sub-panels one ``panels`` call may add before giving up
MAX_PANELS = 20_000
#: equal children of each split sub-panel
CHILDREN = 4
#: consecutive levels that cut a panel's error estimate by less than 5%
#: before its integrand is taken to be noisy at the tolerance
STALL_LEVELS = 16

_SPLIT_POINTS = np.linspace(0.0, 1.0, CHILDREN + 1)


def _nodes(order: int) -> tuple[np.ndarray, np.ndarray]:
    if order not in _NODE_CACHE:
        _NODE_CACHE[order] = np.polynomial.legendre.leggauss(order)
    return _NODE_CACHE[order]


def gl_fixed(f: Callable, a: np.ndarray, b: np.ndarray, order: int = 20) -> np.ndarray:
    """Fixed-order Gauss-Legendre rule on the panels [a, b] of two
    equal-shape arrays; f is called once on all their nodes and the
    result has their shape."""
    x, w = _nodes(order)
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    nodes = mid[..., None] + half[..., None] * x
    vals = np.asarray(f(nodes.ravel()), dtype=float).reshape(nodes.shape)
    return half * (vals @ w)


def _rule_pair(f: Callable, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Values and error estimates of the 10/20-point rule pair on [a, b]."""
    fine = gl_fixed(f, a, b, order=20)
    return fine, np.abs(fine - gl_fixed(f, a, b, order=10))


def panels(f: Callable, lo: np.ndarray, hi: np.ndarray,
           rel_tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Integrals of f over the panels [lo_k, hi_k] of two 1-d arrays.

    Each panel is refined until its error estimate is at most
    ``max(rel_tol * |value|, ABS_FLOOR)``; a sub-panel too
    narrow to split is accepted as it is and its error leaves the
    estimate.  Returns (values, error estimates).  Raises
    NumericFailureError, naming the worst unconverged panel, when the
    call would add more than MAX_PANELS sub-panels or when a panel's
    estimate stalls for STALL_LEVELS levels.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    values, errors = _rule_pair(f, lo, hi)
    n = values.size
    tol = np.maximum(rel_tol * np.abs(values), ABS_FLOOR)
    # live sub-panels of the unconverged panels: owner, ends, value, error
    own = np.flatnonzero(errors > tol)
    a, b, sval, serr = lo[own], hi[own], values[own], errors[own]
    stalled = np.zeros(n, dtype=int)
    added = 0
    while own.size:
        count = np.bincount(own, minlength=n)
        owners = np.flatnonzero(count)
        edges = a[:, None] + (b - a)[:, None] * _SPLIT_POINTS
        edges[:, -1] = b
        serr[np.any(np.diff(edges, axis=1) <= 0.0, axis=1)] = 0.0  # too narrow to split
        split = serr > tol[own] / count[own]
        new = CHILDREN * np.count_nonzero(split)
        stuck = owners[stalled[owners] >= STALL_LEVELS]
        if added + new > MAX_PANELS or stuck.size:
            worst = stuck if stuck.size else owners
            k = worst[np.argmax(errors[worst] / tol[worst])]
            raise NumericFailureError(
                f"quadrature did not converge on [{lo[k]:g}, {hi[k]:g}]: "
                f"estimated error {errors[k]:.3e} after {added} added sub-panels"
                + (" (stalled; integrand may be noisy at this tolerance)"
                   if stuck.size else ""),
                achieved=float(errors[k]),
            )
        added += new
        ca, cb = edges[split, :-1].ravel(), edges[split, 1:].ravel()
        cval, cerr = _rule_pair(f, ca, cb)
        own = np.concatenate([own[~split], np.repeat(own[split], CHILDREN)])
        a, b = np.concatenate([a[~split], ca]), np.concatenate([b[~split], cb])
        sval = np.concatenate([sval[~split], cval])
        serr = np.concatenate([serr[~split], cerr])

        old = errors[owners]
        values[owners] = np.bincount(own, sval, minlength=n)[owners]
        errors[owners] = np.bincount(own, serr, minlength=n)[owners]
        tol = np.maximum(rel_tol * np.abs(values), ABS_FLOOR)
        # a level that barely cuts the estimate signals an integrand
        # evaluated with cancellation noise: bail out before burning panels
        stalled[owners] = np.where(errors[owners] > 0.95 * old, stalled[owners] + 1, 0)
        live = errors[own] > tol[own]
        own, a, b, sval, serr = own[live], a[live], b[live], sval[live], serr[live]
    return values, errors


def adaptive(f: Callable, a: float, b: float,
             rel_tol: float = 1e-12) -> tuple[float, float]:
    """Integral of f over [a, b] (either order) to relative tolerance
    ``rel_tol``: the one-panel call of ``panels``.  Returns (value,
    error estimate)."""
    if a == b:
        return 0.0, 0.0
    if b < a:
        val, err = adaptive(f, b, a, rel_tol)
        return -val, err
    val, err = panels(f, np.array([a]), np.array([b]), rel_tol)
    return float(val[0]), float(err[0])


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
