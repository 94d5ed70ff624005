"""Composite Gauss-Legendre quadrature over batched panels.

All integrands are expected to be vectorized over numpy arrays.  An
integrand maps n nodes to n values, or to an (n, m) array of m
components (say, the m functions of a family on common breakpoints).
Each panel carries an error estimate per component, the difference of
its 10- and 20-point rules.  ``panels`` integrates many panels at once,
calling the integrand once per rule on all nodes, and refines the
panels that miss their tolerance in any component level by level, with
one batched rule pair per level for the sub-panels of all of them;
``adaptive`` is its one-panel call.  Every integral over a partition
(cumulative integrals, graded breakpoints, cell volumes, criterion
tails, test-function families) goes through ``panels``.
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
    result has their shape, with f's component axis, if any, last."""
    x, w = _nodes(order)
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    nodes = mid[..., None] + half[..., None] * x
    vals = np.asarray(f(nodes.ravel()), dtype=float)
    # components first: (m, *nodes.shape), or nodes.shape for a scalar f
    vals = vals.T.reshape(vals.shape[1:] + nodes.shape)
    out = half * (vals @ w)
    return np.moveaxis(out, 0, -1) if out.ndim > half.ndim else out


def _columns(x: np.ndarray) -> np.ndarray:
    """Per-panel values of shape (n,) or (n, m) as an (n, m) view."""
    return np.atleast_2d(x.T).T


def _rule_pair(f: Callable, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Values and error estimates of the 10/20-point rule pair on [a, b]."""
    fine = gl_fixed(f, a, b, order=20)
    return fine, np.abs(fine - gl_fixed(f, a, b, order=10))


def panels(f: Callable, lo: np.ndarray, hi: np.ndarray,
           rel_tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Integrals of f over the panels [lo_k, hi_k] of two 1-d arrays.

    f maps n nodes to n values or to an (n, m) array of m components.
    Each panel is refined until the error estimate of every component
    is at most ``max(rel_tol * |value|, ABS_FLOOR)`` of that component;
    a sub-panel too narrow to split is accepted as it is and its error
    leaves the estimate.  Returns (values, error estimates), each of
    shape (n_panels,) or (n_panels, m) as f's output.  A panel counts a
    stalled level when none of its components that miss their tolerance
    cut their estimate by 5%.  Raises NumericFailureError, naming the
    worst unconverged panel over all components, when the call would add
    more than MAX_PANELS sub-panels or when a panel's estimate stalls
    for STALL_LEVELS levels.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    values, errors = _rule_pair(f, lo, hi)
    shape = values.shape
    values, errors = _columns(values), _columns(errors)
    n, m = values.shape
    tol = np.maximum(rel_tol * np.abs(values), ABS_FLOOR)
    # live sub-panels of the unconverged panels: owner, ends, value, error
    own = np.flatnonzero(np.any(errors > tol, axis=1))
    a, b, sval, serr = lo[own], hi[own], values[own], errors[own]
    stalled = np.zeros(n, dtype=int)
    added = 0
    while own.size:
        count = np.bincount(own, minlength=n)
        owners = np.flatnonzero(count)
        edges = a[:, None] + (b - a)[:, None] * _SPLIT_POINTS
        edges[:, -1] = b
        serr[np.any(np.diff(edges, axis=1) <= 0.0, axis=1)] = 0.0  # too narrow to split
        split = np.any(serr > tol[own] / count[own, None], axis=1)
        new = CHILDREN * np.count_nonzero(split)
        stuck = owners[stalled[owners] >= STALL_LEVELS]
        if added + new > MAX_PANELS or stuck.size:
            worst = stuck if stuck.size else owners
            k = worst[np.argmax(np.max(errors[worst] / tol[worst], axis=1))]
            err_k = errors[k, np.argmax(errors[k] / tol[k])]
            raise NumericFailureError(
                f"quadrature did not converge on [{lo[k]:g}, {hi[k]:g}]: "
                f"estimated error {err_k:.3e} after {added} added sub-panels"
                + (" (stalled; integrand may be noisy at this tolerance)"
                   if stuck.size else ""),
                achieved=float(err_k),
            )
        added += new
        ca, cb = edges[split, :-1].ravel(), edges[split, 1:].ravel()
        cval, cerr = _rule_pair(f, ca, cb)
        own = np.concatenate([own[~split], np.repeat(own[split], CHILDREN)])
        a, b = np.concatenate([a[~split], ca]), np.concatenate([b[~split], cb])
        sval = np.concatenate([sval[~split], _columns(cval)])
        serr = np.concatenate([serr[~split], _columns(cerr)])

        old = errors[owners]
        flat = (own[:, None] * m + np.arange(m)).ravel()  # (panel, component)
        values[owners] = np.bincount(flat, sval.ravel(), minlength=n * m).reshape(n, m)[owners]
        errors[owners] = np.bincount(flat, serr.ravel(), minlength=n * m).reshape(n, m)[owners]
        tol = np.maximum(rel_tol * np.abs(values), ABS_FLOOR)
        # a level that barely cuts the estimate signals an integrand
        # evaluated with cancellation noise: bail out before burning panels
        cut = (errors[owners] > tol[owners]) & (errors[owners] <= 0.95 * old)
        stalled[owners] = np.where(np.any(cut, axis=1), 0, stalled[owners] + 1)
        live = np.any(errors[own] > tol[own], axis=1)
        own, a, b, sval, serr = own[live], a[live], b[live], sval[live], serr[live]
    return values.reshape(shape), errors.reshape(shape)


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


def geometric_breakpoints(b: float) -> np.ndarray:
    """Breakpoints on [0, b] refined geometrically toward 0: 0, then 49
    geometric points from b * 2**-48 to b (b, b/2, b/4, ... down to
    about 3.6e-15 b).

    Useful for integrands with a branch-point singularity at 0, e.g.
    s**alpha with 0 < alpha < 1.
    """
    if not b > 0:
        raise ValueError("need b > 0")
    return np.concatenate([[0.0], np.geomspace(b * 2.0 ** -48, b, num=49)])
