"""Composite Gauss-Kronrod quadrature over batched panels.

All integrands are expected to be vectorized over numpy arrays.  An
integrand maps n nodes to n values, or to an (n, m) array of m
components (say, the m functions of a family on common breakpoints);
a multi-component integrand also takes ``rows``, a sorted integer array
of component indices, and ``f(nodes, rows=rows)`` returns the
(n, rows.size) array of just those components.
Every panel uses the Gauss-Kronrod (10, 21) pair of QUADPACK's QAG: the
integrand is called once on the 21 Kronrod nodes of all panels, the
panel's value is the 21-point Kronrod sum K, and the 10-point Gauss sum
G over every other node gives the error estimate, per component,
``max(|K - G|, |K| * min(1, (200 |K - G| / |K|)**1.5))`` (QUADPACK's
rescaling with |K| as its scale; the raw difference when K = 0), and at
least eps max(|a|, |b|) times the variation of f over the end nodes and
the centre: the error of nodes placed in floating point on a panel
[a, b] far narrower than its distance from 0, which K - G does not see.
``panels`` integrates many panels at once and refines each component
of each panel on its own, level by level: a sub-panel is split for the
components that miss their share of their panel's tolerance there, and
one batched integrand call per level evaluates the children of all
split sub-panels on the union of just those components; a component
that met its share keeps its value on that sub-panel.  A value or
estimate that is not finite is refused.  A split sub-panel is cut into
quarters with a 1/64-wide child at each end (6 children): the end
children grade the mesh geometrically toward an endpoint singularity,
as QUADPACK's bisection and the geometric meshes of hp methods do,
while an interior kink is still found to a quarter per level; MAX_PANELS
caps the child intervals, however many components share them.
``adaptive`` is its one-panel call, and ``rule_pair`` the one-level
pair on given panels.  Every integral over a partition (cumulative
integrals, graded breakpoints, cell volumes, criterion tails,
test-function families) goes through ``panels``, except the primitive of
g, which ``weights`` takes from a closed form, a table or g's power law.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import NumericFailureError

# The Gauss-Kronrod (10, 21) pair on [-1, 1], from QUADPACK's qk21
# (Piessens, de Doncker-Kapenga, Ueberhuber & Kahaner, QUADPACK, 1983).
#: the 21 Kronrod nodes, descending; the odd-indexed ones are G10's nodes
_NODES = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0,
    -0.148874338981631210884826001129720, -0.294392862701460198131126603103866,
    -0.433395394129247190799265943165784, -0.562757134668604683339000099272694,
    -0.679409568299024406234327365114874, -0.780817726586416897063717578345042,
    -0.865063366688984510732096688423493, -0.930157491355708226001207180059508,
    -0.973906528517171720077964012084452, -0.995657163025808080735527280689003,
])
#: the 21 Kronrod weights
_KRONROD = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
    0.147739104901338491374841515972068, 0.142775938577060080797094273138717,
    0.134709217311473325928054001771707, 0.123491976262065851077958109831074,
    0.109387158802297641899210590325805, 0.093125454583697605535065465083366,
    0.075039674810919952767043140916190, 0.054755896574351996031381300244580,
    0.032558162307964727478818972459390, 0.011694638867371874278064396062192,
])
#: the 10 Gauss weights, of the nodes ``_NODES[1::2]``
_GAUSS = np.array([
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338, 0.295524224714752870173892994651338,
    0.269266719309996355091226921569469, 0.219086362515982043995534934228163,
    0.149451349150580593145776339657697, 0.066671344308688137593568809893332,
])
_EPS = np.finfo(float).eps

#: absolute error every panel may keep, so that integrals of 0 converge
ABS_FLOOR = 1e-300
#: hard cap on the child intervals one ``panels`` call may add before
#: giving up (a sub-panel split for several components adds CHILDREN)
MAX_PANELS = 20_000
#: where a split sub-panel is cut, as fractions of its width: quarters
#: with a 1/64-wide child at each end, so that the error of an endpoint
#: singularity |s - a|**g shrinks by 64**-(1 + g) per level (equal
#: quarters give 4**-(1 + g))
_SPLIT_POINTS = np.array([0.0, 1 / 64, 0.25, 0.5, 0.75, 63 / 64, 1.0])
#: children of each split sub-panel
CHILDREN = _SPLIT_POINTS.size - 1
#: consecutive levels that cut a panel's error estimate by less than 5%
#: before its integrand is taken to be noisy at the tolerance (s**-0.99
#: at 0 loses 64**-0.01, about 4.1%, per level and counts as stalled)
STALL_LEVELS = 16


def _node_values(f: Callable, a: np.ndarray, b: np.ndarray,
                 rows: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Half-widths of the panels [a, b] and f on their 21 Kronrod nodes,
    components first: (m, *a.shape, 21), or (*a.shape, 21) for a scalar f;
    f is passed ``rows`` unless it is None."""
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    nodes = mid[..., None] + half[..., None] * _NODES
    vals = np.asarray(f(nodes.ravel()) if rows is None else f(nodes.ravel(), rows=rows),
                      dtype=float)
    return half, vals.T.reshape(vals.shape[1:] + nodes.shape)


def _weighted_sum(half: np.ndarray, vals: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The rule with weights w on each panel, from its node values, with
    f's component axis, if any, moved last."""
    out = half * (vals @ w)
    return np.moveaxis(out, 0, -1) if out.ndim > half.ndim else out


def gl_fixed(f: Callable, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The 21-point Kronrod rule on the panels [a, b] of two equal-shape
    arrays; f is called once on all their nodes and the result has their
    shape, with f's component axis, if any, last."""
    half, vals = _node_values(f, a, b)
    return _weighted_sum(half, vals, _KRONROD)


def _columns(x: np.ndarray) -> np.ndarray:
    """Per-panel values of shape (n,) or (n, m) as an (n, m) view."""
    return np.atleast_2d(x.T).T


def rule_pair(f: Callable, a: np.ndarray, b: np.ndarray,
              rows: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Kronrod values and error estimates on the panels [a, b], from one
    call of f (on the components ``rows`` only, unless None): one level
    of ``panels``, with no refinement.  Non-finite node values give
    non-finite sums or estimates silently (``panels`` refuses them);
    warnings raised by f itself still show."""
    half, vals = _node_values(f, a, b, rows)
    with np.errstate(invalid="ignore", over="ignore"):
        kronrod = _weighted_sum(half, vals, _KRONROD)
        diff = np.abs(kronrod - _weighted_sum(half, vals[..., 1::2], _GAUSS))
        scale = np.abs(kronrod)
        # min(1, 200 |K - G| / |K|), and 1 where K = 0
        ratio = np.divide(np.minimum(200.0 * diff, scale), scale,
                          out=np.ones_like(diff), where=scale > 0.0)
        estimate = np.maximum(diff, scale * ratio ** 1.5)
        # each node is a float, off its true place by up to about
        # eps max(|a|, |b|), which moves the sum by up to about that times
        # the variation of f, unseen by K - G on the same nodes; the
        # variation is read at the two end nodes and the centre
        spread = _EPS * np.maximum(np.abs(a), np.abs(b))
        centre = vals[..., 10]
        floor = spread * (np.abs(vals[..., 0] - centre) + np.abs(centre - vals[..., 20]))
        if floor.ndim > spread.ndim:
            floor = np.moveaxis(floor, 0, -1)
        estimate = np.maximum(estimate, floor)
    return kronrod, estimate


def _starts(x: np.ndarray) -> np.ndarray:
    """True at each entry of the sorted array x that differs from the one
    before it: a sort plus this mask dedupes as ``np.unique`` does, which
    (like ``np.union1d`` and ``np.isin``) imports ``numpy.ma`` on its
    first call."""
    out = np.ones(x.size, dtype=bool)
    np.not_equal(x[1:], x[:-1], out=out[1:])
    return out


def sorted_union(*points: np.ndarray) -> np.ndarray:
    """The sorted distinct values of the given 1-d arrays, as ``np.union1d``."""
    merged = np.sort(np.concatenate(points))
    return merged[_starts(merged)]


def _split_edges(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Edges of the CHILDREN children of each sub-panel [a_k, b_k], one
    row of CHILDREN + 1 per sub-panel: a_k + (b_k - a_k) * _SPLIT_POINTS,
    with the last edge b_k itself, so that the children tile [a_k, b_k]."""
    edges = a[:, None] + (b - a)[:, None] * _SPLIT_POINTS
    edges[:, -1] = b
    return edges


def _refuse_nonfinite(values: np.ndarray, errors: np.ndarray,
                      lo: np.ndarray, hi: np.ndarray) -> None:
    """Raise NumericFailureError naming the first panel [lo_k, hi_k]
    whose value or error estimate is not finite in some component."""
    bad = np.flatnonzero(~np.all(np.isfinite(values) & np.isfinite(errors), axis=1))
    if bad.size:
        k = bad[0]
        raise NumericFailureError(
            f"quadrature on [{lo[k]:g}, {hi[k]:g}] gave a non-finite value "
            "or error estimate", achieved=float("inf"))


def panels(f: Callable, lo: np.ndarray, hi: np.ndarray,
           rel_tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Integrals of f over the panels [lo_k, hi_k] of two 1-d arrays.

    f maps n nodes to n values, or to an (n, m) array of m components;
    such an f is also called as ``f(nodes, rows=rows)``, with ``rows`` a
    sorted integer array of component indices, and then returns the
    (n, rows.size) array of just those components.  The first pass calls
    ``f(nodes)``; a scalar f is never passed ``rows``.

    Each component of each panel is refined on its own until its error
    estimate is at most ``max(rel_tol * |value|, ABS_FLOOR)``.  A
    sub-panel whose error in a component exceeds that component's even
    share of its panel's tolerance is cut into the CHILDREN children of
    ``_split_edges`` (quarters with a 1/64-wide child at each end) for
    that component; each level evaluates the children of all such
    sub-panels in one call of f, on the union of the components they
    missed.  A component that met its share on a sub-panel, or its
    tolerance on a panel, keeps its value there.
    Returns (values, error estimates), each of shape (n_panels,) or
    (n_panels, m) as f's output.  A panel counts a stalled level when
    none of its components that miss their tolerance cut their estimate
    by 5%.  Raises NumericFailureError, naming the worst unconverged
    panel over all components, when the call would add more than
    MAX_PANELS child intervals (a sub-panel split for several components
    counts its children once) or when a panel's estimate stalls for
    STALL_LEVELS levels; naming the first such panel and sub-panel, when
    a sub-panel that misses its share is too narrow for its 1/64 end
    child (its edges would not increase in floating point), as QUADPACK
    flags roundoff (its ier = 2) rather than accept the error; and,
    naming the first such panel, when a panel's value or estimate is not
    finite in some component, at the first pass or at any level of
    refinement (a non-finite sub-panel makes its panel's sums
    non-finite).

    Each (sub-)panel gets its value from the 21-point Kronrod rule and
    its estimate from the Kronrod and 10-point Gauss sums, as in the
    module docstring.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    values, errors = rule_pair(f, lo, hi)
    shape = values.shape
    values, errors = _columns(values), _columns(errors)
    n, m = values.shape
    # (panel, component) values and estimates, flat at key panel * m + component
    values, errors = values.ravel(), errors.ravel()
    vals2, errs2 = values.reshape(n, m), errors.reshape(n, m)
    _refuse_nonfinite(vals2, errs2, lo, hi)
    tol = np.maximum(rel_tol * np.abs(values), ABS_FLOOR)
    tol2 = tol.reshape(n, m)
    # the unconverged keys, ascending, and their live (sub-panel,
    # component) pairs: the pair's index into keys, sub-panel id (the
    # panels are 0..n-1, the children added after them n, n+1, ...),
    # sub-panel ends, value and error estimate
    keys = np.flatnonzero(errors > tol)
    owner = np.arange(keys.size)
    sub = keys // m
    a, b = lo[sub], hi[sub]
    sval, serr = values[keys], errors[keys]
    stalled = np.zeros(n, dtype=int)
    added = 0
    while keys.size:
        count = np.bincount(owner, minlength=keys.size)
        owners = keys // m
        owners = owners[_starts(owners)]
        miss = serr > (tol[keys] / count)[owner]
        # the pairs that miss their share, grouped by sub-panel: each
        # sub-panel is cut once, at its first pair
        split = np.flatnonzero(miss)
        split = split[np.argsort(sub[split], kind="stable")]
        first = _starts(sub[split])
        heads = split[first]
        edges = _split_edges(a[heads], b[heads])
        narrow = np.flatnonzero(np.any(np.diff(edges, axis=1) <= 0.0, axis=1))
        if narrow.size:
            j = heads[narrow[0]]
            k = keys[owner[j]] // m
            raise NumericFailureError(
                f"quadrature did not converge on [{lo[k]:g}, {hi[k]:g}]: its sub-panel "
                f"[{a[j]:.17g}, {b[j]:.17g}] misses its share of the tolerance "
                "and is too narrow to split",
                achieved=float(np.max(errs2[k])))
        new = CHILDREN * heads.size
        stuck = owners[stalled[owners] >= STALL_LEVELS]
        if added + new > MAX_PANELS or stuck.size:
            worst = stuck if stuck.size else owners
            k = worst[np.argmax(np.max(errs2[worst] / tol2[worst], axis=1))]
            err_k = errs2[k, np.argmax(errs2[k] / tol2[k])]
            raise NumericFailureError(
                f"quadrature did not converge on [{lo[k]:g}, {hi[k]:g}]: "
                f"estimated error {err_k:.3e} after {added} added sub-panels"
                + (" (stalled; integrand may be noisy at this tolerance)"
                   if stuck.size else ""),
                achieved=float(err_k),
            )
        if new:  # else the shares round so that none is missed: f gets no empty call
            ca, cb = edges[:, :-1].ravel(), edges[:, 1:].ravel()
            comp = keys[owner[split]] % m
            needed = np.zeros(m, dtype=bool)
            needed[comp] = True
            rows = None if len(shape) == 1 else np.flatnonzero(needed)
            cval, cerr = rule_pair(f, ca, cb, rows)
            # each split pair's children, and where they sit in the
            # (rows, children) blocks of cval and cerr
            child = ((CHILDREN * (np.cumsum(first) - 1))[:, None] + np.arange(CHILDREN)).ravel()
            at = np.repeat((np.cumsum(needed) - 1)[comp] * ca.size, CHILDREN) + child
            keep = ~miss
            owner = np.concatenate([owner[keep], np.repeat(owner[split], CHILDREN)])
            sub = np.concatenate([sub[keep], n + added + child])
            added += new
            a, b = np.concatenate([a[keep], ca[child]]), np.concatenate([b[keep], cb[child]])
            sval = np.concatenate([sval[keep], _columns(cval).T.ravel()[at]])
            serr = np.concatenate([serr[keep], _columns(cerr).T.ravel()[at]])

        old = errs2[owners]
        values[keys] = np.bincount(owner, sval, minlength=keys.size)
        errors[keys] = np.bincount(owner, serr, minlength=keys.size)
        _refuse_nonfinite(vals2[owners], errs2[owners], lo[owners], hi[owners])
        tol[keys] = np.maximum(rel_tol * np.abs(values[keys]), ABS_FLOOR)
        # a level that barely cuts the estimate signals an integrand
        # evaluated with cancellation noise: bail out before burning panels
        now = errs2[owners]
        cut = (now > tol2[owners]) & (now <= 0.95 * old)
        stalled[owners] = np.where(np.any(cut, axis=1), 0, stalled[owners] + 1)
        # the keys still unconverged keep their pairs, renumbered onto them
        still = errors[keys] > tol[keys]
        live = still[owner]
        owner = (np.cumsum(still) - 1)[owner[live]]
        keys, sub, a, b = keys[still], sub[live], a[live], b[live]
        sval, serr = sval[live], serr[live]
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
    """Breakpoints on [0, b] refined geometrically toward 0: 0, then the
    49 points b * 2**-48, ..., b/4, b/2, b (down to about 3.6e-15 b).
    Each is b times an exact power of two, so a breakpoint at b/2**j
    merged with another at that radius gives no sliver panel between them
    (``np.geomspace`` misses b/2 by about 17 ulps).

    Useful for integrands with a branch-point singularity at 0, e.g.
    s**alpha with 0 < alpha < 1.
    """
    if not b > 0:
        raise ValueError("need b > 0")
    return np.concatenate([[0.0], b * 2.0 ** np.arange(-48.0, 1.0)])
