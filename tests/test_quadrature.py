"""Batched panel quadrature against closed forms."""

import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expdiff import quadrature as Q
from expdiff.errors import NumericFailureError

RTOL = 1e-12


def _stacked(*fs, requested=None):
    """The integrand whose components are fs, under the rows contract of
    ``Q.panels``: f(s) gives every component, f(s, rows=rows) the
    components rows only.  Each call appends its rows to ``requested``
    (None at a call for all of them)."""
    def f(s, rows=None):
        if requested is not None:
            requested.append(rows)
        return np.stack([fs[j](s) for j in (range(len(fs)) if rows is None else rows)],
                        axis=-1)
    return f


@pytest.mark.parametrize("f, primitive, edges", [
    (lambda s: np.exp(-s) * np.cos(3.0 * s),
     lambda s: np.exp(-s) * (3.0 * np.sin(3.0 * s) - np.cos(3.0 * s)) / 10.0,
     np.linspace(0.0, 10.0, 41)),
    # branch point at 0 inside the first panel, which needs refinement
    (lambda s: s ** 0.3, lambda s: s ** 1.3 / 1.3,
     np.concatenate([[0.0], np.geomspace(1e-6, 5.0, 30)])),
    # two components of one integrand, a branch point and a smooth power:
    # every column meets the tolerance
    (lambda s, rows=None: np.stack([s ** 0.3, s ** 2.5], axis=-1)[
        :, slice(None) if rows is None else rows],
     lambda s: np.stack([s ** 1.3 / 1.3, s ** 3.5 / 3.5], axis=-1),
     np.concatenate([[0.0], np.geomspace(1e-6, 5.0, 30)])),
])
def test_panels_match_closed_form(f, primitive, edges):
    lo, hi = edges[:-1], edges[1:]
    exact = primitive(hi) - primitive(lo)
    values, errors = Q.panels(f, lo, hi, rel_tol=RTOL)
    assert values.shape == errors.shape == exact.shape
    np.testing.assert_allclose(values, exact, rtol=RTOL, atol=0.0)
    assert np.all(errors <= RTOL * np.abs(values))


def test_components_refine_on_their_own():
    # only the middle component has a kink, inside the panel [1, 2]: every
    # refinement call asks for that row alone, as many calls as the kink
    # takes on its own
    requested = []
    f = _stacked(lambda s: s ** 3, lambda s: np.sqrt(np.abs(s - 1.3)), np.exp,
                 requested=requested)
    edges = np.arange(4.0)
    values, errors = Q.panels(f, edges[:-1], edges[1:], rel_tol=1e-10)
    assert requested[0] is None and len(requested) > 2
    for rows in requested[1:]:
        np.testing.assert_array_equal(rows, [1])
    lo, hi = edges[:-1], edges[1:]
    kink = np.sign(hi - 1.3) * np.abs(hi - 1.3) ** 1.5 / 1.5 \
        - np.sign(lo - 1.3) * np.abs(lo - 1.3) ** 1.5 / 1.5
    exact = np.stack([(hi ** 4 - lo ** 4) / 4, kink, np.exp(hi) - np.exp(lo)], axis=-1)
    np.testing.assert_allclose(values, exact, rtol=1e-10, atol=0.0)
    assert np.all(errors <= 1e-10 * np.abs(values))
    alone = []
    Q.panels(_stacked(lambda s: np.sqrt(np.abs(s - 1.3)), requested=alone), lo, hi,
             rel_tol=1e-10)
    assert len(alone) == len(requested)


def test_panels_refine_many_kinks_at_once():
    # a square-root kink inside each of 10 panels: all of them refine at
    # the same levels, and each meets its own tolerance
    edges = np.linspace(0.0, 10.0, 11)
    kinks = edges[:-1] + np.linspace(0.1, 0.9, 10)

    def f(s):
        return np.sqrt(np.abs(s - kinks[np.minimum(s.astype(int), 9)]))

    def primitive(s, c):
        return np.sign(s - c) * np.abs(s - c) ** 1.5 / 1.5

    values, errors = Q.panels(f, edges[:-1], edges[1:], rel_tol=RTOL)
    exact = primitive(edges[1:], kinks) - primitive(edges[:-1], kinks)
    np.testing.assert_allclose(values, exact, rtol=RTOL, atol=0.0)
    assert np.all(errors <= RTOL * np.abs(values))


def test_adaptive_is_one_panel_call():
    val, err = Q.adaptive(np.sqrt, 4.0, 1.0, rel_tol=RTOL)
    assert val == pytest.approx(-14.0 / 3.0, rel=RTOL)
    assert err <= RTOL * abs(val)
    assert Q.adaptive(np.sqrt, 2.0, 2.0) == (0.0, 0.0)


def test_noisy_integrand_fails_within_panel_cap():
    # e^s - 1 loses all digits near 0, so no tolerance of 1e-13 is reachable
    sizes = []

    def f(s):
        sizes.append(s.size)
        return np.exp(s) - 1.0

    with pytest.raises(NumericFailureError, match=r"\[0, 1e-12\]"):
        Q.panels(f, np.array([0.0]), np.array([1e-12]), rel_tol=1e-13)
    # next to a smooth column, which converges at once, it still fails
    with pytest.raises(NumericFailureError, match=r"\[0, 1e-12\]"):
        Q.panels(_stacked(lambda s: 1.0 + s, f), np.array([0.0]), np.array([1e-12]),
                 rel_tol=1e-13)
    assert max(sizes) <= 20 * Q.MAX_PANELS


def test_slow_singularity_stalls():
    # each level cuts the error of s**-0.99 at 0 by 64**-0.01, about 4.1%
    # (the 1/64-wide end child), under the 5% that resets the stall count
    with pytest.raises(NumericFailureError, match=r"\[0, 1\].*stalled"):
        Q.adaptive(lambda s: s ** -0.99, 0.0, 1.0, rel_tol=RTOL)


@pytest.mark.parametrize("beta, at_right, max_calls", [
    (-0.5, False, 13),
    (0.3, False, 5), (0.3, True, 5),
    (0.6, False, 4), (0.6, True, 4),
    (1.5, False, 3), (1.5, True, 3),
])
def test_endpoint_singularity_calls(beta, at_right, max_calls):
    # the 1/64-wide end children grade the mesh toward a branch point at
    # either end, s**beta or (1 - s)**beta; (1 - s)**-0.5 is left out, as
    # 1 - s rounds to 0 at the nodes next to s = 1
    calls = []

    def f(s):
        calls.append(s.size)
        return (1.0 - s if at_right else s) ** beta

    rel_tol = 1e-10
    values, _ = Q.panels(f, np.array([0.0]), np.array([1.0]), rel_tol)
    assert len(calls) <= max_calls
    assert values[0] == pytest.approx(1.0 / (beta + 1.0), rel=rel_tol, abs=0.0)


@pytest.mark.parametrize("e, max_calls", [(0.5, 13), (1.5, 8), (2.5, 5)])
def test_interior_kink_calls(e, max_calls):
    # unit panels with a kink |s - c_k|**e at a random interior point: a
    # split must still find a kink to a quarter per level, so that no
    # layout trades interior kinks for endpoint singularities
    k = np.arange(100.0)
    c = k + np.random.default_rng(1).uniform(0.0, 1.0, k.size)
    calls = []

    def f(s):
        calls.append(s.size)
        return np.abs(s - c[np.minimum(s.astype(int), k.size - 1)]) ** e

    Q.panels(f, k, k + 1.0, rel_tol=1e-10)
    assert len(calls) <= max_calls


def test_split_children_tile_parent():
    a = np.array([0.0, -3.0, 0.1, 1e-300, 1.0, 2.0 ** 40])
    b = np.array([1.0, 1e-300, 0.7, 2e-300, 1.0 + 2.0 ** -40, 2.0 ** 41 + 3.0])
    edges = Q._split_edges(a, b)
    assert edges.shape == (a.size, Q.CHILDREN + 1) == (a.size, 7)
    np.testing.assert_array_equal(edges[:, 0], a)
    np.testing.assert_array_equal(edges[:, -1], b)
    assert np.all(np.diff(edges, axis=1) > 0.0)
    # quarters, with a 1/64-wide child at each end
    np.testing.assert_allclose(np.diff(edges, axis=1) / (b - a)[:, None],
                               np.tile([1, 15, 16, 16, 15, 1], (a.size, 1)) / 64,
                               rtol=1e-12)


def test_no_integrand_call_on_empty_array():
    # a panel a few ulps wide that misses its tolerance is too narrow for
    # its 1/64 end child: it is refused, naming the sub-panel, with no
    # call of f on zero sub-panels
    a, b = np.array([1.0]), np.array([np.nextafter(1.0, 2.0) + 8e-16])
    sizes = []

    def f(s):
        sizes.append(s.size)
        return np.abs(s - (1.0 + 3e-16)) ** 0.3

    with pytest.raises(NumericFailureError,
                       match=r"sub-panel \[1, 1\.0000000000000011\].*too narrow"):
        Q.panels(f, a, b, 1e-14)
    assert min(sizes) > 0


def _power_integral(lo: float, hi: float, c: float, gamma: float) -> float:
    """int_lo^hi |s - c|**gamma ds in 40-digit arithmetic."""
    with mpmath.workdps(40):
        def primitive(s):
            d = mpmath.mpf(s) - mpmath.mpf(c)
            return mpmath.sign(d) * abs(d) ** (gamma + 1) / (gamma + 1)
        return float(primitive(hi) - primitive(lo))


@settings(max_examples=150, deadline=None)
@given(a=st.floats(-2.0, 10.0), width=st.floats(1e-3, 1.0),
       shares=st.lists(st.floats(0.05, 1.0), min_size=1, max_size=5),
       gamma=st.floats(-0.9, 3.0, exclude_min=True, exclude_max=True),
       where=st.sampled_from(["left", "right", "inside"]), at=st.floats(0.0, 1.0),
       log_tol=st.floats(-12.0, -6.0))
def test_singular_power_accepted_only_when_right(a, width, shares, gamma, where, at, log_tol):
    # |s - c|**gamma over a random partition of [a, b] in [-2, 11] into 1
    # to 5 panels, c at an end or at a breakpoint inside (a singularity on
    # a panel edge, which the 1/64 end children chase down to float
    # width): panels either refuses, or every panel's value is within
    # 10 rel_tol of the closed form.  A kink inside a panel is left to
    # test_interior_kinks_rarely_missed: there the Kronrod-Gauss estimate
    # itself is sometimes fooled, and nothing reaches float width.
    b = a + width * (11.0 - a)
    if where == "inside" and len(shares) == 1:
        shares = shares * 2
    edges = np.concatenate([[a], a + np.cumsum(shares)[:-1] / np.sum(shares) * (b - a), [b]])
    inner = edges[1:-1]
    c = {"left": a, "right": b,
         "inside": inner[min(int(at * inner.size), inner.size - 1)] if inner.size else a}[where]
    rel_tol = 10.0 ** log_tol
    try:
        with np.errstate(divide="ignore"):
            values, _ = Q.panels(lambda s: np.abs(s - c) ** gamma, edges[:-1], edges[1:],
                                 rel_tol)
    except NumericFailureError:
        return
    exact = np.array([_power_integral(lo, hi, c, gamma)
                      for lo, hi in zip(edges[:-1], edges[1:])])
    assert np.all(np.abs(values - exact) <= 10.0 * rel_tol * np.abs(exact))


def test_singular_panel_refused():
    # gamma = -0.878 at the left end: the 1/64 end children reach float
    # width before the estimate meets the tolerance; accepting such a
    # sub-panel as it is returned 1.2e-2 relative error, estimated 1.6e-8
    a, b, gamma = -1.03049, -0.325021, -0.878
    with pytest.raises(NumericFailureError, match=r"\[-1.03049, -0.325021\].*too narrow"):
        Q.panels(lambda s: np.abs(s - a) ** gamma, np.array([a]), np.array([b]), 1.3e-7)


def test_cumulative_is_prefix_sum_of_panels():
    bp = np.geomspace(0.1, 100.0, 25)
    cum = Q.cumulative(np.sqrt, bp, rel_tol=RTOL)
    exact = (bp ** 1.5 - bp[0] ** 1.5) / 1.5
    np.testing.assert_allclose(cum, exact, rtol=RTOL, atol=0.0)


@pytest.mark.parametrize("a, b", [(-1.0, 1.0), (0.5, 2.0)])
def test_rule_pair_exact_on_polynomials(a, b):
    # K21 integrates every monomial up to degree 31, G10 up to degree 19
    half, mid = 0.5 * (b - a), 0.5 * (a + b)
    gauss_nodes = mid + half * Q._NODES[1::2]
    for d in range(32):
        exact = (b ** (d + 1) - a ** (d + 1)) / (d + 1)
        kronrod = Q.gl_fixed(lambda s: s ** d, np.array(a), np.array(b))
        assert kronrod == pytest.approx(exact, rel=1e-14, abs=1e-14)
        if d <= 19:
            gauss = half * (gauss_nodes ** d) @ Q._GAUSS
            assert gauss == pytest.approx(exact, rel=1e-14, abs=1e-14)


def test_rule_nodes_symmetric_and_nested():
    x = Q._NODES
    assert x.size == Q._KRONROD.size == 21 and Q._GAUSS.size == 10
    np.testing.assert_array_equal(x, -x[::-1])
    np.testing.assert_array_equal(Q._KRONROD, Q._KRONROD[::-1])
    np.testing.assert_array_equal(Q._GAUSS, Q._GAUSS[::-1])
    assert np.all(np.diff(x) < 0)
    # G10's nodes are every other Kronrod node: the Gauss-Legendre ones
    np.testing.assert_allclose(x[1::2], np.polynomial.legendre.leggauss(10)[0][::-1],
                               rtol=0.0, atol=1e-15)


def test_interior_kinks_rarely_missed():
    # unit panels [k, k+1] with a kink of |s - c_k|**e at a random interior
    # point: the estimate may be fooled when the two rules agree by chance
    # on the sub-panel holding the kink, but on no more panels than a
    # 10/20-point Gauss-Legendre pair misses here (48 of 3,000)
    rng = np.random.default_rng(7)
    k = np.arange(100.0)
    missed = 0
    for e in (0.3, 0.5, 0.7, 1.5, 2.5, 0.4, 0.6, 1.2, 1.7, 3.5):
        for rel_tol in (1e-10, 1e-11, 1e-12):
            c = k + rng.uniform(0.001, 0.999, k.size)

            def f(s):
                return np.abs(s - c[np.minimum(s.astype(int), k.size - 1)]) ** e

            def primitive(s):
                return np.sign(s - c) * np.abs(s - c) ** (e + 1) / (e + 1)

            exact = primitive(k + 1) - primitive(k)
            values, _ = Q.panels(f, k, k + 1, rel_tol)
            missed += np.count_nonzero(np.abs(values - exact) > rel_tol * np.abs(exact))
    assert missed <= 48


@pytest.mark.parametrize("f, where", [
    (lambda s: np.full_like(s, np.inf), r"\[0, 1\]"),
    (lambda s: np.full_like(s, np.nan), r"\[0, 1\]"),
    # a pole on the centre Kronrod node of the second panel
    (lambda s: 1.0 / (s - 1.5), r"\[1, 2\]"),
    # one non-finite component next to a finite one
    (lambda s: np.stack([s, np.where(s > 2.0, np.nan, s)], axis=-1), r"\[2, 3\]"),
], ids=["all-inf", "all-nan", "centre-pole", "one-component"])
def test_nonfinite_refused(f, where):
    with np.errstate(all="ignore"), pytest.raises(NumericFailureError,
                                                  match=where + ".*non-finite"):
        Q.panels(f, np.arange(3.0), np.arange(1.0, 4.0), rel_tol=RTOL)


def test_nonfinite_refused_after_refinement():
    # the first pass has no node below 2e-3 and the branch point of the
    # square root forces refinement: the NaN below 1e-3 shows up only in
    # the sub-panel [0, 0.25]
    def f(s):
        return np.where(s < 1e-3, np.nan, np.sqrt(s))

    with np.errstate(all="ignore"), pytest.raises(NumericFailureError,
                                                  match=r"\[0, 1\].*non-finite"):
        Q.panels(f, np.array([0.0]), np.array([1.0]), rel_tol=RTOL)


def test_nonfinite_refused_without_warning():
    # inf - inf in the Kronrod-Gauss difference is refused, not warned about
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NumericFailureError, match="non-finite"):
            Q.panels(lambda s: np.full_like(s, np.inf), np.arange(3.0),
                     np.arange(1.0, 4.0), rel_tol=RTOL)


def test_integrand_warnings_still_show():
    with pytest.warns(RuntimeWarning, match="overflow"), \
            pytest.raises(NumericFailureError, match="non-finite"):
        Q.panels(lambda s: np.exp(1e3 * s), np.array([0.0]), np.array([1.0]),
                 rel_tol=RTOL)
