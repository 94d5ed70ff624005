"""Batched panel quadrature against closed forms."""

import numpy as np
import pytest

from expdiff import quadrature as Q
from expdiff.errors import NumericFailureError

RTOL = 1e-12


@pytest.mark.parametrize("f, primitive, edges", [
    (lambda s: np.exp(-s) * np.cos(3.0 * s),
     lambda s: np.exp(-s) * (3.0 * np.sin(3.0 * s) - np.cos(3.0 * s)) / 10.0,
     np.linspace(0.0, 10.0, 41)),
    # branch point at 0 inside the first panel, which needs refinement
    (lambda s: s ** 0.3, lambda s: s ** 1.3 / 1.3,
     np.concatenate([[0.0], np.geomspace(1e-6, 5.0, 30)])),
    # two components of one integrand, a branch point and a smooth power:
    # every column meets the tolerance
    (lambda s: np.stack([s ** 0.3, s ** 2.5], axis=-1),
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
        Q.panels(lambda s: np.stack([1.0 + s, f(s)], axis=-1),
                 np.array([0.0]), np.array([1e-12]), rel_tol=1e-13)
    assert max(sizes) <= 20 * Q.MAX_PANELS


def test_slow_singularity_stalls():
    # each level cuts the error of s**-0.99 at 0 by about 1%
    with pytest.raises(NumericFailureError, match=r"\[0, 1\].*stalled"):
        Q.adaptive(lambda s: s ** -0.99, 0.0, 1.0, rel_tol=RTOL)


def test_cumulative_is_prefix_sum_of_panels():
    bp = np.geomspace(0.1, 100.0, 25)
    cum = Q.cumulative(np.sqrt, bp, rel_tol=RTOL)
    exact = (bp ** 1.5 - bp[0] ** 1.5) / 1.5
    np.testing.assert_allclose(cum, exact, rtol=RTOL, atol=0.0)
