"""Batched panel quadrature against per-panel adaptive quadrature."""

import numpy as np
import pytest

from expdiff import quadrature as Q

RTOL = 1e-12


@pytest.mark.parametrize("f, edges", [
    (lambda s: np.exp(-s) * np.cos(3.0 * s), np.linspace(0.0, 10.0, 41)),
    # branch point at 0 inside the first panel, which needs the fallback
    (lambda s: s ** 0.3, np.concatenate([[0.0], np.geomspace(1e-6, 5.0, 30)])),
])
def test_panels_match_adaptive(f, edges):
    lo, hi = edges[:-1], edges[1:]
    values, errors = Q.panels(f, lo, hi, rel_tol=RTOL)
    assert values.shape == errors.shape == lo.shape
    for a, b, val, err in zip(lo, hi, values, errors):
        ref, _ = Q.adaptive(f, float(a), float(b), rel_tol=RTOL)
        assert val == pytest.approx(ref, rel=RTOL)
        assert err <= RTOL * abs(val)


def test_cumulative_is_prefix_sum_of_panels():
    bp = np.geomspace(0.1, 100.0, 25)
    cum = Q.cumulative(np.sqrt, bp, rel_tol=RTOL)
    exact = (bp ** 1.5 - bp[0] ** 1.5) / 1.5
    np.testing.assert_allclose(cum, exact, rtol=RTOL, atol=0.0)
