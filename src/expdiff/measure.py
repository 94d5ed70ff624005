"""Quadrature against the two radial densities of a weight.

Two densities appear throughout the functional inequalities, each
returned as a function of r by its own builder:

* ``growing_density``:  r**(N-1) * exp(g(r))           (volume density of f dx)
* ``dual_density``:     r**(-(N-1)/(p-1)) * exp(-g(r)/(p-1))

The dual density is integrable at +infinity because g grows at least
like a positive power; ``tail_integrals`` truncates its tails where g
has grown by (p-1) ln(1e16) past the left endpoint, so the density
there is at most 1e-16 of its value at that endpoint, with a doubling
check on the cutoff.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from . import quadrature
from .errors import InvalidParameterError
from .weights import WeightSpec, invert_g

#: density collapse factor defining the truncation point of infinite tails
TAIL_DENSITY_FACTOR = 1e-16
#: target relative error of measure integrals
INTEGRATE_RTOL = 1e-10


def sphere_area(n: int) -> float:
    """Surface area of the unit sphere in R^n (2 for n = 1, 2*pi for n = 2...)."""
    if n < 1:
        raise InvalidParameterError("dimension must be >= 1")
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


def growing_density(w: WeightSpec, dim_n: int) -> Callable[[np.ndarray], np.ndarray]:
    """r**(N-1) * exp(g(r)), the radial density of the weighted volume."""

    def density(r):
        r = np.asarray(r, dtype=float)
        return r ** (dim_n - 1.0) * np.exp(w.g(r))

    return density


def dual_density(w: WeightSpec, dim_n: int, p: float) -> Callable[[np.ndarray], np.ndarray]:
    """r**(-(N-1)/(p-1)) * exp(-g(r)/(p-1)), the dual of the growing
    density at exponent p > 1."""
    if not p > 1:
        raise InvalidParameterError(f"the dual density requires p > 1, got p={p}")
    expo = (dim_n - 1.0) / (p - 1.0)

    def density(r):
        r = np.asarray(r, dtype=float)
        return r ** (-expo) * np.exp(-w.g(r) / (p - 1.0))

    return density


def _tail_cutoff(w: WeightSpec, p: float, a: float) -> float:
    """Radius where the factor exp(-g/(p-1)) of the dual density is
    TAIL_DENSITY_FACTOR of its value at ``a``.  The factor r**(-(N-1)/(p-1))
    only shrinks beyond ``a``, so from there on the density is at most
    TAIL_DENSITY_FACTOR times its value at ``a``."""
    return invert_g(w, float(w.g(a)) + (p - 1.0) * math.log(1.0 / TAIL_DENSITY_FACTOR))


def tail_integrals(w: WeightSpec, dim_n: int, p: float, x: np.ndarray,
                   rel_tol: float = INTEGRATE_RTOL) -> tuple[np.ndarray, np.ndarray]:
    """Tails ``int_{x_k}^inf`` of the dual density at the ascending
    points x, and conservative error estimates, from one panel pass over
    the gaps of x and 39 geometric panels out to the truncation point.
    Suffix sums run right to left, which avoids the cancellation of
    total-minus-prefix at large r.  What lies beyond the truncation
    point only bounds the error: the doubling check [cutoff, 2 cutoff]
    is one Kronrod-Gauss pair, not refined, and its |K| plus estimate,
    with the geometric series it sets for the rest, goes into every
    error estimate.
    """
    density = dual_density(w, dim_n, p)
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size < 1 or x[0] < 0 or np.any(np.diff(x) < 0):
        raise InvalidParameterError("tail points must be an ascending 1-d array >= 0")

    start = max(float(x[-1]), 1e-300)
    cutoff = _tail_cutoff(w, p, start)
    bp = np.concatenate([x, np.geomspace(start, cutoff, 40)[1:]])
    segs, errs = quadrature.panels(density, bp[:-1], bp[1:], rel_tol)
    # the doubling check: one Kronrod-Gauss pair K on [cutoff, 2 cutoff],
    # and the geometric series |K| d / (1 - d) for the rest (each further
    # doubling shrinks the integrand by at least the collapse d measured
    # across that panel); all of it goes to the error bound, not to the tails
    check, check_err = quadrature.rule_pair(density, np.array([cutoff]),
                                            np.array([2.0 * cutoff]))
    d_ratio = float(density(2.0 * cutoff)) / max(float(density(cutoff)), 1e-300)
    d_ratio = min(d_ratio, 0.5)
    beyond = abs(float(check[0])) / (1.0 - d_ratio) + float(check_err[0])
    vals = np.cumsum(segs[::-1])[::-1][: x.size]
    errs = np.cumsum(errs[::-1])[::-1][: x.size] + beyond
    return vals, errs


def integrate_with_error(f: Callable, a: float, b: float,
                         rel_tol: float = INTEGRATE_RTOL) -> tuple[float, float]:
    """Integral of f over the finite interval (a, b), relative error
    <= rel_tol, and a conservative error estimate."""
    if a < 0:
        raise InvalidParameterError("requires a >= 0")
    if not (b > a and math.isfinite(b)):
        raise InvalidParameterError("requires a finite b > a")
    if a == 0.0:
        bp = quadrature.geometric_breakpoints(b)
        segs, errs = quadrature.panels(f, bp[:-1], bp[1:], rel_tol)
        return float(np.sum(segs)), float(np.sum(errs))
    return quadrature.adaptive(f, a, b, rel_tol=rel_tol)


def cell_weighted_volumes(w: WeightSpec, dim_n: int, faces: np.ndarray) -> np.ndarray:
    """omega_{N-1} * int_cell r**(N-1) exp(g) dr for every cell of the mesh.

    One ``quadrature.panels`` pass over the cells; in practice only the
    cell touching r = 0 needs refinement.
    """
    omega = sphere_area(dim_n)
    faces = np.asarray(faces, dtype=float)
    if faces.ndim != 1 or faces.size < 2 or np.any(np.diff(faces) <= 0):
        raise InvalidParameterError("faces must be a strictly increasing 1-d array")
    vols, _ = quadrature.panels(growing_density(w, dim_n), faces[:-1], faces[1:],
                                rel_tol=1e-12)
    return omega * vols
