"""Quadrature against the radial weighted measure and its dual tail.

Two densities appear throughout the functional inequalities:

* growing:        r**(N-1) * exp(g(r))           (volume density of f dx)
* decaying tail:  r**(-(N-1)/(p-1)) * exp(-g(r)/(p-1))

The decaying density is integrable at +infinity because g grows at
least like a positive power; semi-infinite integrals are truncated
where g has grown by (p-1) ln(1e16) past the left endpoint, so the
density there is at most 1e-16 of its value at that endpoint, with a
doubling check on the cutoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import quadrature
from .errors import InvalidParameterError
from .weights import WeightSpec, invert_g

GROWING = "growing"
DECAYING_TAIL = "decaying_tail"

#: density collapse factor defining the truncation point of infinite tails
TAIL_DENSITY_FACTOR = 1e-16
#: target relative error of measure integrals
INTEGRATE_RTOL = 1e-10


def sphere_area(n: int) -> float:
    """Surface area of the unit sphere in R^n (2 for n = 1, 2*pi for n = 2...)."""
    if n < 1:
        raise InvalidParameterError("dimension must be >= 1")
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


@dataclass(frozen=True)
class RadialMeasure:
    """One of the two radial densities, bound to a weight and dimension."""

    weight: WeightSpec
    dim_n: int
    direction: str = GROWING
    p: float | None = None

    def __post_init__(self):
        if self.direction not in (GROWING, DECAYING_TAIL):
            raise InvalidParameterError(f"unknown direction {self.direction!r}")
        if self.direction == DECAYING_TAIL:
            if self.p is None or not self.p > 1:
                raise InvalidParameterError("decaying tail requires p > 1")
            if not self.weight.is_weighted:
                raise InvalidParameterError(
                    "decaying tail requires a growing weight; the unweighted "
                    "density is not summable with this truncation rule"
                )
        if self.dim_n < 1:
            raise InvalidParameterError("dimension must be >= 1")

    def density(self, r):
        r = np.asarray(r, dtype=float)
        if self.direction == GROWING:
            return r ** (self.dim_n - 1.0) * np.exp(self.weight.g(r))
        expo = (self.dim_n - 1.0) / (self.p - 1.0)
        return r ** (-expo) * np.exp(-self.weight.g(r) / (self.p - 1.0))


def _tail_cutoff(meas: RadialMeasure, a: float) -> float:
    """Radius where the factor exp(-g/(p-1)) of the decaying density is
    TAIL_DENSITY_FACTOR of its value at ``a``.  The factor r**(-(N-1)/(p-1))
    only shrinks beyond ``a``, so from there on the density is at most
    TAIL_DENSITY_FACTOR times its value at ``a``."""
    w = meas.weight
    return invert_g(w, float(w.g(a)) + (meas.p - 1.0) * math.log(1.0 / TAIL_DENSITY_FACTOR))


def tail_integrals(meas: RadialMeasure, h: Callable, x: np.ndarray,
                   rel_tol: float = INTEGRATE_RTOL) -> tuple[np.ndarray, np.ndarray]:
    """Tails ``int_{x_k}^inf h * density`` of the decaying measure at the
    ascending points x, and conservative error estimates, from one panel
    pass over the gaps of x, 39 geometric panels out to the truncation
    point and the doubling check.  Suffix sums run right to left, which
    avoids the cancellation of total-minus-prefix at large r.
    """
    if meas.direction != DECAYING_TAIL:
        raise InvalidParameterError(
            "infinite upper limit is only supported for the decaying tail"
        )
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size < 1 or x[0] < 0 or np.any(np.diff(x) < 0):
        raise InvalidParameterError("tail points must be an ascending 1-d array >= 0")

    def f(r):
        return np.asarray(h(r), dtype=float) * meas.density(r)

    start = max(float(x[-1]), 1e-300)
    cutoff = _tail_cutoff(meas, start)
    # the last panel, [cutoff, 2 cutoff], is the doubling check; a geometric
    # series bounds the rest (each further doubling shrinks the integrand
    # by at least the density collapse measured across that panel)
    bp = np.concatenate([x, np.geomspace(start, cutoff, 40)[1:], [2.0 * cutoff]])
    segs, errs = quadrature.panels(f, bp[:-1], bp[1:], rel_tol)
    d_ratio = float(meas.density(2.0 * cutoff)) / max(float(meas.density(cutoff)), 1e-300)
    d_ratio = min(d_ratio, 0.5)
    tail_bound = abs(segs[-1]) * d_ratio / (1.0 - d_ratio)
    vals = np.cumsum(segs[::-1])[::-1][: x.size]
    errs = np.cumsum(errs[::-1])[::-1][: x.size] + abs(segs[-1]) + tail_bound
    return vals, errs


def integrate_with_error(meas: RadialMeasure, h: Callable, a: float, b: float,
                         rel_tol: float = INTEGRATE_RTOL) -> tuple[float, float]:
    """Integral of h(r) * density(r) over (a, b), relative error <= rel_tol,
    and a conservative error estimate; b may be inf for the decaying tail."""
    if a < 0:
        raise InvalidParameterError("requires a >= 0")
    if not b > a:
        raise InvalidParameterError("requires b > a")

    def f(r):
        return np.asarray(h(r), dtype=float) * meas.density(r)

    if math.isinf(b):
        vals, errs = tail_integrals(meas, h, np.array([a]), rel_tol=rel_tol)
        return float(vals[0]), float(errs[0])

    if a == 0.0:
        bp = quadrature.geometric_breakpoints(b)
        segs, errs = quadrature.panels(f, bp[:-1], bp[1:], rel_tol)
        return float(np.sum(segs)), float(np.sum(errs))
    return quadrature.adaptive(f, a, b, rel_tol=rel_tol)


def cell_weighted_volumes(meas: RadialMeasure, faces: np.ndarray) -> np.ndarray:
    """omega_{N-1} * int_cell r**(N-1) exp(g) dr for every cell of the mesh.

    One ``quadrature.panels`` pass over the cells; in practice only the
    cell touching r = 0 needs refinement.
    """
    if meas.direction != GROWING:
        raise InvalidParameterError("cell volumes are defined for the growing measure")
    faces = np.asarray(faces, dtype=float)
    if faces.ndim != 1 or faces.size < 2 or np.any(np.diff(faces) <= 0):
        raise InvalidParameterError("faces must be a strictly increasing 1-d array")
    vols, _ = quadrature.panels(meas.density, faces[:-1], faces[1:], rel_tol=1e-12)
    return sphere_area(meas.dim_n) * vols
