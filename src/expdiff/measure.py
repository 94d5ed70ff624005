"""Quadrature against the two radial densities of a weight.

Two densities appear throughout the functional inequalities, each
returned as a function of r by its own builder:

* ``growing_density``:  r**(N-1) * exp(g(r))           (volume density of f dx)
* ``dual_density``:     r**(-(N-1)/(p-1)) * exp(-g(r)/(p-1))
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from . import quadrature
from .errors import InvalidParameterError
from .weights import WeightSpec

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
