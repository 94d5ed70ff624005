"""Explicit constants and empirical certification of the weighted
functional inequalities.

Three inequalities are covered, all over the radial weighted measure:

* weighted Poincare:   int lam(|x|)**p |v|**p df <= C int |grad v|**p df
* radial Sobolev:      (int_0^inf |v|**q w dr)**(1/q)
                         <= Gamma (int_0^inf |v'|**p w dr)**(1/p),
                       w(r) = r**(N-1) exp(g(r))
* bounded-ball Sobolev: (int_{B_R} |v|**q df)**(1/q)
                         <= C (int_{B_R} |grad v|**p df)**(1/p) * lam(R)**(N/a - 1)

Each one comes with a closed-form certified constant assembled from a
Hardy-type criterion: the supremum over r of

    ( int_0^r w )**(1/q) * ( int_r^inf phi**(-1/(p-1)) )**((p-1)/p)

certifies the inequality with constant at most K(q,p) times the sup,
K(q,p) = (1 + q/p')**(1/q) (1 + p'/q)**(1/p').  Test-function families
then verify empirically that no ratio exceeds the certified constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import measure, quadrature
from .errors import InvalidParameterError, PreconditionError
from .measure import dual_density, growing_density, sphere_area
from .weights import EquationParams, WeightSpec, check_structural_conditions, invert_g, lambda_many

POINCARE = "poincare"
RADIAL_SOBOLEV = "radial_sobolev"
BOUNDED_SOBOLEV = "bounded_sobolev"

#: slack multiplier on certified constants when judging empirical ratios
VERDICT_RTOL = 1e-8
#: slack multiplier on the closed-form bound when judging the scanned
#: criterion against it
CRITERION_RTOL = 1e-9


def k_qp(q: float, p: float) -> float:
    """Criterion-to-constant factor (1 + q/p')**(1/q) * (1 + p'/q)**(1/p')."""
    if not p > 1:
        raise InvalidParameterError(f"requires p > 1, got p={p}")
    if not q >= p:
        raise InvalidParameterError(f"requires q >= p, got q={q}, p={p}")
    pp = p / (p - 1.0)
    return (1.0 + q / pp) ** (1.0 / q) * (1.0 + pp / q) ** (1.0 / pp)


def c4(alpha: float) -> float:
    """max over lam > 0 of lam**(1/alpha - 1) * exp(-lam), 0 < alpha < 1."""
    if not 0 < alpha < 1:
        raise InvalidParameterError(f"requires 0 < alpha < 1, got {alpha}")
    k = 1.0 / alpha - 1.0
    return k ** k * math.exp(-k)


# ---------------------------------------------------------------------------
# Hardy-type criterion


#: radii per level and levels of the zoom that refines the scanned argmax
ZOOM_POINTS = 17
ZOOM_LEVELS = 6


def _suffix_sums(segs: np.ndarray) -> np.ndarray:
    """sum(segs[k:]) for every k, added right to left (no cancellation of
    total minus prefix where the tails are small).  It stays a reversed
    view: on a contiguous copy numpy's power loop rounds 18 of the 400
    scanned samples 1 ulp apart at p = 2.5."""
    return np.cumsum(segs[::-1])[::-1]


def hardy_criterion_sup(w: WeightSpec, eq: EquationParams, q: float
                        ) -> tuple[float, list]:
    """Scan-and-zoom estimate of the criterion supremum at exponent
    q >= eq.p, with (sup, [(r, A(r))]) returned.  The left density is
    lam**p r**(N-1) e^g at q = p (weighted Poincare) and r**(N-1) e^g at
    q > p (radial Sobolev); the right factor integrates
    ``measure.dual_density``, the dual of phi(r) = r**(N-1) exp(g(r)).

    A(r) is evaluated on 400 log-spaced radii from 1e-4 to the end of
    the scan: cumulative panel integrals for the left factor, and for
    the right one suffix sums of one panel pass over the scan's gaps
    and 39 geometric panels out to the cutoff, where g has grown by
    (p-1) ln 1e16 past its value at the last radius (so the dual
    density there is at most 1e-16 of its value at that radius).
    When the scan's argmax is interior, each zoom level then samples
    ZOOM_POINTS equispaced radii between the neighbours of the best
    radius so far, from one panel pass per factor, and the best value
    of all is returned.  When the argmax is the scan's last radius (the
    q = p profile still rises there) the scan cannot bracket the
    maximum: no zoom runs and the value there is returned, a lower end
    of the supremum, as every scanned A(r) is.
    """
    p = eq.p
    if not q >= p:
        raise InvalidParameterError(f"requires q >= p, got q={q}, p={p}")
    grow = growing_density(w, eq.dim_n)
    if q == p:
        def left_density(r):
            return lambda_many(w, r) ** p * grow(r)
    else:
        left_density = grow
    dual = dual_density(w, eq.dim_n, p)
    # the profile decays like exp(-g(r)(q-p)/(pq)) beyond its hump for
    # q > p, and plateaus for q = p; end the scan where e^g stays finite
    a_param = p * q / (q - p) if q > p else p
    r_max = max(10.0, invert_g(w, min(50.0 * a_param, 600.0)))
    grid = np.geomspace(1e-4, r_max, 400)
    cutoff = invert_g(w, float(w.g(grid[-1])) + (p - 1.0) * math.log(1e16))

    def profile_of(left, tails):
        return left ** (1.0 / q) * tails ** ((p - 1.0) / p)

    left_cum = quadrature.cumulative(left_density, np.concatenate([[0.0], grid]),
                                     rel_tol=1e-11)[1:]
    bp = np.concatenate([grid, np.geomspace(grid[-1], cutoff, 40)[1:]])
    segs, _ = quadrature.panels(dual, bp[:-1], bp[1:], rel_tol=1e-11)
    tails = _suffix_sums(segs)[: grid.size]
    profile = profile_of(left_cum, tails)
    j = int(np.argmax(profile))
    samples = list(zip(grid.tolist(), profile.tolist()))
    best = float(profile[j])
    if j == grid.size - 1:
        return best, samples

    x, left, right, k = grid, left_cum, tails, j
    for _ in range(ZOOM_LEVELS):
        lo, hi = max(k - 1, 0), min(k + 1, x.size - 1)
        x_new = np.linspace(x[lo], x[hi], ZOOM_POINTS)
        left = left[lo] + quadrature.cumulative(left_density, x_new, rel_tol=1e-11)
        segs, _ = quadrature.panels(dual, x_new[:-1], x_new[1:], rel_tol=1e-11)
        right = right[hi] + np.concatenate([_suffix_sums(segs), [0.0]])
        x = x_new
        level = profile_of(left, right)
        k = int(np.argmax(level))
        best = max(best, float(level[k]))
    return best, samples


# ---------------------------------------------------------------------------
# certified constants


@dataclass(frozen=True)
class PoincareConstants:
    criterion_bound: float   # closed-form bound on the criterion sup
    beta_numeric: float      # scanned criterion sup (lower approximation)


def _poincare_closed_form(w: WeightSpec, eq: EquationParams) -> tuple[float, float, float]:
    """(criterion_bound, K(p,p), certified) of the weighted Poincare inequality."""
    cond = check_structural_conditions(w, eq)
    if not cond.flux_monotone_ok:
        raise PreconditionError(
            "weighted Poincare requires (N-p)a1/(a1+1) + (p-1)(a1 - a2/(a2+1)) >= 0"
        )
    a1, a2, p = w.alpha1, w.alpha2, eq.p
    c1 = (p - 1.0) * a1 / (a2 * (a1 + 1.0))
    bound = (c1 ** (p - 1.0) / a1) ** (1.0 / p)
    kk = k_qp(p, p)
    return bound, kk, (kk * bound) ** p


def poincare_constant(w: WeightSpec, eq: EquationParams) -> PoincareConstants:
    """Closed-form bound and scanned value of the weighted Poincare
    criterion; the certified constant is (K(p,p) * criterion_bound)**p.

    Requires the flux-monotonicity condition
    (N-p)a1/(a1+1) + (p-1)(a1 - a2/(a2+1)) >= 0.  The closed form uses
    c1 = (p-1)a1/(a2(a1+1)):  criterion_bound = (c1**(p-1)/a1)**(1/p).
    """
    bound = _poincare_closed_form(w, eq)[0]
    beta, _ = hardy_criterion_sup(w, eq, eq.p)
    return PoincareConstants(criterion_bound=bound, beta_numeric=beta)


def _check_q_range(eq: EquationParams, q: float) -> None:
    hi = eq.dim_n * eq.p / (eq.dim_n - eq.p)
    if not (eq.p < q < hi):
        raise InvalidParameterError(
            f"requires p < q < N*p/(N-p) = {hi:g}, got q={q}"
        )


def gamma_constant(w: WeightSpec, eq: EquationParams, q: float) -> float:
    """Closed-form constant of the radial weighted Sobolev inequality.

    Requires p < q < Np/(N-p), alpha2 < 1 and both monotonicity
    conditions.  With a = pq/(q-p) and the split radius r0 = 1:

        Gamma = K(q,p) * [ 2 N**(-1/q) ((p-1)/(N-p))**((p-1)/p)
                + (p-1)**((p-1)/p) (a2(a1+1)/(a1(a2+1)))**(1/q)
                  * a1**(-1/q) a2**(-(p-1)/p) (c4(a1)+c4(a2))
                  * (1 + g(1)**(1/N)) * ginv(a)/a ].
    """
    _check_q_range(eq, q)
    cond = check_structural_conditions(w, eq)
    if not w.alpha2 < 1.0:
        raise PreconditionError("radial Sobolev constant requires alpha2 < 1")
    if not (cond.flux_monotone_ok and cond.dual_monotone_ok):
        raise PreconditionError(
            "radial Sobolev constant requires both monotonicity conditions"
        )
    a1, a2 = w.alpha1, w.alpha2
    n, p = float(eq.dim_n), eq.p
    a = p * q / (q - p)
    term1 = n ** (-1.0 / q) * ((p - 1.0) / (n - p)) ** ((p - 1.0) / p) * 2.0
    term2 = ((p - 1.0) ** ((p - 1.0) / p)
             * (a2 * (a1 + 1.0) / (a1 * (a2 + 1.0))) ** (1.0 / q)
             * a1 ** (-1.0 / q) * a2 ** (-(p - 1.0) / p)
             * (c4(a1) + c4(a2))
             * (1.0 + float(w.g(1.0)) ** (1.0 / n))
             * invert_g(w, a) / a)
    return k_qp(q, p) * (term1 + term2)


def talenti_constant(n: int, p: float) -> float:
    """Sharp constant of the unweighted Sobolev embedding
    ||v||_{p*} <= C ||grad v||_p on R^n, p* = np/(n-p)."""
    if not 1 < p < n:
        raise InvalidParameterError("requires 1 < p < n")
    n = float(n)
    return (math.pi ** -0.5 * n ** (-1.0 / p)
            * ((p - 1.0) / (n - p)) ** (1.0 - 1.0 / p)
            * (math.gamma(1.0 + n / 2.0) * math.gamma(n)
               / (math.gamma(n / p) * math.gamma(1.0 + n - n / p))) ** (1.0 / n))


def bounded_sobolev_constant(w: WeightSpec, eq: EquationParams, q: float,
                             big_r: float) -> tuple[float, float]:
    """Constant pair (C, lam(R)**(N/a - 1)) of the bounded-ball inequality.

    C is assembled from the chain: sharp unweighted Sobolev constant
    applied to v * exp(g/p), the gradient-of-g comparison
    |g'| <= a2 (a1+1)/a1 * lam, the certified Poincare constant, the
    interpolation between exponents p* and p, and the comparison
    lam(s) >= (a1/(a1+1)) ((a2+1)/a2) lam(R) for s < R.
    """
    _check_q_range(eq, q)
    if not (big_r > 0 and math.isfinite(big_r)):
        raise InvalidParameterError("requires finite R > 0")
    if not w.alpha2 <= 1.0:
        raise PreconditionError("bounded-ball Sobolev requires alpha2 <= 1")
    a1, a2 = w.alpha1, w.alpha2
    n, p = float(eq.dim_n), eq.p
    p_star = n * p / (n - p)
    a = p * q / (q - p)
    theta = (q - p) / (p_star - p)
    cp = _poincare_closed_form(w, eq)[2]
    c_grad = a2 * (a1 + 1.0) / a1
    c_one = talenti_constant(eq.dim_n, p) ** p * 2.0 ** (p - 1.0) * (
        1.0 + (c_grad / p) ** p * cp)
    c_two = ((a1 + 1.0) * a2 / (a1 * (a2 + 1.0))) ** p * cp
    c_total = c_one ** (theta * p_star / (p * q)) * c_two ** ((1.0 - theta) / q)
    lam_factor = float(lambda_many(w, big_r)[0]) ** (n / a - 1.0)
    return c_total, lam_factor


# ---------------------------------------------------------------------------
# test-function families


@dataclass(frozen=True)
class TestFunction:
    label: str
    value: Callable[[np.ndarray], np.ndarray]
    deriv: Callable[[np.ndarray], np.ndarray]
    support_radius: float


def polynomial_bump(big_r: float, k: float) -> TestFunction:
    """(1 - (r/R)**2)_+**k with analytic derivative."""
    if not (big_r > 0 and math.isfinite(big_r * big_r) and k >= 1):
        raise InvalidParameterError(f"requires R > 0 with a finite R**2 and k >= 1, "
                                    f"got R={big_r:g}, k={k:g}")

    def v(r):
        r = np.asarray(r, dtype=float)
        core = np.maximum(0.0, 1.0 - (r / big_r) ** 2)
        return core ** k

    def dv(r):
        r = np.asarray(r, dtype=float)
        core = np.maximum(0.0, 1.0 - (r / big_r) ** 2)
        return -2.0 * k * r / big_r ** 2 * core ** (k - 1.0) * (core > 0)

    return TestFunction(f"bump(R={big_r:g},k={k:g})", v, dv, big_r)


def gaussian_tapered(big_r: float, sigma: float) -> TestFunction:
    """exp(-r**2/sigma**2) - exp(-R**2/sigma**2), truncated at R."""
    if not (big_r > 0 and sigma > 0):
        raise InvalidParameterError("requires R > 0 and sigma > 0")
    offset = math.exp(-(big_r / sigma) ** 2)

    def v(r):
        r = np.asarray(r, dtype=float)
        return np.maximum(0.0, np.exp(-(r / sigma) ** 2) - offset) * (r < big_r)

    def dv(r):
        r = np.asarray(r, dtype=float)
        return -2.0 * r / sigma ** 2 * np.exp(-(r / sigma) ** 2) * (r < big_r)

    return TestFunction(f"gauss(R={big_r:g},sigma={sigma:g})", v, dv, big_r)


def bump_family(radii: Sequence[float] = (0.5, 1.0, 2.0, 4.0),
                powers: Sequence[float] = (1.0, 2.0, 3.0)) -> list[TestFunction]:
    return [polynomial_bump(R, k) for R in radii for k in powers]


def random_family(rng: np.random.Generator, n: int,
                  fixed_radius: float | None = None) -> list[TestFunction]:
    """Seeded mixture of polynomial bumps and tapered gaussians, with
    support radii log-uniform in (0.5, 4) unless ``fixed_radius`` is set."""
    out = []
    for i in range(n):
        big_r = fixed_radius if fixed_radius is not None else float(
            np.exp(rng.uniform(math.log(0.5), math.log(4.0))))
        if rng.uniform() < 0.5:
            out.append(polynomial_bump(big_r, float(rng.uniform(1.0, 4.0))))
        else:
            out.append(gaussian_tapered(big_r, float(rng.uniform(0.3, 1.0)) * big_r))
    return out


# ---------------------------------------------------------------------------
# empirical verification


@dataclass(frozen=True)
class InequalityReport:
    kind: str
    beta_sup: float
    closed_form_bound: float
    kqp: float
    certified_constant: float
    empirical_worst_ratio: float
    verdict: bool
    samples: list = field(default_factory=list)
    per_function: list = field(default_factory=list)  # (label, lhs, rhs, ratio)
    params: dict = field(default_factory=dict)


def _ratio(lhs: float, rhs: float) -> float:
    if lhs == 0.0 and rhs == 0.0:
        return 0.0
    return lhs / rhs


def _family_sides(w: WeightSpec, eq: EquationParams, family: Sequence[TestFunction],
                  lam_power: float, s: float) -> tuple[np.ndarray, np.ndarray]:
    """Integrals over (0, R_k) against the growing density of
    lam**lam_power |v_k|**s and of |v_k'|**p, for every test function of
    the family, from one ``quadrature.panels`` pass.  Its breakpoints are
    the geometric grid to the largest radius merged with every support
    radius, so each kink of a test function sits on a panel edge.

    The integrand's components are the 2m rows, 0..m-1 for |v_k|**s and
    m..2m-1 for |v_k'|**p, and it takes ``panels``' ``rows``: the first
    pass fills all of them, and a refinement level only the rows that
    missed their share on some split sub-panel.  It fills one
    preallocated (rows, n) block row by row; lam**lam_power (evaluated
    only when a |v|**s row is requested) and the density multiply whole
    row blocks in place, and one mask zeroes each row beyond its support
    radius.  It returns the (n, rows) transpose view, which ``panels``
    reshapes to (rows, panels, 21) without a copy."""
    m = len(family)
    if not m:
        return np.zeros(0), np.zeros(0)
    radii = np.array([tf.support_radius for tf in family], dtype=float)
    bad = np.flatnonzero(~((radii > 0) & np.isfinite(radii)))
    if bad.size:
        raise InvalidParameterError(
            f"test function {family[bad[0]].label} needs a finite support radius > 0")
    grow = growing_density(w, eq.dim_n)
    bp = quadrature.sorted_union(quadrature.geometric_breakpoints(radii.max()), radii)
    ends = np.concatenate([radii, radii])

    def integrand(r, rows=None):
        rows = np.arange(2 * m) if rows is None else rows
        out = np.empty((rows.size, r.size))
        for i, j in enumerate(rows.tolist()):
            if j < m:
                out[i] = np.abs(family[j].value(r)) ** s
            else:
                out[i] = np.abs(family[j - m].deriv(r)) ** eq.p
        n_left = int(np.searchsorted(rows, m))
        if lam_power and n_left:
            out[:n_left] *= lambda_many(w, r) ** lam_power
        out *= grow(r)
        np.copyto(out, 0.0, where=r >= ends[rows, None])
        return out.T

    sides, _ = quadrature.panels(integrand, bp[:-1], bp[1:], measure.INTEGRATE_RTOL)
    total = sides.sum(axis=0)
    return total[:m], total[m:]


def verify_inequality(kind: str, w: WeightSpec, eq: EquationParams,
                      q: float | None = None, big_r: float | None = None, *,
                      family: Sequence[TestFunction]) -> InequalityReport:
    """Evaluate both sides per test function and compare the worst ratio
    against the certified constant.  The verdict fails loudly in the
    report (never raises) if any ratio exceeds it beyond 1e-8 relative,
    or if the scanned criterion exceeds what the constant claims beyond
    1e-9 relative: beta_sup above the closed-form bound (Poincare), or
    K(q,p) * beta_sup above the certified constant (radial Sobolev).
    Every scanned value is a lower end of the criterion supremum, so a
    constant below it is wrong whatever the family shows.
    A kind only sets its constants and the numbers of one shared body:
    the power of lam and the exponent of |v| on the left, the roots of
    both sides, their scale and the lam(R) factor of the ball."""
    eq.validate_with_weight(w)
    p = eq.p
    scale, lam_factor = 1.0, 1.0
    beta_sup, samples = math.nan, []
    criterion_ok = True  # the bounded ball has no scan

    if kind == POINCARE:
        closed_bound, kk, certified = _poincare_closed_form(w, eq)
        beta_sup, samples = hardy_criterion_sup(w, eq, p)
        criterion_ok = beta_sup <= closed_bound * (1.0 + CRITERION_RTOL)
        lam_power, s, roots = p, p, (1.0, 1.0)
    elif kind == RADIAL_SOBOLEV:
        if q is None:
            raise InvalidParameterError("radial Sobolev requires q")
        certified = gamma_constant(w, eq, q)
        beta_sup, samples = hardy_criterion_sup(w, eq, q)
        closed_bound, kk = certified, k_qp(q, p)
        criterion_ok = kk * beta_sup <= certified * (1.0 + CRITERION_RTOL)
        lam_power, s, roots = 0.0, q, (1.0 / q, 1.0 / p)
    elif kind == BOUNDED_SOBOLEV:
        if q is None or big_r is None:
            raise InvalidParameterError("bounded-ball Sobolev requires q and R")
        certified, lam_factor = bounded_sobolev_constant(w, eq, q, big_r)
        closed_bound, kk = certified, k_qp(q, p)
        for tf in family:
            if tf.support_radius > big_r * (1.0 + 1e-12):
                raise InvalidParameterError(
                    f"test function {tf.label} is not supported in the ball of radius {big_r:g}"
                )
        lam_power, s, roots = 0.0, q, (1.0 / q, 1.0 / p)
        scale = sphere_area(eq.dim_n)
    else:
        raise InvalidParameterError(f"unknown inequality kind {kind!r}")

    left, right = _family_sides(w, eq, family, lam_power, s)
    lhs = (scale * left) ** roots[0]
    rhs = (scale * right) ** roots[1] * lam_factor
    per_function = [(tf.label, a, b, _ratio(a, b))
                    for tf, a, b in zip(family, lhs.tolist(), rhs.tolist())]
    worst = max((r for *_, r in per_function), default=0.0)
    return InequalityReport(
        kind=kind,
        beta_sup=beta_sup,
        closed_form_bound=closed_bound,
        kqp=kk,
        certified_constant=certified,
        empirical_worst_ratio=worst,
        verdict=(bool(worst <= certified * (1.0 + VERDICT_RTOL)) and math.isfinite(worst)
                 and criterion_ok),
        samples=samples,
        per_function=per_function,
        params={"weight": w.label(), "q": q if q is not None else p, "R": big_r},
    )
