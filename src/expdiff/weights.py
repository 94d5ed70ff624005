"""Admissible radial weight exponents and their derived quantities.

A weight is f(x) = exp(g(|x|)) with g(0) = 0, g > 0 on (0, inf), and a
power-like envelope

    alpha1 * g(s)/s  <=  g'(s)  <=  alpha2 * g(s)/s,   s > 0,

for envelope exponents 0 < alpha1 <= alpha2.  Built-ins: the pure power
g(s) = s**alpha (alpha1 = alpha2 = alpha) and the log-corrected power
g(s) = s**alpha * log(c + s)**beta (alpha1 = alpha, alpha2 = alpha + beta).

Derived objects: the smoothed exponent G(s) = (1/s) * int_0^s g, its
derivative lam(s) = G'(s), the inverse of g, and validators for every
structural inequality the downstream constants rely on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import quadrature
from .errors import (
    InvalidParameterError,
    NumericFailureError,
    OutOfRangeError,
    PreconditionError,
)

KIND_POWER = "power"
KIND_ZYGMUND = "zygmund"
KIND_CUSTOM = "custom"
KIND_UNWEIGHTED = "unweighted"

#: relative tolerance of the envelope validator
ENVELOPE_RTOL = 1e-10
#: |g(s) - z| <= INVERT_RTOL * max(1, z) for the inverse
INVERT_RTOL = 1e-12
#: largest radius the inverse brackets; targets beyond g(INVERT_CAP) are refused
INVERT_CAP = 1e21
#: radii per batched 21-point anchor-panel evaluation; bounds the
#: temporaries of g to 512 * 21 nodes each
PRIMITIVE_BATCH = 512
#: relative finite-difference step for monotonicity checks
FD_REL_STEP = 1e-5
#: relative truncation tolerance for finite-difference slopes
FD_SLOPE_RTOL = 1e-6


@dataclass(frozen=True)
class WeightSpec:
    """Immutable weight exponent with declared envelope exponents.

    ``g`` and ``gp`` (the exponent and its derivative) take a float or a
    numpy array and return floats of its shape.  All operations are
    pure, so instances are safe to share across threads.
    """

    kind: str
    alpha1: float
    alpha2: float
    g: Callable[[np.ndarray], np.ndarray]
    gp: Callable[[np.ndarray], np.ndarray]
    params: dict = field(default_factory=dict)
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        if self.kind != KIND_UNWEIGHTED:
            if not (0 < self.alpha1 <= self.alpha2):
                raise InvalidParameterError(
                    "envelope exponents must satisfy 0 < alpha1 <= alpha2, "
                    f"got ({self.alpha1}, {self.alpha2})"
                )
            if not self.g(0.0) == 0.0:  # NaN fails too
                raise InvalidParameterError("weight exponent must satisfy g(0) = 0")
            if not self.g(1.0) > 0.0:
                raise InvalidParameterError("weight exponent must satisfy g(s) > 0 for s > 0")

    @property
    def is_weighted(self) -> bool:
        return self.kind != KIND_UNWEIGHTED

    def label(self) -> str:
        if self.kind == KIND_POWER:
            return f"power(alpha={self.params['alpha']:g})"
        if self.kind == KIND_ZYGMUND:
            p = self.params
            return f"zygmund(alpha={p['alpha']:g},beta={p['beta']:g},c={p['c']:g})"
        return self.kind

    # -- primitive of g and the smoothed exponent --------------------------

    def _primitive_anchors(self) -> tuple[np.ndarray, np.ndarray]:
        """Cached cumulative integral of g on a geometric anchor grid (or
        the NumericFailureError of building it, raised again on each call).

        Anchors are ~10 per decade over [1e-12, 1e16]; a single 21-point
        Kronrod panel from the nearest anchor then recovers int_0^s g to
        machine precision for arbitrary s (g is smooth between anchors; the
        branch point at 0 sits inside the first panel, [0, 1e-12]).
        """
        anchors = self._cache.get("anchors")
        if anchors is None:
            s_grid = np.geomspace(1e-12, 1e16, 281)
            try:
                cum = quadrature.cumulative(self.g, np.concatenate([[0.0], s_grid]),
                                            rel_tol=1e-13)[1:]
                anchors = (s_grid, cum)
            except NumericFailureError as exc:
                anchors = exc.with_traceback(None)
            self._cache["anchors"] = anchors
        if isinstance(anchors, NumericFailureError):
            raise NumericFailureError(str(anchors), achieved=anchors.achieved)
        return anchors

    def g_primitive(self, s: float) -> float:
        """int_0^s g(z) dz; one point of ``g_primitive_many``."""
        return float(self.g_primitive_many(s)[0])

    def g_primitive_many(self, ss: np.ndarray) -> np.ndarray:
        """int_0^s g(z) dz over an array of radii (closed form for powers,
        anchored panels else).

        Radii below the first anchor share one cumulative pass over
        breakpoints graded geometrically toward 0, where g(z) <= g(1) *
        z**alpha1 for z < 1 keeps the branch point benign.
        """
        ss = np.atleast_1d(np.asarray(ss, dtype=float))
        if np.any(ss < 0):
            raise InvalidParameterError("primitive requires s >= 0")
        if self.kind == KIND_POWER:
            a = self.params["alpha"]
            return np.power(ss, a + 1.0) / (a + 1.0)
        s_grid, cum = self._primitive_anchors()
        if np.any(ss > s_grid[-1]):
            raise InvalidParameterError(f"primitive tabulation capped at {s_grid[-1]:g}")
        out = np.zeros_like(ss)
        low = (ss > 0.0) & (ss < s_grid[0])
        if np.any(low):
            s_low = ss[low]
            bp = quadrature.sorted_union(
                quadrature.geometric_breakpoints(float(s_low.max())), s_low)
            out[low] = quadrature.cumulative(self.g, bp, rel_tol=1e-12)[
                np.searchsorted(bp, s_low)]
        high = np.flatnonzero(~(ss < s_grid[0]))  # NaN propagates through this branch
        idx = np.searchsorted(s_grid, ss[high], side="right") - 1
        for k in range(0, high.size, PRIMITIVE_BATCH):
            i, j = high[k:k + PRIMITIVE_BATCH], idx[k:k + PRIMITIVE_BATCH]
            out[i] = cum[j] + quadrature.gl_fixed(self.g, s_grid[j], ss[i])
        return out


@dataclass(frozen=True)
class EquationParams:
    """Parameters (N, p, m) of the doubly degenerate equation.

    The degeneracy conditions p > 1 and p + m - 3 > 0 are always
    enforced; 1 < p < N and the envelope cap on alpha2 are enforced when
    the parameters are paired with a weight (``validate_with_weight``),
    so that the unweighted calibration mode can run with N = 1.
    """

    dim_n: int
    p: float
    m: float

    def __post_init__(self):
        if self.dim_n < 1 or int(self.dim_n) != self.dim_n:
            raise InvalidParameterError(f"dimension must be a positive integer, got {self.dim_n}")
        if not self.p > 1:
            raise InvalidParameterError(f"requires p > 1, got p={self.p}")
        if not self.p + self.m - 3 > 0:
            raise InvalidParameterError(
                f"degeneracy condition requires p + m - 3 > 0, got {self.p + self.m - 3}"
            )

    @property
    def kappa(self) -> float:
        """Shorthand for p + m - 3, the scaling exponent of time."""
        return self.p + self.m - 3.0

    def validate_with_weight(self, w: WeightSpec) -> None:
        if not w.is_weighted:
            return
        if self.dim_n < 2:
            raise InvalidParameterError(
                f"weighted runs require dimension N >= 2, got N={self.dim_n}"
            )
        if not self.p < self.dim_n:
            raise InvalidParameterError(
                f"requires 1 < p < N, got p={self.p}, N={self.dim_n}"
            )
        cap = min(self.dim_n, self.p / (self.p - 1.0))
        if not (0 < w.alpha2 < cap):
            raise InvalidParameterError(
                "envelope exponent range requires 0 < alpha2 < min(N, p/(p-1)) "
                f"= {cap:g}, got alpha2={w.alpha2}"
            )


# ---------------------------------------------------------------------------
# constructors


def make_power_weight(alpha: float) -> WeightSpec:
    """g(s) = s**alpha; saturates the envelope with alpha1 = alpha2 = alpha."""
    if not alpha > 0:
        raise InvalidParameterError(f"power exponent must be positive, got {alpha}")

    def g(s):
        return np.power(s, alpha)

    def gp(s):
        return alpha * np.power(s, alpha - 1.0)

    return WeightSpec(
        kind=KIND_POWER, alpha1=alpha, alpha2=alpha,
        g=g, gp=gp, params={"alpha": alpha},
    )


def make_zygmund_weight(alpha: float, beta: float, c: float) -> WeightSpec:
    """g(s) = s**alpha * log(c + s)**beta with alpha1 = alpha, alpha2 = alpha + beta."""
    if not alpha > 0:
        raise InvalidParameterError(f"requires alpha > 0, got {alpha}")
    if not beta > 0:
        raise InvalidParameterError(f"requires beta > 0, got {beta}")
    if not c > 1:
        raise InvalidParameterError(f"requires c > 1, got c={c}")

    def g(s):
        s = np.asarray(s, dtype=float)
        return np.power(s, alpha) * np.power(np.log(c + s), beta)

    def gp(s):
        s = np.asarray(s, dtype=float)
        lg = np.log(c + s)
        return np.power(s, alpha - 1.0) * np.power(lg, beta - 1.0) * (
            alpha * lg + beta * s / (c + s)
        )

    return WeightSpec(
        kind=KIND_ZYGMUND, alpha1=alpha, alpha2=alpha + beta,
        g=g, gp=gp, params={"alpha": alpha, "beta": beta, "c": c},
    )


def make_custom_weight(g: Callable, g_prime: Callable, alpha1: float,
                       alpha2: float) -> WeightSpec:
    """Wrap user-supplied g, g' with *declared* envelope exponents.

    The exponents are validated against samples by ``validate_envelope``,
    never inferred: samples cannot certify a global envelope.
    """
    return WeightSpec(
        kind=KIND_CUSTOM, alpha1=alpha1, alpha2=alpha2,
        g=lambda s: np.asarray(g(np.asarray(s, dtype=float)), dtype=float),
        gp=lambda s: np.asarray(g_prime(np.asarray(s, dtype=float)), dtype=float),
        params={},
    )


def make_unweighted() -> WeightSpec:
    """g = 0 (no weight).  Only for solver calibration against classical
    self-similar decay; every weighted-theory operation rejects it."""
    zero = lambda s: np.zeros_like(np.asarray(s, dtype=float))
    return WeightSpec(
        kind=KIND_UNWEIGHTED, alpha1=0.0, alpha2=0.0,
        g=zero, gp=zero, params={},
    )


def _require_weighted(w: WeightSpec, what: str) -> None:
    if not w.is_weighted:
        raise PreconditionError(f"{what} is undefined for the unweighted (g = 0) mode")


# ---------------------------------------------------------------------------
# reports


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of a sampled validation: the worst violation over the
    samples (a Python float) and the tolerance it is held to.  The check
    passes iff worst_violation <= tolerance; the CLI names the check."""

    worst_violation: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.worst_violation <= self.tolerance


@dataclass(frozen=True)
class ConditionReport:
    """Exact evaluation of the closed-form structural inequalities."""

    flux_monotone_ok: bool      # (N-p)a1/(a1+1) + (p-1)(a1 - a2/(a2+1)) >= 0
    dual_monotone_ok: bool      # (N+1)a1/(a1+1) >= a2
    sup_decay_range_ok: bool    # 1 > a2 >= a1 >= a2/(a2+1)
    alpha2_below_one: bool
    alpha2_below_cap: bool      # a2 < min(N, p/(p-1))
    values: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# operations


def _band_report(value: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                 rtol: float) -> ValidationReport:
    """Report of lo <= value <= hi at the samples, each violation
    measured relative to the bound it violates."""
    viol = np.maximum(np.maximum((lo - value) / lo, (value - hi) / hi), 0.0)
    return ValidationReport(float(viol.max()), rtol)


def validate_envelope(w: WeightSpec, samples: Sequence[float]) -> ValidationReport:
    """Check alpha1*g(s)/s <= g'(s) <= alpha2*g(s)/s on the sample grid.

    Violations are measured relative to the bound being violated; the
    report carries the worst one.
    """
    _require_weighted(w, "the envelope condition")
    s = np.asarray(samples, dtype=float)
    if s.ndim != 1 or s.size == 0 or np.any(s <= 0) or np.any(np.diff(s) <= 0):
        raise InvalidParameterError("samples must be a strictly positive sorted grid")
    ratio = w.g(s) / s
    return _band_report(w.gp(s), w.alpha1 * ratio, w.alpha2 * ratio, ENVELOPE_RTOL)


def lambda_many(w: WeightSpec, ss: np.ndarray) -> np.ndarray:
    """lam(s) = G'(s) = (g(s) - G(s)) / s, with lam(0) = 0, over an array
    of radii s >= 0."""
    _require_weighted(w, "lam")
    ss = np.atleast_1d(np.asarray(ss, dtype=float))
    prim = w.g_primitive_many(ss)  # refuses s < 0
    out = np.zeros_like(ss)
    pos = ss != 0.0  # lam(0) = 0; a NaN radius gives NaN
    sp = ss[pos]
    out[pos] = (w.g(sp) - prim[pos] / sp) / sp
    return out


def invert_g(w: WeightSpec, z):
    """Unique s > 0 with g(s) = z (g is strictly increasing), for a float
    or an array of targets z > 0; a float z gives a float.

    Closed form for powers, refused past INVERT_CAP like every other
    kind.  Else one masked pass over all targets (``_invert_masked``):
    a bracket grown from [0, 1] by squaring up to INVERT_CAP, then
    Newton steps with ``w.gp`` safeguarded by bisection, each target
    stopping on its own, and the result checked against
    |g(s) - z| <= INVERT_RTOL * max(1, z).  OutOfRangeError for a target
    beyond g(INVERT_CAP), NumericFailureError for one that misses the
    check (a g that jumps across z).
    """
    _require_weighted(w, "inversion")
    z_in = np.asarray(z, dtype=float)
    z = np.atleast_1d(z_in)
    if not np.all(z > 0):
        raise InvalidParameterError("requires z > 0")
    if w.kind == KIND_POWER:
        s = np.power(z, 1.0 / w.params["alpha"])
        far = np.flatnonzero(~(s <= INVERT_CAP))
        if far.size:
            raise _beyond_cap(z[far[0]])
    else:
        s = _invert_masked(w, z)
    return float(s[0]) if z_in.ndim == 0 else s


def _beyond_cap(z: float) -> OutOfRangeError:
    return OutOfRangeError(f"inversion target z={z:g} exceeds g({INVERT_CAP:g})")


def _invert_masked(w: WeightSpec, z: np.ndarray) -> np.ndarray:
    """Safeguarded Newton (``rtsafe``, Numerical Recipes 9.4) on every
    target at once, each target's steps independent of the others.

    The bracket [lo, hi] with g(lo) < z <= g(hi) grows from [0, 1] by
    squaring (1, 4, 16, 256, ...) up to INVERT_CAP, one g call per
    growth.  Newton then starts at hi and steps on log g = log z in
    log s, whose slope s g'/g lies in [alpha1, alpha2] for an admissible
    weight, so a power needs one step.  Each point narrows the bracket,
    and a step that leaves it, that is not half the step before last
    (rtsafe's test, so that a wrong g' cannot crawl), or that stalls
    while the residual still misses the check, is replaced by bisection
    (geometric once lo > 0).
    A target stops once its step or its bracket is below 1e-15 of s;
    zygmund(0.5, 1, 2) takes 6 to 12 g calls per target over
    1e-2 <= z <= 1e11."""
    tol = INVERT_RTOL * np.maximum(1.0, z)
    lo, hi = np.zeros_like(z), np.ones_like(z)
    g_hi = w.g(hi)
    live = np.flatnonzero(g_hi < z)
    while live.size:
        if hi[live[0]] == INVERT_CAP:  # every live target has the same hi
            raise _beyond_cap(z[live[0]])
        lo[live] = hi[live]
        hi[live] = np.minimum(np.maximum(hi[live], 2.0) ** 2, INVERT_CAP)
        g_hi[live] = w.g(hi[live])
        live = live[g_hi[live] < z[live]]
    s, gs = hi.copy(), g_hi
    # |log| of each target's last two steps, for rtsafe's halving test
    last, older = np.full_like(z, np.inf), np.full_like(z, np.inf)
    live = np.arange(z.size)
    for _ in range(200):
        if not live.size:
            break
        sl, gl, zl = s[live], gs[live], z[live]
        below = gl < zl
        lo[live[below]] = sl[below]
        hi[live[~below]] = sl[~below]
        a, b = lo[live], hi[live]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            du = np.log(zl / gl) * gl / (sl * w.gp(sl))
            new = sl * np.exp(du)
        stalled = (np.abs(new - sl) <= 1e-15 * sl) & (np.abs(gl - zl) > tol[live])
        slow = np.abs(du) > 0.5 * older[live]
        bisect = ~((new >= a) & (new <= b)) | stalled | slow
        new[bisect] = np.where(a[bisect] > 0.0, np.sqrt(a[bisect] * b[bisect]),
                               0.5 * b[bisect])
        moving = (np.abs(new - sl) > 1e-15 * sl) & (b - a > 1e-15 * b)
        with np.errstate(divide="ignore"):
            older[live], last[live] = last[live], np.abs(np.log(new / sl))
        s[live], gs[live] = new, w.g(new)
        live = live[moving]
    resid = np.abs(gs - z)
    bad = np.flatnonzero(resid > tol)
    if bad.size:
        k = bad[0]
        raise NumericFailureError(
            f"inversion stalled at s={s[k]:g} for z={z[k]:g}", achieved=float(resid[k])
        )
    return s


def check_structural_conditions(w: WeightSpec, eq: EquationParams) -> ConditionReport:
    """Evaluate the closed-form inequalities gating the monotone quantities,
    the decay-envelope range and the envelope cap."""
    _require_weighted(w, "structural conditions")
    a1, a2 = w.alpha1, w.alpha2
    n, p = eq.dim_n, eq.p
    flux_lhs = (n - p) * a1 / (a1 + 1.0) + (p - 1.0) * (a1 - a2 / (a2 + 1.0))
    dual_lhs = (n + 1.0) * a1 / (a1 + 1.0)
    cap = min(float(n), p / (p - 1.0))
    return ConditionReport(
        flux_monotone_ok=flux_lhs >= 0.0,
        dual_monotone_ok=dual_lhs >= a2,
        sup_decay_range_ok=(1.0 > a2 >= a1 >= a2 / (a2 + 1.0)),
        alpha2_below_one=a2 < 1.0,
        alpha2_below_cap=a2 < cap,
        values={
            "flux_monotone_lhs": flux_lhs,
            "dual_monotone_lhs": dual_lhs,
            "alpha_ratio_floor": a2 / (a2 + 1.0),
            "alpha2_cap": cap,
        },
    )


def _fd_slope(fn: Callable[[np.ndarray], np.ndarray], s: np.ndarray) -> np.ndarray:
    h = FD_REL_STEP * s
    return (fn(s + h) - fn(s - h)) / (2.0 * h)


def check_monotone_quantities(w: WeightSpec, eq: EquationParams,
                              grid: Sequence[float]) -> ValidationReport:
    """Finite-difference monotonicity of the five derived radial quantities.

    Non-decreasing: lam(s)**(p-1) s**(N-1),  lam(s)**-1 s**(N-1),  g(s) s**-alpha1.
    Non-increasing: lam(s)**-1 s**(-(N-1)/(p-1)),  g(s) s**-alpha2.

    The check always runs and reports the worst signed violation
    relative to the local quantity scale; gating conditions are reported
    alongside, not enforced.
    """
    s = np.asarray(grid, dtype=float)
    if np.any(s <= 0):
        raise InvalidParameterError("grid must be strictly positive")
    n, p = eq.dim_n, eq.p
    quantities = [  # (sign, quantity): +1 non-decreasing, -1 non-increasing
        (+1, lambda x: lambda_many(w, x) ** (p - 1.0) * x ** (n - 1.0)),
        (-1, lambda x: lambda_many(w, x) ** -1.0 * x ** (-(n - 1.0) / (p - 1.0))),
        (+1, lambda x: lambda_many(w, x) ** -1.0 * x ** (n - 1.0)),
        (+1, lambda x: w.g(x) * x ** (-w.alpha1)),
        (-1, lambda x: w.g(x) * x ** (-w.alpha2)),
    ]
    worst = 0.0
    for sign, fn in quantities:
        slope = sign * _fd_slope(fn, s)
        scale = np.abs(fn(s)) / s  # natural slope scale of the quantity
        worst = max(worst, float(np.max(-slope / scale)))
    return ValidationReport(worst, FD_SLOPE_RTOL)


def check_sandwich(w: WeightSpec, samples: Sequence[float]) -> ValidationReport:
    """g(s)s/(alpha2+1) <= int_0^s g <= g(s)s/(alpha1+1) on the samples."""
    _require_weighted(w, "the primitive sandwich")
    s = np.asarray(samples, dtype=float)
    gs = np.asarray(w.g(s), dtype=float) * s
    return _band_report(w.g_primitive_many(s), gs / (w.alpha2 + 1.0),
                        gs / (w.alpha1 + 1.0), 1e-10)


def check_lambda_bounds(w: WeightSpec, samples: Sequence[float]) -> ValidationReport:
    """a1/(a1+1) g(s)/s <= lam(s) <= a2/(a2+1) g(s)/s on the samples."""
    s = np.asarray(samples, dtype=float)
    ratio = np.asarray(w.g(s), dtype=float) / s
    return _band_report(lambda_many(w, s), w.alpha1 / (w.alpha1 + 1.0) * ratio,
                        w.alpha2 / (w.alpha2 + 1.0) * ratio, 1e-10)


def check_inversion_roundtrip(w: WeightSpec, zs: Sequence[float]) -> ValidationReport:
    """|g(ginv(z)) - z| <= 1e-12 max(1, z) on the samples."""
    zs = np.asarray(zs, dtype=float)
    rel = np.abs(w.g(invert_g(w, zs)) - zs) / np.maximum(1.0, zs)
    return ValidationReport(float(np.max(rel, initial=0.0)), INVERT_RTOL)


def check_inverse_scaling(w: WeightSpec,
                          pairs: Sequence[tuple[float, float]]) -> ValidationReport:
    """Power-like scaling of the inverse: for lam > 1,
    ginv(z) lam^(1/a2) <= ginv(z lam) <= ginv(z) lam^(1/a1), and with the
    exponents swapped for lam < 1."""
    z, lam = np.asarray(pairs, dtype=float).T
    base = invert_g(w, z)
    grow = lam > 1.0
    lo = base * lam ** (1.0 / np.where(grow, w.alpha2, w.alpha1))
    hi = base * lam ** (1.0 / np.where(grow, w.alpha1, w.alpha2))
    return _band_report(invert_g(w, z * lam), lo, hi, 1e-9)


def zygmund_inverse_asymptotics(w: WeightSpec,
                                tau_grid: Sequence[float]) -> list[tuple[float, float]]:
    """Correction factor A(tau) of the inverse of the log-corrected power w.

    Writing s = g^(-1)(tau) = alpha**(beta/alpha) tau**(1/alpha)
    (log tau)**(-beta/alpha) A(tau), returns [(tau, A(tau))]; A -> 1 as
    tau grows.  A power weight is the case beta = 0, where A = 1 exactly;
    other kinds are refused.
    """
    if w.kind not in (KIND_POWER, KIND_ZYGMUND):
        raise InvalidParameterError(
            f"inverse asymptotics need a power or zygmund weight, got {w.kind}")
    alpha, beta = w.params["alpha"], w.params.get("beta", 0.0)
    taus = np.asarray(tau_grid, dtype=float)
    if np.any(taus <= math.e):
        raise InvalidParameterError("requires tau > e so that log(tau) > 1")
    a_val = (invert_g(w, taus) * alpha ** (-beta / alpha) * taus ** (-1.0 / alpha)
             * np.log(taus) ** (beta / alpha))
    return list(zip(taus.tolist(), a_val.tolist()))
