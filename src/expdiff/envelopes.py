"""Predicted large-time decay and support envelopes.

For admissible weights the sup norm of solutions obeys, for large t,

    sup_env(t) ~ [ ginv(L)**p / L ]**(1/(p+m-3)) * t**(-1/(p+m-3)) / M,
    L = log(t * M**(p+m-3)),   M = weighted mass of the data,

and compactly supported data stay supported in the ball of radius

    support_env(t) ~ ginv( log(e + t * M**(p+m-3)) ),

up to constants that are not explicit.  The envelopes are evaluated
with unit prefactor and used as shape predictions; ``solver.fit_rates``
fits the prefactor from trajectories.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EnvelopeUndefinedError, InvalidParameterError, PreconditionError
from .weights import EquationParams, WeightSpec, check_structural_conditions, invert_g

#: large-time validity gate: log(t * M**kappa) must reach this value
LOG_GATE = 2.0


@dataclass(frozen=True)
class EnvelopeParams:
    eq: EquationParams
    weight: WeightSpec
    mass0: float

    def __post_init__(self):
        if not self.mass0 > 0:
            raise InvalidParameterError("mass0 must be positive")
        if not self.weight.is_weighted:
            raise PreconditionError("envelopes are undefined for the unweighted mode")

    def log_arg(self, t):
        return t * self.mass0 ** self.eq.kappa

    def large_time(self, t) -> np.ndarray:
        """Mask of the times t > 0 with log(t * M**(p+m-3)) >= LOG_GATE,
        where the large-time forms apply."""
        t = np.asarray(t, dtype=float)
        with np.errstate(divide="ignore"):
            return (t > 0) & (np.log(self.log_arg(t)) >= LOG_GATE)


def sup_envelope(par: EnvelopeParams, t):
    """Decay envelope of the sup norm at a time or an array of times, all
    inside the large-time gate ``par.large_time``."""
    t = np.asarray(t, dtype=float)
    if not np.all(t > 0):
        raise InvalidParameterError("requires t > 0")
    early = t[~par.large_time(t)]
    if early.size:
        raise EnvelopeUndefinedError(
            f"sup envelope needs log(t * mass**(p+m-3)) >= {LOG_GATE}, got t={early[0]:g}"
        )
    big_l = np.log(par.log_arg(t))
    kappa = par.eq.kappa
    s = invert_g(par.weight, big_l)
    env = (s ** par.eq.p / big_l) ** (1.0 / kappa) * t ** (-1.0 / kappa) / par.mass0
    return float(env) if t.ndim == 0 else env


def support_envelope(par: EnvelopeParams, t):
    """Support-radius envelope at a time or an array of times t >= 0
    (defined for all t)."""
    t = np.asarray(t, dtype=float)
    if not np.all(t >= 0):
        raise InvalidParameterError("requires t >= 0")
    env = invert_g(par.weight, np.log(math.e + par.log_arg(t)))
    return float(env) if t.ndim == 0 else env


def require_sup_envelope_range(par: EnvelopeParams) -> None:
    """Raise unless 1 > alpha2 >= alpha1 >= alpha2/(alpha2+1)."""
    rep = check_structural_conditions(par.weight, par.eq)
    if not rep.sup_decay_range_ok:
        raise PreconditionError(
            "sup envelope requires 1 > alpha2 >= alpha1 >= alpha2/(alpha2+1), "
            f"got alpha1={par.weight.alpha1:g}, alpha2={par.weight.alpha2:g}"
        )
