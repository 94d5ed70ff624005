"""Decay and support envelopes: closed forms, scaling, asymptotic ratios."""

import math

import numpy as np
import pytest

from expdiff import envelopes as E
from expdiff import weights as W
from expdiff.errors import (
    EnvelopeUndefinedError,
    InvalidParameterError,
    PreconditionError,
)


def power_sup_closed_form(par, t):
    """sup_envelope for a pure power weight: exponent
    (p - alpha)/(alpha*(p+m-3)) on the logarithm."""
    alpha = par.weight.params["alpha"]
    kappa = par.eq.kappa
    expo = (par.eq.p - alpha) / (alpha * kappa)
    return math.log(par.log_arg(t)) ** expo * t ** (-1.0 / kappa) / par.mass0


def power_support_closed_form(par, t):
    """support_envelope for a pure power weight:
    log(e + t * M**(p+m-3)) to the power 1/alpha."""
    alpha = par.weight.params["alpha"]
    return math.log(math.e + par.log_arg(t)) ** (1.0 / alpha)


def zygmund_support_leading_form(par, t):
    """(log t / (log log t)**beta)**(1/alpha): the leading form of
    support_envelope for the log-corrected power weight at unit mass,
    without the inverse's alpha**(beta/alpha) factor."""
    alpha, beta = par.weight.params["alpha"], par.weight.params["beta"]
    lt = math.log(t)
    return (lt / math.log(lt) ** beta) ** (1.0 / alpha)


@pytest.fixture(scope="module")
def eq_ref():
    return W.EquationParams(3, 2.0, 2.0)


@pytest.fixture(scope="module")
def par_power(eq_ref):
    return E.EnvelopeParams(eq=eq_ref, weight=W.make_power_weight(0.5), mass0=1.0)


@pytest.fixture(scope="module")
def par_zyg(eq_ref):
    return E.EnvelopeParams(eq=eq_ref, weight=W.make_zygmund_weight(0.5, 1.0, 2.0),
                            mass0=1.0)


class TestSupEnvelope:
    def test_exact_value_at_e16(self, par_power):
        # ginv(16) = 256 for the square-root weight, p+m-3 = 1:
        # envelope = 256^2/16 * e^-16 = 4096 e^-16
        t = math.exp(16.0)
        assert E.sup_envelope(par_power, t) == pytest.approx(
            4096.0 * math.exp(-16.0), rel=1e-12)

    def test_matches_power_closed_form(self, par_power):
        for t in np.geomspace(20.0, 1e12, 25):
            assert E.sup_envelope(par_power, t) == pytest.approx(
                power_sup_closed_form(par_power, t), rel=1e-12)

    def test_strictly_decreasing_large_t(self, par_power):
        ts = np.geomspace(1e2, 1e14, 200)
        vals = [E.sup_envelope(par_power, float(t)) for t in ts]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_gate(self, par_power):
        with pytest.raises(EnvelopeUndefinedError):
            E.sup_envelope(par_power, 1.001)

    def test_mass_scaling(self, eq_ref):
        # the stated sup bound carries a trailing 1/mass factor, which makes
        # it exactly invariant under (mass0 = lam, t) -> (mass0 = 1,
        # lam^(p+m-3) t); equivalently, dropping that factor would make the
        # replacement multiply the envelope by 1/lam
        w = W.make_power_weight(0.5)
        lam = 3.7
        kappa = eq_ref.kappa
        par_l = E.EnvelopeParams(eq=eq_ref, weight=w, mass0=lam)
        par_1 = E.EnvelopeParams(eq=eq_ref, weight=w, mass0=1.0)
        for t in (1e3, 1e6):
            lhs = E.sup_envelope(par_l, t)
            rhs = E.sup_envelope(par_1, lam ** kappa * t)
            assert lhs == pytest.approx(rhs, rel=1e-12)
            bare_l = lhs * lam      # strip the 1/mass factor
            bare_1 = rhs * 1.0
            assert bare_1 == pytest.approx(bare_l / lam, rel=1e-12)


class TestSupportEnvelope:
    def test_at_zero(self, par_power):
        # log(e) = 1 and ginv(1) = 1 for powers
        assert E.support_envelope(par_power, 0.0) == pytest.approx(1.0, rel=1e-12)

    def test_matches_power_closed_form(self, par_power):
        for t in np.geomspace(1e-3, 1e12, 30):
            assert E.support_envelope(par_power, float(t)) == pytest.approx(
                power_support_closed_form(par_power, float(t)), rel=1e-12)

    def test_nondecreasing(self, par_power):
        ts = np.geomspace(1e-6, 1e12, 300)
        vals = [E.support_envelope(par_power, float(t)) for t in ts]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_mass_scaling_invariance(self, eq_ref):
        # (mass0 = lam, t) vs (mass0 = 1, lam^(p+m-3) t): same radius
        w = W.make_power_weight(0.5)
        lam = 2.5
        par_l = E.EnvelopeParams(eq=eq_ref, weight=w, mass0=lam)
        par_1 = E.EnvelopeParams(eq=eq_ref, weight=w, mass0=1.0)
        for t in (0.0, 12.0, 1e7):
            assert E.support_envelope(par_l, t) == pytest.approx(
                E.support_envelope(par_1, lam ** eq_ref.kappa * t), rel=1e-12)


class TestZygmund:
    def test_support_ratio_in_band(self, par_zyg):
        for t in (1e6, 1e9, 1e12):
            ratio = E.support_envelope(par_zyg, t) / zygmund_support_leading_form(par_zyg, t)
            assert 0.5 <= ratio <= 2.0

    def test_ratio_converges_to_limit(self, par_zyg):
        # limit of envelope/leading form is alpha^(beta/alpha) = 0.25 since
        # the inverse correction factor tends to 1
        limit = 0.25
        d6, d12 = (abs(E.support_envelope(par_zyg, t)
                       / zygmund_support_leading_form(par_zyg, t) - limit)
                   for t in (1e6, 1e12))
        assert d12 < d6


def test_envelope_params_validation(eq_ref):
    with pytest.raises(InvalidParameterError):
        E.EnvelopeParams(eq=eq_ref, weight=W.make_power_weight(0.5), mass0=0.0)
    with pytest.raises(PreconditionError):
        E.EnvelopeParams(eq=eq_ref, weight=W.make_unweighted(), mass0=1.0)


def test_sup_envelope_range_gate(eq_ref):
    par = E.EnvelopeParams(eq=eq_ref, weight=W.make_power_weight(0.5), mass0=1.0)
    E.require_sup_envelope_range(par)  # alpha1 = alpha2 = 0.5 is admissible
    bad = E.EnvelopeParams(eq=eq_ref, weight=W.make_zygmund_weight(0.5, 1.0, 2.0),
                           mass0=1.0)
    with pytest.raises(PreconditionError):
        E.require_sup_envelope_range(bad)


def test_array_times_match_scalar_calls(par_zyg):
    ts = np.geomspace(10.0, 1e12, 41)
    sup = E.sup_envelope(par_zyg, ts)
    support = E.support_envelope(par_zyg, ts)
    assert np.array_equal(sup, [E.sup_envelope(par_zyg, float(t)) for t in ts])
    assert np.array_equal(support, [E.support_envelope(par_zyg, float(t)) for t in ts])


def test_array_gate_names_first_early_time(par_zyg):
    ts = np.array([1e6, 1.001, 2.0, 1e8])
    assert par_zyg.large_time(ts).tolist() == [True, False, False, True]
    with pytest.raises(EnvelopeUndefinedError, match="t=1.001"):
        E.sup_envelope(par_zyg, ts)
