"""Weight class: envelope, derived quantities, inversion, asymptotics.

Expected values tagged as oracle-derived were computed with mpmath
(40 digits) independently of the package quadrature; see the inline
expressions.
"""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from expdiff import weights as W
from expdiff.errors import (
    InvalidParameterError,
    NumericFailureError,
    OutOfRangeError,
    PreconditionError,
)

SAMPLES = np.geomspace(1e-3, 1e3, 200)


@pytest.fixture(scope="module")
def power_half():
    return W.make_power_weight(0.5)


@pytest.fixture(scope="module")
def zygmund():
    return W.make_zygmund_weight(0.5, 1.0, 2.0)


@pytest.fixture(scope="module")
def eq_ref():
    return W.EquationParams(3, 2.0, 2.0)


class TestConstructors:
    def test_power_values(self, power_half):
        assert power_half.g(4.0) == pytest.approx(2.0, abs=0)
        assert float(W.make_power_weight(1.0).gp(3.7)) == 1.0
        assert power_half.alpha1 == power_half.alpha2 == 0.5

    def test_power_envelope_saturates(self, power_half):
        # 0.5 * g(1)/1 <= g'(1) <= 0.5 * g(1)/1 with equality
        assert float(power_half.gp(1.0)) == pytest.approx(0.5, rel=1e-15)

    def test_power_rejects_nonpositive_alpha(self):
        with pytest.raises(InvalidParameterError):
            W.make_power_weight(0.0)
        with pytest.raises(InvalidParameterError):
            W.make_power_weight(-1.0)

    def test_zygmund_values(self, zygmund):
        assert float(zygmund.g(0.0)) == 0.0
        assert float(zygmund.g(2.0)) == pytest.approx(
            math.sqrt(2.0) * math.log(4.0), rel=1e-14)
        assert zygmund.alpha1 == 0.5
        assert zygmund.alpha2 == 1.5

    def test_zygmund_rejects_bad_c(self):
        with pytest.raises(InvalidParameterError):
            W.make_zygmund_weight(0.5, 1.0, 1.0)
        with pytest.raises(InvalidParameterError):
            W.make_zygmund_weight(0.5, -1.0, 2.0)

    def test_custom_must_vanish_at_zero(self):
        with pytest.raises(InvalidParameterError):
            W.make_custom_weight(lambda s: s + 1.0, lambda s: np.ones_like(s),
                                 1.0, 1.0)

    def test_custom_nan_at_zero_refused(self):
        # abs(nan) > 0 is False, so a g with g(0) = nan passed for g(0) = 0
        def g(s):
            with np.errstate(divide="ignore", invalid="ignore"):
                return s * np.log(s) + s

        with pytest.raises(InvalidParameterError, match="g\\(0\\) = 0"):
            W.make_custom_weight(g, lambda s: np.log(s) + 2.0, 1.0, 1.0)


class TestEquationParams:
    def test_degeneracy_rejected(self):
        with pytest.raises(InvalidParameterError):
            W.EquationParams(3, 2.0, 1.0)  # p + m - 3 = 0
        with pytest.raises(InvalidParameterError):
            W.EquationParams(3, 1.0, 3.0)  # p = 1

    def test_weighted_pairing_requires_p_below_n(self, power_half):
        eq = W.EquationParams(1, 2.0, 2.0)  # fine unweighted
        with pytest.raises(InvalidParameterError):
            eq.validate_with_weight(power_half)

    def test_alpha2_cap(self, eq_ref):
        # alpha2 must stay below min(N, p/(p-1)) = 2
        with pytest.raises(InvalidParameterError):
            eq_ref.validate_with_weight(W.make_power_weight(2.5))


class TestEnvelope:
    def test_power_passes_exactly(self, power_half):
        # equality case: violation is pure roundoff
        rep = W.validate_envelope(power_half, SAMPLES)
        assert rep.passed
        assert rep.worst_violation <= 1e-15

    def test_zygmund_passes(self, zygmund):
        # symbolic differentiation confirms alpha1 = alpha, alpha2 = alpha+beta
        rep = W.validate_envelope(zygmund, SAMPLES)
        assert rep.passed

    def test_exponential_fails(self):
        # g = e^s - 1: g'(s) s / g(s) = s e^s/(e^s - 1) -> infinity, so no
        # finite alpha2 works; at s = 10 the ratio is ~10
        w = W.make_custom_weight(lambda s: np.expm1(s), np.exp, 1.0, 2.0)
        rep = W.validate_envelope(w, np.geomspace(0.1, 10.0, 50))
        assert not rep.passed
        ratio = 10.0 * math.exp(10.0) / math.expm1(10.0)
        assert ratio > 2.0  # oracle: the declared alpha2 = 2 is exceeded

    def test_rejects_bad_grid(self, power_half):
        with pytest.raises(InvalidParameterError):
            W.validate_envelope(power_half, [0.0, 1.0])
        with pytest.raises(InvalidParameterError):
            W.validate_envelope(power_half, [2.0, 1.0])


class TestSmoothedExponent:
    def test_power_closed_form(self, power_half):
        # oracle: G(1) = int_0^1 z^0.5 dz = 2/3
        assert power_half.g_primitive(1.0) / 1.0 == pytest.approx(2.0 / 3.0, rel=1e-14)

    def test_vanishes_at_origin(self, zygmund):
        assert zygmund.g_primitive(1e-10) / 1e-10 < 1e-4

    def test_zygmund_oracle(self, zygmund):
        # mpmath 40-digit: int_0^1 sqrt(z) log(2+z) dz = 0.63351107768868682322
        assert zygmund.g_primitive(1.0) / 1.0 == pytest.approx(0.6335110776886868, rel=1e-12)

    @pytest.mark.parametrize("s", [0.01, 0.5, 3.0, 120.0])
    def test_sandwich_pointwise(self, zygmund, s):
        g_s = float(zygmund.g(s))
        prim = zygmund.g_primitive(s)
        assert g_s * s / (zygmund.alpha2 + 1.0) <= prim * (1 + 1e-12)
        assert prim <= g_s * s / (zygmund.alpha1 + 1.0) * (1 + 1e-12)

    def test_primitive_many_oracle(self, zygmund):
        # mpmath 40-digit quadrature of int_0^s sqrt(z) log(2+z) dz; the
        # points below 1e-12 sit under the first anchor of the table
        mp.mp.dps = 40
        ss = np.concatenate([[1e-15, 3e-14, 7e-13], np.geomspace(1e-12, 1e6, 19),
                             [2.5e-3, 0.77, 4.2e5]])
        got = zygmund.g_primitive_many(ss)
        for s, val in zip(ss, got):
            s_mp = mp.mpf(float(s))
            nodes = [0, s_mp] if s <= 1 else [0, 1, mp.sqrt(s_mp), s_mp]
            exact = mp.quad(lambda z: mp.sqrt(z) * mp.log(2 + z), nodes)
            assert val == pytest.approx(float(exact), rel=1e-12), s

    def test_sandwich_bulk(self, zygmund):
        rng = np.random.default_rng(42)
        ss = np.sort(np.exp(rng.uniform(math.log(1e-3), math.log(1e3), 1000)))
        rep = W.check_sandwich(zygmund, ss)
        assert rep.passed, rep

    def test_failed_table_is_cached(self):
        # g = e^s - 1 loses all digits near 0, so the anchor table cannot
        # be built; a second call raises the same error without evaluating g
        calls = []

        def g(s):
            calls.append(np.size(s))
            # the overflow of e^s is expected: panels refuses what it spoils
            with np.errstate(over="ignore"):
                return np.exp(s) - 1.0

        w = W.make_custom_weight(g, np.exp, 1.0, 1.9)
        with pytest.raises(NumericFailureError) as first:
            w.g_primitive_many(np.array([0.5, 2.0]))
        assert calls
        calls.clear()
        with pytest.raises(NumericFailureError) as second:
            w.g_primitive_many(np.array([0.5, 2.0]))
        assert calls == []
        assert str(second.value) == str(first.value)
        assert second.value.achieved == first.value.achieved


def _lambda_prime(w, s):
    """lam'(s) = G''(s) = (2 G(s) - 2 g(s) + s g'(s)) / s^2, G(s) = g_primitive(s) / s."""
    return (2.0 * w.g_primitive(s) / s - 2.0 * float(w.g(s)) + s * float(w.gp(s))) / s ** 2


class TestLambda:
    def test_power_closed_form(self, power_half):
        # lam(s) = alpha s^(alpha-1) / (alpha+1)
        assert float(W.lambda_many(power_half, 1.0)[0]) == pytest.approx(
            1.0 / 3.0, rel=1e-13)
        assert float(W.lambda_many(power_half, 4.0)[0]) == pytest.approx(
            0.5 * 4.0 ** -0.5 / 1.5, rel=1e-13)

    def test_zero_at_origin(self, power_half, zygmund):
        assert float(W.lambda_many(power_half, 0.0)[0]) == 0.0
        assert float(W.lambda_many(zygmund, 0.0)[0]) == 0.0

    def test_negative_radius_refused(self, zygmund):
        with pytest.raises(InvalidParameterError):
            W.lambda_many(zygmund, np.array([-1.0, 1.0]))
        with pytest.raises(InvalidParameterError):
            W.lambda_many(zygmund, -1.0)

    def test_bounds_bulk(self, zygmund):
        rng = np.random.default_rng(7)
        ss = np.sort(np.exp(rng.uniform(math.log(1e-3), math.log(1e3), 1000)))
        rep = W.check_lambda_bounds(zygmund, ss)
        assert rep.passed, rep

    def test_prime_matches_finite_difference(self, zygmund):
        s = 2.3
        h = 1e-6 * s
        fd = (float(W.lambda_many(zygmund, s + h)[0])
              - float(W.lambda_many(zygmund, s - h)[0])) / (2 * h)
        assert _lambda_prime(zygmund, s) == pytest.approx(fd, rel=1e-6)

    def test_prime_power_closed_form(self, power_half):
        # lam'(s) = alpha (alpha - 1) s^(alpha-2) / (alpha + 1)
        s = 3.0
        expected = 0.5 * (-0.5) * s ** -1.5 / 1.5
        assert _lambda_prime(power_half, s) == pytest.approx(expected, rel=1e-12)


class TestInversion:
    def test_power_closed(self, power_half):
        assert W.invert_g(power_half, 3.0) == pytest.approx(9.0, rel=1e-15)

    def test_power_scaling_law(self, power_half):
        # at alpha1 = alpha2 the scaling collapses to equality:
        # ginv(4 z) = 16 ginv(z)
        z = 0.37
        assert W.invert_g(power_half, 4 * z) == pytest.approx(
            16.0 * W.invert_g(power_half, z), rel=1e-12)

    def test_zygmund_roundtrip(self, zygmund):
        z = float(zygmund.g(5.0))
        assert W.invert_g(zygmund, z) == pytest.approx(5.0, abs=1e-10)

    def test_roundtrip_bulk(self, zygmund):
        rng = np.random.default_rng(11)
        zs = np.exp(rng.uniform(math.log(1e-2), math.log(1e4), 200))
        rep = W.check_inversion_roundtrip(zygmund, zs)
        assert rep.passed, rep

    def test_scaling_inequalities_random(self, zygmund):
        rng = np.random.default_rng(13)
        pairs = [(float(z), float(lam)) for z, lam in zip(
            np.exp(rng.uniform(math.log(1e-2), math.log(1e2), 200)),
            np.concatenate([
                np.exp(rng.uniform(0.0, math.log(100.0), 100)),
                np.exp(rng.uniform(math.log(0.01), 0.0, 100)),
            ]))]
        rep = W.check_inverse_scaling(zygmund, pairs)
        assert rep.passed, rep

    def test_out_of_range(self, zygmund, power_half):
        # g(1e21) is about 1.5e12 for zygmund(0.5, 1, 2) and 3.2e10 for
        # power(0.5), whose closed form is refused past the same cap
        for w in (zygmund, power_half):
            for z in (1e14, math.inf):
                with pytest.raises(OutOfRangeError):
                    W.invert_g(w, z)

    def test_array_out_of_range(self, zygmund, power_half):
        for w in (zygmund, power_half):
            with pytest.raises(OutOfRangeError, match="z=1e\\+14"):
                W.invert_g(w, np.array([0.5, 1e14, 3.0, 1e15]))
            with pytest.raises(OutOfRangeError, match="z=inf"):
                W.invert_g(w, np.array([0.5, math.inf]))

    @pytest.mark.parametrize("kind", ["zygmund", "custom"])
    def test_array_matches_scalar_calls(self, zygmund, kind):
        w = zygmund if kind == "zygmund" else W.make_custom_weight(
            zygmund.g, zygmund.gp, zygmund.alpha1, zygmund.alpha2)
        zs = np.geomspace(1e-6, 1e6, 301)
        out = W.invert_g(w, zs)
        assert out.shape == zs.shape
        assert np.array_equal(out, [W.invert_g(w, float(z)) for z in zs])
        assert isinstance(W.invert_g(w, 2.0), float)

    def test_power_array_closed_form(self, power_half):
        zs = np.geomspace(1e-6, 1e6, 301)
        assert np.allclose(W.invert_g(power_half, zs), zs ** 2.0, rtol=4e-16, atol=0.0)

    def test_requires_positive(self, zygmund):
        with pytest.raises(InvalidParameterError):
            W.invert_g(zygmund, 0.0)

    @pytest.mark.parametrize("z", [1e-2, 0.5, 2.75, 1e2, 6e2, 1e5, 1e9, 1e11])
    def test_newton_g_calls(self, zygmund, z):
        # the squaring bracket and the safeguarded Newton steps take 6 to
        # 12 passes of g per target here
        calls = []

        def g(s):
            calls.append(np.size(s))
            return zygmund.g(s)

        w = W.make_custom_weight(g, zygmund.gp, zygmund.alpha1, zygmund.alpha2)
        calls.clear()
        s = W.invert_g(w, z)
        assert len(calls) <= 20
        assert abs(float(zygmund.g(s)) - z) <= W.INVERT_RTOL * max(1.0, z)

    @pytest.mark.parametrize("factor", [0.0, 1e-3, 1e3, -1.0])
    def test_wrong_derivative_falls_back_to_bisection(self, zygmund, factor):
        # a declared g' that is zero, far off or of the wrong sign gives
        # Newton steps that leave the bracket or barely move: bisection
        # still reaches the root
        w = W.make_custom_weight(zygmund.g, lambda s: factor * zygmund.gp(s),
                                 zygmund.alpha1, zygmund.alpha2)
        zs = np.array([1e-2, 0.5, 2.75, 1e2, 1e5, 1e9])
        np.testing.assert_allclose(W.invert_g(w, zs), W.invert_g(zygmund, zs),
                                   rtol=1e-12, atol=0.0)

    def test_target_in_jump_refused(self):
        # g jumps by 1e-6 at s = 1: bisection closes on the jump, where no s
        # meets |g(s) - z| <= INVERT_RTOL * max(1, z)
        w = W.make_custom_weight(lambda s: s ** 0.5 + 1e-6 * (s > 1.0),
                                 lambda s: 0.5 * s ** -0.5, 0.5, 0.5)
        with pytest.raises(NumericFailureError, match="inversion stalled at s=1 "):
            W.invert_g(w, 1.0 + 5e-7)


class TestStructuralConditions:
    def test_reference_all_true(self, power_half, eq_ref):
        rep = W.check_structural_conditions(power_half, eq_ref)
        assert rep.flux_monotone_ok and rep.dual_monotone_ok and rep.sup_decay_range_ok
        assert rep.alpha2_below_one and rep.alpha2_below_cap
        # closed-form check: (3-2)*0.5/1.5 + 1*(0.5 - 0.5/1.5) = 0.5
        assert rep.values["flux_monotone_lhs"] == pytest.approx(0.5)

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.9])
    def test_equal_exponents_satisfy_monotonicity(self, alpha, eq_ref):
        rep = W.check_structural_conditions(W.make_power_weight(alpha), eq_ref)
        assert rep.flux_monotone_ok and rep.dual_monotone_ok

    def test_wide_gap_fails_decay_range(self, eq_ref):
        w = W.make_custom_weight(
            lambda s: np.power(s, 0.1), lambda s: 0.1 * np.power(s, -0.9),
            0.1, 0.9)
        rep = W.check_structural_conditions(w, eq_ref)
        assert not rep.sup_decay_range_ok  # 0.1 < 0.9/1.9 = 0.4737...


class TestMonotoneQuantities:
    def test_power_reference(self, power_half, eq_ref):
        rep = W.check_monotone_quantities(power_half, eq_ref, SAMPLES)
        assert rep.passed, rep

    def test_zygmund_runs_even_when_gate_fails(self, eq_ref):
        # alpha2 = 1.5 violates the dual monotonicity gate; contract says
        # the check still runs and reports
        w = W.make_zygmund_weight(0.5, 1.0, 2.0)
        cond = W.check_structural_conditions(w, eq_ref)
        assert not cond.dual_monotone_ok
        rep = W.check_monotone_quantities(w, eq_ref, SAMPLES)
        assert isinstance(rep.passed, bool)

    def test_unweighted_rejected(self, eq_ref):
        with pytest.raises(PreconditionError):
            W.check_monotone_quantities(W.make_unweighted(), eq_ref, SAMPLES)


class TestZygmundAsymptotics:
    def test_a_decreasing_towards_one(self, zygmund):
        table = W.zygmund_inverse_asymptotics(zygmund, [1e2, 1e4, 1e6, 1e8])
        gaps = [abs(a - 1.0) for _, a in table]
        assert all(g2 < g1 for g1, g2 in zip(gaps, gaps[1:]))

    def test_beta_zero_is_exact(self):
        table = W.zygmund_inverse_asymptotics(W.make_power_weight(1.0), [1e2, 1e4])
        for _, a in table:
            assert a == pytest.approx(1.0, rel=1e-12)

    def test_frozen_oracle_value(self, zygmund):
        # bisection oracle (mpmath findroot, 40 digits) for
        # sqrt(s) log(2+s) = 1e6 gives s = 2164267996.70227, whence
        # A(1e6) = 1.6523608899289855
        table = W.zygmund_inverse_asymptotics(zygmund, [1e6])
        assert table[0][1] == pytest.approx(1.6523608899289855, rel=1e-9)

    def test_requires_tau_above_e(self, zygmund):
        with pytest.raises(InvalidParameterError):
            W.zygmund_inverse_asymptotics(zygmund, [2.0])

    @pytest.mark.parametrize("w", [
        W.make_unweighted(),
        W.make_custom_weight(np.sqrt, lambda s: 0.5 / np.sqrt(s), 0.5, 0.5),
    ])
    def test_other_kinds_refused(self, w):
        with pytest.raises(InvalidParameterError, match=w.kind):
            W.zygmund_inverse_asymptotics(w, [1e2])


@settings(max_examples=60, deadline=None)
@given(s=st.floats(min_value=1e-3, max_value=1e3),
       alpha=st.floats(min_value=0.05, max_value=1.9))
def test_power_envelope_property(s, alpha):
    w = W.make_power_weight(alpha)
    ratio = float(w.gp(s)) * s / float(w.g(s))
    assert ratio == pytest.approx(alpha, rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(s=st.floats(min_value=1e-3, max_value=1e3))
def test_zygmund_envelope_property(s):
    w = W.make_zygmund_weight(0.5, 1.0, 2.0)
    ratio = float(w.gp(s)) * s / float(w.g(s))
    assert 0.5 - 1e-12 <= ratio <= 1.5 + 1e-12


@settings(max_examples=40, deadline=None)
@given(z=st.floats(min_value=1e-2, max_value=1e4))
def test_inversion_roundtrip_property(z):
    w = W.make_zygmund_weight(0.3, 0.4, 2.0)
    s = W.invert_g(w, z)
    assert abs(float(w.g(s)) - z) <= 1e-12 * max(1.0, z)
