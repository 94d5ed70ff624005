"""Inequality lab: constants, criterion suprema, empirical certification."""

import math

import mpmath as mp
import numpy as np
import pytest

from expdiff import inequalities as I
from expdiff import measure as M
from expdiff import weights as W
from expdiff.errors import InvalidParameterError, PreconditionError
from sobolev_profile import sobolev_profile_bounds


@pytest.fixture(scope="module")
def w_half():
    return W.make_power_weight(0.5)


@pytest.fixture(scope="module")
def eq_ref():
    return W.EquationParams(3, 2.0, 2.0)


class TestKqp:
    def test_symmetric_case(self):
        assert I.k_qp(2.0, 2.0) == pytest.approx(2.0, rel=1e-14)

    def test_asymmetric_case(self):
        assert I.k_qp(4.0, 2.0) == pytest.approx(3.0 ** 0.25 * 1.5 ** 0.5, rel=1e-14)

    def test_at_least_one(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            p = rng.uniform(1.05, 4.0)
            q = p + rng.uniform(0.0, 4.0)
            assert I.k_qp(q, p) >= 1.0

    def test_rejects_p_at_most_one(self):
        with pytest.raises(InvalidParameterError):
            I.k_qp(2.0, 1.0)


def test_c4_half_is_inverse_e():
    assert I.c4(0.5) == pytest.approx(math.exp(-1.0), rel=1e-14)


class TestCriterion:
    def test_poincare_below_closed_bound(self, w_half, eq_ref):
        beta, samples = I.hardy_criterion_sup(w_half, eq_ref, eq_ref.p)
        bound = I.poincare_constant(w_half, eq_ref).criterion_bound
        assert beta <= bound
        # mpmath profile values: A(32) = 0.4333572771, A(9999) = 0.6468492534
        samples = np.array(samples)
        k32 = np.argmin(np.abs(samples[:, 0] - 32.0))
        assert samples[k32, 1] == pytest.approx(0.4334, rel=5e-3)

    def test_bound_holds_across_combinations(self):
        combos = [
            (W.make_power_weight(0.3), W.EquationParams(3, 2.0, 2.0)),
            (W.make_power_weight(0.5), W.EquationParams(3, 2.0, 2.0)),
            (W.make_power_weight(0.5), W.EquationParams(4, 2.5, 1.0)),
            (W.make_power_weight(0.9), W.EquationParams(4, 3.0, 0.5)),
            (W.make_zygmund_weight(0.5, 1.0, 2.0), W.EquationParams(3, 2.0, 2.0)),
            (W.make_zygmund_weight(0.3, 0.4, 2.0), W.EquationParams(3, 2.0, 2.0)),
            (W.make_power_weight(0.7), W.EquationParams(5, 2.0, 2.0)),
            (W.make_power_weight(0.4), W.EquationParams(3, 2.0, 3.0)),
            (W.make_power_weight(0.6), W.EquationParams(4, 2.0, 2.0)),
            (W.make_power_weight(0.5), W.EquationParams(3, 2.5, 1.0)),
        ]
        for w, eq in combos:
            consts = I.poincare_constant(w, eq)
            assert consts.beta_numeric <= consts.criterion_bound * (1 + 1e-9), (
                w.label(), eq)

    def test_refuses_q_below_p(self, w_half, eq_ref):
        with pytest.raises(InvalidParameterError, match="q >= p"):
            I.hardy_criterion_sup(w_half, eq_ref, 1.5)

    @pytest.mark.parametrize("w, g, n, p, q", [
        (W.make_power_weight(0.5), mp.sqrt, 3, 2.0, 3.0),
        (W.make_power_weight(0.5), mp.sqrt, 4, 2.5, 4.0),
        (W.make_zygmund_weight(0.5, 1.0, 2.0), lambda s: mp.sqrt(s) * mp.log(2 + s),
         3, 2.0, 3.0),
    ], ids=["power-3-2-3", "power-4-2.5-4", "zygmund-3-2-3"])
    def test_profile_matches_mpmath(self, w, g, n, p, q):
        # A(r) = L(r)**(1/q) T(r)**((p-1)/p) with L = int_0^r s**(N-1) e^g and
        # T = int_r^inf s**(-(N-1)/(p-1)) e^(-g/(p-1)), at the scan's first,
        # middle and last radius; at the last one the whole tail is the
        # part beyond the scan.  Both integrands peak at r on the scale
        # h = 1/g'(r), so mpmath gets breakpoints graded geometrically
        # toward r from h/4.  Its tanh-sinh tails still carry about 1e-11:
        # on power(0.5) at r = 9e4 it reads T 1.1e-11 off the closed form
        # 2 Gamma(-2, 300), where the scan is within 4e-15 of it.
        _, samples = I.hardy_criterion_sup(w, W.EquationParams(n, p, 2.0), q)
        for k in (0, 199, 399):
            r, profile = samples[k]
            with mp.workdps(20):
                r = mp.mpf(r)
                h = 1 / mp.diff(g, r)
                below = [0] + [r - r / 2 ** j for j in range(1, 200) if r / 2 ** j > h / 4]
                above, d = [r], h / 4
                while g(r + d) - g(r) < 60 * (p - 1):
                    above.append(r + d)
                    d *= 2
                big_l = mp.quad(lambda s: s ** (n - 1) * mp.exp(g(s)), below + [r])
                big_t = mp.quad(lambda s: s ** (-(n - 1) / (p - 1)) * mp.exp(-g(s) / (p - 1)),
                                above + [r + d, mp.inf])
                exact = big_l ** (1 / mp.mpf(q)) * big_t ** ((p - 1) / mp.mpf(p))
            assert profile == pytest.approx(float(exact), rel=1e-10, abs=0), (k, float(r))


class TestScanZoom:
    """The zoom runs only around an interior argmax of the 400-radius scan."""

    @pytest.fixture
    def cumulative_calls(self, monkeypatch):
        calls = []
        cumulative = I.quadrature.cumulative

        def counted(*args, **kwargs):
            calls.append(args[1].size)
            return cumulative(*args, **kwargs)

        monkeypatch.setattr(I.quadrature, "cumulative", counted)
        return calls

    def test_scan_at_its_end_skips_zoom(self, w_half, eq_ref, cumulative_calls):
        beta, samples = I.hardy_criterion_sup(w_half, eq_ref, eq_ref.p)
        assert len(cumulative_calls) == 1
        profile = [a for _, a in samples]
        assert beta == max(profile) == profile[-1]

    def test_interior_argmax_zooms(self, w_half, eq_ref, cumulative_calls):
        beta, samples = I.hardy_criterion_sup(w_half, eq_ref, 3.0)
        assert len(cumulative_calls) == 1 + I.ZOOM_LEVELS
        assert all(beta >= a for _, a in samples)

    @pytest.mark.parametrize("alpha, scanned", [(0.3, 0.7373), (0.5, 0.6472)])
    def test_power_weight_limit_at_p2(self, alpha, scanned):
        # the q = p = 2 profile of power(alpha) rises toward 1/(alpha+1)
        w, eq = W.make_power_weight(alpha), W.EquationParams(3, 2.0, 2.0)
        beta, _ = I.hardy_criterion_sup(w, eq, eq.p)
        limit = 1.0 / (alpha + 1.0)
        assert 0.95 * limit < beta < limit
        assert beta == pytest.approx(scanned, abs=5e-5)


class TestPoincareConstant:
    def test_reference_values(self, w_half, eq_ref):
        consts = I.poincare_constant(w_half, eq_ref)
        # c1 = (p-1) a1 / (a2 (a1+1)) = 2/3; bound = (c1/a1)^(1/2) = (4/3)^(1/2)
        assert consts.criterion_bound == pytest.approx(math.sqrt(4.0 / 3.0), rel=1e-13)
        certified = I._poincare_closed_form(w_half, eq_ref)[2]
        assert certified == pytest.approx(16.0 / 3.0, rel=1e-13)

    def test_precondition(self):
        # alpha1 far below alpha2 violates the flux monotonicity condition
        w = W.make_custom_weight(lambda s: np.power(s, 0.05),
                                 lambda s: 0.05 * np.power(s, -0.95),
                                 0.05, 1.8)
        eq = W.EquationParams(3, 2.9, 0.2)
        with pytest.raises(PreconditionError):
            I.poincare_constant(w, eq)


class TestGamma:
    def test_frozen_oracle(self, w_half, eq_ref):
        # mpmath evaluation of the closed form at q=3, r0=1:
        # a = 6, ginv(6) = 36, K(3,2) = 1.7521490372873504,
        # Gamma = 29.993991640359033
        assert I.gamma_constant(w_half, eq_ref, 3.0) == pytest.approx(
            29.993991640359033, rel=1e-12)

    def test_diverges_as_q_to_p(self, w_half, eq_ref):
        qs = [2.5, 2.25, 2.1, 2.05]
        gammas = [I.gamma_constant(w_half, eq_ref, q) for q in qs]
        assert all(b > a for a, b in zip(gammas, gammas[1:]))
        assert gammas[-1] > 100.0  # ginv(a)/a = a grows without bound

    def test_q_range_enforced(self, w_half, eq_ref):
        for q in (2.0, 6.0, 7.0):
            with pytest.raises(InvalidParameterError):
                I.gamma_constant(w_half, eq_ref, q)

    def test_alpha2_below_one_required(self, eq_ref):
        z = W.make_zygmund_weight(0.5, 1.0, 2.0)  # alpha2 = 1.5
        with pytest.raises(PreconditionError):
            I.gamma_constant(z, eq_ref, 3.0)


class TestTalenti:
    def test_n3_p2_extremal(self):
        # sharp constant equals the ratio of the extremal u = (1+r^2)^(-1/2):
        # ||u||_6 / ||grad u||_2 = (pi^2/4)^(1/6) / (3 pi^2 / 4)^(1/2)
        expected = (math.pi ** 2 / 4.0) ** (1 / 6) / math.sqrt(3 * math.pi ** 2 / 4)
        assert I.talenti_constant(3, 2.0) == pytest.approx(expected, rel=1e-12)

    def test_extremal_ratio_not_exceeded(self):
        # evaluate the embedding ratio for a generic bump; must stay below
        from expdiff import measure as M
        grow = M.growing_density(W.make_unweighted(), 3)
        omega = M.sphere_area(3)
        tf = I.polynomial_bump(1.0, 2.0)
        p_star = 6.0
        vq, _ = M.integrate_with_error(lambda r: tf.value(r) ** p_star * grow(r), 0, 1.0)
        grad, _ = M.integrate_with_error(lambda r: tf.deriv(r) ** 2 * grow(r), 0, 1.0)
        lhs = (omega * vq) ** (1 / p_star)
        rhs = (omega * grad) ** 0.5
        assert lhs <= I.talenti_constant(3, 2.0) * rhs


class TestBoundedSobolev:
    def test_lambda_exponent_negative(self, w_half, eq_ref):
        # a = pq/(q-p) = 6 > N = 3, so the lam(R) exponent N/a - 1 < 0
        c_total, lam_factor = I.bounded_sobolev_constant(w_half, eq_ref, 3.0, 2.0)
        assert c_total > 0
        lam_r = float(W.lambda_many(w_half, 2.0)[0])
        assert lam_factor == pytest.approx(lam_r ** (3.0 / 6.0 - 1.0), rel=1e-12)

    def test_lambda_comparison_floor(self, w_half):
        # lam(s) >= (a1/(a1+1)) ((a2+1)/a2) lam(R) for s < R when alpha2 <= 1
        big_r = 4.0
        a1, a2 = w_half.alpha1, w_half.alpha2
        lam_r = float(W.lambda_many(w_half, big_r)[0])
        floor = (a1 / (a1 + 1.0)) * ((a2 + 1.0) / a2) * lam_r
        for s in np.linspace(0.05, big_r, 50):
            assert float(W.lambda_many(w_half, float(s))[0]) >= floor * (1 - 1e-12)

    def test_no_criterion_scan(self, w_half, eq_ref, monkeypatch):
        # the constant uses only the closed-form Poincare constant
        def no_scan(*args, **kwargs):
            raise AssertionError("bounded_sobolev_constant ran a criterion scan")

        monkeypatch.setattr(I, "hardy_criterion_sup", no_scan)
        c_total, lam_factor = I.bounded_sobolev_constant(w_half, eq_ref, 3.0, 2.0)
        assert c_total == pytest.approx(1.670584981166962, rel=1e-14)
        assert lam_factor == pytest.approx(2.0597671439071177, rel=1e-14)

    def test_alpha2_gate(self, eq_ref):
        z = W.make_zygmund_weight(0.5, 1.0, 2.0)
        with pytest.raises(PreconditionError):
            I.bounded_sobolev_constant(z, eq_ref, 3.0, 2.0)


class TestProfileBounds:
    def test_sobolev_profile_pointwise(self, w_half, eq_ref):
        q = 3.0
        _, samples = I.hardy_criterion_sup(w_half, eq_ref, q)
        samples = np.array(samples)
        r = samples[:, 0]
        a_vals = samples[:, 1]
        bounds = sobolev_profile_bounds(w_half, eq_ref, q, r, r0=1.0)
        slack = 1 + 1e-8
        # the uniform small-r bound holds everywhere
        assert np.all(a_vals <= bounds["uniform"] * slack)
        # below r0 it is dominated by the r0 constant
        small = r <= 1.0
        assert np.all(a_vals[small] <= bounds["constant_small"] * slack)
        # the large-r form holds on the whole scanned range
        assert np.all(a_vals <= bounds["large"] * slack)

    def test_f_profile_bounds(self, w_half, eq_ref):
        # the tail profile F = ginv(a lam) e^(-lam) / (a lam) under the change
        # of variable r = ginv(a lam), a = pq/(q-p), is below c4(a1) ginv(a)/a
        # for lam > 1 and below c4(a2) ginv(a)/a for lam <= 1
        q = 3.0
        lam_grid = np.geomspace(0.05, 20.0, 60)
        a = eq_ref.p * q / (q - eq_ref.p)
        f = W.invert_g(w_half, a * lam_grid) * np.exp(-lam_grid) / (a * lam_grid)
        base = W.invert_g(w_half, a) / a
        above = lam_grid > 1.0
        slack = 1 + 1e-9
        assert np.all(f[above] <= I.c4(w_half.alpha1) * base * slack)
        assert np.all(f[~above] <= I.c4(w_half.alpha2) * base * slack)


class TestVerify:
    def test_zero_function_passes(self, w_half, eq_ref):
        zero = I.TestFunction("zero", lambda r: np.zeros_like(r),
                              lambda r: np.zeros_like(r), 1.0)
        rep = I.verify_inequality(I.POINCARE, w_half, eq_ref, family=[zero])
        assert rep.verdict
        assert rep.empirical_worst_ratio == 0.0

    def test_poincare_bumps(self, w_half, eq_ref):
        rep = I.verify_inequality(I.POINCARE, w_half, eq_ref, family=I.bump_family())
        assert rep.verdict
        assert len(rep.per_function) == 12
        assert rep.empirical_worst_ratio <= rep.certified_constant

    def test_scaling_leaves_ratio_unchanged(self, w_half, eq_ref):
        tf = I.polynomial_bump(2.0, 2.0)
        doubled = I.TestFunction("2x", lambda r: 2.0 * tf.value(r),
                                 lambda r: 2.0 * tf.deriv(r), tf.support_radius)
        r1 = I.verify_inequality(I.POINCARE, w_half, eq_ref, family=[tf])
        r2 = I.verify_inequality(I.POINCARE, w_half, eq_ref, family=[doubled])
        assert r1.empirical_worst_ratio == pytest.approx(
            r2.empirical_worst_ratio, rel=1e-12)

    def test_radial_sobolev(self, w_half, eq_ref):
        rep = I.verify_inequality(I.RADIAL_SOBOLEV, w_half, eq_ref, q=3.0,
                                  family=I.bump_family())
        assert rep.verdict
        assert rep.empirical_worst_ratio <= rep.certified_constant

    def test_poincare_verdict_checks_criterion(self, w_half, eq_ref, monkeypatch):
        # a closed-form bound below the scanned B = 0.6472 is wrong, even
        # though the certified constant still covers every family ratio
        closed_form = I._poincare_closed_form

        def too_small(w, eq):
            _, kk, certified = closed_form(w, eq)
            return 0.6, kk, certified

        monkeypatch.setattr(I, "_poincare_closed_form", too_small)
        rep = I.verify_inequality(I.POINCARE, w_half, eq_ref, family=I.bump_family())
        assert rep.empirical_worst_ratio <= rep.certified_constant
        assert rep.beta_sup > rep.closed_form_bound
        assert not rep.verdict

    def test_radial_sobolev_verdict_checks_criterion(self, w_half, eq_ref, monkeypatch):
        # Gamma = 1 covers the family's worst ratio 0.599 but not K B = 1.180
        monkeypatch.setattr(I, "gamma_constant", lambda w, eq, q: 1.0)
        rep = I.verify_inequality(I.RADIAL_SOBOLEV, w_half, eq_ref, q=3.0,
                                  family=I.bump_family())
        assert rep.empirical_worst_ratio == pytest.approx(0.599, abs=1e-3)
        assert rep.kqp * rep.beta_sup == pytest.approx(1.180, abs=1e-3)
        assert not rep.verdict

    def test_bounded_sobolev_random_bumps(self, w_half, eq_ref):
        rng = np.random.default_rng(17)
        for big_r in (1.0, 2.0, 4.0):
            family = I.random_family(rng, 20, fixed_radius=big_r)
            rep = I.verify_inequality(I.BOUNDED_SOBOLEV, w_half, eq_ref,
                                      q=3.0, big_r=big_r, family=family)
            assert rep.verdict, (big_r, rep.empirical_worst_ratio,
                                 rep.certified_constant)

    def test_bounded_rejects_oversized_support(self, w_half, eq_ref):
        fam = [I.polynomial_bump(4.0, 2.0)]
        with pytest.raises(InvalidParameterError):
            I.verify_inequality(I.BOUNDED_SOBOLEV, w_half, eq_ref, q=3.0,
                                big_r=2.0, family=fam)


class TestFamilyPass:
    """verify_inequality integrates a whole family in one panel pass; each
    side must match its own per-function ``measure.integrate_with_error``
    reference."""

    Q_EXP, BALL = 3.0, 2.0

    @pytest.fixture(scope="class")
    def family(self):
        # nonzero beyond its support radius: its integrals still stop at R
        ramp = I.TestFunction("ramp", lambda r: 1.0 + r, lambda r: np.ones_like(r), 1.5)
        return [I.polynomial_bump(0.7, 1.5), I.polynomial_bump(2.0, 2.7),
                I.gaussian_tapered(1.3, 0.6), I.gaussian_tapered(2.0, 1.1), ramp]

    @pytest.mark.parametrize("kind", [I.POINCARE, I.RADIAL_SOBOLEV, I.BOUNDED_SOBOLEV])
    def test_matches_per_function_integrals(self, w_half, eq_ref, family, kind):
        q, p = self.Q_EXP, eq_ref.p
        rep = I.verify_inequality(kind, w_half, eq_ref, q=q, big_r=self.BALL,
                                  family=family)
        grow = M.growing_density(w_half, eq_ref.dim_n)
        omega = M.sphere_area(eq_ref.dim_n)
        lam_factor = I.bounded_sobolev_constant(w_half, eq_ref, q, self.BALL)[1]
        for tf, (label, lhs, rhs, ratio) in zip(family, rep.per_function):
            big_r = tf.support_radius
            grad, _ = M.integrate_with_error(
                lambda r: np.abs(tf.deriv(r)) ** p * grow(r), 0.0, big_r)
            if kind == I.POINCARE:
                want_lhs = M.integrate_with_error(
                    lambda r: W.lambda_many(w_half, r) ** p * tf.value(r) ** p * grow(r),
                    0.0, big_r)[0]
                want_rhs = grad
            else:
                vq, _ = M.integrate_with_error(
                    lambda r: tf.value(r) ** q * grow(r), 0.0, big_r)
                scale = omega if kind == I.BOUNDED_SOBOLEV else 1.0
                want_lhs = (scale * vq) ** (1.0 / q)
                want_rhs = (scale * grad) ** (1.0 / p) * (
                    lam_factor if kind == I.BOUNDED_SOBOLEV else 1.0)
            assert label == tf.label
            assert lhs == pytest.approx(want_lhs, rel=1e-11), label
            assert rhs == pytest.approx(want_rhs, rel=1e-11), label
            assert ratio == lhs / rhs

    def test_one_panel_pass(self, w_half, eq_ref, family, monkeypatch):
        # the bounded-ball constant is closed form, so the family is the
        # only integral of this call
        calls = []
        panels = I.quadrature.panels

        def counted(*args, **kwargs):
            calls.append(args[1].size)
            return panels(*args, **kwargs)

        monkeypatch.setattr(I.quadrature, "panels", counted)
        I.verify_inequality(I.BOUNDED_SOBOLEV, w_half, eq_ref, q=self.Q_EXP,
                            big_r=self.BALL, family=family)
        assert len(calls) == 1

    #: (lam power, exponent of |v|) of each kind's left side, as
    #: verify_inequality sets them; the two Sobolev kinds at different q
    SIDES = {I.POINCARE: (2.0, 2.0), I.RADIAL_SOBOLEV: (0.0, 3.0),
             I.BOUNDED_SOBOLEV: (0.0, 2.5)}

    @pytest.fixture(scope="class")
    def mixed_family(self):
        # 16 functions: integer-k and non-integer-k bumps and tapered
        # gaussians, on dyadic and non-dyadic radii
        radii = (0.25, 0.5, 0.7, 1.0, 1.3, 2.0, 2.9, 4.0)
        return ([I.polynomial_bump(r, k) for r, k in zip(radii, (1.0, 2.0, 3.0, 1.0, 2.0))]
                + [I.polynomial_bump(r, k) for r, k in zip(radii[3:], (1.5, 2.7, 3.3, 1.2, 3.9))]
                + [I.gaussian_tapered(r, s * r)
                   for r, s in zip(radii[::-1], (0.3, 0.5, 0.7, 0.9, 1.0, 0.4))])

    @pytest.mark.parametrize("kind", [I.POINCARE, I.RADIAL_SOBOLEV, I.BOUNDED_SOBOLEV])
    def test_block_matches_single_function_panels(self, w_half, eq_ref, mixed_family, kind):
        lam_power, s = self.SIDES[kind]
        p = eq_ref.p
        grow = M.growing_density(w_half, eq_ref.dim_n)
        left, right = I._family_sides(w_half, eq_ref, mixed_family, lam_power, s)
        assert len(mixed_family) == left.size == right.size == 16
        for tf, got_left, got_right in zip(mixed_family, left, right):
            bp = I.quadrature.geometric_breakpoints(tf.support_radius)

            def alone(r, rows=None, tf=tf):
                lam = W.lambda_many(w_half, r) ** lam_power
                both = np.stack([lam * np.abs(tf.value(r)) ** s,
                                 np.abs(tf.deriv(r)) ** p], axis=-1) * grow(r)[:, None]
                return both if rows is None else both[:, rows]

            want = I.quadrature.panels(alone, bp[:-1], bp[1:], rel_tol=1e-13)[0].sum(axis=0)
            assert got_left == pytest.approx(want[0], rel=1e-12, abs=0.0), tf.label
            assert got_right == pytest.approx(want[1], rel=1e-12, abs=0.0), tf.label

    #: family values computed at refinement calls per kind, against
    #: 32,256, 36,288 and 44,352 when every call fills all 32 rows
    REFINED_VALUES = {I.POINCARE: 2_200, I.RADIAL_SOBOLEV: 3_200, I.BOUNDED_SOBOLEV: 9_000}

    @pytest.mark.parametrize("kind", [I.POINCARE, I.RADIAL_SOBOLEV, I.BOUNDED_SOBOLEV])
    def test_refinement_fills_only_missed_rows(self, w_half, eq_ref, mixed_family, kind,
                                               monkeypatch):
        # a split sub-panel is evaluated for the rows that missed their
        # share there; the first pass fills the whole block
        lam_power, s = self.SIDES[kind]
        calls = []
        panels = I.quadrature.panels

        def capture(f, *args):
            def logged(r, rows=None):
                out = f(r, rows=rows)
                calls.append((rows, out.shape))
                return out
            return panels(logged, *args)

        monkeypatch.setattr(I.quadrature, "panels", capture)
        I._family_sides(w_half, eq_ref, mixed_family, lam_power, s)
        (first, shape), refined = calls[0], calls[1:]
        assert first is None and shape[1] == 2 * len(mixed_family)
        assert refined
        for rows, shape in refined:
            assert shape[1] == rows.size < 2 * len(mixed_family)
            assert np.all(np.diff(rows) > 0)
        assert sum(n * k for _, (n, k) in refined) <= self.REFINED_VALUES[kind]

    def test_integrand_is_component_major(self, w_half, eq_ref, mixed_family, monkeypatch):
        # the integrand returns the transpose of a (2m, n) C-ordered block,
        # which quadrature._node_values reshapes without a copy
        seen = []
        panels = I.quadrature.panels

        def capture(f, *args):
            seen.append(f)
            return panels(f, *args)

        monkeypatch.setattr(I.quadrature, "panels", capture)
        I._family_sides(w_half, eq_ref, mixed_family, 2.0, 2.0)
        r = np.linspace(0.0, 4.0, 21 * 5)
        vals = seen[0](r)
        assert vals.shape == (r.size, 2 * len(mixed_family))
        assert vals.T.flags.c_contiguous
        returned = []

        def kept(r):
            returned.append(seen[0](r))
            return returned[-1]

        _, nodes = I.quadrature._node_values(kept, np.arange(3.0), np.arange(1.0, 4.0))
        assert nodes.shape == (2 * len(mixed_family), 3, 21)
        assert np.shares_memory(nodes, returned[0])

    def test_empty_family_passes(self, w_half, eq_ref):
        rep = I.verify_inequality(I.BOUNDED_SOBOLEV, w_half, eq_ref, q=self.Q_EXP,
                                  big_r=self.BALL, family=[])
        assert rep.verdict
        assert rep.empirical_worst_ratio == 0.0
        assert rep.per_function == []

    @pytest.mark.parametrize("big_r", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_bad_support_radius(self, w_half, eq_ref, big_r):
        bad = I.TestFunction("bad", np.zeros_like, np.zeros_like, big_r)
        with pytest.raises(InvalidParameterError, match="bad"):
            I.verify_inequality(I.RADIAL_SOBOLEV, w_half, eq_ref, q=self.Q_EXP,
                                family=[I.polynomial_bump(1.0, 2.0), bad])


@pytest.mark.parametrize("make, args", [
    (I.polynomial_bump, (1e-200, 1.0)),
    (I.polynomial_bump, (1e300, 1.0)),
    (I.gaussian_tapered, (1.0, 1e-200)),
    (I.gaussian_tapered, (1.0, 1e200)),
], ids=["bump-tiny", "bump-huge", "gauss-tiny", "gauss-huge"])
def test_test_function_refuses_square_off_the_normal_floats(make, args):
    # the derivatives divide by R**2 or sigma**2: 0 after an underflow, inf
    # after an overflow
    with pytest.raises(InvalidParameterError, match=r"finite (R|sigma)\*\*2 of at least"):
        make(*args)
