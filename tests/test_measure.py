"""Radial densities: quadrature identities, additivity, the dual decay."""

import math

import numpy as np
import pytest

from expdiff import inequalities as I
from expdiff import measure as M
from expdiff import weights as W
from expdiff.errors import InvalidParameterError, PreconditionError


W_HALF = W.make_power_weight(0.5)


@pytest.fixture(scope="module")
def growing_n3():
    return M.growing_density(W_HALF, 3)


def test_sphere_area():
    assert M.sphere_area(1) == pytest.approx(2.0)
    assert M.sphere_area(2) == pytest.approx(2 * math.pi)
    assert M.sphere_area(3) == pytest.approx(4 * math.pi)


def test_unweighted_ball():
    val, _ = M.integrate_with_error(M.growing_density(W.make_unweighted(), 3), 0.0, 1.0)
    assert val == pytest.approx(1.0 / 3.0, rel=1e-12)
    val, _ = M.integrate_with_error(M.growing_density(W.make_unweighted(), 5), 0.0, 1.0)
    assert val == pytest.approx(1.0 / 5.0, rel=1e-12)


def test_linear_weight_identity():
    # int_0^1 r e^r dr = 1 exactly (integration by parts)
    density = M.growing_density(W.make_power_weight(1.0), 2)
    assert M.integrate_with_error(density, 0.0, 1.0)[0] == pytest.approx(1.0, rel=1e-12)


def test_additivity(growing_n3):
    a, b, c = 0.2, 1.7, 6.0
    whole = M.integrate_with_error(growing_n3, a, c)[0]
    split = (M.integrate_with_error(growing_n3, a, b)[0]
             + M.integrate_with_error(growing_n3, b, c)[0])
    assert whole == pytest.approx(split, rel=1e-12)


def test_monotone_in_interval(growing_n3):
    inner = M.integrate_with_error(growing_n3, 0.5, 2.0)[0]
    outer = M.integrate_with_error(growing_n3, 0.25, 3.0)[0]
    assert outer >= inner


def test_infinite_limit_needs_tail(growing_n3):
    # integrate_with_error takes finite intervals; the Hardy scan owns its tails
    for a in (0.0, 1.0):
        with pytest.raises(InvalidParameterError):
            M.integrate_with_error(growing_n3, a, math.inf)


@pytest.mark.parametrize("p", [1.0, 0.5])
def test_dual_density_needs_p_above_one(p):
    with pytest.raises(InvalidParameterError, match="p > 1"):
        M.dual_density(W_HALF, 3, p)


@pytest.mark.parametrize("w", [W.make_power_weight(0.5),
                               W.make_zygmund_weight(0.5, 1.0, 2.0)],
                         ids=["power", "zygmund"])
@pytest.mark.parametrize("n, p", [(3, 2.0), (3, 2.5), (5, 2.0), (5, 2.5), (5, 3.0)])
def test_tail_cutoff_collapse(w, n, p):
    # the rule that cuts the Hardy scan's tail: where g has grown by
    # (p-1) ln 1e16 past g(a), the dual density is at most 1e-16 of its
    # value at a, as its factor r**(-(N-1)/(p-1)) only shrinks
    density = M.dual_density(w, n, p)
    for a in (0.5, 5.0, 50.0):
        cutoff = W.invert_g(w, float(w.g(a)) + (p - 1.0) * math.log(1e16))
        assert cutoff > a
        assert density(cutoff) <= 1e-16 * density(a)


def test_tail_rejects_unweighted():
    # the unweighted dual density is not summable with this truncation
    # rule, so the Hardy scan refuses the g = 0 mode
    with pytest.raises(PreconditionError):
        I.hardy_criterion_sup(W.make_unweighted(), W.EquationParams(3, 2.0, 2.0), 3.0)


class TestMass:
    def test_unit_ball_volume(self):
        faces = np.linspace(0.0, 1.0, 51)
        assert M.cell_weighted_volumes(W.make_unweighted(), 3, faces).sum() == pytest.approx(
            4 * math.pi / 3, rel=1e-10)

    def test_linear_weight_disk(self):
        # g = r, N = 2: the cells of [0,1] sum to 2 pi int r e^r = 2 pi
        faces = np.linspace(0.0, 1.0, 51)
        assert M.cell_weighted_volumes(W.make_power_weight(1.0), 2, faces).sum() == pytest.approx(
            2 * math.pi, rel=1e-10)

    def test_cell_volume_accuracy(self, growing_n3):
        # each volume equals a direct adaptive quadrature to 1e-10
        faces = np.linspace(0.0, 2.0, 17)
        vols = M.cell_weighted_volumes(W_HALF, 3, faces)
        omega = M.sphere_area(3)
        for i in (0, 1, 8, 15):
            direct = omega * M.integrate_with_error(growing_n3,
                                                    float(faces[i]), float(faces[i + 1]),
                                                    rel_tol=1e-12)[0]
            assert vols[i] == pytest.approx(direct, rel=1e-10)
