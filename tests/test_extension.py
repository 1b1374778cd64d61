from __future__ import annotations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ramify.base import INFINITY, BaseScalar, GroundField
from ramify.errors import NotEisenstein, PrecisionExhausted
from ramify.extension import (EisensteinPoly, FloorElement, attach_eisenstein,
                              different_exponent)

from conftest import short_scalar
from test_times_pi import elements, floors, ground


def test_attach_rejects_unit_constant_term():
    K = GroundField.equal_char(2, 8)
    with pytest.raises(NotEisenstein):
        attach_eisenstein(K, EisensteinPoly([K.one(), K.uniformizer()]))


def test_attach_rejects_deep_constant_term():
    K = GroundField.equal_char(2, 8)
    t = K.uniformizer()
    with pytest.raises(NotEisenstein):
        attach_eisenstein(K, EisensteinPoly([t * t, t]))


def test_attach_rejects_unit_middle_coefficient():
    K = GroundField.equal_char(2, 8)
    t = K.uniformizer()
    with pytest.raises(NotEisenstein):
        attach_eisenstein(K, EisensteinPoly([t, K.one()]))


def test_attach_rejects_foreign_coefficients():
    K = GroundField.equal_char(2, 8)
    K2 = GroundField.equal_char(2, 8)
    with pytest.raises(NotEisenstein):
        attach_eisenstein(K, EisensteinPoly([K2.uniformizer(), K2.uniformizer()]))


def test_uniformizer_valuations(f2_quadratic):
    L = f2_quadratic.floor
    K = f2_quadratic.ground
    pi = L.uniformizer()
    t = K.uniformizer()
    assert pi.valuation() == 1
    assert L.embed(t).valuation() == 2
    assert (pi * pi + pi).valuation() == 1
    # pi^2 = t*pi + t here, so pi^2 + t cancels down to t*pi
    assert (pi * pi + L.embed(t)).valuation() == 3


def test_square_root_of_two_squares_to_two(q2_sqrt2):
    L = q2_sqrt2.floor
    K = q2_sqrt2.ground
    pi = L.uniformizer()
    assert pi * pi == L.embed(K.from_int(2))


def test_p_valuation_by_mode(f2_quadratic, q2_sqrt2):
    assert f2_quadratic.floor.p_valuation() == INFINITY
    assert q2_sqrt2.floor.p_valuation() == 2


def test_different_exponent_frozen(f2_quadratic, f3_cubic, q2_sqrt2, q2_gauss,
                                   q3_cbrt3):
    assert different_exponent(f2_quadratic.floor) == 2
    assert different_exponent(f3_cubic.floor) == 3
    assert different_exponent(q2_sqrt2.floor) == 3
    assert different_exponent(q2_gauss.floor) == 2
    assert different_exponent(q3_cbrt3.floor) == 5


def test_tame_different_is_degree_minus_one():
    K = GroundField.equal_char(2, 16)
    t = K.uniformizer()
    L = attach_eisenstein(K, EisensteinPoly([t, t, K.zero()]))
    assert different_exponent(L) == 2


def test_floor_unit_inverse(f2_quadratic):
    L = f2_quadratic.floor
    x = L.one() + L.uniformizer()
    assert x * x.unit_inverse() == L.one()


def test_floor_unit_inverse_keeps_the_precision_of_x():
    # 1 - x*w is zero to precision 3 at the Teichmuller start w = 1, so
    # w is known to 3 digits in every coordinate, not to the ground's 20
    K = GroundField.mixed_char(2, 20)
    L = attach_eisenstein(K, EisensteinPoly([K.from_int(2), K.from_int(2)]))
    x = FloorElement(L, [short_scalar(K.one(), 3), short_scalar(K.zero(), 3)])
    assert [g.prec for g in x.unit_inverse().coords] == [3, 3]


@settings(max_examples=80, deadline=None, database=None, derandomize=True)
@given(st.data())
def test_floor_unit_inverse_claims_no_precision_x_lacks(data):
    floor = data.draw(floors(steps=3))
    x = data.draw(elements(floor, ("exact_zero", "zero", "digits", "short")))
    x = x + floor.teichmuller(data.draw(st.integers(1, floor.p - 1)))
    assume(x.residue() != 0)
    try:
        y = x.unit_inverse()
    except PrecisionExhausted:
        return
    assert (x * y - 1).is_zero_to_precision()
    least = min(prec for _, prec, exact in ground(x) if not exact)
    assert all(prec <= least for _, prec, _ in ground(y))


def test_floor_udiv_round_trip(f2_quadratic):
    L = f2_quadratic.floor
    pi = L.uniformizer()
    x = L.one() + pi + L.embed(f2_quadratic.ground.uniformizer())
    shifted = x * pi ** 3
    back = shifted.udiv(3)
    assert (back - x).has_valuation_at_least(back.floor.ceiling - 16)


def test_embed_through_two_floors(double_quadratic_tower):
    M = double_quadratic_tower.upper_floor
    K = M.ground
    t = M.embed(K.uniformizer())
    assert t.valuation() == 4
    assert M.absolute_degree == 4


def test_power_arithmetic_consistency(q3_cbrt3):
    L = q3_cbrt3.floor
    pi = L.uniformizer()
    assert pi ** 3 == L.embed(q3_cbrt3.ground.from_int(3))
    assert (pi ** 5).valuation() == 5


def test_zero_valuation_semantics(f2_quadratic):
    L = f2_quadratic.floor
    pi = L.uniformizer()
    assert L.zero().exact_zero
    assert L.zero().valuation() == INFINITY
    # a subtraction cannot certify exact cancellation at finite precision
    diff = pi - pi
    assert not diff.exact_zero
    with pytest.raises(PrecisionExhausted):
        diff.valuation()


def test_valuation_reads_every_ground_coordinate():
    # X^2 + tX + t over F_2((t)), then Y^2 + pi_L Y + pi_L; x has L-part
    # x_0 = (0 known to precision 0, 1) and x_1 = 0.  Its term pi_L has
    # valuation exactly 2 on M, so x has no valuation >= 3, though the
    # unknown coordinate leaves the valuation itself open.  Reading x_0
    # as one L-element, which refuses its valuation, left both open.
    K = GroundField.equal_char(2, 8)
    t = K.uniformizer()
    L = attach_eisenstein(K, EisensteinPoly([t, t]))
    pi = L.uniformizer()
    M = attach_eisenstein(L, EisensteinPoly([pi, pi]))
    x0 = FloorElement(L, [BaseScalar(K, 0, 0), K.one()])
    x = FloorElement(M, [x0, L.zero()])
    assert M.weights == (0, 2, 1, 3)
    assert x.has_valuation_at_least(3) is False
    assert x.has_valuation_at_least(0) is True
    with pytest.raises(PrecisionExhausted) as exc:
        x.valuation()
    assert exc.value.bound == 0
