from __future__ import annotations

from fractions import Fraction

import pytest

from ramify.base import INFINITY, GroundField
from ramify.errors import IndexUnresolved
from ramify.extension import EisensteinPoly, attach_eisenstein, different_exponent
from ramify.invariants import indices_closed_form, inseparability_profile, phi
from ramify.plfun import Line, PLFunction
from ramify.series import expand_digits
from reference import binom_val, phi_binomial

GRID = [Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(1),
        Fraction(2), Fraction(7, 2), Fraction(5)]


def test_frozen_indices_f2_quadratic(f2_quadratic):
    P = f2_quadratic.profile
    assert P.n == 2 and P.nu == 1
    assert P.tilde == (1, 0)
    assert P.i == (1, 0)


def test_frozen_indices_f3_cubic(f3_cubic):
    P = f3_cubic.profile
    assert P.n == 3 and P.nu == 1
    assert P.tilde == (1, 0)
    assert P.i == (1, 0)


def test_frozen_indices_q2_sqrt2(q2_sqrt2):
    P = q2_sqrt2.profile
    assert P.tilde == (INFINITY, 0)
    assert P.i == (2, 0)


def test_frozen_indices_q2_gauss(q2_gauss):
    P = q2_gauss.profile
    assert P.i == (1, 0)
    assert P.tilde[0] == 1


def test_frozen_indices_q3_cbrt3(q3_cbrt3):
    P = q3_cbrt3.profile
    assert P.i == (3, 0)
    assert P.vLp == 3


def test_index_chain(extension_case):
    P = extension_case.profile
    assert P.i[P.nu] == 0
    if P.nu >= 1:
        assert P.i[P.nu - 1] >= 1
    for j in range(P.nu):
        assert P.i[j] >= P.i[j + 1]
    # i_0 = d - n + 1, d the different exponent: the horizon bound
    assert P.i[0] == different_exponent(extension_case.floor) - P.n + 1


def test_closed_form_matches_recursion(extension_case):
    P = extension_case.profile
    assert indices_closed_form(P.tilde, P.vLp) == P.i


def test_phi_f2_quadratic(f2_quadratic):
    P = f2_quadratic.profile
    assert phi(P, 0) == PLFunction([Line(Fraction(1), 1)])
    assert phi(P, 1) == PLFunction([Line(Fraction(1), 1), Line(Fraction(0), 2)])


def test_phi_is_envelope_of_lower_levels(extension_case):
    P = extension_case.profile
    for j in range(P.nu + 1):
        f = phi(P, j)
        for x in GRID:
            assert f(x) == min(
                P.i[j0] + extension_case.ground.p ** j0 * x
                for j0 in range(j + 1)
            )


def test_phi_binomial_route_agrees(extension_case):
    case = extension_case
    P = case.profile
    for j in range(P.nu + 1):
        f = phi(P, j)
        for x in GRID:
            got = phi_binomial(case.series, j, x, case.floor.p_valuation())
            assert got == f(x)


def test_binom_val_frozen():
    bv = binom_val(4, 2, 2)
    assert bv.value == 1
    assert bv.equality_certified
    bv = binom_val(7, 2, 2)
    assert bv.value == 0
    assert bv.lower_bound == -1
    assert not bv.equality_certified
    bv = binom_val(8, 4, 2)
    assert bv.value == 1 and bv.equality_certified
    bv = binom_val(9, 3, 3)
    assert bv.value == 1 and bv.equality_certified


def test_unresolved_index_raises():
    # horizon too small to certify the recursion step
    K = GroundField.mixed_char(2, 32)
    L = attach_eisenstein(K, EisensteinPoly([K.from_int(-2), K.zero()]))
    S = expand_digits(L.embed(K.uniformizer()), 1)
    with pytest.raises(IndexUnresolved):
        inseparability_profile(S, L.p_valuation())


def test_profile_vlp_matches_mode(extension_case):
    P = extension_case.profile
    if extension_case.ground.mode == "equal":
        assert P.vLp == INFINITY
    else:
        assert P.vLp == P.n
