from __future__ import annotations

from fractions import Fraction

from ramify.copolygon import VK, VL, fstar, truncated_psi, valuation_function
from ramify.invariants import phi
from ramify.plfun import Line, PLFunction

from reference import alternate_series


def test_twisted_coefficient_valuations_f2_quadratic(f2_quadratic):
    es = fstar(f2_quadratic.series, f2_quadratic.floor)
    vals = [es.coeff(i).valuation() for i in (1, 2, 3)]
    assert vals == [1, 0, 1]


def test_default_order(f2_quadratic):
    es = fstar(f2_quadratic.series, f2_quadratic.floor)
    # p^(nu+1) - 1 coefficients suffice for every truncation level
    assert es.order == 3


def test_truncated_envelope_equals_break_function(extension_case):
    case = extension_case
    es = fstar(case.series, case.floor)
    for j in range(case.profile.nu + 1):
        assert truncated_psi(es, j) == phi(case.profile, j)


def test_ground_normalization_rescales(extension_case):
    case = extension_case
    es = fstar(case.series, case.floor)
    got = valuation_function(es, VK)
    n = case.profile.n
    assert got == phi(case.profile, case.profile.nu).scale(Fraction(1, n))


def test_full_envelope_is_top_truncation(f2_quadratic):
    es = fstar(f2_quadratic.series, f2_quadratic.floor)
    assert valuation_function(es, VL) == truncated_psi(es, 1)


def test_envelope_objective_values_q2_sqrt2(q2_sqrt2):
    es = fstar(q2_sqrt2.series, q2_sqrt2.floor)
    assert truncated_psi(es, 1) == PLFunction(
        [Line(Fraction(2), 1), Line(Fraction(0), 2)])


def test_series_choice_invariance(f2_quadratic):
    F, L = f2_quadratic.series, f2_quadratic.floor
    alt = alternate_series(F, L.poly)
    a = fstar(F, L)
    b = fstar(alt, L)
    for j in (0, 1):
        assert truncated_psi(a, j) == truncated_psi(b, j)
