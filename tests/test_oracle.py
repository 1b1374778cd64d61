from __future__ import annotations

from math import comb

import pytest

from ramify.errors import PrecisionExhausted
from ramify.invariants import phi
from ramify.oracle import (
    FULL,
    REDUCED,
    DualRing,
    capital_phi,
    divided_congruence,
    dpower,
    nilpotency,
    perturbed_eval,
)
from ramify.series import alternate_series, evaluate


def test_nilpotency_orders():
    assert nilpotency(2, 1, FULL) == 4
    assert nilpotency(2, 1, REDUCED) == 3
    assert nilpotency(3, 2, FULL) == 27
    assert nilpotency(3, 2, REDUCED) == 10


def test_frozen_probe_values_f2_quadratic(f2_quadratic):
    F, L = f2_quadratic.series, f2_quadratic.floor
    assert capital_phi(F, L, 0, 0) == 1
    assert capital_phi(F, L, 0, 1) == 0
    assert capital_phi(F, L, 1, 1) == 2
    assert capital_phi(F, L, 2, 1) == 3


def test_frozen_probe_values_q2_sqrt2(q2_sqrt2):
    F, L = q2_sqrt2.series, q2_sqrt2.floor
    assert capital_phi(F, L, 0, 0) == 2
    assert capital_phi(F, L, 0, 1) == 0
    assert capital_phi(F, L, 2, 1) == 4


def test_frozen_probe_values_q2_gauss(q2_gauss):
    F, L = q2_gauss.series, q2_gauss.floor
    assert capital_phi(F, L, 0, 0) == 1


def test_perturbed_eval_threshold(f2_quadratic):
    F, L = f2_quadratic.series, f2_quadratic.floor
    # phi^1(1) = 2: congruence holds through depth 2 and fails at 3
    assert perturbed_eval(F, L, 1, 1, d=2)
    assert not perturbed_eval(F, L, 1, 1, d=3)


def test_oracle_matches_formula_everywhere(extension_case):
    case = extension_case
    P = case.profile
    for j in range(P.nu + 1):
        f = phi(P, j)
        for c in range(5):
            assert capital_phi(case.series, case.floor, c, j) == f(c)


def test_reduced_flavor_agrees(f2_quadratic, q2_sqrt2):
    for case in (f2_quadratic, q2_sqrt2):
        P = case.profile
        for j in range(P.nu + 1):
            for c in range(4):
                full = capital_phi(case.series, case.floor, c, j, flavor=FULL)
                red = capital_phi(case.series, case.floor, c, j, flavor=REDUCED)
                assert full == red


def test_unit_choice_does_not_move_threshold(f2_quadratic):
    F, L = f2_quadratic.series, f2_quadratic.floor
    u = L.one() + L.uniformizer()
    for j in (0, 1):
        for c in range(4):
            assert (capital_phi(F, L, c, j, u=u)
                    == capital_phi(F, L, c, j, u=1))


def test_series_choice_does_not_move_threshold(f2_quadratic):
    F, L = f2_quadratic.series, f2_quadratic.floor
    alt = alternate_series(F, L.poly)
    for j in (0, 1):
        for c in range(4):
            assert (capital_phi(alt, L, c, j)
                    == capital_phi(F, L, c, j))


def test_divided_route_agrees(f2_quadratic):
    F, L = f2_quadratic.series, f2_quadratic.floor
    P = f2_quadratic.profile
    for j in (0, 1):
        f = phi(P, j)
        for c in range(4):
            d = int(f(c))
            assert divided_congruence(F, L, c, j, d)
            assert not divided_congruence(F, L, c, j, d + 1)


def test_divided_terms_match_probe_coefficients(f2_quadratic):
    # the epsilon coefficients of F(pi + pi^(c+1) eps) are the divided
    # series values times the probe power
    F, L = f2_quadratic.series, f2_quadratic.floor
    c = 1
    nil = nilpotency(2, 1, FULL)
    ring = DualRing(L, nil)
    pi = L.uniformizer()
    z = ring.element([pi, pi ** (c + 1)])
    w = evaluate(F, z)
    for m in range(1, nil):
        direct = evaluate(dpower(F, m), pi) * pi ** ((c + 1) * m)
        assert (w.coeffs[m] - direct).has_valuation_at_least(
            F.offset + F.horizon)


def test_dpower_coefficients(f2_quadratic):
    # (D^m F) carries binomial(h + n, m) against each digit
    F = f2_quadratic.series
    n = F.offset
    D2 = dpower(F, 2)
    for h in F.support():
        expect = comb(h + n, 2) % 2
        # X^(h+n) drops to X^(h+n-2); index relative to the new offset
        got = D2.coeff_scalar(h + n - 2 - D2.offset)
        if expect == 0:
            assert got.exact_zero or got.residue() == 0
        else:
            assert got.residue() == F.digits[h]


def test_probe_depth_is_capped(f2_quadratic):
    F, L = f2_quadratic.series, f2_quadratic.floor
    with pytest.raises(PrecisionExhausted):
        perturbed_eval(F, L, 0, 1, d=F.horizon + 1)


def test_dual_ring_powers(f2_quadratic):
    L = f2_quadratic.floor
    ring = DualRing(L, 4)
    x = ring.element([L.uniformizer(), L.one()])

    def same(a, b):
        return all(u == v for u, v in zip(a.coeffs, b.coeffs))

    assert same(x ** 0, ring.one())
    assert same(x ** 3, x * x * x)
    assert same(1 - x, ring.one() + (-x))
    with pytest.raises(ValueError):
        x ** -1
