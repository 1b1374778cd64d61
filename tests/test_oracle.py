from __future__ import annotations

from math import comb

import pytest

from ramify import oracle
from ramify.base import GroundField
from ramify.errors import PrecisionExhausted
from ramify.extension import attach_eisenstein
from ramify.invariants import phi
from ramify.oracle import FULL, REDUCED, capital_phi, nilpotency, phi_grid
from ramify.series import (DualRing, Series, compose_series, evaluate,
                           expand_digits)
from conftest import (
    assert_grid_is_direct,
    build_double_quadratic_tower,
    build_f2_quadratic,
    build_f3_cubic,
    build_q2_sqrt2,
    short_scalar,
)
from reference import alternate_series, divided_congruence, dpower


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
    assert capital_phi(F, L, 1, 1) == 2


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
        got = D2.coeffs[h + n - 2 - D2.offset]
        if expect == 0:
            assert got.exact_zero or got.residue() == 0
        else:
            assert got.residue() == F.coeffs[h].residue()


def test_probe_depth_is_capped(f2_quadratic):
    F, L = f2_quadratic.series, f2_quadratic.floor
    with pytest.raises(PrecisionExhausted):
        divided_congruence(F, L, 0, 1, F.horizon + 1)


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


def test_phi_grid_matches_direct_probe(extension_case):
    case = extension_case
    assert_grid_is_direct(case.series, case.floor, case.profile.nu)


@pytest.mark.parametrize("mode", ["equal", "mixed"])
def test_phi_grid_matches_direct_probe_on_composed_series(mode):
    T = build_double_quadratic_tower(mode=mode)
    M = T.upper_floor
    assert_grid_is_direct(T.composed_series, M, T.composed.nu)
    depth = min(T.upper_series.horizon, T.composed_series.horizon)
    formal = compose_series(T.lower_series, T.upper_series, depth)
    assert_grid_is_direct(formal, M, T.composed.nu)


def test_phi_grid_on_alternate_series(f2_quadratic):
    F, L = f2_quadratic.series, f2_quadratic.floor
    assert_grid_is_direct(alternate_series(F, L.poly), L, 1)


def test_phi_grid_falls_back_to_the_direct_probe(f2_quadratic, monkeypatch):
    # horizon 2: Phi_0(1) = 2 reaches it, so row (0, 1) must refuse
    L = f2_quadratic.floor
    F = expand_digits(L.embed(f2_quadratic.ground.uniformizer()), 2)
    with pytest.raises(PrecisionExhausted) as direct:
        capital_phi(F, L, 1, 0)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[2:4])
        return capital_phi(*args, **kwargs)

    monkeypatch.setattr(oracle, "capital_phi", counted)
    with pytest.raises(PrecisionExhausted) as grid:
        phi_grid(F, L, 6)
    assert str(grid.value) == str(direct.value)
    assert calls == [(1, 0)]


@pytest.mark.parametrize("digits", [2, 3, 4, 8])
@pytest.mark.parametrize("build", [build_f2_quadratic, build_f3_cubic,
                                   build_q2_sqrt2])
def test_phi_grid_on_short_coefficients(build, digits):
    # the probes at c = 0 and c > 0 lose different digits, so no row
    # of the c = 0 probe may stand in for the direct one
    case = build(prec=16, horizon=12)
    F = case.series
    short = Series(F.offset, [short_scalar(c, digits) for c in F.coeffs])
    assert_grid_is_direct(short, case.floor, case.profile.nu)


@pytest.mark.parametrize("digits", [2, 3, 4])
@pytest.mark.parametrize("mode", ["equal", "mixed"])
def test_phi_grid_on_a_short_eisenstein_polynomial(mode, digits):
    # the digits come from X^2 + tX + t at full precision; the probes
    # run on the same polynomial known to only a few digits
    K = GroundField(mode, 2, 16)
    t = K.uniformizer()
    F = expand_digits(attach_eisenstein(K, [t, t]).embed(t), 12)
    short = short_scalar(t, digits)
    L = attach_eisenstein(K, [short, short])
    assert_grid_is_direct(F, L, 1)
