"""Acceptance gate: one test per published criterion, one PASS line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
Criteria 9 and 10 share one seeded batch of random two-step towers.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from functools import lru_cache

import pytest

from ramify import tower as tower_module
from ramify.base import GroundField, INFINITY, vp
from ramify.copolygon import VK, fstar, truncated_psi, valuation_function
from ramify.errors import IndexUnresolved, PrecisionExhausted, TheoremViolation
from ramify.extension import EisensteinPoly, attach_eisenstein, different_exponent
from ramify.invariants import (
    indices_closed_form,
    inseparability_profile,
    phi,
    phi_binomial,
)
from ramify.oracle import FULL, REDUCED, capital_phi
from ramify.plfun import Line, PLFunction
from ramify.series import Series, alternate_series, evaluate, expand_digits
from ramify.tower import (
    _check_formal_composite,
    compose_tower,
    default_horizon,
    ge_report,
    lambda_l,
    s_sets,
    tame_lift_tower,
)
from conftest import CASE_BUILDERS, build_double_quadratic_tower

CMAX = 6
RATIONAL_GRID = [Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(1),
                 Fraction(2), Fraction(7, 2), Fraction(5)]
TOWER_GRID = [Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(1),
              Fraction(3, 2), Fraction(2), Fraction(3), Fraction(5)]


@lru_cache(maxsize=1)
def all_cases():
    return [(name, CASE_BUILDERS[name]()) for name in sorted(CASE_BUILDERS)]


def sweep(case, flavor=FULL, u=1, series=None):
    F = series if series is not None else case.series
    out = {}
    for j in range(case.profile.nu + 1):
        for c in range(CMAX + 1):
            out[(j, c)] = capital_phi(F, case.floor, c, j, flavor=flavor, u=u)
    return out


def formula_sweep(case):
    out = {}
    for j in range(case.profile.nu + 1):
        fun = phi(case.profile, j)
        for c in range(CMAX + 1):
            out[(j, c)] = fun(c)
    return out


def test_acceptance_1_oracle_equivalence():
    for name, case in all_cases():
        assert sweep(case) == formula_sweep(case), name
    print("ACCEPTANCE 1 oracle-equivalence: PASS")


def test_acceptance_2_reduced_flavor():
    for name, case in all_cases():
        assert sweep(case, flavor=REDUCED) == sweep(case), name
    print("ACCEPTANCE 2 reduced-flavor-agreement: PASS")


def test_acceptance_3_choice_independence():
    for name, case in all_cases():
        base = sweep(case)
        unit = case.floor.one() + case.floor.uniformizer()
        alt = alternate_series(case.series, case.floor.poly)
        assert sweep(case, u=unit) == base, name
        assert sweep(case, series=alt) == base, name
        assert sweep(case, series=alt, u=unit) == base, name
    print("ACCEPTANCE 3 choice-independence: PASS")


def test_acceptance_4_frozen_indices():
    cases = dict(all_cases())
    assert cases["f2_quadratic"].profile.i == (1, 0)
    assert cases["q2_sqrt2"].profile.i == (2, 0)
    assert cases["q2_gauss"].profile.i[0] == 1
    print("ACCEPTANCE 4 frozen-indices: PASS")


def test_acceptance_5_binomial_reformulation():
    for name, case in all_cases():
        vlp = case.floor.p_valuation()
        for j in range(case.profile.nu + 1):
            fun = phi(case.profile, j)
            for x in RATIONAL_GRID:
                assert phi_binomial(case.series, j, x, vlp) == fun(x), name
    print("ACCEPTANCE 5 binomial-reformulation: PASS")


def test_acceptance_6_copolygon_identities():
    for name, case in all_cases():
        es = fstar(case.series, case.floor)
        for j in range(case.profile.nu + 1):
            assert truncated_psi(es, j) == phi(case.profile, j), name
        scaled = phi(case.profile, case.profile.nu).scale(
            Fraction(1, case.profile.n))
        assert valuation_function(es, VK) == scaled, name
    es = fstar(dict(all_cases())["f2_quadratic"].series,
               dict(all_cases())["f2_quadratic"].floor)
    assert [es.coeff(i).valuation() for i in (1, 2, 3)] == [1, 0, 1]
    print("ACCEPTANCE 6 copolygon-identities: PASS")


def test_acceptance_7_tame_scaling():
    cases = dict(all_cases())
    for name in ("f2_quadratic", "q2_sqrt2"):
        case = cases[name]
        for e in (3, 5):
            lift = tame_lift_tower(case.floor, e, horizon=8)
            got = [capital_phi(lift.series, lift.floor, 0, j)
                   for j in range(case.profile.nu + 1)]
            assert got == [e * v for v in case.profile.i], (name, e)
    print("ACCEPTANCE 7 tame-scaling: PASS")


def test_acceptance_8_tower_fixture():
    T = build_double_quadratic_tower(H=12)
    S = T.composed_series
    assert all((c.residue() != 0) == (h % 3 == 0)
               for h, c in enumerate(S.coeffs))
    assert T.composed.i == (3, 3, 0)
    r0 = ge_report(T, 0, 0)
    assert r0.lam == 3 and r0.equality
    r1 = ge_report(T, 1, 0)
    assert r1.lam == 2 and r1.phi == 3 and not r1.equality
    assert len(s_sets(T, 1, 0)[1]) == 2
    assert not r1.hypothesis
    expect = PLFunction([Line(Fraction(3), 1), Line(Fraction(0), 4)])
    assert lambda_l(T, 2) == expect
    assert phi(T.composed, 2) == expect
    oracle = [capital_phi(S, T.upper_floor, 0, j) for j in range(3)]
    assert oracle == [3, 3, 0]
    print("ACCEPTANCE 8 tower-fixture: PASS")


def _random_coefficient(rng, floor, exact_valuation=None):
    pi = floor.uniformizer()
    p = floor.p
    if exact_valuation is None and rng.random() < 0.3:
        return floor.zero()
    v = exact_valuation if exact_valuation else rng.randint(1, 3)
    out = floor.teichmuller(rng.randint(1, p - 1)) * pi ** v
    if rng.random() < 0.4:
        w = rng.randint(v + 1, v + 3)
        out = out + floor.teichmuller(rng.randint(1, p - 1)) * pi ** w
    return out


def _random_eisenstein(rng, floor, n):
    coeffs = [_random_coefficient(rng, floor, exact_valuation=1)]
    coeffs.extend(_random_coefficient(rng, floor) for _ in range(n - 1))
    # equal characteristic with p | n: keep the derivative nonzero by
    # forcing some coefficient at an index prime to p
    if floor.mode == "equal" and n % floor.p == 0:
        units = [i for i in range(1, n) if i % floor.p != 0]
        i0 = rng.choice(units)
        coeffs[i0] = _random_coefficient(rng, floor,
                                         exact_valuation=rng.randint(1, 3))
    return EisensteinPoly(coeffs)


def _degrees(rng, p):
    choices = [p, 2 * p]
    if p == 2:
        choices.append(p * p)
    return rng.choice(choices), rng.choice(choices)


def _build_fuzz_tower(rng):
    p = rng.choice([2, 3])
    mode = rng.choice(["equal", "mixed"])
    if mode == "equal":
        ground = GroundField.equal_char(p, 160)
    else:
        ground = GroundField.mixed_char(p, 160)
    n, m = _degrees(rng, p)
    E1 = _random_eisenstein(rng, ground, n)
    L = attach_eisenstein(ground, E1)
    E2 = _random_eisenstein(rng, L, m)
    try:
        return compose_tower(E1, E2)
    except (IndexUnresolved, PrecisionExhausted):
        M = attach_eisenstein(L, E2)
        lower = 2 * default_horizon(
            different_exponent(L), n, vp(n, p), L.p_valuation())
        upper = 2 * default_horizon(
            different_exponent(M), m, vp(m, p), M.p_valuation())
        comp = 2 * default_horizon(
            different_exponent(M) + m * different_exponent(L), n * m,
            vp(n * m, p), M.p_valuation())
        return compose_tower(E1, E2, H=comp, lower_horizon=lower,
                             upper_horizon=upper)


@lru_cache(maxsize=1)
def fuzz_towers():
    rng = random.Random(20260816)
    return [_build_fuzz_tower(rng) for _ in range(50)]


def _tower_sample_points(T, l):
    xs = set(TOWER_GRID)
    lam = lambda_l(T, l)
    ph = phi(T.composed, l)
    for fun in (lam, ph):
        xs.update(x for x, _ in fun.vertices())
    return sorted(xs)


def test_acceptance_9_lower_bound_never_violated():
    for idx, T in enumerate(fuzz_towers()):
        top = T.lower.nu + T.upper.nu
        for l in range(top + 1):
            for x in _tower_sample_points(T, l):
                # ge_report asserts phi >= lambda and, when the unique-tie
                # hypothesis holds, exact equality
                report = ge_report(T, l, x)
                assert report.phi >= report.lam, (idx, l, x)
                if report.hypothesis:
                    assert report.equality, (idx, l, x)
    print("ACCEPTANCE 9 lower-bound-fuzz: PASS")


def test_ge_report_sweep_builds_each_lambda_once(monkeypatch):
    # fresh towers: the cached batch above may have built its lambdas already
    rng = random.Random(20260816)
    towers = [_build_fuzz_tower(rng) for _ in range(8)]
    built = Counter()
    build = tower_module._build_lambda

    def spy(T, l):
        built[id(T), l] += 1
        return build(T, l)

    monkeypatch.setattr(tower_module, "_build_lambda", spy)
    sweep = [(T, l, x) for T in towers
             for l in range(T.lower.nu + T.upper.nu + 1)
             for x in _tower_sample_points(T, l)]
    reports = [ge_report(T, l, x) for T, l, x in sweep]
    assert built == Counter({(id(T), l): 1 for T, l, _ in sweep})
    # the same reports as from a tower whose cache starts empty each time
    for (T, l, x), report in zip(sweep, reports):
        assert ge_report(replace(T, _lambdas={}), l, x) == report


def test_acceptance_10_invariant_chain():
    # each profile with its different exponent d, summed as the horizon does
    profiles = [(case.profile, different_exponent(case.floor))
                for _, case in all_cases()]
    for T in fuzz_towers():
        d_lower = different_exponent(T.lower_floor)
        d_upper = different_exponent(T.upper_floor)
        profiles.extend([(T.lower, d_lower), (T.upper, d_upper),
                         (T.composed, d_upper + T.m * d_lower)])
    for P, d in profiles:
        assert P.i[P.nu] == 0
        if P.nu >= 1:
            assert P.i[P.nu - 1] >= 1
        for j in range(P.nu):
            assert P.i[j] >= P.i[j + 1]
        assert indices_closed_form(P.tilde, P.vLp) == P.i
        assert P.i[0] == d - P.n + 1
    print("ACCEPTANCE 10 invariant-chain: PASS")


def test_acceptance_11_composite_check_catches_a_changed_digit():
    # one wrong digit of the direct expansion, early, midway or at the
    # last compared place, must fail the formal-composite check
    for T in fuzz_towers()[:20]:
        F, G, H = T.lower_series, T.upper_series, T.composed_series
        depth = min(G.horizon, F.horizon * G.offset, H.horizon)
        for h in (1, depth // 2, depth - 1):
            coeffs = list(H.coeffs)
            coeffs[h] = H.ground.teichmuller(coeffs[h].residue() + 1)
            with pytest.raises(TheoremViolation):
                _check_formal_composite(T.upper_floor, F, G,
                                        Series(H.offset, coeffs))
    print("ACCEPTANCE 11 composite-mutation: PASS")
