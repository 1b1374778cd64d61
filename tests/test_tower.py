from __future__ import annotations

from fractions import Fraction

import pytest

from ramify.base import GroundField, vp
from ramify.cli import composed_horizon
from ramify.errors import (
    BadTameDegree,
    NotEisenstein,
    NotSeparable,
    PrecisionRefusal,
)
from ramify.extension import EisensteinPoly, attach_eisenstein, different_exponent
from ramify.invariants import inseparability_profile, phi
from ramify.oracle import capital_phi
from ramify.plfun import Line, PLFunction
from ramify.series import evaluate, expand_digits
from ramify.tower import (
    compose_tower,
    default_horizon,
    expand_profile,
    expansion_horizon,
    ge_report,
    lambda_l,
    tame_lift_tower,
)
from conftest import build_double_quadratic_tower


def test_step_profiles(double_quadratic_tower):
    assert double_quadratic_tower.lower.i == (1, 0)
    assert double_quadratic_tower.upper.i == (1, 0)
    assert double_quadratic_tower.n == 2 and double_quadratic_tower.m == 2


def test_composed_profile(double_quadratic_tower):
    assert double_quadratic_tower.composed.i == (3, 3, 0)
    assert double_quadratic_tower.composed.tilde == (3, 3, 0)


def test_composed_digit_pattern(double_quadratic_tower):
    S = double_quadratic_tower.composed_series
    for h, c in enumerate(S.coeffs):
        assert (c.residue() != 0) == (h % 3 == 0)


def test_lambda_frozen(double_quadratic_tower):
    assert lambda_l(double_quadratic_tower, 0) == PLFunction([Line(Fraction(3), 1)])
    assert lambda_l(double_quadratic_tower, 1)(0) == 2
    assert lambda_l(double_quadratic_tower, 2) == PLFunction(
        [Line(Fraction(3), 1), Line(Fraction(0), 4)])


def test_top_level_bound_is_exact(double_quadratic_tower):
    # at the top level the bound is the composed break function itself
    assert phi(double_quadratic_tower.composed, 2) == lambda_l(double_quadratic_tower, 2)


def test_classical_composition(double_quadratic_tower):
    composed = phi(double_quadratic_tower.lower, 1).scale(2).compose(phi(double_quadratic_tower.upper, 1))
    assert composed == phi(double_quadratic_tower.composed, 2)


def test_tie_sets(double_quadratic_tower):
    def s_sets(l):
        return ge_report(double_quadratic_tower, l, 0).s_sets

    assert s_sets(0) == {0: [(0, 0)]}
    assert s_sets(1) == {0: [], 1: [(0, 1), (1, 0)]}
    assert s_sets(2) == {0: [], 1: [], 2: [(1, 1)]}


def test_reports(double_quadratic_tower):
    r0 = ge_report(double_quadratic_tower, 0, 0)
    assert r0.equality and r0.hypothesis and r0.in_T_l
    r1 = ge_report(double_quadratic_tower, 1, 0)
    assert r1.lam == 2 and r1.phi == 3
    assert not r1.hypothesis and not r1.equality and not r1.in_T_l
    r2 = ge_report(double_quadratic_tower, 2, 0)
    assert r2.equality and r2.in_T_l


def test_report_dict_schema(double_quadratic_tower):
    d = ge_report(double_quadratic_tower, 1, 0).as_dict()
    assert d == {
        "l": 1,
        "x": [0, 1],
        "lambda": [2, 1],
        "phi": [3, 1],
        "S": {"0": [], "1": [[0, 1], [1, 0]]},
        "hypothesis": False,
        "equality": False,
        "in_T_l": False,
    }


def test_corollary_reports(double_quadratic_tower):
    # at x = 0: lambda^l is the index bound, phi^l the composed index i_l,
    # and the tie sets hold the pairs that attain the bound; a composed
    # index below its bound would raise TheoremViolation
    T = double_quadratic_tower

    def at_zero(l):
        r = ge_report(T, l, 0)
        pairs = sorted(jk for S in r.s_sets.values() for jk in S)
        return r.lam, r.phi, r.equality, pairs

    assert at_zero(0) == (3, 3, True, [(0, 0)])
    assert at_zero(1) == (2, 3, False, [(0, 1), (1, 0)])
    assert at_zero(2) == (0, 0, True, [(1, 1)])
    assert [T.composed.i[l] for l in range(3)] == [3, 3, 0]


def test_oracle_confirms_composed_indices(double_quadratic_tower):
    M = double_quadratic_tower.upper_floor
    S = double_quadratic_tower.composed_series
    got = [capital_phi(S, M, 0, j) for j in range(3)]
    assert got == [3, 3, 0]


def test_bounds_hold_at_sample_points(double_quadratic_tower):
    for l in range(3):
        for x in (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(3)):
            r = ge_report(double_quadratic_tower, l, x)
            assert r.phi >= r.lam


def test_mixed_char_tower():
    K = GroundField.mixed_char(2, 96)
    E1 = EisensteinPoly([K.from_int(-2), K.zero()])
    L = attach_eisenstein(K, E1)
    pi = L.uniformizer()
    E2 = EisensteinPoly([pi, pi])
    T = compose_tower(E1, E2)
    assert T.lower.nu + T.upper.nu == 2
    for l in range(3):
        r = ge_report(T, l, 0)
        assert r.phi >= r.lam


def test_compose_rejects_mismatched_lower_poly():
    K = GroundField.equal_char(2, 32)
    t = K.uniformizer()
    E1 = EisensteinPoly([t, t])
    other = EisensteinPoly([t, K.zero()])
    L = attach_eisenstein(K, E1)
    pi = L.uniformizer()
    E2 = EisensteinPoly([pi, pi])
    with pytest.raises(NotEisenstein):
        compose_tower(other, E2)


def test_lambda_range_is_checked(double_quadratic_tower):
    with pytest.raises(ValueError):
        lambda_l(double_quadratic_tower, 3)


def _lift_indices(lift, count):
    return [capital_phi(lift.series, lift.floor, 0, j) for j in range(count)]


def _lift_profile_indices(lift, horizon):
    target = evaluate(lift.series, lift.floor.uniformizer())
    S = expand_digits(target, horizon)
    return inseparability_profile(S, lift.floor.p_valuation()).i


def test_tame_lift_equal_char(f2_quadratic):
    for e, expect in ((3, [3, 0]), (5, [5, 0])):
        lift = tame_lift_tower(f2_quadratic.floor, e, horizon=6)
        assert _lift_indices(lift, 2) == expect
        assert list(_lift_profile_indices(lift, 12)) == expect


def test_tame_lift_mixed_char(q2_sqrt2):
    lift = tame_lift_tower(q2_sqrt2.floor, 3, horizon=10)
    assert _lift_indices(lift, 2) == [6, 0]
    assert list(_lift_profile_indices(lift, 16)) == [6, 0]


def test_tame_lift_rejects_shared_factor(f2_quadratic, f3_cubic):
    with pytest.raises(BadTameDegree):
        tame_lift_tower(f2_quadratic.floor, 2)
    with pytest.raises(BadTameDegree):
        tame_lift_tower(f3_cubic.floor, 3)


def test_formal_composite_check_runs():
    # compose_tower always checks the composite; building the fixture runs it
    T = build_double_quadratic_tower(H=10)
    assert T.composed.i == (3, 3, 0)


def test_inseparable_step_is_rejected():
    # X**2 + t over F_2((t)) has zero derivative at the root
    K = GroundField.equal_char(2, 64)
    E1 = EisensteinPoly([K.uniformizer(), K.zero()])
    L = attach_eisenstein(K, E1)
    E2 = EisensteinPoly([L.uniformizer(), L.zero()])
    with pytest.raises(NotSeparable):
        compose_tower(E1, E2)
    # bad input outranks a precision shortfall
    K = GroundField.equal_char(2, 3)
    L = attach_eisenstein(K, EisensteinPoly([K.uniformizer(), K.zero()]))
    with pytest.raises(NotSeparable):
        expansion_horizon(L, K)


def _readme_tower(mode):
    # X^2 + pi X + pi over F_2((t)) or Q_2, then Y^2 + pi_L Y + pi_L
    K = GroundField.equal_char(2, 64) if mode == "equal" \
        else GroundField.mixed_char(2, 64)
    pi = K.uniformizer()
    E1 = EisensteinPoly([pi, pi])
    piL = attach_eisenstein(K, E1).uniformizer()
    return K, compose_tower(E1, EisensteinPoly([piL, piL]))


@pytest.mark.parametrize("mode", ["equal", "mixed"])
def test_every_horizon_is_an_expansion_horizon(mode):
    K, T = _readme_tower(mode)
    L, M = T.lower_floor, T.upper_floor
    assert T.lower_series.horizon == expansion_horizon(L, K)
    assert T.upper_series.horizon == expansion_horizon(M, L)
    assert T.composed_series.horizon == expansion_horizon(M, K)
    assert composed_horizon(M) == expansion_horizon(M, K)
    # the walk from M down to K is the composite's hand-built horizon
    n, m = L.degree, M.degree
    assert expansion_horizon(M, K) == default_horizon(
        different_exponent(M) + m * different_exponent(L), n * m,
        vp(n * m, 2), M.p_valuation())


def test_expansion_horizon_refuses_when_no_digit_fits():
    # X^2 + tX + t: the horizon is H = 2 at every precision.  At precision
    # 3 one digit past offset 2 is tracked, too few to certify i_0 = 1, and
    # the index check refuses, naming 4, from which both digits fit
    def floor(prec):
        K = GroundField.equal_char(2, prec)
        t = K.uniformizer()
        return K, attach_eisenstein(K, EisensteinPoly([t, t]))

    K, L = floor(3)
    assert expansion_horizon(L, K) == 2
    for refused in (lambda: expand_profile(L, K), lambda: tame_lift_tower(L, 3)):
        with pytest.raises(PrecisionRefusal,
                           match="they fit from job precision 4 on$"):
            refused()
    K, L = floor(4)
    series, profile = expand_profile(L, K)
    assert series.horizon == 2 and profile.i == (1, 0)
