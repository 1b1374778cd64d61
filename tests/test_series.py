from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramify.base import GroundField
from ramify.errors import BadTameDegree, NotOneUnit
from ramify.extension import EisensteinPoly, attach_eisenstein
from ramify.series import (
    Series,
    compose_series,
    eth_root_substitute,
    evaluate,
    expand_digits,
    normalize_leading_digit,
)
from ramify.tower import tame_lift_tower
from conftest import _outcome, build_double_quadratic_tower, short_scalar
from reference import alternate_series, ref_eth_root_substitute
from test_times_pi import ground_field, scalars


def test_expansion_round_trip(extension_case):
    case = extension_case
    target = case.floor.embed(case.ground.uniformizer())
    S = case.series
    n, H = S.offset, S.horizon
    diff = evaluate(S, case.floor.uniformizer()) - target
    assert diff.has_valuation_at_least(n + H)


def test_expansion_offset_and_leading_digit(extension_case):
    S = extension_case.series
    assert S.offset == extension_case.floor.degree
    assert S.coeffs[0].residue() != 0


def test_digits_are_residues(extension_case):
    # each coefficient is the Teichmuller lift of its residue, the digit
    S = extension_case.series
    assert all(c == S.ground.teichmuller(c.residue()) for c in S.coeffs)


def test_normalize_leading_digit_scales_by_teichmuller_unit(f3_cubic):
    S = f3_cubic.series
    N = normalize_leading_digit(S)
    assert N.coeffs[0].residue() == 1
    assert N.support() == S.support()
    # digitwise scaling by the inverse Teichmuller digit of a_0
    L = f3_cubic.floor
    pi = L.uniformizer()
    unit = L.teichmuller(pow(S.coeffs[0].residue(), -1, f3_cubic.ground.p))
    diff = evaluate(S, pi) * unit - evaluate(N, pi)
    assert diff.has_valuation_at_least(S.offset + min(S.horizon, N.horizon))


def test_alternate_series_same_value(f2_quadratic):
    S = f2_quadratic.series
    alt = alternate_series(S, f2_quadratic.floor.poly)
    pi = f2_quadratic.floor.uniformizer()
    diff = evaluate(S, pi) - evaluate(alt, pi)
    assert diff.has_valuation_at_least(S.offset + min(S.horizon, alt.horizon))
    assert any(S.coeffs[h] != alt.coeffs[h] for h in range(3))


def test_eth_root_identity(f2_quadratic):
    # F_e(Y)^e agrees with F(Y^e) at the root of Y^e - pi
    lift = tame_lift_tower(f2_quadratic.floor, 3, horizon=6)
    y = lift.floor.uniformizer()
    lhs = evaluate(lift.series, y) ** 3
    rhs = evaluate(f2_quadratic.series, lift.floor.embed(f2_quadratic.floor.uniformizer()))
    # y^3 = pi exactly, so the two sides agree to the lifted horizon
    assert (lhs - rhs).has_valuation_at_least(3 * 2 + lift.series.horizon)


def test_eth_root_rejects_shared_factor(f2_quadratic):
    S = normalize_leading_digit(f2_quadratic.series)
    with pytest.raises(BadTameDegree):
        eth_root_substitute(S, 2)


def test_eth_root_requires_one_unit_lead(f3_cubic):
    # leading digit 2 is not a cube-compatible 1-unit start
    S = f3_cubic.series
    assert S.coeffs[0].residue() == 2
    with pytest.raises(NotOneUnit):
        eth_root_substitute(S, 2)


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(st.data())
def test_eth_root_matches_the_reference_in_x(data):
    # data, precision and exact-zero flag of every coefficient, or the same
    # refusal; the lead is a 1-unit, cut short or not, or any scalar
    K = ground_field(data.draw(st.sampled_from(["equal", "mixed"])),
                     data.draw(st.sampled_from([2, 3, 5])),
                     data.draw(st.integers(3, 24)))
    n = data.draw(st.integers(1, 6))
    e = data.draw(st.sampled_from(
        [e for e in range(1, 12) if math.gcd(e, K.p * n) == 1]))
    if data.draw(st.integers(0, 3)):
        lead = K.one() + K.uniformizer() * data.draw(scalars(K))
        if data.draw(st.booleans()):
            lead = short_scalar(lead, data.draw(st.integers(1, lead.prec)))
    else:
        lead = data.draw(scalars(K, ("exact_zero", "zero", "digits", "short")))
    rest = data.draw(st.lists(scalars(K, ("exact_zero", "zero", "digits",
                                          "short")), max_size=6))
    S = Series(n, [lead] + rest)

    def coefficients(solve):
        return _outcome(lambda: [(c.data, c.prec, c.exact_zero)
                                 for c in solve(S, e).coeffs])

    want = coefficients(ref_eth_root_substitute)
    assert coefficients(eth_root_substitute) == want


@pytest.mark.parametrize("mode", ["equal", "mixed"])
def test_compose_series_matches_evaluation(mode):
    T = build_double_quadratic_tower(mode=mode)
    F, G, M = T.lower_series, T.upper_series, T.upper_floor
    depth = min(G.horizon, F.horizon * G.offset)
    H = compose_series(F, G, depth)
    assert H.offset == F.offset * G.offset
    pi = M.uniformizer()
    direct = evaluate(F, evaluate(G, pi))
    diff = evaluate(H, pi) - direct
    assert diff.has_valuation_at_least(H.offset + depth)


def test_compose_series_does_not_claim_exactness():
    # 1 + 1 vanishes to precision in F_2 but is not known to be zero
    K = GroundField.equal_char(2, 8)
    one = K.one()
    z = one + one
    assert z.is_zero_to_precision() and not z.exact_zero
    inner = Series(1, [one, z, one])
    H = compose_series(Series(1, [one]), inner, 3)
    assert H.coeffs[1].is_zero_to_precision()
    assert not H.coeffs[1].exact_zero


def test_expand_digits_respects_horizon():
    K = GroundField.equal_char(2, 64)
    t = K.uniformizer()
    L = attach_eisenstein(K, EisensteinPoly([t, t]))
    S = expand_digits(L.embed(t), 5)
    assert S.horizon == 5
    assert len(S.coeffs) == 5
    with pytest.raises(ValueError, match="at least 1"):
        expand_digits(L.embed(t), 0)
