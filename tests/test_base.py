from __future__ import annotations

import pytest

from ramify.base import (
    _PROVEN_BELOW,
    INFINITY,
    GroundField,
    _is_prime,
    digit_expand_base,
    vp,
)
from ramify.errors import NotAUnit, NotDivisible, PrecisionExhausted

from conftest import short_scalar


def test_vp():
    assert vp(1, 2) == 0
    assert vp(12, 2) == 2
    assert vp(12, 3) == 1
    assert vp(81, 3) == 4


def test_infinity_ordering_and_absorption():
    assert INFINITY > 10 ** 9
    assert not INFINITY < 5
    assert INFINITY + 3 == INFINITY
    assert min(INFINITY, 7) == 7


def test_equal_char_from_int_zero_flag():
    K = GroundField.equal_char(2, 8)
    assert K.from_int(2).exact_zero
    assert K.from_int(4).exact_zero
    assert not K.from_int(3).exact_zero


def test_mixed_char_from_int_zero_flag():
    K = GroundField.mixed_char(2, 8)
    assert K.from_int(0).exact_zero
    assert not K.from_int(2).exact_zero
    assert K.from_int(2).valuation() == 1


def test_equal_char_unit_inverse():
    K = GroundField.equal_char(2, 12)
    x = K.one() + K.uniformizer()
    y = x.unit_inverse()
    assert (x * y) == K.one()


def test_mixed_char_unit_inverse():
    K = GroundField.mixed_char(5, 10)
    x = K.from_int(7)
    assert (x * x.unit_inverse()) == K.one()


def test_non_unit_inverse_raises():
    K = GroundField.mixed_char(2, 8)
    with pytest.raises(NotAUnit):
        K.from_int(2).unit_inverse()


def test_valuation_basic():
    K = GroundField.equal_char(3, 10)
    t = K.uniformizer()
    assert (t * t * t).valuation() == 3
    assert K.zero().valuation() == INFINITY
    assert K.from_int(2).valuation() == 0


def test_valuation_precision_exhausted():
    K = GroundField.equal_char(2, 4)
    t = K.uniformizer()
    x = t ** 2 - t ** 2
    # not flagged exact, all visible digits zero
    assert not x.exact_zero
    with pytest.raises(PrecisionExhausted) as err:
        x.valuation()
    assert err.value.bound is not None


def test_has_valuation_at_least():
    K = GroundField.mixed_char(2, 10)
    x = K.from_int(8)
    assert x.has_valuation_at_least(3)
    assert not x.has_valuation_at_least(4)


def test_udiv_drops_precision():
    K = GroundField.mixed_char(2, 10)
    x = K.from_int(8)
    y = x.udiv(3)
    assert y == K.one()
    assert y.prec == 7


def test_udiv_requires_divisibility():
    K = GroundField.mixed_char(2, 10)
    with pytest.raises(NotDivisible):
        K.from_int(3).udiv(1)


def test_teichmuller_mixed_is_root_of_unity():
    K = GroundField.mixed_char(5, 12)
    w = K.teichmuller(2)
    assert w ** 5 == w
    assert w.residue() == 2


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_teichmuller_lift_is_the_stored_fixed_point(p):
    for prec in (1, 2, 3, 8, 20, 64, 160, 400):
        K = GroundField.mixed_char(p, prec)
        m = p ** prec
        for r in range(1, p):
            x = r  # iterate x -> x^p to its fixed point
            for _ in range(prec + 1):
                y = pow(x, p, m)
                if y == x:
                    break
                x = y
            else:
                pytest.fail("no fixed point for r = %d" % r)
            assert x == pow(r, p ** (prec - 1), m)
            assert K.teichmuller(r).data == x
            assert K._teich[r] == x
            assert K.teichmuller(r + p).data == x


def test_teichmuller_equal_is_constant():
    K = GroundField.equal_char(3, 6)
    w = K.teichmuller(2)
    assert w.residue() == 2
    assert (w * w * w) == w


def test_exact_zero_addition_keeps_other_operand():
    K = GroundField.equal_char(2, 10)
    t = K.uniformizer()
    z = K.zero(3)
    assert (t + z) == t
    assert (t + z).prec == t.prec


@pytest.mark.parametrize("K", [GroundField.equal_char(2, 8),
                               GroundField.mixed_char(3, 8)], ids=repr)
def test_exact_zero_compares_at_the_other_precision(K):
    z = K.zero(0)  # as K.zero().udiv(k) leaves it for k >= prec
    assert z.exact_zero and z.prec == 0
    assert z != K.one() and K.one() != z
    assert z == K.zero() and K.zero() == z
    short = short_scalar(K.zero(), 3)
    assert not short.exact_zero and short.prec == 3
    assert short == z and z == short
    assert short_scalar(K.one(), 3) != z


def test_digit_expand_base():
    K = GroundField.mixed_char(2, 10)
    assert digit_expand_base(K.from_int(3), 3) == [1, 1, 0]
    K3 = GroundField.mixed_char(3, 10)
    digits = digit_expand_base(K3.from_int(5), 4)
    assert digits[0] == 2
    rebuilt = K3.zero()
    pi = K3.uniformizer()
    for h, d in enumerate(digits):
        rebuilt = rebuilt + K3.teichmuller(d) * pi ** h
    assert (rebuilt - K3.from_int(5)).has_valuation_at_least(4)


def test_pow_zero_is_one():
    K = GroundField.equal_char(2, 8)
    t = K.uniformizer()
    assert t ** 0 == K.one()


def test_kronecker_mul_matches_schoolbook():
    K = GroundField.equal_char(3, 8)
    t = K.uniformizer()
    a = K.one() + K.from_int(2) * t + t ** 3
    b = K.from_int(2) + t ** 2
    prod = a * b
    # (1 + 2t + t^3)(2 + t^2) = 2 + 4t + t^2 + 2t^3 + 2t^3 + t^5
    expect = (K.from_int(2) + K.from_int(4) * t + t ** 2
              + K.from_int(4) * t ** 3 + t ** 5)
    assert prod == expect


@pytest.mark.parametrize("p, prec", [(257, 1), (3, 20000)])
def test_mixed_mode_has_no_packing_bound(p, prec):
    # Q_p scalars are plain integers mod p^prec; only F_p((t)) packs slots.
    K = GroundField.mixed_char(p, prec)
    x = K.from_int(p - 1)
    assert x * x.unit_inverse() == K.one()
    assert (x * x).residue() == 1


def _trial_division(n):
    return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))


def test_is_prime_matches_trial_division():
    assert all(_is_prime(n) == _trial_division(n) for n in range(10 ** 4))


@pytest.mark.parametrize("n", [3215031751, 3825123056546413051])
def test_strong_pseudoprimes_are_composite(n):
    # strong pseudoprimes to every prime base up to 7 and up to 31
    assert not _is_prime(n)


def test_p_beyond_proven_primality_refused():
    # the bound is itself a strong pseudoprime to every base up to 37
    assert _is_prime(_PROVEN_BELOW)
    with pytest.raises(ValueError, match="primality is proven"):
        GroundField.mixed_char(_PROVEN_BELOW, 4)
