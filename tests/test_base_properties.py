"""Property tests: packed equal-mode scalars against a digit-tuple reference.

The reference below is the slow direct route over F_p[[t]]: a tuple of
digits known mod t^prec, with the package's precision rules (sums and
products keep the smaller precision, an exact zero carries none, dividing
by t^k costs k digits) and schoolbook products.  Every operation must give
the same outcome on both sides, exception class included.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramify.base import INFINITY, BaseScalar, GroundField
from ramify.errors import NotAUnit, NotDivisible, PrecisionExhausted

TOP = 24
FIELDS = {p: GroundField.equal_char(p, TOP) for p in (2, 3, 5, 7)}


class Ref:
    """A scalar of F_p[[t]] as its digit tuple, known mod t^prec."""

    def __init__(self, p, digits, prec, exact_zero=False):
        self.p = p
        self.digits = tuple(digits[:prec]) + (0,) * (prec - len(digits))
        self.prec = prec
        self.exact_zero = exact_zero

    def _new(self, digits, prec, exact_zero=False):
        return Ref(self.p, digits, prec, exact_zero)

    def __add__(self, o):
        if o.exact_zero:
            return self
        if self.exact_zero:
            return o
        m = min(self.prec, o.prec)
        return self._new([(self.digits[k] + o.digits[k]) % self.p
                          for k in range(m)], m)

    def __neg__(self):
        return self._new([-c % self.p for c in self.digits], self.prec,
                         self.exact_zero)

    def __sub__(self, o):
        return self + (-o)

    def __mul__(self, o):
        if self.exact_zero or o.exact_zero:
            return self._new((), max(self.prec, o.prec), True)
        m = min(self.prec, o.prec)
        out = [0] * m
        for i in range(m):
            for j in range(m - i):
                out[i + j] += self.digits[i] * o.digits[j]
        return self._new([c % self.p for c in out], m)

    def _digit(self, k):
        return 0 if self.exact_zero else self.digits[k]

    def __eq__(self, o):
        # the digits both sides know; an exact zero knows every digit
        m = min((r.prec for r in (self, o) if not r.exact_zero), default=0)
        return all(self._digit(k) == o._digit(k) for k in range(m))

    def is_zero_to_precision(self):
        return not any(self.digits)

    def valuation(self):
        if self.exact_zero:
            return INFINITY
        for k, c in enumerate(self.digits):
            if c:
                return k
        raise PrecisionExhausted("zero to precision", bound=self.prec)

    def residue(self):
        if self.exact_zero:
            return 0
        if self.prec < 1:
            raise PrecisionExhausted("no digits left", bound=0)
        return self.digits[0]

    def udiv(self, k):
        if k == 0:
            return self
        if self.exact_zero:
            return self._new((), max(self.prec - k, 0), True)
        if self.prec < k:
            raise PrecisionExhausted("too few digits", bound=self.prec)
        if any(self.digits[:k]):
            raise NotDivisible("valuation below %d" % k)
        return self._new(self.digits[k:], self.prec - k)

    def unit_inverse(self):
        if self.residue() == 0:
            raise NotAUnit("valuation is positive")
        p, a = self.p, self.digits
        inv0 = pow(a[0], -1, p)
        out = [inv0]
        for k in range(1, self.prec):
            s = sum(a[i] * out[k - i] for i in range(1, k + 1))
            out.append(-inv0 * s % p)
        return self._new(out, self.prec)

    def __repr__(self):
        terms = []
        for k, c in enumerate(self.digits):
            if c:
                mono = "t" if k == 1 else "t^%d" % k
                terms.append("%d" % c if k == 0 else mono if c == 1
                             else "%d*%s" % (c, mono))
        return "%s + O(t^%d)" % (" + ".join(terms) or "0", self.prec)


def outcome(fn):
    """What fn returns, in terms both sides share, or the class it raises."""
    try:
        value = fn()
    except (NotAUnit, NotDivisible, PrecisionExhausted) as exc:
        return type(exc)
    if isinstance(value, (BaseScalar, Ref)):
        return repr(value), value.prec, value.exact_zero
    return value


@st.composite
def operands(draw, p):
    """A packed scalar and its reference: digits, a high valuation, a zero
    known only to precision, or an exact zero, at any precision <= TOP."""
    prec = draw(st.integers(0, TOP))
    kind = draw(st.sampled_from(["digits", "deep", "zero", "exact_zero"]))
    digits = [0] * prec
    if kind in ("digits", "deep"):
        digits = draw(st.lists(st.integers(0, p - 1), min_size=prec,
                               max_size=prec))
    if kind == "deep":
        v = draw(st.integers(0, prec))
        digits = [0] * v + digits[v:]
    exact = kind == "exact_zero"
    return (BaseScalar(FIELDS[p], tuple(digits), prec, exact),
            Ref(p, digits, prec, exact))


@st.composite
def cases(draw):
    p = draw(st.sampled_from(sorted(FIELDS)))
    return p, draw(operands(p)), draw(operands(p)), draw(st.integers(0, TOP))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(cases())
def test_packed_scalars_match_the_digit_reference(case):
    p, (x, rx), (y, ry), k = case
    binary = [lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b,
              lambda a, b: a == b]
    for op in binary:
        assert outcome(lambda: op(x, y)) == outcome(lambda: op(rx, ry))
        assert outcome(lambda: op(y, x)) == outcome(lambda: op(ry, rx))
    unary = [repr, lambda a: -a, lambda a: a.valuation(),
             lambda a: a.residue(), lambda a: a.udiv(k),
             lambda a: a.unit_inverse(), lambda a: a.is_zero_to_precision()]
    for op in unary:
        for a, ra in ((x, rx), (y, ry)):
            assert outcome(lambda: op(a)) == outcome(lambda: op(ra))


@pytest.mark.parametrize("p, top", [(2, 65535), (3, 16383)])
def test_largest_precision_fills_every_slot(p, top):
    """At the largest accepted precision the top product slot holds
    top (p-1)^2, just below 2^16: the bound the docstring derives."""
    with pytest.raises(ValueError, match="at most %d$" % top):
        GroundField.equal_char(p, top + 1)
    K = GroundField.equal_char(p, top)
    x = BaseScalar(K, (p - 1,) * top, top)
    # Digit k of the reference product is sum_{i+j=k} (p-1)^2 = (k+1)(p-1)^2;
    # check that closed form against the reference on a short prefix.
    short = Ref(p, (p - 1,) * 40, 40)
    assert (short * short).digits == tuple((k + 1) % p for k in range(40))
    square = BaseScalar(K, tuple((k + 1) % p for k in range(top)), top)
    assert x * x == square and (x * x).prec == top
    assert x + x == BaseScalar(K, (p - 2,) * top, top)
    assert -x == BaseScalar(K, (1,) * top, top)
