"""Power series carrying a uniformizer of the base into an upper floor.

The canonical object is a digit series: pi_base = sum_h lift(a_h) *
pi^(n+h) with Teichmuller digit coefficients, offset n the ramification
index of the floor over the series' base.  Digits are stored as residues
and lifted on demand; the leading digit a_0 is never zero.

A general series is the same shape with arbitrary ground-field scalars
as coefficients.  It shows up as the e-th root produced by tame twists,
as a formal composite of two digit series, and as a digit series plus a
multiple of the Eisenstein polynomial.

Truncated power series live in DualRing, floor[eps] / (eps^nil) over
any floor or the ground field.  The oracle perturbs the uniformizer in
it; here the composite of two series is one evaluation in it, and the
e-th root is solved digit by digit with its powers.
"""

from __future__ import annotations

import math

from .base import RingElement, _convolve, digit_expand_base
from .errors import BadTameDegree, NotOneUnit, PrecisionExhausted


class DigitSeries:
    __slots__ = ("offset", "digits", "ground")

    def __init__(self, offset, digits, ground):
        self.offset = offset
        self.digits = tuple(int(d) % ground.p for d in digits)
        self.ground = ground
        if self.digits and self.digits[0] == 0:
            raise ValueError("leading digit must be nonzero")

    @property
    def p(self):
        return self.ground.p

    @property
    def horizon(self):
        return len(self.digits)

    def support(self):
        return tuple(h for h, d in enumerate(self.digits) if d)

    def coeff_scalar(self, h):
        return self.ground.teichmuller(self.digits[h])

    def __eq__(self, other):
        if not isinstance(other, DigitSeries):
            return NotImplemented
        return (self.offset, self.digits) == (other.offset, other.digits)

    __hash__ = None

    def __repr__(self):
        return "DigitSeries(offset=%d, digits=%r)" % (self.offset, list(self.digits))


class GeneralSeries:
    __slots__ = ("offset", "coeffs")

    def __init__(self, offset, coeffs):
        self.offset = offset
        self.coeffs = tuple(coeffs)

    @property
    def ground(self):
        return self.coeffs[0].field

    @property
    def horizon(self):
        return len(self.coeffs)

    def support(self):
        return tuple(
            h for h, c in enumerate(self.coeffs) if not c.is_zero_to_precision()
        )

    def coeff_scalar(self, h):
        return self.coeffs[h]

    def __repr__(self):
        return "GeneralSeries(offset=%d, horizon=%d)" % (self.offset, self.horizon)


class DualRing:
    """floor[eps] / (eps^nil); elements keep full coefficient precision."""

    __slots__ = ("floor_ref", "nil")

    def __init__(self, floor, nil):
        self.floor_ref = floor
        self.nil = nil

    def zero(self):
        return self.element(())

    def one(self):
        return self.element((self.floor_ref.one(),))

    def embed(self, x):
        return self.element((x,))

    def element(self, coeffs):
        """sum coeffs[i] * eps^i cut at eps^nil, coefficients from any floor."""
        coeffs = [self.floor_ref.embed(c) for c in coeffs[: self.nil]]
        z = self.floor_ref.zero()
        return DualElement(self, tuple(coeffs) + (z,) * (self.nil - len(coeffs)))

    def __repr__(self):
        return "DualRing(nil=%d over %r)" % (self.nil, self.floor_ref)


class DualElement(RingElement):
    __slots__ = ("ring", "coeffs")

    def __init__(self, ring, coeffs):
        self.ring = ring
        self.coeffs = tuple(coeffs)

    @property
    def floor(self):
        return self.ring

    def _peer(self, other):
        if isinstance(other, DualElement):
            if other.ring is not self.ring:
                raise TypeError("elements from different dual rings")
            return other
        if isinstance(other, int):
            return self.ring.embed(self.ring.floor_ref.from_int(other))
        try:
            return self.ring.embed(other)
        except TypeError:
            return None

    def __add__(self, other):
        o = self._peer(other)
        if o is None:
            return NotImplemented
        return DualElement(
            self.ring, tuple(a + b for a, b in zip(self.coeffs, o.coeffs))
        )

    __radd__ = __add__

    def __neg__(self):
        return DualElement(self.ring, tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        o = self._peer(other)
        if o is None:
            return NotImplemented
        ring = self.ring
        return DualElement(
            ring, _convolve(self.coeffs, o.coeffs, ring.nil, ring.floor_ref.zero())
        )

    __rmul__ = __mul__

    def unit_inverse(self):
        raise ValueError("negative powers not supported in the dual ring")

    def __repr__(self):
        return "DualElement(%r)" % (list(self.coeffs),)


def expand_digits(target, horizon):
    """Digit series of an element whose valuation is the ramification index.

    ``target`` is the embedded image of the base uniformizer in an upper
    floor; its exact valuation becomes the offset.
    """
    n = target.valuation()
    unit = target.udiv(n)
    digits = digit_expand_base(unit, horizon)
    ground = target.floor.ground
    if len(digits) < horizon:
        raise PrecisionExhausted(
            "the digit expansion ran dry: %d of %d digits past offset %d "
            "at ground precision %d" % (len(digits), horizon, n, ground.prec))
    return DigitSeries(n, digits, ground)


def evaluate(series, x):
    """Horner evaluation of sum_h c_h * x^(offset+h) in x's ring."""
    ring = x.floor
    acc = ring.zero()
    for h in range(series.horizon - 1, -1, -1):
        acc = acc * x + ring.embed(series.coeff_scalar(h))
    return acc * x ** series.offset


def normalize_leading_digit(series: DigitSeries) -> DigitSeries:
    """Scale so the leading digit becomes 1; Teichmuller lifts multiply."""
    d0 = series.digits[0]
    if d0 == 1:
        return series
    inv = series.ground.residue_inverse(d0)
    p = series.p
    return DigitSeries(
        series.offset, tuple(d * inv % p for d in series.digits), series.ground
    )


def alternate_series(series: DigitSeries, poly) -> GeneralSeries:
    """The series plus X^n * E(X); it evaluates to the same element at pi."""
    n = series.offset
    if poly.degree != n:
        raise ValueError("polynomial degree must match the series offset")
    ground = series.ground
    horizon = max(series.horizon, n + 1)
    coeffs = []
    for h in range(horizon):
        c = series.coeff_scalar(h) if h < series.horizon else ground.zero()
        if h < n:
            c = c + poly.coeffs[h]
        elif h == n:
            c = c + ground.one()
        coeffs.append(c)
    return GeneralSeries(n, coeffs)


def _scalar_root(c0, e, ground):
    """The 1-unit y with y^e = c0, by Newton from y = 1."""
    if c0.residue() != 1:
        raise NotOneUnit("leading coefficient is not a 1-unit")
    y = ground.one()
    for _ in range(ground.prec.bit_length() + 3):
        err = y ** e - c0
        if err.is_zero_to_precision():
            return y
        deriv = (y ** (e - 1)) * e
        y = y - err * deriv.unit_inverse()
    if (y ** e - c0).is_zero_to_precision():
        return y
    raise PrecisionExhausted("e-th root did not converge")


def eth_root_substitute(series, e: int) -> GeneralSeries:
    """The series T with T(X)^e = S(X^e), for gcd(e, p*n) = 1.

    S = sum a_h X^(n+h) gives S(X^e) = X^(ne) * g(X) with g supported on
    multiples of e; T = X^n * g(X)^(1/e) keeps the offset n.  Each
    coefficient of g^(1/e) is solved from the e-th power of those below.
    """
    n = series.offset
    ground = series.ground
    p = ground.p
    if math.gcd(e, p * n) != 1:
        raise BadTameDegree("e = %d shares a factor with p*n = %d" % (e, p * n))
    g = [ground.zero()] * (e * (series.horizon - 1) + 1)
    g[::e] = [series.coeff_scalar(h) for h in range(series.horizon)]
    t0 = _scalar_root(g[0], e, ground)
    lead_inv = (t0 ** (e - 1) * e).unit_inverse()
    ts = [t0]
    for w in range(1, len(g)):
        cur = DualRing(ground, w + 1).element(ts) ** e
        ts.append((g[w] - cur.coeffs[w]) * lead_inv)
    return GeneralSeries(n, ts)


def compose_series(outer, inner, out_horizon) -> GeneralSeries:
    """Formal coefficients of outer(inner(X)) through the given horizon.

    Both series have ground coefficients; the result has offset equal to
    the product of the offsets, matching a two-step tower where inner
    carries pi_M to pi_L and outer carries pi_L to pi_K.  It is outer
    evaluated at inner, read in ground[X] / (X^(offset + out_horizon)).
    """
    off = outer.offset * inner.offset
    ring = DualRing(inner.ground, off + out_horizon)
    x = ring.element([inner.ground.zero()] * inner.offset
                     + [inner.coeff_scalar(h) for h in range(inner.horizon)])
    return GeneralSeries(off, evaluate(outer, x).coeffs[off:])
