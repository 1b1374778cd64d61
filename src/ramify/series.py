"""Power series carrying a uniformizer of the base into an upper floor.

A Series is sum_h c_h * X^(offset+h) with ground-field scalars c_h.  The
canonical one is a digit series: pi_base = sum_h lift(a_h) * pi^(n+h),
its coefficients the Teichmuller lifts of the digits, offset n the
ramification index of the floor over the series' base, and the leading
digit a_0 never zero.  The same type holds the e-th root produced by
tame twists, the formal composite of two digit series, and a digit
series plus a multiple of the Eisenstein polynomial.

Truncated power series live in DualRing, floor[eps] / (eps^nil) over
any floor or the ground field.  The oracle perturbs the uniformizer in
it; here the composite of two series is one evaluation in it, and the
e-th root is solved digit by digit with its powers.

evaluate is the generic Horner route at any point of any ring.  At the
uniformizer of a floor, perturbed or not, evaluate_at_pi reads the
series off the powers of pi, built by a move and a fold on the ground
coordinates, in one pass per eps-degree; it serves every probe, the
formal-composite check and tame, and evaluate stays the reference the
tests compare it against, as compose_series keeps using it.
"""

from __future__ import annotations

import math

from .base import (RingElement, _convolve, _pair_matvec, _pairs, _scalars,
                   digit_expand_base)
from .extension import FloorElement
from .errors import BadTameDegree, NotOneUnit, PrecisionExhausted


class Series:
    __slots__ = ("offset", "coeffs")

    def __init__(self, offset, coeffs):
        self.offset = offset
        self.coeffs = tuple(coeffs)

    @property
    def ground(self):
        return self.coeffs[0].field

    @property
    def p(self):
        return self.ground.p

    @property
    def horizon(self):
        return len(self.coeffs)

    def support(self):
        return tuple(
            h for h, c in enumerate(self.coeffs) if not c.is_zero_to_precision()
        )

    def __repr__(self):
        return "Series(offset=%d, horizon=%d)" % (self.offset, self.horizon)


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


def expand_digits(target, horizon, need=None):
    """Digit series of an element whose valuation is the ramification index.

    ``target`` is the embedded image of the base uniformizer in an upper
    floor; its exact valuation n becomes the offset.  The series holds
    the first ``horizon`` digits, or as many as are tracked; fewer than
    ``need`` (all of them when omitted) raise PrecisionExhausted.
    """
    if horizon < 1:
        raise ValueError("the digit horizon must be at least 1, got %d" % horizon)
    n = target.valuation()
    digits = digit_expand_base(target, n + horizon)[n:]
    ground = target.floor.ground
    if len(digits) < (need or horizon):
        raise PrecisionExhausted(
            "the digit expansion ran dry: %d of %d digits past offset %d at "
            "ground precision %d" % (len(digits), horizon, n, ground.prec))
    return Series(n, [ground.teichmuller(d) for d in digits])


def evaluate(series, x):
    """Horner evaluation of sum_h c_h * x^(offset+h) in x's ring."""
    ring = x.floor
    acc = ring.zero()
    for h in range(series.horizon - 1, -1, -1):
        acc = acc * x + ring.embed(series.coeffs[h])
    return acc * x ** series.offset


def evaluate_at_pi(series, floor, nil=None, w=None):
    """Evaluation at the uniformizer pi of ``floor``, on the powers of pi.

    Without ``nil`` it gives F(pi) on the floor; with it, F(pi + w*eps)
    in DualRing(floor, nil), w = pi when omitted.  The eps^m coefficient
    is w^m sum_h binom(n+h, m) c_h pi^(n+h-m), n the offset.  Passes of
    floor.times_pi_pairs (a move of the (data, prec) pairs and one fold
    pass of pi_rows) form pi^0 ... pi^(n+H-1),
    and as they go the rows are built: row r of drop d lists
    (i, data, prec) of coordinate r of pi^(n+h-d), for the i-th h whose
    c_h is not an exact zero.  s_m is c_h times the binomial as a scalar
    at the ground precision that is never an exact zero, even when p
    divides it, all formed in one pass.  Each coefficient is one pass of
    the rows of drop m on s_m, then m passes of w's mul_rows; with w = pi,
    w^m folds into the powers, the rows of drop 0 serve every m and no
    w pass runs.

    Data, precisions and exact-zero flags are those of evaluate(series,
    z) at the same z, which stays the reference route.  An output's
    exact-zero flag says whether any of its products is live, and its
    precision is the least among them: the sum and product of the
    semiring of precisions and the exact zero, with min for both and the
    exact zero absorbing in the product.  Reduction mod E is linear in
    it, so every grouping of the same factors gives the same flags and
    precisions, and the data agree modulo that precision.
    """
    ground, n, H = floor.ground, series.offset, series.horizon
    top = 1 if nil is None else min(nil, n + H)
    live = [h for h, c in enumerate(series.coeffs) if not c.exact_zero]
    at = {h: i for i, h in enumerate(live)}
    drops = range(1 if w is None else top)
    rows = [[[] for _ in range(floor.absolute_degree)] for _ in drops]
    x = _pairs(floor.one().coords)
    for k in range(n + H):
        if k:
            x = floor.times_pi_pairs(x)
        for d in drops:
            i = at.get(k + d - n)
            if i is not None:
                for r, y in enumerate(x):
                    if y is not None:
                        rows[d][r].append((i, *y))
    # s_1 ... s_(top-1) in one pass; row (m, i) is empty when n+h < m
    binom = [[(i, ground.from_int(math.comb(n + h, m)).data, ground.prec)]
             if n + h >= m else [] for m in range(1, top)
             for i, h in enumerate(live)]
    cs, L = _pairs(series.coeffs[h] for h in live), len(live)
    s = cs + _pair_matvec(binom, cs, ground)
    w_rows = None if w is None else floor.mul_rows(w)
    out = []
    for m in range(top):
        d = 0 if w is None else m
        a = _pair_matvec(rows[d], s[m * L:m * L + L], ground)
        for _ in range(d):
            a = _pair_matvec(w_rows, a, ground)
        out.append(FloorElement(floor, _scalars(ground, a)))
    if nil is None:
        return out[0]
    return DualRing(floor, nil).element(out)


def normalize_leading_digit(series: Series) -> Series:
    """Scale so the leading digit becomes 1; Teichmuller lifts multiply."""
    d0 = series.coeffs[0].residue()
    if d0 == 1:
        return series
    ground = series.ground
    unit = ground.teichmuller(pow(d0, -1, ground.p))
    return Series(series.offset, [c * unit for c in series.coeffs])


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


def check_tame_degree(e, p, n):
    """Refuse an e-th root of the uniformizer unless gcd(e, p*n) = 1."""
    if math.gcd(e, p * n) != 1:
        raise BadTameDegree("e = %d shares a factor with p*n = %d" % (e, p * n))


def eth_root_substitute(series, e: int) -> Series:
    """The series T with T(X)^e = S(X^e), for gcd(e, p*n) = 1.

    S = sum a_h X^(n+h) gives S(X^e) = X^(ne) * h(X^e) with h(Y) =
    sum a_h Y^h, so T = X^n * r(X^e) with r = h^(1/e), which keeps the
    offset n.  Each of the horizon coefficients of r is solved from the
    e-th power of those below; T's coefficients at powers of X that e
    does not divide are exact zeros.
    """
    n = series.offset
    ground = series.ground
    check_tame_degree(e, ground.p, n)
    r0 = _scalar_root(series.coeffs[0], e, ground)
    lead_inv = (r0 ** (e - 1) * e).unit_inverse()
    rs = [r0]
    for k in range(1, series.horizon):
        cur = DualRing(ground, k + 1).element(rs) ** e
        rs.append((series.coeffs[k] - cur.coeffs[k]) * lead_inv)
    ts = [ground.zero()] * (e * (series.horizon - 1) + 1)
    ts[::e] = rs
    return Series(n, ts)


def compose_series(outer, inner, out_horizon) -> Series:
    """Formal coefficients of outer(inner(X)) through the given horizon.

    Both series have ground coefficients; the result has offset equal to
    the product of the offsets, matching a two-step tower where inner
    carries pi_M to pi_L and outer carries pi_L to pi_K.  It is outer
    evaluated at inner, read in ground[X] / (X^(offset + out_horizon)).
    """
    off = outer.offset * inner.offset
    ring = DualRing(inner.ground, off + out_horizon)
    x = ring.element([inner.ground.zero()] * inner.offset + list(inner.coeffs))
    return Series(off, evaluate(outer, x).coeffs[off:])
