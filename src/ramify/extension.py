"""Totally ramified extension floors built from Eisenstein polynomials.

A tower ring is either a GroundField or an EisensteinFloor over another
tower ring.  Elements of a floor of degree n are coordinate vectors
(x_0, ..., x_{n-1}) over the base, representing sum x_i pi^i where pi is
the distinguished root of the attached Eisenstein polynomial
E(X) = X^n + c_{n-1} X^{n-1} + ... + c_0.

Valuations are normalized so v(pi) = 1 on each floor.  Because the
coordinate terms x_i pi^i have pairwise distinct valuations mod n, the
valuation of an element is the exact minimum of i + n*v_base(x_i); no
cancellation between coordinates is possible, which keeps valuation
queries certifiable even at finite precision.
"""

from __future__ import annotations

from .base import INFINITY, BaseScalar, RingElement, _convolve, _ground_product
from .errors import NotAUnit, NotEisenstein, PrecisionExhausted


class EisensteinPoly:
    """X^n + c_{n-1} X^{n-1} + ... + c_0 with coefficients over one floor."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = tuple(coeffs)
        if not self.coeffs:
            raise NotEisenstein("no coefficients")

    @property
    def degree(self):
        return len(self.coeffs)

    def __repr__(self):
        return "EisensteinPoly(deg %d)" % self.degree


def attach_eisenstein(base, poly):
    """Validate poly over base and return the new floor on top.

    Eisenstein means every lower coefficient has positive valuation and
    the constant term has valuation exactly 1.  Valuations that cannot
    be certified at the working precision propagate PrecisionExhausted.
    """
    if isinstance(poly, (list, tuple)):
        poly = EisensteinPoly(poly)
    for c in poly.coeffs:
        if c.floor is not base:
            raise NotEisenstein("coefficient from the wrong floor")
    c0 = poly.coeffs[0]
    if c0.valuation() != 1:
        raise NotEisenstein("constant term must have valuation 1")
    for i, c in enumerate(poly.coeffs[1:], start=1):
        if not c.has_valuation_at_least(1):
            raise NotEisenstein("coefficient %d is a unit" % i)
    return EisensteinFloor(base, poly)


class EisensteinFloor:
    """One totally ramified step: base[pi] / E(pi) = 0."""

    __slots__ = ("base", "poly", "degree", "p", "mode", "ground", "ceiling",
                 "absolute_degree", "_c0_unit_inv")

    def __init__(self, base, poly):
        self.base = base
        self.poly = poly
        self.degree = poly.degree
        self.p, self.mode, self.ground = base.p, base.mode, base.ground
        self.ceiling = self.degree * base.ceiling
        self.absolute_degree = self.degree * base.absolute_degree
        self._c0_unit_inv = None

    # -- floor protocol ------------------------------------------------

    def p_valuation(self):
        return self.degree * self.base.p_valuation()

    def zero(self):
        z = self.base.zero()
        return FloorElement(self, (z,) * self.degree)

    def one(self):
        return self.embed(self.base.one())

    def from_int(self, k):
        return self.embed(self.ground.from_int(k))

    def uniformizer(self):
        if self.degree == 1:
            return self.embed(-self.poly.coeffs[0])
        z = self.base.zero()
        coords = (z, self.base.one()) + (z,) * (self.degree - 2)
        return FloorElement(self, coords)

    def teichmuller(self, r):
        return self.embed(self.ground.teichmuller(r))

    def embed(self, x):
        """Embed an element of any lower floor (or this one) into this floor."""
        if getattr(x, "floor", None) is self:
            return x
        if x.floor is not self.base:
            x = self.base.embed(x)
        z = self.base.zero()
        return FloorElement(self, (x,) + (z,) * (self.degree - 1))

    def residue_inverse(self, r):
        return self.ground.residue_inverse(r)

    def c0_unit_inverse(self):
        if self._c0_unit_inv is None:
            self._c0_unit_inv = self.poly.coeffs[0].udiv(1).unit_inverse()
        return self._c0_unit_inv

    def __repr__(self):
        return "%r[pi] deg %d" % (self.base, self.degree)


class FloorElement(RingElement):
    """Coordinate vector over the base floor; supports ring ops and udiv."""

    __slots__ = ("floor", "coords")

    def __init__(self, floor, coords):
        self.floor = floor
        self.coords = tuple(coords)

    @property
    def exact_zero(self):
        return all(c.exact_zero for c in self.coords)

    def _peer(self, other):
        if isinstance(other, FloorElement):
            if other.floor is not self.floor:
                raise TypeError("elements from different floors")
            return other
        if isinstance(other, int):
            return self.floor.from_int(other)
        if isinstance(other, BaseScalar):
            return self.floor.embed(other)
        return None

    def __add__(self, other):
        o = self._peer(other)
        if o is None:
            return NotImplemented
        return FloorElement(
            self.floor, tuple(a + b for a, b in zip(self.coords, o.coords))
        )

    __radd__ = __add__

    def __neg__(self):
        return FloorElement(self.floor, tuple(-a for a in self.coords))

    def __mul__(self, other):
        if isinstance(other, int):
            return FloorElement(self.floor, tuple(c * other for c in self.coords))
        o = self._peer(other)
        if o is None:
            return NotImplemented
        fl = self.floor
        n, cs = fl.degree, fl.poly.coeffs
        if fl.base is fl.ground:
            return FloorElement(fl, _ground_product(
                self.coords, o.coords, 2 * n - 1, fl.ground.zero(), cs))
        buf = _convolve(self.coords, o.coords, 2 * n - 1, fl.base.zero())
        for k in range(2 * n - 2, n - 1, -1):
            top = buf[k]
            if top.exact_zero:
                continue
            # pi^k = -pi^(k-n) * sum c_i pi^i
            for i in range(n):
                buf[k - n + i] = buf[k - n + i] - top * cs[i]
        return FloorElement(fl, buf[:n])

    __rmul__ = __mul__

    def __eq__(self, other):
        o = self._peer(other)
        if o is None:
            return NotImplemented
        return all(a == b for a, b in zip(self.coords, o.coords))

    __hash__ = None

    def is_zero_to_precision(self):
        return all(c.is_zero_to_precision() for c in self.coords)

    def _val_parts(self):
        # exact part: min over coords with certified valuation
        # pending part: min lower bound over coords that are zero to precision
        n = self.floor.degree
        best = INFINITY
        pending = INFINITY
        for i, x in enumerate(self.coords):
            if x.exact_zero:
                continue
            try:
                cand = i + n * x.valuation()
            except PrecisionExhausted as e:
                b = i + n * e.bound
                if b < pending:
                    pending = b
                continue
            if cand < best:
                best = cand
        return best, pending

    def valuation(self):
        best, pending = self._val_parts()
        if pending < best:
            raise PrecisionExhausted(
                "valuation known only to be >= %s" % pending, bound=pending
            )
        return best

    def has_valuation_at_least(self, k):
        best, pending = self._val_parts()
        if min(best, pending) >= k:
            return True
        if best < k:
            return False
        raise PrecisionExhausted(
            "valuation known only to be >= %s" % pending, bound=pending
        )

    def residue(self):
        return self.coords[0].residue()

    def udiv(self, k):
        x = self
        for _ in range(k):
            x = x._udiv1()
        return x

    def _udiv1(self):
        fl = self.floor
        n = fl.degree
        cs = fl.poly.coeffs
        y_top = -(self.coords[0].udiv(1) * fl.c0_unit_inverse())
        ys = [None] * n
        ys[n - 1] = y_top
        for i in range(1, n):
            ys[i - 1] = self.coords[i] + cs[i] * y_top
        return FloorElement(fl, ys)

    def unit_inverse(self):
        if self.residue() == 0:
            raise NotAUnit("valuation is positive")
        fl = self.floor
        w = fl.teichmuller(fl.residue_inverse(self.residue()))
        # Newton doubles the precision of 1 - x*w each round.
        steps = max(1, fl.ceiling.bit_length() + 1)
        for _ in range(steps):
            err = 1 - self * w
            if err.is_zero_to_precision():
                return w
            w = w * (2 - self * w)
        err = 1 - self * w
        if err.is_zero_to_precision():
            return w
        raise PrecisionExhausted("inverse did not converge", bound=None)

    def __repr__(self):
        return "FloorElement(%r)" % (list(self.coords),)


def different_exponent(floor):
    """Valuation of E'(pi) on the given floor, E its Eisenstein polynomial."""
    n = floor.degree
    cs = floor.poly.coeffs
    base = floor.base
    coords = [base.zero()] * n
    for i in range(1, n):
        coords[i - 1] = cs[i] * i
    coords[n - 1] = coords[n - 1] + base.from_int(n)
    return FloorElement(floor, coords).valuation()
