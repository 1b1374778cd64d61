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

from .base import INFINITY, BaseScalar, RingElement, _convolve, _ground_matvec
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
                 "absolute_degree", "_c0_unit_inv", "_pi_rows")

    def __init__(self, base, poly):
        self.base = base
        self.poly = poly
        self.degree = poly.degree
        self.p, self.mode, self.ground = base.p, base.mode, base.ground
        self.ceiling = self.degree * base.ceiling
        self.absolute_degree = self.degree * base.absolute_degree
        self._c0_unit_inv = self._pi_rows = None

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

    def mul_rows(self, w):
        """The matrix of x -> x * w on ground coordinates, by rows.

        Row k lists (j, data, prec) for each ground coordinate k of
        e_j * w that is not an exact zero, e_j the j-th ground basis
        element and the product the floor's own.  A product x * w is
        linear in x's ground coordinates, so it forms exactly the terms
        x_j times an entry: base._ground_matvec over these rows gives its
        data, precisions and exact-zero flags.
        """
        size = self.absolute_degree
        one, zero = self.ground.one(), self.ground.zero()
        cols = [_ground_coords(_from_ground(
            self, [one if i == j else zero for i in range(size)]) * w)
            for j in range(size)]
        return [[(j, col[k].data, col[k].prec) for j, col in enumerate(cols)
                 if not col[k].exact_zero] for k in range(size)]

    def pi_rows(self):
        """mul_rows of the uniformizer, built once per floor by shift and fold.

        Ground coordinate k takes coordinate k - width times one, width
        the base's absolute degree, and the old top's coordinates fold
        into the place of each c_i through the base's mul_rows of -c_i:
        width * degree products on the base in all.
        """
        if self._pi_rows is None:
            base, one = self.base, self.ground.one()
            width, size = base.absolute_degree, self.absolute_degree
            rows = [[] for _ in range(width)]
            rows += [[(k - width, one.data, one.prec)]
                     for k in range(width, size)]
            for i, c in enumerate(self.poly.coeffs):
                for r, row in enumerate(base.mul_rows(-c)):
                    rows[i * width + r] += [(size - width + a, d, dp)
                                            for a, d, dp in row]
            self._pi_rows = rows
        return self._pi_rows

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
        return FloorElement(fl, _convolve(
            self.coords, o.coords, 2 * fl.degree - 1, fl.base.zero(),
            fl.poly.coeffs))

    __rmul__ = __mul__

    def times_pi(self):
        """self * pi by shift and fold: the coordinates move up one place
        and the old top folds back through E, a_(i-1) - top * c_i.

        Data, precisions and exact-zero flags are those of
        ``self * floor.uniformizer()``, which multiplies every coordinate
        by one and forms each top * c_i afresh.  Here the floor's cached
        pi_rows hold both, and one pass over the raw ground integers
        applies them.
        """
        fl = self.floor
        return _from_ground(fl, _ground_matvec(
            [(fl.pi_rows(), _ground_coords(self))], fl.ground.zero()))

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
        for _ in range(fl.ceiling.bit_length() + 2):
            err = 1 - self * w
            if err.is_zero_to_precision():
                return w
            w = w + w * err
        raise PrecisionExhausted("inverse did not converge", bound=None)

    def __repr__(self):
        return "FloorElement(%r)" % (list(self.coords),)


def _ground_coords(x):
    """The ground coordinates of a floor element, lowest first."""
    if type(x.coords[0]) is BaseScalar:
        return x.coords
    return [g for c in x.coords for g in _ground_coords(c)]


def _from_ground(floor, gs):
    """The element of ``floor`` with ground coordinates gs."""
    base = floor.base
    if base.base is None:
        return FloorElement(floor, gs)
    w = base.absolute_degree
    return FloorElement(floor, [_from_ground(base, gs[k:k + w])
                                for k in range(0, len(gs), w)])


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
