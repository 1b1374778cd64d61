"""Totally ramified extension floors built from Eisenstein polynomials.

A tower ring is either a GroundField or an EisensteinFloor over another
tower ring.  An element sum x_i pi^i of a floor of degree n, x_i in the
base and pi the root of its Eisenstein polynomial E(X) = X^n +
c_{n-1} X^{n-1} + ... + c_0, is stored as its N ground scalars, N the
floor's absolute degree: ground coordinate r = i*w + s, w the base's
absolute degree, is the coefficient of b_r = pi^i b_s, b_s the base's
ground basis element s.

With v(pi) = 1 on each floor, b_r has weight v(b_r) = i + n*v_base(b_s)
and a ground scalar x valuation N*v_ground(x).  The weights are distinct
mod N, so the valuation of an element is the exact minimum of
v(b_r) + N*v_ground(x_r): no cancellation between coordinates is
possible, which keeps valuation queries certifiable at finite precision.

Multiplying by pi moves the parts up one place and folds the old top
back through E; dividing by pi moves them down and folds the quotient of
the low part by pi_base back.  On the (data, prec) pairs of the ground
coordinates the move is a list slice, and the fold is linear (that
quotient being the base's own division), so each floor caches the fold's
rows (pi_rows, div_rows) at the ground precision and applies them in one
pass that starts each output from the moved pair (base._pair_matvec).  A
product on a floor over another floor is one pass of rows too: the rows
of x -> x * w (mul_rows) come from the base's rows of w's parts and
times_pi_pairs, with no floor product.  A floor directly over the ground
field keeps its one-pass product of raw integers (base._ground_product).
"""

from __future__ import annotations

from .base import (INFINITY, BaseScalar, RingElement, _ground_product,
                   _new_object, _pair_matvec, _pairs, _scalars)
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


def attach_eisenstein(base, poly, name=None):
    """Validate poly over base and return the new floor on top, called
    ``name`` in refusals about it.

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
    return EisensteinFloor(base, poly, name)


class EisensteinFloor:
    """One totally ramified step: base[pi] / E(pi) = 0."""

    __slots__ = ("base", "poly", "degree", "p", "mode", "ground", "ceiling",
                 "absolute_degree", "weights", "name", "_pi_rows",
                 "_div_rows", "_different")

    def __init__(self, base, poly, name=None):
        self.base = base
        self.poly = poly
        self.degree = n = poly.degree
        self.p, self.mode, self.ground = base.p, base.mode, base.ground
        self.ceiling = n * base.ceiling
        self.absolute_degree = n * base.absolute_degree
        below = (0,) if base.base is None else base.weights
        self.weights = tuple(i + n * v for i in range(n) for v in below)
        self.name = name
        self._pi_rows = self._div_rows = self._different = None

    # -- floor protocol ------------------------------------------------

    def p_valuation(self):
        return self.degree * self.base.p_valuation()

    def zero(self):
        return _element(self, (self.ground.zero(),) * self.absolute_degree)

    def one(self):
        return self.embed(self.base.one())

    def from_int(self, k):
        return self.embed(self.ground.from_int(k))

    def uniformizer(self):
        if self.degree == 1:
            return self.embed(-self.poly.coeffs[0])
        coords = [self.ground.zero()] * self.absolute_degree
        coords[self.base.absolute_degree] = self.ground.one()
        return _element(self, coords)

    def teichmuller(self, r):
        return self.embed(self.ground.teichmuller(r))

    def embed(self, x):
        """Embed an element of any lower floor (or this one) into this floor:
        its ground coordinates, padded with exact zeros."""
        below = self
        while below is not getattr(x, "floor", None):
            below = below.base
            if below is None:
                raise TypeError("cannot embed %r into %r" % (x, self))
        gs = _ground(x)
        return x if below is self else _element(
            self, gs + (self.ground.zero(),) * (self.absolute_degree - len(gs)))

    def mul_rows(self, w):
        """The matrix of x -> x * w on ground coordinates, by rows, for w
        on this floor or any below it.

        Row k lists (j, data, prec) for each ground coordinate k of
        b_j * w that is not an exact zero, b_j the j-th ground basis
        element.  x * w is linear in x's ground coordinates, so
        base._pair_matvec over these rows gives its data, precisions
        and exact-zero flags.

        Built by structure, with no floor product: column s of the base's
        mul_rows of each part w_i holds the coordinates of w_i b_s, so
        together they give w b_s; i passes of times_pi_pairs on that
        column give w pi^i b_s, column i * width + s.
        """
        w = self.embed(w)
        base = self.base
        width, size = base.absolute_degree, self.absolute_degree
        cols = [[None] * size for _ in range(width)]
        for r in range(0, size, width):
            gs = w.coords[r:r + width]
            for k, row in enumerate(base.mul_rows(
                    gs[0] if base.base is None else _element(base, gs))):
                for s, d, dp in row:
                    cols[s][r + k] = (d, dp)
        for _ in range(size - width):
            cols.append(self.times_pi_pairs(cols[-width]))
        return [[(j, *col[k]) for j, col in enumerate(cols)
                 if col[k] is not None] for k in range(size)]

    def pi_rows(self):
        """The fold of x -> x * pi, built once per floor: the rows that take
        the old top part, the last width ground coordinates, width the
        base's absolute degree, to its multiple of -c_i in block i.  Row
        i * width + r is row r of the base's mul_rows of -c_i.
        """
        if self._pi_rows is None:
            self._pi_rows = [row for c in self.poly.coeffs
                             for row in self.base.mul_rows(-c)]
        return self._pi_rows

    def times_pi_pairs(self, xs):
        """x * pi on the (data, prec) pairs of x's ground coordinates, None
        for an exact zero: the parts move up one block, and one pass of
        pi_rows folds the old top back through E on top of them."""
        width = self.base.absolute_degree
        return _pair_matvec(self.pi_rows(), xs[-width:], self.ground,
                            start=[None] * width + xs[:-width])

    def div_rows(self):
        """The fold of x -> x / pi, built once per floor: pi_rows run
        backwards.

        With c_0 = pi_base c_0', u = -c_0'^-1 and q = x_0 / pi_base,
        E(pi) = 0 gives x / pi the parts x_(i+1) + c_(i+1) u q below the
        top part u q.  The rows take q to the base's mul_rows of c_i u in
        block i - 1 and of u in block n - 1, at the ground precision.
        """
        if self._div_rows is None:
            base = self.base
            u = -self.poly.coeffs[0].udiv(1).unit_inverse()
            fold = [row for c in self.poly.coeffs[1:]
                    for row in base.mul_rows(c * u)]
            self._div_rows = fold + base.mul_rows(u)
        return self._div_rows

    def udiv_pairs(self, xs, window=None):
        """x / pi on the (data, prec) pairs of x's ground coordinates, None
        for an exact zero: the low base part divided by pi_base, the other
        parts moved down one block, and one pass of div_rows folding the
        quotient back on top of them.  With a ``window`` every output's
        data is settled at the window (base.digit_expand_base)."""
        width = self.base.absolute_degree
        q = self.base.udiv_pairs(xs[:width], window)
        return _pair_matvec(self.div_rows(), q, self.ground, window,
                            start=xs[width:] + [None] * width)

    def __repr__(self):
        return "%r[pi] deg %d" % (self.base, self.degree)


class FloorElement(RingElement):
    """A floor element as its N ground scalars ``coords``, lowest first:
    coords[r] is the coefficient of the ground basis element of weight
    ``floor.weights[r]`` (see the module docstring).  The constructor
    takes x_0, ..., x_{n-1} over the base, or the ground scalars.
    """

    __slots__ = ("floor", "coords")

    def __init__(self, floor, parts):
        self.floor = floor
        self.coords = tuple(g for x in parts for g in _ground(x))

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
        return _element(self.floor,
                        [a + b for a, b in zip(self.coords, o.coords)])

    __radd__ = __add__

    def __neg__(self):
        return _element(self.floor, [-a for a in self.coords])

    def __mul__(self, other):
        if isinstance(other, int):
            return _element(self.floor, [c * other for c in self.coords])
        o = self._peer(other)
        if o is None:
            return NotImplemented
        fl = self.floor
        if fl.base.base is None:
            return _element(fl, _ground_product(
                self.coords, o.coords, 2 * fl.degree - 1, fl.ground.zero(),
                fl.poly.coeffs))
        return _element(fl, _scalars(fl.ground, _pair_matvec(
            fl.mul_rows(o), _pairs(self.coords), fl.ground)))

    __rmul__ = __mul__

    def times_pi(self):
        """self * pi by a move and a fold: the parts move up one place and
        the old top folds back through E, a_(i-1) - top * c_i.  The move
        of the ground pairs and one pass of the floor's cached pi_rows
        (floor.times_pi_pairs) give the data, precisions and exact-zero
        flags of ``self * floor.uniformizer()``.
        """
        fl = self.floor
        return _element(fl, _scalars(fl.ground,
                                     fl.times_pi_pairs(_pairs(self.coords))))

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
        size, best, pending = self.floor.absolute_degree, INFINITY, INFINITY
        for x, w in zip(self.coords, self.floor.weights):
            if x.exact_zero:
                continue
            if x.is_zero_to_precision():
                pending = min(pending, w + size * x.prec)
            else:
                best = min(best, w + size * x.valuation())
        return best, pending

    def valuation(self):
        best, pending = self._val_parts()
        if pending < best:
            raise PrecisionExhausted(
                "valuation known only to be >= %s" % pending, bound=pending)
        return best

    def has_valuation_at_least(self, k):
        best, pending = self._val_parts()
        if min(best, pending) >= k:
            return True
        if best < k:
            return False
        raise PrecisionExhausted(
            "valuation known only to be >= %s" % pending, bound=pending)

    def residue(self):
        return self.coords[0].residue()

    def udiv(self, k):
        """self / pi^k; needs valuation >= k, provably.

        Each division is times_pi run backwards (floor.udiv_pairs): the
        low base part is divided by pi_base, the other parts move down one
        place, and one pass of the floor's cached div_rows folds that
        quotient back on top of them.  The data, exact-zero flags and (but
        for exact zeros, which get the ground precision) precisions are
        those of the route of generic products y = -(x_0 / pi_base)
        c_0'^-1, then x_i + c_i y, which the tests keep as the reference.
        """
        fl, xs = self.floor, _pairs(self.coords)
        for _ in range(k):
            xs = fl.udiv_pairs(xs)
        return _element(fl, _scalars(fl.ground, xs))

    def unit_inverse(self):
        if self.residue() == 0:
            raise NotAUnit("valuation is positive")
        fl = self.floor
        w = fl.teichmuller(pow(self.residue(), -1, fl.p))
        # Newton doubles the precision of 1 - x*w each round.
        for _ in range(fl.ceiling.bit_length() + 2):
            err = 1 - self * w
            if err.is_zero_to_precision():
                # x^-1 - w = x^-1 (1 - x w): every coordinate is known to m
                m = min(c.prec for c in err.coords if not c.exact_zero)
                if m < fl.ground.prec:
                    known = BaseScalar(fl.ground, 0, m)
                    w = _element(fl, [c + known for c in w.coords])
                return w
            w = w + w * err
        raise PrecisionExhausted("inverse did not converge", bound=None)

    def __repr__(self):
        return "FloorElement(%r)" % (list(self.coords),)


def _element(floor, coords):
    """The element of ``floor`` with ground coordinates coords."""
    x = _new_object(FloorElement)
    x.floor, x.coords = floor, tuple(coords)
    return x


def _ground(x):
    """The ground coordinates of a ground scalar or a floor element."""
    return (x,) if type(x) is BaseScalar else x.coords


def carries_ground_precision(floor, elements) -> bool:
    """Whether the elements and the Eisenstein coefficients from ``floor``
    down carry the ground precision: then dividing by pi spends at most one
    ground digit, and a product loses none below the ceiling."""
    scalars = list(elements)
    while floor.base is not None:
        scalars.extend(floor.poly.coeffs)
        floor = floor.base
    return all(g.exact_zero or g.prec >= g.field.prec
               for x in scalars for g in _ground(x))


def different_exponent(floor):
    """Valuation of E'(pi) on the given floor, E its Eisenstein polynomial.

    Computed once per floor; one the ground precision leaves open is
    refused with the bound it has.
    """
    if floor._different is None:
        n, base = floor.degree, floor.base
        parts = [c * i for i, c in enumerate(floor.poly.coeffs) if i]
        derivative = FloorElement(floor, parts + [base.from_int(n)])
        try:
            floor._different = derivative.valuation()
        except PrecisionExhausted as exc:
            step = ("step %r" % floor.name if floor.name is not None else
                    "the degree-%d step over %r" % (n, base))
            raise PrecisionExhausted(
                "the different exponent of %s is not certified at ground "
                "precision %d: it is at least %s"
                % (step, floor.ground.prec, exc.bound), exc.bound) from None
    return floor._different
