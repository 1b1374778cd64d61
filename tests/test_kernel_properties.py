"""Property tests: the raw-integer product kernel against BaseScalar arithmetic.

The reference below is the generic route the kernel replaces for ground
scalars: the schoolbook product and the Eisenstein fold written with
BaseScalar ``+``, ``-`` and ``*``, one scalar per term.  On a floor over
another floor the same route over base-floor parts, down to the ground,
is the reference for the product as one pass of rows (mul_rows, built by
a move and a fold).  Both sides must agree on the data, the precision and
the exact-zero flag of every output.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramify.base import (BaseScalar, GroundField, _is_prime, _pair_matvec,
                         _pairs, _scalars)
from ramify.extension import EisensteinFloor, EisensteinPoly, FloorElement
from ramify.series import DualRing

TOP = 24
FIELDS = {(mode, p): GroundField(mode, p, TOP)
          for mode in ("equal", "mixed") for p in (2, 3, 5, 7)}


def ref_convolve(a, b, out_len, zero):
    buf = [zero] * out_len
    for i, ai in enumerate(a[:out_len]):
        if ai.exact_zero:
            continue
        for j, bj in enumerate(b[: out_len - i]):
            if bj.exact_zero:
                continue
            buf[i + j] = buf[i + j] + ai * bj
    return buf


def ref_fold(buf, cs):
    """buf reduced mod X^n + c_{n-1} X^(n-1) + ... + c_0, top down."""
    n = len(cs)
    for k in range(len(buf) - 1, n - 1, -1):
        top = buf[k]
        if top.exact_zero:
            continue
        for i in range(n):
            buf[k - n + i] = buf[k - n + i] - top * cs[i]
    return buf[:n]


def raw(coords):
    return [(c.data, c.prec, c.exact_zero) for c in coords]


@st.composite
def scalars(draw, K):
    """Digits, a high valuation, a zero known only to precision, or an
    exact zero, at any precision up to the field's."""
    prec = draw(st.integers(0, K.prec))
    kind = draw(st.sampled_from(["digits", "deep", "zero", "exact_zero"]))
    digits = [0] * prec
    if kind in ("digits", "deep"):
        digits = draw(st.lists(st.integers(0, K.p - 1), min_size=prec,
                               max_size=prec))
    if kind == "deep":
        v = draw(st.integers(0, prec))
        digits = [0] * v + digits[v:]
    if K.mode == "equal":
        data = tuple(digits)
    else:
        data = sum(d * K.p ** k for k, d in enumerate(digits))
    return BaseScalar(K, data, prec, kind == "exact_zero")


@st.composite
def flat_products(draw):
    K = FIELDS[draw(st.sampled_from(sorted(FIELDS)))]
    n = draw(st.integers(1, 4))
    vectors = st.lists(scalars(K), min_size=n, max_size=n)
    return K, draw(vectors), draw(vectors), draw(vectors)


@st.composite
def dual_products(draw):
    K = FIELDS[draw(st.sampled_from(sorted(FIELDS)))]
    nil = draw(st.integers(1, 8))
    series = st.lists(scalars(K), max_size=nil)
    return K, nil, draw(series), draw(series)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(flat_products())
def test_flat_floor_product_matches_the_scalar_route(case):
    K, a, b, cs = case
    # the kernel does not need an Eisenstein fold, so any monic one is drawn
    L = EisensteinFloor(K, EisensteinPoly(cs))
    x, y = FloorElement(L, a), FloorElement(L, b)
    want = raw(ref_fold(ref_convolve(a, b, 2 * len(cs) - 1, K.zero()), cs))
    assert raw((x * y).coords) == want
    # the rows every probe applies, built by a move and a fold
    rows = _pair_matvec(L.mul_rows(y), _pairs(x.coords), K)
    assert raw(_scalars(K, rows)) == want


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(dual_products())
def test_ground_dual_product_matches_the_scalar_route(case):
    K, nil, a, b = case
    R = DualRing(K, nil)
    x, y = R.element(a), R.element(b)
    assert raw((x * y).coeffs) == raw(ref_convolve(x.coeffs, y.coeffs, nil,
                                                   K.zero()))


@pytest.mark.parametrize("p, top", [(3, 16383), (5, 4095)])
def test_largest_precision_product_through_a_cubic_fold(p, top):
    """The top kept slot of each product sits at its bound, so a sum of two
    raw products would overflow it: the budget is one product."""
    K = GroundField.equal_char(p, top)
    assert K._budget == 1
    full = BaseScalar(K, (p - 1,) * top, top)
    cs = (full,) * 3
    L = EisensteinFloor(K, EisensteinPoly(cs))
    got = FloorElement(L, cs) * FloorElement(L, cs)
    assert raw(got.coords) == raw(ref_fold(ref_convolve(cs, cs, 5, K.zero()),
                                           cs))


def test_budget_allows_one_product_at_every_largest_precision():
    for p in range(3, 257):
        if _is_prime(p):
            top = ((1 << 16) - 1) // (p - 1) ** 2
            assert GroundField.equal_char(p, top)._budget >= 1


class Ref:
    """A floor element as its parts x_0, ..., x_{n-1} over the base, with
    sums and differences part by part and products by ref_convolve and
    ref_fold over the base's own Ref products, down to BaseScalar
    arithmetic on the ground."""

    def __init__(self, floor, parts):
        self.floor, self.parts = floor, list(parts)

    @property
    def exact_zero(self):
        return all(x.exact_zero for x in self.parts)

    def __add__(self, other):
        return Ref(self.floor, [a + b for a, b in zip(self.parts, other.parts)])

    def __neg__(self):
        return Ref(self.floor, [-a for a in self.parts])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        fl = self.floor
        zero = ref(fl.base, [fl.ground.zero()] * fl.base.absolute_degree)
        cs = [ref(fl.base, _ground(c)) for c in fl.poly.coeffs]
        return Ref(fl, ref_fold(ref_convolve(self.parts, other.parts,
                                             2 * fl.degree - 1, zero), cs))


def _ground(x):
    return [x] if isinstance(x, BaseScalar) else list(x.coords)


def ref(floor, gs):
    """The Ref (or ground scalar) with ground coordinates gs."""
    if floor.base is None:
        return gs[0]
    w = floor.base.absolute_degree
    return Ref(floor, [ref(floor.base, gs[k:k + w])
                       for k in range(0, len(gs), w)])


def flatten(x):
    return [x] if isinstance(x, BaseScalar) else [
        g for part in x.parts for g in flatten(part)]


def from_parts(floor, gs):
    """FloorElement(floor, parts) with the parts built the same way, or the
    ground scalar."""
    if floor.base is None:
        return gs[0]
    w = floor.base.absolute_degree
    return FloorElement(floor, [from_parts(floor.base, gs[k:k + w])
                                for k in range(0, len(gs), w)])


@st.composite
def nested_products(draw):
    """Two or three floors over F_p((t)) or Q_p, p in {2, 3}, each with an
    arbitrary monic fold, and two elements of the top one."""
    K = FIELDS[draw(st.sampled_from(["equal", "mixed"])),
               draw(st.sampled_from([2, 3]))]
    def vector(floor):
        size = floor.absolute_degree
        return draw(st.lists(scalars(K), min_size=size, max_size=size))

    floor = K
    for top in draw(st.sampled_from([(3, 2), (2, 2, 2), (3, 1, 2)])):
        cs = [from_parts(floor, vector(floor))
              for _ in range(draw(st.integers(1, top)))]
        floor = EisensteinFloor(floor, EisensteinPoly(cs))
    return floor, vector(floor), vector(floor)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(nested_products())
def test_nested_floor_product_matches_the_generic_fold(case):
    """One pass of the rows of x -> x * y, built by a move and a fold, against
    the schoolbook product and the top-down Eisenstein fold over
    base-floor parts."""
    floor, a, b = case
    x, y = FloorElement(floor, a), FloorElement(floor, b)
    assert raw(from_parts(floor, a).coords) == raw(x.coords) == raw(a)
    want = flatten(ref(floor, a) * ref(floor, b))
    assert raw((x * y).coords) == raw(want)
