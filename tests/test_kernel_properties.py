"""Property tests: the raw-integer product kernel against BaseScalar arithmetic.

The reference below is the generic route the kernel replaces for ground
scalars: the schoolbook product and the Eisenstein fold written with
BaseScalar ``+``, ``-`` and ``*``, one scalar per term.  Both sides must
agree on the data, the precision and the exact-zero flag of every output.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramify import base
from ramify.base import BaseScalar, GroundField, _is_prime
from ramify.extension import (
    EisensteinFloor,
    EisensteinPoly,
    FloorElement,
    attach_eisenstein,
)
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
    got = FloorElement(L, a) * FloorElement(L, b)
    want = ref_fold(ref_convolve(a, b, 2 * len(cs) - 1, K.zero()), cs)
    assert raw(got.coords) == raw(want)


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


def test_nested_floor_product_folds_generically(monkeypatch):
    """Only the flat floor's products reach the kernel; the upper floor
    folds over its FloorElement coordinates."""
    K = GroundField.mixed_char(3, 12)
    t = K.uniformizer()
    L = attach_eisenstein(K, EisensteinPoly([t, t]))
    pi = L.uniformizer()
    M = attach_eisenstein(L, EisensteinPoly([pi, pi, pi]))
    folds = []
    kernel = base._ground_product

    def spy(a, b, out_len, zero, fold):
        folds.append(fold)
        return kernel(a, b, out_len, zero, fold)

    monkeypatch.setattr(base, "_ground_product", spy)
    x = M.uniformizer() + M.one()
    y = x * x
    assert folds and all(fold is L.poly.coeffs for fold in folds)
    assert y == x * M.uniformizer() + x
