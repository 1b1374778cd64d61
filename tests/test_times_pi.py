"""Multiplication and division by pi by a move and a fold, and the probes
built on them.

``FloorElement.times_pi`` must give what ``x * floor.uniformizer()`` gives,
``FloorElement.udiv``, one pass of the floor's cached division rows per
division, what the direct route of generic products gives (``ref_udiv1``
below), and ``series.evaluate_at_pi`` (every probe of the
oracle, the grid probe at every nilpotency, the formal composite check,
``tame``) what the generic ``series.evaluate`` gives at the same point.
Both sides are compared on every ground coordinate: data, precision and
exact-zero flag.  Random Eisenstein floors, flat and nested, of degree 1
to 3 over F_p((t)) and Q_p for p in {2, 3}, with coordinates and
coefficients cut short, add to the fixed fixtures.  On a nested floor the
product itself is one pass of rows built by times_pi's rows, so the
independent check of both is the generic-fold reference in
test_kernel_properties.py.
"""

from __future__ import annotations

import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramify.base import BaseScalar, GroundField, vp
from ramify.errors import NotDivisible, PrecisionExhausted
from ramify.extension import (EisensteinFloor, EisensteinPoly, FloorElement,
                              attach_eisenstein)
from ramify import series as series_module
from ramify.oracle import _probe
from ramify.series import DualRing, Series, evaluate, evaluate_at_pi

from conftest import CASE_BUILDERS, build_double_quadratic_tower, short_scalar

PREC = 24


@functools.cache
def ground_field(mode, p, prec=PREC):
    return GroundField(mode, p, prec)


def _scalars(x):
    """The ground scalars of a scalar, floor element or dual element."""
    if isinstance(x, BaseScalar):
        return [x]
    parts = x.coeffs if hasattr(x, "ring") else x.coords
    return [g for c in parts for g in _scalars(c)]


def ground(x):
    """(data, prec, exact_zero) of every ground coordinate, lowest first."""
    return [(g.data, g.prec, g.exact_zero) for g in _scalars(x)]


def _assemble(floor, scalars):
    """The element of ``floor`` with the given ground coordinates."""
    if floor.base is None:
        return scalars[0]
    w = floor.base.absolute_degree
    return FloorElement(floor, [_assemble(floor.base, scalars[k:k + w])
                                for k in range(0, len(scalars), w)])


@st.composite
def scalars(draw, K, kinds=("exact_zero", "digits", "short")):
    """An exact zero (at any precision, as udiv leaves one), a zero known to
    a few digits, a few digits past a valuation, or those cut short."""
    kind = draw(st.sampled_from(kinds))
    if kind == "exact_zero":
        return K.zero(draw(st.sampled_from([K.prec, 0, K.prec - 1])))
    if kind == "zero":
        return short_scalar(K.zero(), draw(st.integers(1, K.prec)))
    t = K.uniformizer()
    x = K.zero()
    v = draw(st.integers(0, 3))
    for k, d in enumerate(draw(st.lists(st.integers(0, K.p - 1),
                                        min_size=1, max_size=5))):
        x = x + K.from_int(d) * t ** (v + k)
    if kind == "short":
        x = short_scalar(x, draw(st.integers(1, K.prec)))
    return x


@st.composite
def elements(draw, floor, kinds=("exact_zero", "digits", "short")):
    K = floor.ground
    return _assemble(floor, [draw(scalars(K, kinds))
                             for _ in range(floor.absolute_degree)])


@st.composite
def eisenstein(draw, base, whole=("exact_zero", "digits")):
    """pi_base * unit, then multiples of pi_base, their parts drawn from
    the kinds ``whole``, all cut to as few as three digits or kept whole."""
    K = base.ground
    pi = base.uniformizer()
    n = draw(st.integers(1, 3))
    unit = base.from_int(draw(st.integers(1, K.p - 1)))
    coeffs = [pi * (unit + pi * draw(elements(base, whole)))]
    coeffs += [pi * draw(elements(base, whole)) for _ in range(n - 1)]
    if draw(st.booleans()):
        cut = draw(st.integers(3, K.prec))
        coeffs = [_assemble(base, [g if g.exact_zero
                                   else short_scalar(g, min(cut, g.prec))
                                   for g in _scalars(c)])
                  for c in coeffs]
    return EisensteinPoly(coeffs)


@st.composite
def floors(draw, steps=2, prec=PREC, whole=("exact_zero", "digits")):
    """A flat floor, or up to ``steps`` - 1 floors nested on a flat floor;
    degrees 1 to 3, over a ground field at precision ``prec``."""
    K = ground_field(draw(st.sampled_from(["equal", "mixed"])),
                     draw(st.sampled_from([2, 3])), prec)
    floor = attach_eisenstein(K, draw(eisenstein(K, whole)))
    for _ in range(steps - 1):
        if not draw(st.booleans()):
            break
        floor = attach_eisenstein(floor, draw(eisenstein(floor, whole)))
    return floor


@settings(max_examples=80, deadline=None, database=None, derandomize=True)
@given(st.data())
def test_times_pi_is_the_product_with_pi(data):
    floor = data.draw(floors(steps=3))
    pi = floor.uniformizer()
    fast = slow = data.draw(
        elements(floor, ("exact_zero", "zero", "digits", "short")))
    for _ in range(3):
        fast, slow = fast.times_pi(), slow * pi
        assert ground(fast) == ground(slow)


def _ref_div(x):
    return x.udiv(1) if isinstance(x, BaseScalar) else ref_udiv1(x)


def ref_udiv1(x):
    """x / pi by generic products: with E(pi) = 0 and c_0 = pi_base c_0',
    y = -(x_0 / pi_base) c_0'^-1, and part i - 1 gets x_i + c_i y.  The
    one pass of div_rows forms c_i (-c_0'^-1) first and applies it to
    x_0 / pi_base; its data, precisions and flags must still be these."""
    fl = x.floor
    base, cs, xs = fl.base, fl.poly.coeffs, x.coords
    w = base.absolute_degree
    low = xs[0] if base.base is None else FloorElement(base, xs[:w])
    y_top = -(_ref_div(low) * _ref_div(cs[0]).unit_inverse())
    return FloorElement(fl, [a + b for i in range(1, fl.degree) for a, b in
                             zip(xs[i * w:], _scalars(cs[i] * y_top))]
                        + _scalars(y_top))


def _divided(divide, x):
    try:
        return divide(x)
    except (NotDivisible, PrecisionExhausted) as exc:
        return type(exc)


def assert_same_quotient(fast, slow):
    """Data and precision of every coordinate that is not an exact zero,
    and every exact-zero flag.  An exact zero's precision is not compared:
    the row route gives the ground precision where the direct route may
    keep an operand's, and no value or flag reads it."""
    if isinstance(slow, type):
        assert fast is slow
        return
    got, want = ground(fast), ground(slow)
    assert [z for _, _, z in got] == [z for _, _, z in want]
    assert [g for g in got if not g[2]] == [g for g in want if not g[2]]


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(st.data())
def test_udiv_matches_the_direct_route(data):
    floor = data.draw(floors(steps=3))
    fast = slow = data.draw(elements(floor))
    if data.draw(st.booleans()):
        fast = slow = fast.times_pi()
    # as the digit expansion runs: divide, take off the digit, divide again,
    # until a division refuses
    for _ in range(4):
        fast = _divided(lambda x: x.udiv(1), fast)
        slow = _divided(ref_udiv1, slow)
        assert_same_quotient(fast, slow)
        if isinstance(slow, type):
            return
        if slow.coords[0].prec:  # else the residue is unknown
            lift = floor.teichmuller(slow.residue())
            fast, slow = fast - lift, slow - lift


@settings(max_examples=80, deadline=None, database=None, derandomize=True)
@given(st.data())
def test_udiv_undoes_times_pi(data):
    floor = data.draw(floors(steps=3))
    x = data.draw(elements(floor))
    assert (x.times_pi().udiv(1) - x).is_zero_to_precision()


def _reference_probe(F, floor, c, u, nil):
    pi = floor.uniformizer()
    ring = DualRing(floor, min(nil, F.offset + F.horizon))
    return evaluate(F, ring.element([pi, u * pi ** (c + 1)]))


def assert_probes_match(F, floor, cs=range(4)):
    """Every probe, and F(pi) itself, against the generic Horner route."""
    pi = floor.uniformizer()
    assert ground(evaluate_at_pi(F, floor)) == ground(evaluate(F, pi))
    p = floor.p
    for nil in sorted({1, 2, p ** (vp(F.offset, p) + 1)}):
        for c in cs:
            # u = 1 as the oracle passes it, and u = 1 + pi
            for u, unit in ((1, floor.one()), (floor.one() + pi,) * 2):
                want = _reference_probe(F, floor, c, unit, nil)
                got = _probe(F, floor, c, u, nil)
                assert ground(got) == ground(want), (nil, c, u)


@settings(max_examples=25, deadline=None, database=None, derandomize=True)
@given(st.data())
def test_probes_match_generic_evaluation_on_random_floors(data):
    floor = data.draw(floors(steps=3))
    K = floor.ground
    coeffs = data.draw(st.lists(scalars(K), min_size=1, max_size=4))
    # offset 0 is the difference series the formal-composite check evaluates
    F = Series(data.draw(st.integers(0, 4)), coeffs)
    assert_probes_match(F, floor, cs=(0, data.draw(st.integers(1, 3))))
    # any w of the floor, its coordinates short, zero or exact zeros
    pi = floor.uniformizer()
    w = data.draw(elements(floor, ("exact_zero", "zero", "digits", "short")))
    for nil in (1, 2, 3):
        want = evaluate(F, DualRing(floor, nil).element([pi, w]))
        assert ground(evaluate_at_pi(F, floor, nil, w)) == ground(want), nil


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(st.data())
def test_grid_probe_matches_generic_evaluation_at_every_nilpotency(data):
    floor = data.draw(floors(steps=3))
    coeffs = data.draw(st.lists(scalars(floor.ground), min_size=1, max_size=4))
    F = Series(data.draw(st.integers(1, 4)), coeffs)
    pi = floor.uniformizer()
    for nil in range(2, F.offset + F.horizon + 2):
        want = evaluate(F, DualRing(floor, nil).element([pi, pi]))
        assert ground(evaluate_at_pi(F, floor, nil)) == ground(want), nil


def test_grid_probe_keeps_a_binomial_that_p_divides_live(monkeypatch):
    # F = X^2 + c_2 X^4 over F_2((t)), c_2 short: the eps coefficient of
    # F(pi + pi eps), 2 pi^2 + 4 c_2 pi^4, is zero in every coordinate but,
    # as in Horner, not an exact zero
    case = CASE_BUILDERS["f2_quadratic"]()
    floor, K = case.floor, case.ground
    F = Series(2, [K.one(), K.zero(), short_scalar(K.one(), 5)])
    passes = {"power": 0, "coefficient": 0}
    kernel, times_pi_pairs = (series_module._pair_matvec,
                              EisensteinFloor.times_pi_pairs)

    def counted(*args, **kwargs):
        passes["coefficient"] += 1
        return kernel(*args, **kwargs)

    def counted_times_pi(self, xs):
        # a pass of the floor's times_pi_pairs is one step of the powers of pi
        passes["power"] += self is floor
        return times_pi_pairs(self, xs)

    monkeypatch.setattr(series_module, "_pair_matvec", counted)
    monkeypatch.setattr(EisensteinFloor, "times_pi_pairs", counted_times_pi)
    got = evaluate_at_pi(F, floor, 4)
    # pi^0 ... pi^(n+H-1) by n+H-1 passes of times_pi_pairs, then the
    # binomials and one pass per eps-degree
    assert passes == {"power": F.offset + F.horizon - 1,
                      "coefficient": 1 + 4}
    # with w given, the same powers and the size - width column passes of
    # mul_rows(w), then the binomials, one pass per eps-degree and m passes
    # of w's rows on the eps^m coefficient
    passes.update(power=0, coefficient=0)
    evaluate_at_pi(F, floor, 4, floor.one() + floor.uniformizer())
    columns = floor.absolute_degree - floor.base.absolute_degree
    assert passes == {"power": F.offset + F.horizon - 1 + columns,
                      "coefficient": 1 + 4 + 4 * 3 // 2}
    monkeypatch.undo()
    assert [(g.data, g.exact_zero) for g in got.coeffs[1].coords] == [
        (0, False), (0, False)]
    pi = floor.uniformizer()
    want = evaluate(F, DualRing(floor, 4).element([pi, pi]))
    assert ground(got) == ground(want)


@pytest.mark.parametrize("name", sorted(CASE_BUILDERS))
def test_probes_match_generic_evaluation_on_fixtures(name):
    case = CASE_BUILDERS[name]()
    assert_probes_match(case.series, case.floor)
    short = Series(case.series.offset,
                   [short_scalar(c, 5) for c in case.series.coeffs])
    assert_probes_match(short, case.floor)


@pytest.mark.parametrize("mode", ["equal", "mixed"])
def test_probes_match_generic_evaluation_on_the_readme_tower(mode):
    T = build_double_quadratic_tower(mode=mode)
    assert_probes_match(T.composed_series, T.upper_floor, cs=(0, 3))
    assert_probes_match(T.upper_series, T.upper_floor, cs=(0, 1))
    assert_probes_match(T.lower_series, T.lower_floor)
    # w from the floor below and from the ground, as generic evaluate takes it
    M, L = T.upper_floor, T.lower_floor
    pi = M.uniformizer()
    for w in (L.one() + L.uniformizer(), L.ground.uniformizer() * 3):
        for nil in (1, 2, 4):
            want = evaluate(T.composed_series,
                            DualRing(M, nil).element([pi, w]))
            got = evaluate_at_pi(T.composed_series, M, nil, w)
            assert ground(got) == ground(want), (w, nil)


def test_probes_match_on_a_short_eisenstein_polynomial():
    # X^2 + tX + t with both coefficients known to 6 digits; the series is
    # the digit series of the full-precision floor
    case = CASE_BUILDERS["f2_quadratic"]()
    K = case.ground
    t = K.uniformizer()
    short = attach_eisenstein(
        K, EisensteinPoly([short_scalar(t, 6), short_scalar(t, 6)]))
    assert_probes_match(case.series, short)
