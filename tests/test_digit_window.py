"""The digit expansion on a shrinking window of ground digits.

``base.digit_expand_base`` cuts every ground coordinate to the ground
digits that the digits still to come can read, and divides on division
rows cut to that window.  Its digits, and how many it finds before the
tracked digits run out, must be those of an independent loop at full
precision: the residue, the Teichmuller lift taken off by generic
subtraction, and the division by generic products (``ref_udiv1`` of
test_times_pi.py).  The floors and elements are drawn as there, with
short, zero-to-precision and exact-zero coordinates and coefficients.
"""

from __future__ import annotations

import gc
import math
import types

from hypothesis import given, reject, settings
from hypothesis import strategies as st

from ramify.base import digit_expand_base
from ramify.errors import PrecisionExhausted
from ramify.series import expand_digits

from conftest import build_double_quadratic_tower
from test_times_pi import _ref_div, elements, floors

KINDS = ("exact_zero", "zero", "digits", "short")


def reference_digits(x, count):
    """The digits by the full-precision route of generic arithmetic."""
    floor, out = x.floor, []
    try:
        for _ in range(count):
            d = x.residue()
            out.append(d)
            if d:
                x = x - floor.teichmuller(d)
            x = _ref_div(x)
    except PrecisionExhausted:
        pass
    return out


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(st.data())
def test_windowed_expansion_reads_the_digits_of_the_full_data(data):
    prec = data.draw(st.integers(3, 24))
    try:
        floor = data.draw(floors(steps=3, prec=prec, whole=KINDS[:3]))
    except PrecisionExhausted:
        reject()  # a constant term whose valuation its digits leave open
    # every kind of coordinate, or whole ones that run long before dry
    x = data.draw(elements(floor, data.draw(st.sampled_from(
        [KINDS, ("exact_zero", "digits")]))))
    n = floor.absolute_degree
    # one digit, half the digits the ground precision can carry, and far
    # more than it can, so the expansion runs dry
    for count in (1, n * prec // 2, 3 * n * prec):
        assert digit_expand_base(x, count) == reference_digits(x, count)


@settings(max_examples=30, deadline=None, database=None, derandomize=True)
@given(st.data())
def test_windowed_expansion_of_a_ground_scalar(data):
    prec = data.draw(st.integers(3, 24))
    floor = data.draw(floors(steps=1, prec=prec))
    x = data.draw(elements(floor.base, KINDS))
    for count in (1, prec // 2, 3 * prec):
        assert digit_expand_base(x, count) == reference_digits(x, count)


def test_each_floor_keeps_few_cut_division_rows():
    T = build_double_quadratic_tower(mode="equal")
    top = T.upper_floor
    P = top.ground.prec
    expand_digits(top.embed(top.ground.uniformizer()), 3 * top.ceiling, 1)
    floors = [top, top.base]
    assert any(fl._cut_rows for fl in floors)
    for fl in floors:
        # one copy per power-of-two window below the ground precision
        assert len(fl._cut_rows) <= math.ceil(math.log2(P)) + 1
        for width, rows in fl._cut_rows.items():
            assert width & (width - 1) == 0 and width < P
            assert [len(m) for m in rows] == [len(m) for m in fl.div_rows()]
            assert all(d == fl.ground._settle(d, width)
                       for m in rows for row in m for _, d, _ in row)
        # the cache hangs off the floor, and nothing else holds it
        holders = [r for r in gc.get_referrers(fl._cut_rows)
                   if not isinstance(r, types.FrameType)]
        assert holders == [fl]
