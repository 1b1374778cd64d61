"""The digit expansion on a shrinking window of ground digits.

``base.digit_expand_base`` carries only the ground digits that the digits
still to come can read: each division by pi is one pass of the floor's
cached division rows, which settles every ground coordinate at that
window.  Its digits, and how many it finds before the tracked digits run
out, must be those of an independent loop at full precision: the
residue, the Teichmuller lift taken off by generic subtraction, and the
division by generic products (``ref_udiv1`` of test_times_pi.py).  The floors and elements are drawn as there, with
short, zero-to-precision and exact-zero coordinates and coefficients.
"""

from __future__ import annotations

from hypothesis import given, reject, settings
from hypothesis import strategies as st

from ramify.base import digit_expand_base
from ramify.errors import PrecisionExhausted

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

