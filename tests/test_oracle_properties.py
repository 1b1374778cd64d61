"""Property tests: the one-probe grid against the direct probe and the formula.

Random Eisenstein polynomials over F_p((t)) and Q_p, p in {2, 3}, of
degree at most 4 at precision 64, and the same series with coefficients
known to fewer digits.  The fixed fixtures and the seeded acceptance
fuzz stay; these add coverage, they do not replace it.
"""

from __future__ import annotations

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from ramify.base import GroundField
from ramify.errors import IndexUnresolved, NotSeparable, PrecisionExhausted
from ramify.extension import EisensteinPoly, attach_eisenstein
from ramify.invariants import phi
from ramify.oracle import capital_phi, phi_grid
from ramify.series import Series
from ramify.tower import expand_profile

from conftest import assert_grid_is_direct, short_scalar

CMAX = 4


def _element(K, digits):
    """sum d_k * pi^k over the ground field."""
    pi = K.uniformizer()
    out = K.zero()
    for k, d in enumerate(digits):
        out = out + K.from_int(d) * pi ** k
    return out


@st.composite
def eisenstein_floors(draw):
    p = draw(st.sampled_from([2, 3]))
    K = GroundField(draw(st.sampled_from(["equal", "mixed"])), p, 64)
    n = draw(st.integers(1, 4))
    digit = st.integers(0, p - 1)
    # c_0 = pi * unit; the other coefficients are multiples of pi
    c0 = [0, draw(st.integers(1, p - 1))] + draw(st.lists(digit, max_size=2))
    rest = [[0] + draw(st.lists(digit, max_size=3)) for _ in range(n - 1)]
    coeffs = [_element(K, c0)] + [_element(K, ds) for ds in rest]
    return attach_eisenstein(K, EisensteinPoly(coeffs))


@settings(max_examples=15, deadline=None, database=None, derandomize=True,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(eisenstein_floors())
def test_grid_equals_direct_probe_and_formula(floor):
    try:
        series, profile = expand_profile(floor, floor.base, cmax=CMAX)
    except (NotSeparable, IndexUnresolved, PrecisionExhausted):
        assume(False)
    grid = phi_grid(series, floor, CMAX)
    for j in range(profile.nu + 1):
        fun = phi(profile, j)
        for c in range(CMAX + 1):
            direct = capital_phi(series, floor, c, j)
            assert grid[j][c] == direct == fun(c), (j, c)


@settings(max_examples=15, deadline=None, database=None, derandomize=True,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(eisenstein_floors(), st.integers(1, 8))
def test_grid_equals_direct_probe_on_short_coefficients(floor, digits):
    try:
        series, profile = expand_profile(floor, floor.base, cmax=CMAX)
    except (NotSeparable, IndexUnresolved, PrecisionExhausted):
        assume(False)
    short = Series(series.offset, [short_scalar(c, digits)
                                   for c in series.coeffs])
    assert_grid_is_direct(short, floor, profile.nu, CMAX)
