"""The perturbation series and the envelopes read off it.

fstar divides the perturbation coefficients by pi^n; the reference
ref_fstar divides them by F(pi) = u * pi^n, through the inverse of u.
The two differ by the unit 1/u alone, so wherever the reference's
envelopes answer, fstar's answer too and are the same, on the fixtures
and on random Eisenstein floors, flat and nested, with coefficients and
coordinates cut short.
"""

from __future__ import annotations

from fractions import Fraction

from hypothesis import given, reject, settings
from hypothesis import strategies as st

from ramify.base import vp
from ramify.copolygon import VK, VL, fstar, truncated_psi, valuation_function
from ramify.errors import PrecisionRefusal
from ramify.invariants import phi
from ramify.plfun import Line, PLFunction
from ramify.series import expand_digits

from conftest import CASE_BUILDERS
from reference import alternate_series, ref_fstar
from test_times_pi import floors


def test_twisted_coefficient_valuations_f2_quadratic(f2_quadratic):
    es = fstar(f2_quadratic.series, f2_quadratic.floor)
    vals = [es.coeff(i).valuation() for i in (1, 2, 3)]
    assert vals == [1, 0, 1]


def test_default_order(f2_quadratic):
    es = fstar(f2_quadratic.series, f2_quadratic.floor)
    # p^(nu+1) - 1 coefficients suffice for every truncation level
    assert es.order == 3


def test_truncated_envelope_equals_break_function(extension_case):
    case = extension_case
    es = fstar(case.series, case.floor)
    for j in range(case.profile.nu + 1):
        assert truncated_psi(es, j) == phi(case.profile, j)


def test_ground_normalization_rescales(extension_case):
    case = extension_case
    es = fstar(case.series, case.floor)
    got = valuation_function(es, VK)
    n = case.profile.n
    assert got == phi(case.profile, case.profile.nu).scale(Fraction(1, n))


def test_full_envelope_is_top_truncation(f2_quadratic):
    es = fstar(f2_quadratic.series, f2_quadratic.floor)
    assert valuation_function(es, VL) == truncated_psi(es, 1)


def test_envelope_objective_values_q2_sqrt2(q2_sqrt2):
    es = fstar(q2_sqrt2.series, q2_sqrt2.floor)
    assert truncated_psi(es, 1) == PLFunction(
        [Line(Fraction(2), 1), Line(Fraction(0), 2)])


def test_series_choice_invariance(f2_quadratic):
    F, L = f2_quadratic.series, f2_quadratic.floor
    alt = alternate_series(F, L.poly)
    a = fstar(F, L)
    b = fstar(alt, L)
    for j in (0, 1):
        assert truncated_psi(a, j) == truncated_psi(b, j)


def _envelopes(route, F, floor):
    """valuation_function in both norms and truncated_psi at each j, read
    off route(F, floor); None for each reading that refuses."""
    readings = [lambda es: valuation_function(es, VK),
                lambda es: valuation_function(es, VL)]
    readings += [lambda es, j=j: truncated_psi(es, j)
                 for j in range(vp(F.offset, floor.p) + 1)]
    try:
        es = route(F, floor)
    except PrecisionRefusal:
        return [None] * len(readings)
    out = []
    for read in readings:
        try:
            out.append(read(es))
        except PrecisionRefusal:
            out.append(None)
    return out


@settings(max_examples=120, deadline=None, database=None, derandomize=True)
@given(st.data())
def test_fstar_answers_wherever_the_unit_route_does(data):
    prec = data.draw(st.integers(3, 24))
    try:
        if data.draw(st.booleans()):
            build = CASE_BUILDERS[data.draw(st.sampled_from(
                sorted(CASE_BUILDERS)))]
            floor = build(prec=prec, horizon=1).floor
        else:
            floor = data.draw(floors(prec=prec,
                                     whole=("exact_zero", "digits", "short")))
        target = floor.embed(floor.base.uniformizer())
        F = expand_digits(target, data.draw(st.integers(1, 12)), need=1)
    except PrecisionRefusal:
        reject()  # not one digit past the valuation is tracked
    want = _envelopes(ref_fstar, F, floor)
    got = _envelopes(fstar, F, floor)
    assert [g for g, w in zip(got, want) if w is not None] == \
        [w for w in want if w is not None]
