"""Property: a sweep answers as at precision 64, or names a precision that does.

Random Eisenstein steps of degree 1-3 over F_p((t)) and Q_p, p in {2, 3},
flat over the ground or nested over a random lower step, with dense or
sparse coefficients.  Every digit sits below t^3 (or p^3), so each job
precision from 3 up decodes the same polynomials, at full precision.  At
precisions 3-12, cli.swept_profile either returns the profile it returns
at 64, or refuses and names a job precision at which it returns it.
"""

from __future__ import annotations

import re

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ramify.base import GroundField
from ramify.cli import swept_profile
from ramify.errors import NotSeparable, PrecisionExhausted
from ramify.extension import EisensteinPoly, attach_eisenstein


def _ground_element(K, digits):
    """sum d_k * pi^k; all-zero digits give the exact zero."""
    pi = K.uniformizer()
    out = K.zero()
    for k, d in enumerate(digits):
        out = out + K.from_int(d) * pi ** k
    return out


def _element(floor, data):
    """A ground digit list, or coordinates over floor.base for a floor."""
    if isinstance(floor, GroundField):
        return _ground_element(floor, data)
    pi = floor.uniformizer()
    out = floor.zero()
    for i, coord in enumerate(data):
        out = out + floor.embed(_element(floor.base, coord)) * pi ** i
    return out


@st.composite
def _step(draw, p, degree, base_degree, dense):
    """Coefficient data of an Eisenstein polynomial of the given degree
    over a floor of base_degree over the ground (0: the ground itself)."""
    digit = st.integers(0, p - 1)
    if not dense:
        digit = st.one_of(st.just(0), st.just(0), digit)
    unit = st.integers(1, p - 1)

    def coefficient(constant):
        # valuation exactly 1 for the constant term, at least 1 otherwise;
        # a ground element is its digits at t^0, t^1, t^2
        second = draw(unit) if constant and base_degree <= 1 else draw(digit)
        low = [0, second, draw(digit)]
        if base_degree == 0:
            return low
        return [low] + [[draw(unit) if constant and i == 1 else draw(digit),
                         draw(digit), draw(digit)]
                        for i in range(1, base_degree)]

    return [coefficient(i == 0) for i in range(degree)]


@st.composite
def towers(draw):
    p = draw(st.sampled_from([2, 3]))
    mode = draw(st.sampled_from(["equal", "mixed"]))
    dense = draw(st.booleans())
    n = draw(st.integers(1, 3))
    steps = [draw(_step(p, n, 0, dense))]
    if draw(st.booleans()):
        steps.append(draw(_step(p, draw(st.integers(1, 3)), n, dense)))
    return p, mode, steps


def _floors(tower, precision):
    p, mode, steps = tower
    floors = [GroundField(mode, p, precision)]
    for data in steps:
        base = floors[-1]
        poly = EisensteinPoly([_element(base, c) for c in data])
        floors.append(attach_eisenstein(base, poly))
    return floors


def _pairs(floors):
    """(top, base) for each step, and the composite when there are two."""
    out = [(floors[k + 1], floors[k]) for k in range(len(floors) - 1)]
    if len(floors) == 3:
        out.append((floors[2], floors[0]))
    return out


def _answer(tower, precision, pair, cmax):
    """The swept profile, or the job precision the refusal names."""
    top, base = _pairs(_floors(tower, precision))[pair]
    try:
        return swept_profile(top, base, cmax)[1]
    except PrecisionExhausted as exc:
        named = re.search(r"they fit from job precision (\d+) on$", str(exc))
        assert named, (precision, str(exc))
        enough = int(named.group(1))
        assert enough > precision
        return enough


def _answered(tower, precision, pair, cmax):
    """The swept profile at precision, or at the precision it names."""
    got = _answer(tower, precision, pair, cmax)
    if isinstance(got, int):
        got = _answer(tower, got, pair, cmax)
        assert not isinstance(got, int), (precision, got)
    return got


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(towers(), st.sampled_from([0, 2]))
def test_sweep_answers_or_names_a_precision_that_does(tower, cmax):
    outcomes = []
    for pair in range(len(tower[2]) * 2 - 1):
        try:
            want = _answered(tower, 64, pair, cmax)
        except NotSeparable:
            continue
        for precision in range(3, 13):
            assert _answered(tower, precision, pair, cmax) == want, \
                (pair, precision)
        outcomes.append(pair)
    assume(outcomes)
