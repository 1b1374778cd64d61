from __future__ import annotations

import random
from fractions import Fraction

from ramify.plfun import Line, PLFunction


def _f(n, d=1):
    return Fraction(n, d)


def _grid():
    out = []
    for den in (1, 2, 3, 4, 8):
        for num in range(0, 65):
            out.append(Fraction(num, den))
    return sorted(set(out))


def _intercept(rng, top, dens):
    """A plain int when the drawn denominator is 1, else a Fraction."""
    num, den = rng.randrange(0, top), rng.choice(dens)
    return num if den == 1 else Fraction(num, den)


def _random_function(rng, k=4):
    lines = []
    for _ in range(k):
        slope = rng.choice([1, 2, 3, 4, 8, 9])
        lines.append(Line(_intercept(rng, 24, [1, 2, 3]), slope))
    return PLFunction(lines)


def test_tangent_line_is_pruned():
    # 2 + 2x touches min{3+x, 4x} only at their crossing, so it is dropped
    f = PLFunction([Line(_f(3), 1), Line(_f(2), 2), Line(_f(0), 4)])
    assert f.lines == (Line(_f(0), 4), Line(_f(3), 1))
    assert f(1) == 4


def test_duplicate_slopes_keep_lowest():
    f = PLFunction([Line(_f(5), 2), Line(_f(1), 2), Line(_f(3), 2)])
    assert f.lines == (Line(_f(1), 2),)


def test_call_is_min_of_lines():
    rng = random.Random(7)
    for _ in range(25):
        lines = [
            Line(_intercept(rng, 16, [1, 2, 4]), rng.choice([1, 2, 3, 4, 9]))
            for _ in range(5)
        ]
        f = PLFunction(lines)
        for x in _grid()[::7]:
            assert f(x) == min(ln.at(x) for ln in lines)


def test_min_with_pointwise():
    rng = random.Random(11)
    for _ in range(10):
        f = _random_function(rng)
        g = _random_function(rng)
        h = f.min_with(g)
        for x in _grid()[::9]:
            assert h(x) == min(f(x), g(x))


def test_compose_pointwise():
    rng = random.Random(13)
    for _ in range(10):
        f = _random_function(rng)
        g = _random_function(rng)
        h = f.compose(g)
        for x in _grid()[::9]:
            assert h(x) == f(g(x))


def test_compose_associative():
    rng = random.Random(17)
    for _ in range(8):
        f = _random_function(rng)
        g = _random_function(rng)
        h = _random_function(rng)
        assert f.compose(g).compose(h) == f.compose(g.compose(h))


def test_scale_reparametrizes_both_axes():
    f = PLFunction([Line(_f(1), 1), Line(_f(0), 2)])
    g = f.scale(3)
    for x in _grid()[::5]:
        assert g(3 * x) == 3 * f(x)
    assert f.scale(1) == f


def test_scale_fractional():
    f = PLFunction([Line(_f(2), 1), Line(_f(0), 2)])
    g = f.scale(Fraction(1, 2))
    for x in _grid()[::5]:
        assert g(x) == Fraction(1, 2) * f(2 * x)


def test_vertices_and_final_slope():
    f = PLFunction([Line(_f(3), 1), Line(_f(0), 4)])
    assert f.vertices() == [(Fraction(1), Fraction(4))]
    assert f.final_slope == 1
    assert f(0) == 0


def test_dominates_line():
    # true when the probe line sits above the function everywhere on x >= 0
    f = PLFunction([Line(_f(3), 1), Line(_f(0), 4)])
    assert f.dominates_line(Fraction(3), 2)
    assert f.dominates_line(Fraction(0), 4)
    assert not f.dominates_line(Fraction(0), 1)
    assert not f.dominates_line(Fraction(2), 1)


def test_equality_ignores_construction_order():
    a = PLFunction([Line(_f(3), 1), Line(_f(0), 4), Line(_f(2), 2)])
    b = PLFunction([Line(_f(0), 4), Line(_f(3), 1)])
    assert a == b
    assert hash(a) == hash(b)


def test_as_dict_shape():
    f = PLFunction([Line(_f(1), 1), Line(_f(0), 2)])
    d = f.as_dict()
    assert d == {"f0": [0, 1], "vertices": [[1, 1, 2, 1]], "final_slope": 1}


def test_int_and_fraction_intercepts_give_the_same_envelope():
    rng = random.Random(19)
    for _ in range(25):
        ints = [Line(rng.randrange(0, 24), rng.choice([1, 2, 3, 4, 8, 9]))
                for _ in range(5)]
        f = PLFunction(ints)
        g = PLFunction([Line(Fraction(a), s) for a, s in ints])
        assert all(type(a) is int for a, _ in f.lines)
        assert f.lines == g.lines
        assert hash(f) == hash(g)
        assert repr(f) == repr(g)
        assert f.as_dict() == g.as_dict()
        for x in _grid()[::9]:
            assert type(f(x)) is Fraction and f(x) == g(x)
        for x, y in f.vertices():
            assert type(x) is Fraction and type(y) is Fraction


def test_float_intercept_and_argument_stay_exact():
    f = PLFunction([Line(0.5, 1), Line(0, 2)])
    assert f.lines == (Line(0, 2), Line(Fraction(1, 2), 1))
    assert f(0.25) == Fraction(1, 2) and type(f(0.25)) is Fraction
    assert f(1.5) == Fraction(2) and type(f(1.5)) is Fraction
    assert f.vertices() == [(Fraction(1, 2), Fraction(1))]


def test_line_at_keeps_the_old_values_and_types():
    # x * slope + intercept, the order that keeps a Fraction x on
    # Fraction's forward operators, against intercept + slope * x
    numbers = [0, 3, 7, Fraction(0), Fraction(5, 2), Fraction(7, 3),
               Fraction(4)]
    for a in numbers:
        for s in (1, 2, 9):
            for x in numbers:
                old = a + s * x
                new = Line(a, s).at(x)
                assert new == old and type(new) is type(old), (a, s, x)
