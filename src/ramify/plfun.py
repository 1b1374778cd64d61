"""Lower envelopes of lines a + s*x on [0, oo), with exact rational values.

Every function here is a finite min of lines whose intercepts are
nonnegative rationals and whose slopes are positive integers, so the
envelope is concave, nondecreasing and piecewise linear.  The canonical
form keeps exactly the lines that realize the minimum on an interval of
positive length, ordered by decreasing slope; lines touching the
envelope at a single point are discarded.  Two envelopes are equal as
functions iff their canonical line tuples coincide.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple


class Line(NamedTuple):
    intercept: int | Fraction
    slope: int

    def at(self, x):
        # x first: a Fraction x keeps to Fraction's forward operators
        return x * self.slope + self.intercept


class PLFunction:
    """Canonical lower envelope of finitely many lines."""

    __slots__ = ("lines",)

    def __init__(self, lines):
        self.lines = _canonical(lines)

    def __call__(self, x) -> Fraction:
        x = Fraction(x)
        return min(ln.at(x) for ln in self.lines)

    def min_with(self, other: "PLFunction") -> "PLFunction":
        return PLFunction(self.lines + other.lines)

    def compose(self, inner: "PLFunction") -> "PLFunction":
        """self o inner, valid because both envelopes are concave increasing."""
        return PLFunction(
            [
                Line(a + s * b, s * r)
                for a, s in self.lines
                for b, r in inner.lines
            ]
        )

    def scale(self, m) -> "PLFunction":
        """x -> m * self(x / m) for a positive rational m; slopes are kept."""
        if m <= 0:
            raise ValueError("scale factor must be positive")
        return PLFunction([Line(m * a, s) for a, s in self.lines])

    def vertices(self):
        """Breakpoints (x, y) where the active line changes, left to right."""
        out = []
        for k in range(len(self.lines) - 1):
            a, b = self.lines[k], self.lines[k + 1]
            x = Fraction(b.intercept - a.intercept, a.slope - b.slope)
            out.append((x, a.at(x)))
        return out

    @property
    def final_slope(self) -> int:
        return self.lines[-1].slope

    def dominates_line(self, intercept, slope) -> bool:
        """True if intercept + slope*x >= self(x) for every x >= 0: then
        adding the line leaves the canonical envelope as it is."""
        return self.min_with(PLFunction([Line(intercept, slope)])) == self

    def as_dict(self):
        f0 = self(0)
        return {
            "f0": [f0.numerator, f0.denominator],
            "vertices": [
                [x.numerator, x.denominator, y.numerator, y.denominator]
                for x, y in self.vertices()
            ],
            "final_slope": self.final_slope,
        }

    def __eq__(self, other):
        if not isinstance(other, PLFunction):
            return NotImplemented
        return self.lines == other.lines

    def __hash__(self):
        return hash(self.lines)

    def __repr__(self):
        return "min{%s}" % ", ".join(
            "%s + %dx" % (a, s) for a, s in self.lines
        )


def _canonical(lines):
    cleaned = {}
    for ln in lines:
        a, s = ln[0], int(ln[1])
        if not isinstance(a, (int, Fraction)):
            a = Fraction(a)
        if s <= 0:
            raise ValueError("slopes must be positive integers")
        if a < 0:
            raise ValueError("intercepts must be nonnegative")
        if s not in cleaned or a < cleaned[s]:
            cleaned[s] = a
    if not cleaned:
        raise ValueError("an envelope needs at least one line")
    # Sweep by decreasing slope; each kept line becomes active where it
    # first undercuts the current envelope.  A crossing at or before the
    # top line's own start means the top line never wins on an interval.
    order = sorted(cleaned.items(), key=lambda kv: -kv[0])
    hull = []
    starts = []
    for s, a in order:
        while hull:
            top = hull[-1]
            start = Fraction(a - top.intercept, top.slope - s)
            if start > starts[-1]:
                break
            hull.pop()
            starts.pop()
        else:
            start = 0
        hull.append(Line(a, s))
        starts.append(start)
    return tuple(hull)
