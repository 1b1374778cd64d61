"""Lower envelopes of lines a + s*x on [0, oo), with exact rational values.

Every function here is a finite min of lines whose intercepts are
nonnegative rationals and whose slopes are positive integers, so the
envelope is concave, nondecreasing and piecewise linear.  The canonical
form keeps exactly the lines that realize the minimum on an interval of
positive length, ordered by decreasing slope; lines touching the
envelope at a single point are discarded.  Two envelopes are equal as
functions iff their canonical line tuples coincide.

Values and vertices are exact Fractions, computed on integers: beside
its lines an envelope holds their intercepts as numerators A_k over one
common denominator D, which is 1 when every intercept is an int.  At
x = a/b the value is min(A_k*b + s_k*D*a) / (D*b), one Fraction per
answer, and the crossings the canonical sweep and vertices() need are
compared and formed by cross-multiplication.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple


class Line(NamedTuple):
    intercept: int | Fraction
    slope: int


class PLFunction:
    """Canonical lower envelope of finitely many lines."""

    __slots__ = ("lines", "_den", "_terms")

    def __init__(self, lines):
        # _terms: (A_k, s_k) of each line, A_k / _den its intercept
        self.lines, self._den, self._terms = _canonical(lines)

    def __call__(self, x) -> Fraction:
        x = Fraction(x)
        b = x.denominator
        Da = self._den * x.numerator
        return Fraction(min(A * b + s * Da for A, s in self._terms),
                        self._den * b)

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
        """Breakpoints (x, y) where the active line changes, left to right.

        Lines k and k+1 cross at x = (A_(k+1) - A_k) / (D*(s_k - s_(k+1))),
        where y = (s_k*A_(k+1) - s_(k+1)*A_k) / (D*(s_k - s_(k+1))).
        """
        out = []
        for (A, s), (B, r) in zip(self._terms, self._terms[1:]):
            den = self._den * (s - r)
            out.append((Fraction(B - A, den), Fraction(s * B - r * A, den)))
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
    # On numerators A over the common denominator D, the line (A, s)
    # crosses the top line (At, st) at (A - At) / (D*(st - s)); starts
    # hold (A - At, st - s) and compare by cross-multiplication, as D > 0
    # cancels.
    order = sorted(cleaned.items(), reverse=True)
    D = math.lcm(*[a.denominator for _, a in order])
    hull, terms, starts = [], [], []
    for s, a in order:
        A = a.numerator * (D // a.denominator)
        while terms:
            At, st = terms[-1]
            num, den = A - At, st - s
            prev_num, prev_den = starts[-1]
            if num * prev_den > prev_num * den:
                break
            hull.pop()
            terms.pop()
            starts.pop()
        else:
            num, den = 0, 1
        hull.append(Line(a, s))
        terms.append((A, s))
        starts.append((num, den))
    return tuple(hull), D, tuple(terms)
