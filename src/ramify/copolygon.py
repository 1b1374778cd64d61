"""Perturbation series and their Newton copolygons.

Feeding pi*(1+eps) into the digit series and dividing by the image of
the base uniformizer gives the perturbation series sum c_i eps^i with
integral coefficients on the floor.  The lower envelope of the lines
v(c_i) + i*x is the valuation function; truncated at eps-degree below
p^(j+1) and read with the floor's own valuation it reproduces the j-th
break function, and read with the base normalization v/n it reproduces
the full envelope shrunk by 1/n.

Coefficients are kept as floor elements rather than bare valuations so
that unit factors and the choice of series can be probed in tests.  A
coefficient that is zero to working precision contributes a line only
if that line could matter: if its certified bound already clears the
envelope everywhere it is dropped, otherwise PrecisionExhausted.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import PrecisionExhausted
from .oracle import _field_probe
from .plfun import Line, PLFunction

VK = "vK"
VL = "vL"


class EpsilonSeries:
    """c_1 .. c_I of the perturbation expansion, over a fixed floor."""

    __slots__ = ("floor", "n", "coeffs")

    def __init__(self, floor, n, coeffs):
        self.floor = floor
        self.n = n
        self.coeffs = tuple(coeffs)

    @property
    def order(self):
        return len(self.coeffs)

    def coeff(self, i):
        """1-based: the coefficient of eps^i."""
        return self.coeffs[i - 1]

    def __repr__(self):
        return "EpsilonSeries(n=%d, order=%d)" % (self.n, self.order)


def fstar(F, floor) -> EpsilonSeries:
    """Expansion of (image of base uniformizer)^(-1) * (F(pi(1+eps)) - F(pi)).

    It runs to eps-degree p^(nu+1) - 1, where p^nu is the p-part of n, or
    to F's own eps-degree offset + horizon - 1 when that is lower.
    """
    n = F.offset
    w = _field_probe(F, floor)
    target = w.coeffs[0]
    if target.valuation() != n:
        raise PrecisionExhausted("series does not carry valuation %d" % n)
    unit_inv = target.udiv(n).unit_inverse()
    cs = [(c * unit_inv).udiv(n) for c in w.coeffs[1:]]
    return EpsilonSeries(floor, n, cs)


def valuation_function(es: EpsilonSeries, norm=VL, max_degree=None) -> PLFunction:
    """Lower envelope of v(c_i) + i*x over the kept eps-degrees."""
    if norm not in (VK, VL):
        raise ValueError("norm must be VK or VL")
    top = es.order if max_degree is None else min(es.order, max_degree)
    lines = []
    pending = []
    for i in range(1, top + 1):
        c = es.coeff(i)
        if c.exact_zero:
            continue
        try:
            v = c.valuation()
        except PrecisionExhausted as exc:
            pending.append((exc.bound, i))
            continue
        lines.append(Line(Fraction(v, es.n) if norm == VK else v, i))
    if not lines:
        raise PrecisionExhausted("no coefficient valuation certifiable")
    env = PLFunction(lines)
    for bound, i in pending:
        a = Fraction(bound, es.n) if norm == VK else bound
        # the true line sits at or above the bound; dominated bounds are safe
        if not env.dominates_line(a, i):
            raise PrecisionExhausted(
                "coefficient %d resolved only to valuation >= %s" % (i, bound),
                bound=bound,
            )
    return env


def truncated_psi(es: EpsilonSeries, j: int) -> PLFunction:
    """Valuation function of the truncation at eps-degree < p^(j+1), floor norm."""
    p = es.floor.p
    return valuation_function(es, VL, max_degree=p ** (j + 1) - 1)
