"""Dual-number oracle for the break functions.

The probe ring is floor[eps] with eps nilpotent: order p^(j+1) for the
full flavor, p^j + 1 for the reduced one.  It is the truncated
power-series ring DualRing of ramify.series.
Evaluating the digit series at pi + u*pi^(c+1)*eps and asking how deep
the result stays congruent to its eps-free part measures the j-th break
function at c without ever touching the index recursion, which is what
makes it a trustworthy cross-check.

Truncating the series at horizon H perturbs every eps coefficient only
at valuation n+H or deeper, so congruences mod pi^(n+d) are decided
faithfully for d <= H; beyond that the oracle refuses rather than
guesses.

The eps^m coefficient of F(pi + u*pi^(c+1)*eps) is
(D^m F)(pi) * u^m * pi^(m(c+1)), with D^m F the m-th divided series, so
its valuation is that of the c = 0 coefficient plus m*c.  One probe at
c = 0 with nilpotency p^(nu+1) therefore holds every row:

    Phi_j(c) = min over 1 <= m < p^(j+1) of v(w_m) + m*c - n.

phi_grid reads a field's rows that way; capital_phi probes one (j, c)
directly and stays the reference it is tested against.

Every probe runs series.evaluate_at_pi, which multiplies by pi by shift
and fold (the floor's rows that FloorElement.times_pi applies) and
forms no generic floor product.  The grid probe, at c = 0 and u = 1,
reads each eps-coefficient off the powers of pi in one pass; a probe at
any other c or u runs Horner steps.  The generic series.evaluate stays
the reference route of both, and the tests compare them bit for bit.
"""

from __future__ import annotations

from .base import INFINITY, vp
from .errors import PrecisionExhausted, TheoremViolation
from .extension import carries_ground_precision
# bench/spans.py counts DualElement's ring operations through this module,
# so it stays imported here though no routine below names it
from .series import DualElement, evaluate_at_pi  # noqa: F401

FULL = "full"
REDUCED = "reduced"


def nilpotency(p: int, j: int, flavor: str) -> int:
    if flavor == FULL:
        return p ** (j + 1)
    if flavor == REDUCED:
        return p ** j + 1
    raise ValueError("flavor must be %r or %r" % (FULL, REDUCED))


def _probe(F, floor, c, u, nil):
    """F(pi + u pi^(c+1) eps) in the dual ring of the given nilpotency.

    F has eps-degree below offset + horizon there, so the ring stops at
    that degree when nil is larger: every coefficient past it is zero.
    """
    grid = c == 0 and isinstance(u, int) and u == 1
    if isinstance(u, int):
        u = floor.from_int(u)
    else:
        u = floor.embed(u)
    if u.residue() == 0:
        raise ValueError("u must be a unit")
    w = None  # pi: the grid probe, read off the powers of pi
    if not grid:
        w = u
        for _ in range(c + 1):
            w = w.times_pi()
    return evaluate_at_pi(F, floor, min(nil, F.offset + F.horizon), w)


def _field_probe(F, floor):
    """The probe at c = 0 and u = 1, nilpotency p^(nu+1) for nu = v_p(offset)."""
    p = floor.p
    return _probe(F, floor, 0, 1, p ** (vp(F.offset, p) + 1))


def _congruent(w, n, d) -> bool:
    # eps-free parts agree by construction; only i >= 1 coefficients matter
    return all(x.has_valuation_at_least(n + d) for x in w.coeffs[1:])


def capital_phi(F, floor, c, j, flavor=FULL, u=1) -> int:
    """Largest d for which the perturbed congruence holds, searched upward from c."""
    w = _probe(F, floor, c, u, nilpotency(floor.p, j, flavor))
    n = F.offset
    d = c
    if not _congruent(w, n, d):
        raise TheoremViolation("congruence fails already at d = c = %d" % c)
    while True:
        if d + 1 > F.horizon:
            raise PrecisionExhausted(
                "congruence still holds at the horizon cap d = %d" % d
            )
        if not _congruent(w, n, d + 1):
            return d
        d += 1


def phi_grid(F, floor, cmax):
    """capital_phi(F, floor, c, j) for j <= nu and c <= cmax, as grid[j][c].

    nu = v_p(n) for F's offset n.  Every row is read off one probe at
    c = 0 by the valuation shift m*c.  That is exact when F and the
    floors carry full precision: every digit is then known below the
    ceiling, and a coefficient known only to a bound has it at or above
    the ceiling.  A row goes to capital_phi itself, so it returns or
    raises exactly as the direct probe would, when the minimum lies
    below c (the congruence fails at d = c) or reaches the horizon or
    the floor's ceiling.  When F or a floor carries fewer digits, the
    probes at different c lose different digits, and every row goes
    to capital_phi.
    """
    p, n = floor.p, F.offset
    nu = vp(n, p)
    if not carries_ground_precision(floor, F.coeffs):
        return [[capital_phi(F, floor, c, j) for c in range(cmax + 1)]
                for j in range(nu + 1)]
    w = _field_probe(F, floor)
    lines = []
    for m in range(1, w.ring.nil):
        try:
            v = w.coeffs[m].valuation()
        except PrecisionExhausted:
            continue  # known only to a bound at or above the ceiling
        if v != INFINITY:
            lines.append((m, v))
    # no digit is tracked past the ceiling, where the direct probe refuses
    reach = min(floor.ceiling, n + F.horizon)
    grid = []
    for j in range(nu + 1):
        row_lines = [(m, v) for m, v in lines if m < p ** (j + 1)]
        row = []
        for c in range(cmax + 1):
            low = min((v + m * c for m, v in row_lines), default=INFINITY)
            if n + c <= low < reach:
                row.append(low - n)
            else:
                row.append(capital_phi(F, floor, c, j))
        grid.append(row)
    return grid
