"""Dual-number oracle for the break functions.

The probe ring is floor[eps] with eps nilpotent: order p^(j+1) for the
full flavor, p^j + 1 for the reduced one.  Evaluating the digit series
at pi + u*pi^(c+1)*eps and asking how deep the result stays congruent
to its eps-free part measures the j-th break function at c without ever
touching the index recursion, which is what makes it a trustworthy
cross-check.

Truncating the series at horizon H perturbs every eps coefficient only
at valuation n+H or deeper, so congruences mod pi^(n+d) are decided
faithfully for d <= H; beyond that the oracle refuses rather than
guesses.
"""

from __future__ import annotations

import math

from .base import RingElement
from .errors import PrecisionExhausted, TheoremViolation
from .series import GeneralSeries, evaluate

FULL = "full"
REDUCED = "reduced"


def nilpotency(p: int, j: int, flavor: str) -> int:
    if flavor == FULL:
        return p ** (j + 1)
    if flavor == REDUCED:
        return p ** j + 1
    raise ValueError("flavor must be %r or %r" % (FULL, REDUCED))


class DualRing:
    """floor[eps] / (eps^nil); elements keep full coefficient precision."""

    __slots__ = ("floor_ref", "nil")

    def __init__(self, floor, nil):
        self.floor_ref = floor
        self.nil = nil

    def zero(self):
        z = self.floor_ref.zero()
        return DualElement(self, (z,) * self.nil)

    def one(self):
        return self.embed(self.floor_ref.one())

    def embed(self, x):
        z = self.floor_ref.zero()
        return DualElement(self, (self.floor_ref.embed(x),) + (z,) * (self.nil - 1))

    def teichmuller(self, r):
        return self.embed(self.floor_ref.teichmuller(r))

    def element(self, coeffs):
        coeffs = [self.floor_ref.embed(c) for c in coeffs[: self.nil]]
        z = self.floor_ref.zero()
        return DualElement(self, tuple(coeffs) + (z,) * (self.nil - len(coeffs)))

    def __repr__(self):
        return "DualRing(nil=%d over %r)" % (self.nil, self.floor_ref)


class DualElement(RingElement):
    __slots__ = ("ring", "coeffs")

    def __init__(self, ring, coeffs):
        self.ring = ring
        self.coeffs = tuple(coeffs)

    @property
    def floor(self):
        return self.ring

    def _peer(self, other):
        if isinstance(other, DualElement):
            if other.ring is not self.ring:
                raise TypeError("elements from different dual rings")
            return other
        if isinstance(other, int):
            return self.ring.embed(self.ring.floor_ref.from_int(other))
        try:
            return self.ring.embed(other)
        except TypeError:
            return None

    def __add__(self, other):
        o = self._peer(other)
        if o is None:
            return NotImplemented
        return DualElement(
            self.ring, tuple(a + b for a, b in zip(self.coeffs, o.coeffs))
        )

    __radd__ = __add__

    def __neg__(self):
        return DualElement(self.ring, tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        o = self._peer(other)
        if o is None:
            return NotImplemented
        nil = self.ring.nil
        buf = list(self.ring.zero().coeffs)
        for i, ai in enumerate(self.coeffs):
            if ai.exact_zero:
                continue
            for j in range(nil - i):
                bj = o.coeffs[j]
                if bj.exact_zero:
                    continue
                buf[i + j] = buf[i + j] + ai * bj
        return DualElement(self.ring, tuple(buf))

    __rmul__ = __mul__

    def unit_inverse(self):
        raise ValueError("negative powers not supported in the dual ring")

    def __repr__(self):
        return "DualElement(%r)" % (list(self.coeffs),)


def _probe(F, floor, c, u, nil):
    """F(pi + u pi^(c+1) eps) in the dual ring of the given nilpotency."""
    ring = DualRing(floor, nil)
    pi = floor.uniformizer()
    if isinstance(u, int):
        u = floor.from_int(u)
    else:
        u = floor.embed(u)
    if u.residue() == 0:
        raise ValueError("u must be a unit")
    z = ring.element([pi, u * pi ** (c + 1)])
    return evaluate(F, z)


def _congruent(w, n, d) -> bool:
    # eps-free parts agree by construction; only i >= 1 coefficients matter
    return all(x.has_valuation_at_least(n + d) for x in w.coeffs[1:])


def perturbed_eval(F, floor, c, j, u=1, d=0, flavor=FULL) -> bool:
    """Whether F(pi + u pi^(c+1) eps_j) stays congruent to F(pi) mod pi^(n+d)."""
    if d > F.horizon:
        raise PrecisionExhausted(
            "congruence depth %d exceeds series horizon %d" % (d, F.horizon)
        )
    w = _probe(F, floor, c, u, nilpotency(floor.p, j, flavor))
    return _congruent(w, F.offset, d)


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


def dpower(F, m: int):
    """The m-th divided series: sum binom(h+n, m) a_h X^(h+n-m)."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    if m == 0:
        return F
    n = F.offset
    ground = F.ground
    offset = max(n - m, 0)
    top = n + F.horizon - m  # exponents run offset .. top-1
    coeffs = []
    for w in range(offset, top):
        h = w + m - n
        if h < 0:
            coeffs.append(ground.zero())
            continue
        b = math.comb(h + n, m)
        coeffs.append(F.coeff_scalar(h) * b)
    return GeneralSeries(offset, coeffs)


def divided_congruence(F, floor, c, j, d, flavor=FULL) -> bool:
    """Same congruence via the divided series, an independent expansion route."""
    if d > F.horizon:
        raise PrecisionExhausted(
            "congruence depth %d exceeds series horizon %d" % (d, F.horizon)
        )
    n = F.offset
    pi = floor.uniformizer()
    nil = nilpotency(floor.p, j, flavor)
    for m in range(1, nil):
        g = dpower(F, m)
        if g.horizon <= 0:
            continue
        term = evaluate(g, pi) * pi ** ((c + 1) * m)
        if not term.has_valuation_at_least(n + d):
            return False
    return True
