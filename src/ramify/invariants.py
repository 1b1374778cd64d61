"""Indices of inseparability and the ramification break functions they bound.

From a digit series pi_K = sum lift(a_h) pi_L^(n+h) the j-th raw index
is the least h whose total exponent n+h has p-adic valuation at most j
among nonzero digits.  The corrected indices follow the downward
recursion i_j = min(raw_j, i_{j+1} + v_L(p)) from i_nu = 0, nu = v_p(n).
Each index yields a line i_j + p^j x; their lower envelopes are the
generalized transition functions.

Raw indices that no digit below the horizon witnesses are reported as
INFINITY.  The recursion then insists that the surviving candidate be
at most the horizon, since a first nonzero digit at h >= H could
otherwise undercut it; failing that is IndexUnresolved, never a guess.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .base import INFINITY, vp
from .errors import IndexUnresolved
from .plfun import Line, PLFunction


@dataclass(frozen=True)
class InsepProfile:
    p: int
    n: int
    a: int
    nu: int
    tilde: tuple
    i: tuple
    vLp: object
    horizon: int


def tilde_indices(series, nu):
    """Raw indices: least h < H with v_p(h+n) <= j and a_h != 0, else INFINITY."""
    n = series.offset
    p = series.p
    out = [INFINITY] * (nu + 1)
    for h in series.support():
        v = vp(h + n, p)
        if v > nu:
            continue
        for j in range(v, nu + 1):
            if out[j] == INFINITY:
                out[j] = h
        if out[0] != INFINITY:
            break
    return tuple(out)


def indices(tilde, vLp, horizon):
    """Downward recursion with the horizon honesty check."""
    nu = len(tilde) - 1
    if tilde[nu] != 0:
        raise IndexUnresolved("leading digit missing from raw indices", j=nu)
    out = [0] * (nu + 1)
    for j in range(nu - 1, -1, -1):
        cand = min(tilde[j], out[j + 1] + vLp)
        if cand == INFINITY:
            raise IndexUnresolved(
                "index %d infinite within horizon %d" % (j, horizon), j=j
            )
        if tilde[j] == INFINITY and cand > horizon:
            # a first nonzero digit at h >= horizon could still undercut
            raise IndexUnresolved(
                "index %d = %d not certified by horizon %d" % (j, cand, horizon),
                j=j,
            )
        out[j] = cand
    return tuple(out)


def indices_closed_form(tilde, vLp):
    """min over j <= j1 <= nu of raw_{j1} + (j1-j)*vLp; INFINITY entries drop."""
    nu = len(tilde) - 1
    out = []
    for j in range(nu + 1):
        best = tilde[j]
        for j1 in range(j + 1, nu + 1):
            cand = tilde[j1] + (j1 - j) * vLp
            if cand < best:
                best = cand
        out.append(best)
    return tuple(out)


def inseparability_profile(series, vLp) -> InsepProfile:
    n = series.offset
    p = series.p
    nu = vp(n, p)
    a = n // p ** nu
    tilde = tilde_indices(series, nu)
    idx = indices(tilde, vLp, series.horizon)
    return InsepProfile(p, n, a, nu, tilde, idx, vLp, series.horizon)


def phi_tilde(profile: InsepProfile, j: int) -> Line:
    return Line(profile.i[j], profile.p ** j)


def phi(profile: InsepProfile, j: int) -> PLFunction:
    if not 0 <= j <= profile.nu:
        raise ValueError("j out of range")
    return PLFunction([phi_tilde(profile, j0) for j0 in range(j + 1)])


@dataclass(frozen=True)
class BinomValuation:
    value: int
    lower_bound: int
    equality_certified: bool


def binom_val(b: int, c: int, p: int) -> BinomValuation:
    """v_p of binom(b, c) with the certified bound v_p(b) - v_p(c)."""
    if not b >= c >= 1:
        raise ValueError("need b >= c >= 1")
    value = vp(math.comb(b, c), p)
    lower = vp(b, p) - vp(c, p)
    certified = vp(b, p) >= vp(c, p) and _is_p_power(c, p)
    if value < lower:
        raise AssertionError("binomial bound violated")
    if certified and value != lower:
        raise AssertionError("binomial equality case violated")
    return BinomValuation(value, lower, certified)


def _is_p_power(c: int, p: int) -> bool:
    while c % p == 0:
        c //= p
    return c == 1


def phi_binomial(series, j: int, x, vLp) -> Fraction:
    """Break function value straight from binomial valuations of the digits.

    min over 0 <= j0 <= j and nonzero digits a_h of
    h + vLp * v_p(binom(h+n, p^j0)) + p^j0 * x.  Certified only when the
    minimum cannot be undercut by digits beyond the horizon.
    """
    x = Fraction(x)
    if x < 0:
        raise ValueError("x must be nonnegative")
    n = series.offset
    p = series.p
    best = None
    for j0 in range(j + 1):
        c = p ** j0
        step = c * x
        for h in series.support():
            bv = vp(math.comb(h + n, c), p)
            if bv == 0:
                term = h + step
            elif vLp == INFINITY:
                continue
            else:
                term = h + vLp * bv + step
            if best is None or term < best:
                best = term
    if best is None or best > series.horizon + x:
        raise IndexUnresolved(
            "binomial minimum not certified by horizon %d" % series.horizon
        )
    return best
