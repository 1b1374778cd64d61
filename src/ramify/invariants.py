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

from dataclasses import dataclass, field

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
    # phi^j by j, built once by phi; a replaced profile starts empty
    _phis: dict = field(default_factory=dict, init=False, compare=False,
                        repr=False)


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


def phi(profile: InsepProfile, j: int) -> PLFunction:
    """min over j0 <= j of i_j0 + p^j0 x, built once per profile and j."""
    if not 0 <= j <= profile.nu:
        raise ValueError("j out of range")
    fun = profile._phis.get(j)
    if fun is None:
        fun = profile._phis[j] = PLFunction(
            [Line(profile.i[j0], profile.p ** j0) for j0 in range(j + 1)])
    return fun
