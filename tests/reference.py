"""Reference routes that only the tests run.

Each one reaches a number the package computes by another route, so the
tests can check that the two agree:

* divided_congruence decides the oracle's perturbed congruence through
  the divided series D^m F (dpower), evaluated by generic products,
  against capital_phi's dual-number probe;
* phi_binomial reads a break function straight off the binomial
  valuations of the digits, against the index recursion behind phi;
  binom_val checks the binomial bound it rests on;
* alternate_series adds X^n E(X) to a digit series: a second series with
  the same value at pi, on which every probe must answer the same;
* ref_eth_root_substitute solves the tame root coefficient by coefficient
  in X, against eth_root_substitute, which solves it in Y = X^e.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from ramify.base import INFINITY, vp
from ramify.errors import IndexUnresolved, PrecisionExhausted
from ramify.oracle import FULL, nilpotency
from ramify.series import (DualRing, Series, _scalar_root, check_tame_degree,
                           evaluate)


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
        coeffs.append(F.coeffs[h] * b)
    return Series(offset, coeffs)


def divided_congruence(F, floor, c, j, d, flavor=FULL) -> bool:
    """Whether F(pi + pi^(c+1) eps_j) stays congruent to F(pi) mod pi^(n+d),
    decided through the divided series, an independent expansion route."""
    if d > F.horizon:
        raise PrecisionExhausted(
            "congruence depth %d exceeds series horizon %d" % (d, F.horizon)
        )
    n = F.offset
    pi = floor.uniformizer()
    # dpower(F, m) is empty from m = n + horizon on, as is the probe there
    nil = min(nilpotency(floor.p, j, flavor), n + F.horizon)
    for m in range(1, nil):
        g = dpower(F, m)
        if g.horizon <= 0:
            continue
        term = evaluate(g, pi) * pi ** ((c + 1) * m)
        if not term.has_valuation_at_least(n + d):
            return False
    return True


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


def alternate_series(series: Series, poly) -> Series:
    """The series plus X^n * E(X); it evaluates to the same element at pi."""
    n = series.offset
    if poly.degree != n:
        raise ValueError("polynomial degree must match the series offset")
    ground = series.ground
    horizon = max(series.horizon, n + 1)
    coeffs = []
    for h in range(horizon):
        c = series.coeffs[h] if h < series.horizon else ground.zero()
        if h < n:
            c = c + poly.coeffs[h]
        elif h == n:
            c = c + ground.one()
        coeffs.append(c)
    return Series(n, coeffs)


def ref_eth_root_substitute(series: Series, e: int) -> Series:
    """eth_root_substitute by solving every coefficient of T in X: S(X^e) =
    X^(ne) g(X) with g supported on multiples of e, and each coefficient of
    g^(1/e) from the e-th power of all those below."""
    n = series.offset
    ground = series.ground
    check_tame_degree(e, ground.p, n)
    g = [ground.zero()] * (e * (series.horizon - 1) + 1)
    g[::e] = series.coeffs
    t0 = _scalar_root(g[0], e, ground)
    lead_inv = (t0 ** (e - 1) * e).unit_inverse()
    ts = [t0]
    for w in range(1, len(g)):
        cur = DualRing(ground, w + 1).element(ts) ** e
        ts.append((g[w] - cur.coeffs[w]) * lead_inv)
    return Series(n, ts)
