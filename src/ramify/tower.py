"""Two-step towers M/L/K: composed indices, lower bounds, and tame lifts.

The composed indices come from expanding the ground uniformizer directly
in the M-floor; the formal composite of the two one-step series is also
built and spot-checked against that expansion by evaluation.  The bound
functions lambda^l are computed twice, once as envelopes of composed
and scaled break functions and once straight from the index lines, and
the two must agree.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction

from .base import INFINITY, vp
from .errors import (NotEisenstein, NotSeparable, PrecisionRefusal,
                     TheoremViolation)
from .copolygon import fstar
from .extension import (
    EisensteinFloor,
    EisensteinPoly,
    attach_eisenstein,
    carries_ground_precision,
    different_exponent,
)
from .invariants import InsepProfile, inseparability_profile, phi
from .plfun import Line, PLFunction
from .series import (
    Series,
    check_tame_degree,
    compose_series,
    eth_root_substitute,
    evaluate_at_pi,
    expand_digits,
    normalize_leading_digit,
)


@dataclass(frozen=True)
class TowerProfile:
    p: int
    lower_floor: object
    upper_floor: object
    lower: InsepProfile
    upper: InsepProfile
    composed: InsepProfile
    lower_series: object
    upper_series: object
    composed_series: object
    # (lambda^l, its pair lines) by l, built once by lambda_l; a replaced
    # profile starts empty
    _lambdas: dict = field(default_factory=dict, init=False, compare=False,
                           repr=False)

    @property
    def n(self):
        return self.lower.n

    @property
    def m(self):
        return self.upper.n


@dataclass(frozen=True)
class GeReport:
    l: int
    x: Fraction
    lam: Fraction
    phi: Fraction
    s_sets: dict
    hypothesis: bool
    in_T_l: bool
    equality: bool

    def as_dict(self):
        return {
            "l": self.l,
            "x": [self.x.numerator, self.x.denominator],
            "lambda": [self.lam.numerator, self.lam.denominator],
            "phi": [self.phi.numerator, self.phi.denominator],
            "S": {
                str(a): [[j, k] for j, k in pairs]
                for a, pairs in self.s_sets.items()
            },
            "hypothesis": self.hypothesis,
            "equality": self.equality,
            "in_T_l": self.in_T_l,
        }


@dataclass(frozen=True)
class TameLift:
    floor: object
    series: object
    e: int
    base_series: object
    base_profile: InsepProfile


def default_horizon(d_exp, offset, wild, p_val, room=INFINITY):
    """Digit horizon H = max(d - n + 2 + v_p(n) v(p), 2).

    For d the different exponent and n the offset, i_0 = d - n + 1 >= i_j
    for every j, so H certifies every index.  A caller that passes a
    ``room`` gets H clamped to it; no routine of the package does.
    """
    if d_exp == INFINITY:
        raise NotSeparable(
            "derivative of the defining polynomial vanishes at the root; "
            "indices are undefined for inseparable steps"
        )
    h = d_exp - offset + 2
    if p_val != INFINITY:
        h += wild * p_val
    return min(max(h, 2), room)


def different_over(top, offset):
    """Different exponent of ``top`` over the floor ``offset`` degrees below.

    The different exponents of the floors on the way down add up, each
    scaled by the degree of the floors above it.
    """
    d, scale, walk = 0, 1, top
    while scale < offset:
        d += scale * different_exponent(walk)
        scale *= walk.degree
        walk = walk.base
    return d


def expansion_horizon(top, base):
    """Digit horizon for pi_base on ``top``, whatever the precision."""
    offset = top.absolute_degree // base.absolute_degree
    return default_horizon(different_over(top, offset), offset,
                           vp(offset, top.p), top.p_valuation())


def digits_asked(top, base, horizon=None, cmax=None):
    """(target, digits): pi_base on ``top``, of valuation n, and the digits
    past n that expand_profile(top, base, horizon, cmax) reads.

    A profile reads up to the horizon H.  A sweep to cmax reads every one
    of max(H, d - n + 3 + p^nu * cmax): a probe at c reads
    i_0 + p^nu * c + 2 digits, and the different gives i_0 = d - n + 1.
    """
    n = top.absolute_degree // base.absolute_degree
    digits = expansion_horizon(top, base) if horizon is None else horizon
    if cmax is not None:
        digits = max(digits, different_over(top, n) - n + 3
                     + top.p ** vp(n, top.p) * cmax)
    return top.embed(base.uniformizer()), digits


def fits_from(target, digits):
    """Job precision from which ``digits`` ground digits past the valuation
    n of target can be spent: n + digits when the target and every
    Eisenstein coefficient below carry the ground precision, for then each
    division by pi spends at most one ground digit; otherwise None."""
    if carries_ground_precision(target.floor, [target]):
        return target.valuation() + digits
    return None


@contextmanager
def _naming(target, digits):
    # the one place a refusal learns the job precision it names
    try:
        yield
    except PrecisionRefusal as exc:
        if digits is not None:
            exc.enough = fits_from(target, digits)
        raise


def read_profile(target, digits, need=1):
    """Up to ``digits`` digits of target, at least ``need``, and their profile.

    The horizon check in invariants.indices certifies the profile.  A
    refusal names the job precision from which every digit asked is
    tracked, when the expansion runs dry and when the digits it got leave
    an index open; an index open on every digit asked names none.
    """
    with _naming(target, digits):
        series = expand_digits(target, digits, need)
    with _naming(target, digits if series.horizon < digits else None):
        return series, inseparability_profile(series,
                                              target.floor.p_valuation())


def expand_profile(top, base, horizon=None, cmax=None):
    """The digit series of pi_base on ``top`` and the profile read off it.

    Without ``cmax`` the series holds up to the horizon's digits, as many
    as are tracked.  With it, it holds every digit a sweep to cmax reads,
    and the i_0 the digits give must be the different's d - n + 1 (exit 4
    otherwise).  digits_asked counts the digits either way.
    """
    target, digits = digits_asked(top, base, horizon, cmax)
    if cmax is None:
        return read_profile(target, digits)
    series, profile = read_profile(target, digits, digits)
    n = series.offset
    d = different_over(top, n)
    if profile.i[0] != d - n + 1:
        raise TheoremViolation(
            "i_0 = %s read off the digits, but the different exponent d = %s "
            "gives d - n + 1 = %s" % (profile.i[0], d, d - n + 1))
    return series, profile


@contextmanager
def perturbation(top, base):
    """fstar of the series of expand_profile(top, base), and the profile.

    fstar divides by pi^n once and reads the quotients to valuation H:
    n + ceil(H / N) ground digits on a floor of absolute degree N, no more
    than the n + H of the series, so a refusal names what the profile does.
    """
    target, digits = digits_asked(top, base)
    with _naming(target, digits):
        series, profile = expand_profile(top, base)
        yield fstar(series, top), profile


def expand_all(jobs):
    """[expand_profile(*job) for job in jobs], or the refusal that names
    the job precision from which every job's digits fit.

    Each job is (top, base, horizon, cmax), and the precision its refusal
    names is known before any digit is expanded.  The jobs run from the
    largest down, those naming none first, so the first refusal names the
    largest and no job after it runs.
    """
    named = [fits_from(*digits_asked(*job)) for job in jobs]
    out = [None] * len(jobs)
    for k in sorted(range(len(jobs)), key=lambda k:
                    -math.inf if named[k] is None else -named[k]):
        out[k] = expand_profile(*jobs[k])
    return out


def compose_tower(E1, E2, H=None, lower_horizon=None, upper_horizon=None,
                  name=None):
    """Attach both steps, expand all three digit series, profile them.

    E2's coefficients live on the lower floor, so that floor is reused;
    E1 must coincide with its defining polynomial.  The upper floor is
    attached as ``name``.  The formal composite of the two one-step series
    is checked against the direct expansion.
    """
    if isinstance(E1, (list, tuple)):
        E1 = EisensteinPoly(E1)
    if isinstance(E2, (list, tuple)):
        E2 = EisensteinPoly(E2)
    L = E2.coeffs[0].floor
    if not isinstance(L, EisensteinFloor):
        raise NotEisenstein("upper coefficients must live on the lower floor")
    same = L.poly.degree == E1.degree and all(
        a == b for a, b in zip(L.poly.coeffs, E1.coeffs)
    )
    if not same:
        raise NotEisenstein(
            "lower polynomial does not define the upper coefficients' floor"
        )
    ground = L.base
    M = attach_eisenstein(L, E2, name)
    (lower_series, lower), (upper_series, upper), (composed_series, composed) \
        = expand_all([(L, ground, lower_horizon, None),
                      (M, L, upper_horizon, None), (M, ground, H, None)])

    _check_formal_composite(M, lower_series, upper_series, composed_series)

    return TowerProfile(
        ground.p, L, M, lower, upper, composed,
        lower_series, upper_series, composed_series,
    )


def _check_formal_composite(M, F, G, H):
    # F(G(X)) must agree with the direct expansion as deep as both reach.
    # Both have offset n*m; dividing it out leaves the coefficient
    # differences, and H's terms past depth lie past valuation depth.
    depth = min(G.horizon, F.horizon * G.offset, H.horizon)
    formal = compose_series(F, G, depth)
    diff = Series(0, [formal.coeffs[h] - H.coeffs[h] for h in range(depth)])
    if not evaluate_at_pi(diff, M).has_valuation_at_least(depth):
        raise TheoremViolation(
            "formal composite disagrees with the direct digit expansion"
        )


def _pair_lines(T: TowerProfile, l: int):
    """((j, k), line) over all pairs j+k <= l in order, the index line
    (m*i_j + p^j*i'_k, p^(j+k)); its intercept is an int."""
    p, m = T.p, T.m
    return tuple(((j, k), Line(m * T.lower.i[j] + p ** j * T.upper.i[k],
                               p ** (j + k)))
                 for j in range(min(l, T.lower.nu) + 1)
                 for k in range(min(l - j, T.upper.nu) + 1))


def lambda_l(T: TowerProfile, l: int) -> PLFunction:
    """Lower-bound envelope for the composed l-th break function.

    Built, and its two forms compared, once per tower and l.
    """
    if not 0 <= l <= T.lower.nu + T.upper.nu:
        raise ValueError("l out of range")
    built = T._lambdas.get(l)
    if built is None:
        built = T._lambdas[l] = _build_lambda(T, l)
    return built[0]


def _build_lambda(T, l):
    env = None
    for j in range(min(l, T.lower.nu) + 1):
        k = l - j
        if k > T.upper.nu:
            continue
        f = phi(T.lower, j).scale(T.m).compose(phi(T.upper, k))
        env = f if env is None else env.min_with(f)
    pairs = _pair_lines(T, l)
    if env != PLFunction([ln for _, ln in pairs]):
        raise TheoremViolation("the two displayed forms of lambda disagree")
    return env, pairs


def ge_report(T: TowerProfile, l: int, x) -> GeReport:
    """The bound lambda^l(x), phi^l(x) and the tie sets at x.

    At x = a/b the pair lines take the integer values A*b + s*a, A the
    intercept and s the slope: their minimum is b * lambda^l(x), and the
    pairs (j, k) at the minimum, grouped by j + k, are the tie sets.
    """
    x = Fraction(x)
    lambda_l(T, l)
    pairs = T._lambdas[l][1]
    a, b = x.numerator, x.denominator
    values = [ln.intercept * b + ln.slope * a for _, ln in pairs]
    low = min(values)
    lam = Fraction(low, b)
    ph = phi(T.composed, l)(x)
    S = {c: [] for c in range(l + 1)}
    for ((j, k), _), v in zip(pairs, values):
        if v == low:
            S[j + k].append((j, k))
    hypothesis = any(len(S[c]) == 1 for c in range(l + 1))
    in_T = any(
        len(S[l0]) == 1 and all(len(S[c]) == 0 for c in range(l0))
        for l0 in range(l + 1)
    )
    if ph < lam:
        raise TheoremViolation(
            "composed break function %s below its bound %s at l=%d, x=%s"
            % (ph, lam, l, x)
        )
    equality = ph == lam
    if hypothesis and not equality:
        raise TheoremViolation(
            "unique tie at l=%d, x=%s but no equality (%s > %s)" % (l, x, ph, lam)
        )
    return GeReport(l, x, lam, ph, S, hypothesis, in_T, equality)


def tame_lift_tower(floor, e: int, horizon=None) -> TameLift:
    """Adjoin an e-th root of the uniformizer and lift the digit series.

    The lifted series relates the two new uniformizers; its break data
    is the original's scaled by e.
    """
    base = floor.base
    # bad input outranks a precision shortfall
    check_tame_degree(e, floor.p, floor.degree)
    series, profile = expand_profile(floor, base, horizon)
    lifted = eth_root_substitute(normalize_leading_digit(series), e)
    pi = floor.uniformizer()
    coeffs = [-pi] + [floor.zero()] * (e - 1)
    floor_e = attach_eisenstein(floor, EisensteinPoly(coeffs))
    return TameLift(floor_e, lifted, e, series, profile)


def tame_profile(floor, e: int):
    """tame_lift_tower(floor, e) and the profile of its lifted series, which
    holds every digit it asks for: when the series of floor came back
    short, a refusal names n + H, from which that one fits."""
    lift = tame_lift_tower(floor, e)
    target, digits = digits_asked(floor, floor.base)
    short = lift.base_series.horizon < digits
    with _naming(target, digits if short else None):
        return lift, read_profile(evaluate_at_pi(lift.series, lift.floor),
                                  lift.series.horizon)[1]
