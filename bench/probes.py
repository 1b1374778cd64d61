"""Micro-probes: fixed operands, a warm-up, then the median of timed rounds.

Each probe times one layer in isolation, untraced, with operands drawn
from a fixed generator so that every run times the same work.  All
ground-scalar probes use p = 3.
"""

from __future__ import annotations

import random
import statistics
import time
from fractions import Fraction

ROUNDS = 5


def per_call(fn, number, rounds=ROUNDS):
    """Median seconds per call over ``rounds`` rounds of ``number`` calls."""
    fn()
    fn()
    times = []
    for _ in range(rounds):
        t = time.perf_counter()
        for _ in range(number):
            fn()
        times.append((time.perf_counter() - t) / number)
    return statistics.median(times)


def _scalar(ramify, K, rng, unit=False):
    if K.mode == "equal":
        digits = [rng.randrange(K.p) for _ in range(K.prec)]
        if unit:
            digits[0] = rng.randrange(1, K.p)
        data = tuple(digits)
    else:
        data = rng.randrange(K.p ** K.prec)
        if unit and data % K.p == 0:
            data += 1
    return ramify.base.BaseScalar(K, data, K.prec)


def _ground(ramify, mode, prec):
    GF = ramify.base.GroundField
    return GF.equal_char(3, prec) if mode == "equal" else GF.mixed_char(3, prec)


def _floors(ramify, mode):
    """F_3((t)) or Q_3 at precision 64, a cubic L on it, a cubic M on L."""
    ext = ramify.extension
    K = _ground(ramify, mode, 64)
    pi = K.uniformizer()
    E1 = [pi, pi, K.zero()] if mode == "equal" else [-pi, K.zero(), K.zero()]
    L = ext.attach_eisenstein(K, ext.EisensteinPoly(E1))
    piL = L.uniformizer()
    M = ext.attach_eisenstein(L, ext.EisensteinPoly([piL, piL, L.zero()]))
    return K, L, M


def _element(ramify, floor, rng):
    if isinstance(floor, ramify.base.GroundField):
        return _scalar(ramify, floor, rng)
    coords = [_element(ramify, floor.base, rng) for _ in range(floor.degree)]
    return ramify.extension.FloorElement(floor, coords)


def readme_grid_input(ramify, mode):
    """The README tower's M/K series, expanded as ``verify --cmax 6`` does."""
    ext, cli = ramify.extension, ramify.cli
    GF = ramify.base.GroundField
    K = GF.equal_char(2, 64) if mode == "equal" else GF.mixed_char(2, 64)
    pi = K.uniformizer()
    L = ext.attach_eisenstein(K, ext.EisensteinPoly([pi, pi]))
    piL = L.uniformizer()
    M = ext.attach_eisenstein(L, ext.EisensteinPoly([piL, piL]))
    series, profile = cli.sweep_ready(M, M.embed(pi), cli.composed_horizon(M), 6)
    return M, series, profile


def run(ramify):
    """Every probe, as {metric name: value in the unit its name ends with}."""
    rng = random.Random(1)
    out = {}
    grid = {}
    for mode in ("equal", "mixed"):
        for prec in (64, 400):
            K = _ground(ramify, mode, prec)
            a, b = _scalar(ramify, K, rng), _scalar(ramify, K, rng)
            out["base.add_ns.%s.prec%d" % (mode, prec)] = \
                per_call(lambda: a + b, 200) * 1e9
            out["base.mul_ns.%s.prec%d" % (mode, prec)] = \
                per_call(lambda: a * b, 100) * 1e9
        u = _scalar(ramify, _ground(ramify, mode, 64), rng, unit=True)
        out["base.unit_inverse_us.%s.prec64" % mode] = \
            per_call(u.unit_inverse, 10) * 1e6

        _, L, M = _floors(ramify, mode)
        for shape, floor, number in (("flat", L, 50), ("nested", M, 5)):
            x, y = _element(ramify, floor, rng), _element(ramify, floor, rng)
            out["extension.floor_mul_us.%s.%s" % (shape, mode)] = \
                per_call(lambda: x * y, number) * 1e6
        if mode == "equal":
            z = _element(ramify, M, rng) * M.uniformizer()
            out["extension.udiv_us.nested.equal"] = \
                per_call(lambda: z.udiv(1), 5) * 1e6

        top, series, profile = grid[mode] = readme_grid_input(ramify, mode)
        out["oracle.probe_ms.%s" % mode] = per_call(
            lambda: ramify.oracle.capital_phi(series, top, 6, 2), 1, 3) * 1e3

    profile = grid["equal"][2]
    f = ramify.invariants.phi(profile, 2)
    g = ramify.invariants.phi(profile, 1)
    x = Fraction(7, 3)
    out["plfun.compose_us"] = per_call(lambda: f.compose(g), 200) * 1e6
    out["plfun.min_with_us"] = per_call(lambda: f.min_with(g.scale(2)), 200) * 1e6
    out["plfun.eval_us"] = per_call(lambda: f(x), 1000) * 1e6
    return out
