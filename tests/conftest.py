from __future__ import annotations

from types import SimpleNamespace

import pytest

from ramify.base import GroundField
from ramify.errors import RamifyError
from ramify.extension import EisensteinPoly, attach_eisenstein
from ramify.invariants import inseparability_profile
from ramify.oracle import capital_phi, phi_grid
from ramify.series import expand_digits
from ramify.tower import compose_tower


def make_case(ground, coeffs, horizon):
    floor = attach_eisenstein(ground, EisensteinPoly(coeffs))
    series = expand_digits(floor.embed(ground.uniformizer()), horizon)
    profile = inseparability_profile(series, floor.p_valuation())
    return SimpleNamespace(
        ground=ground, floor=floor, series=series, profile=profile,
        horizon=horizon,
    )


def build_f2_quadratic(prec=64, horizon=16):
    # F_2((t)), X^2 + tX + t
    K = GroundField.equal_char(2, prec)
    t = K.uniformizer()
    return make_case(K, [t, t], horizon)


def build_f3_cubic(prec=64, horizon=24):
    # F_3((t)), X^3 + tX + t
    K = GroundField.equal_char(3, prec)
    t = K.uniformizer()
    return make_case(K, [t, t, K.zero()], horizon)


def build_q2_sqrt2(prec=64, horizon=18):
    # Q_2, X^2 - 2
    K = GroundField.mixed_char(2, prec)
    return make_case(K, [K.from_int(-2), K.zero()], horizon)


def build_q2_gauss(prec=64, horizon=16):
    # Q_2, X^2 + 2X + 2
    K = GroundField.mixed_char(2, prec)
    return make_case(K, [K.from_int(2), K.from_int(2)], horizon)


def build_q3_cbrt3(prec=64, horizon=26):
    # Q_3, X^3 - 3
    K = GroundField.mixed_char(3, prec)
    return make_case(K, [K.from_int(-3), K.zero(), K.zero()], horizon)


def build_f2_cubic_tame(prec=64, horizon=12):
    # F_2((t)), X^3 + tX + t: degree prime to p, one break at 0
    K = GroundField.equal_char(2, prec)
    t = K.uniformizer()
    return make_case(K, [t, t, K.zero()], horizon)


CASE_BUILDERS = {
    "f2_quadratic": build_f2_quadratic,
    "f3_cubic": build_f3_cubic,
    "q2_sqrt2": build_q2_sqrt2,
    "q2_gauss": build_q2_gauss,
    "q3_cbrt3": build_q3_cbrt3,
    "f2_cubic_tame": build_f2_cubic_tame,
}


@pytest.fixture(params=sorted(CASE_BUILDERS))
def extension_case(request):
    case = CASE_BUILDERS[request.param]()
    case.name = request.param
    return case


@pytest.fixture
def f2_quadratic():
    return build_f2_quadratic()


@pytest.fixture
def f3_cubic():
    return build_f3_cubic()


@pytest.fixture
def q2_sqrt2():
    return build_q2_sqrt2()


@pytest.fixture
def q2_gauss():
    return build_q2_gauss()


@pytest.fixture
def q3_cbrt3():
    return build_q3_cbrt3()


def build_double_quadratic_tower(prec=64, H=12, mode="equal"):
    # X^2 + tX + t over F_2((t)) (X^2 + 2X + 2 over Q_2), then Y^2 + pi Y + pi
    K = GroundField(mode, 2, prec)
    t = K.uniformizer()
    E1 = EisensteinPoly([t, t])
    L = attach_eisenstein(K, E1)
    pi = L.uniformizer()
    E2 = EisensteinPoly([pi, pi])
    return compose_tower(E1, E2, H=H)


@pytest.fixture
def double_quadratic_tower():
    return build_double_quadratic_tower()


def short_scalar(x, digits):
    """The ground scalar x known to only its first ``digits`` digits.

    Built from the public arithmetic, whatever the storage layout: the
    product with t^k drops the top k digits and ``udiv(k)`` shifts the rest
    down.  Adding and subtracting one clears an ``exact_zero`` flag, so an
    exact zero comes back as a zero known to ``digits`` digits.
    """
    K = x.field
    k = x.prec - digits
    return ((x + K.one() - K.one()) * K.uniformizer() ** k).udiv(k)


def _outcome(fn):
    try:
        return fn()
    except RamifyError as exc:
        return type(exc), str(exc)


def assert_grid_is_direct(F, floor, nu, cmax=6):
    """phi_grid returns every direct row, or raises at the first that raises."""
    direct = []
    for j in range(nu + 1):
        for c in range(cmax + 1):
            direct.append(_outcome(lambda: capital_phi(F, floor, c, j)))
    grid = _outcome(lambda: phi_grid(F, floor, cmax))
    failed = [row for row in direct if isinstance(row, tuple)]
    if failed:
        assert grid == failed[0]
    else:
        assert [cap for row in grid for cap in row] == direct
