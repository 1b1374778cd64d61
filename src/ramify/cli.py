"""Batch front end: job files in, deterministic JSON reports out.

A job file describes one chain of Eisenstein steps over a ground field:

    {
      "p": 2,
      "mode": "EQUAL",
      "precision": 64,
      "steps": [
        {"name": "L", "base": "K", "coeffs": [[[1, 1]], [[1, 1]]]},
        {"name": "M", "base": "L", "coeffs": [[[], [[1, 0]]], [[], [[1, 0]]]]}
      ]
    }

A ground-field element is a list of [digit, power] pairs meaning
sum digit * pi_base^power; an element of a higher floor is a list of
base elements indexed by pi-power (coordinate form, short lists are
zero-padded).  Exit codes: 0 success, 2 validation error, 3 precision
or index resolution failure, 4 internal assertion failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from .base import INFINITY, GroundField
from .copolygon import VK, VL, truncated_psi, valuation_function
from .errors import (
    BadTameDegree,
    NotAUnit,
    NotDivisible,
    NotEisenstein,
    NotOneUnit,
    NotSeparable,
    PrecisionRefusal,
    TheoremViolation,
)
from .extension import EisensteinPoly, FloorElement, attach_eisenstein
from .invariants import phi
from .oracle import FULL, REDUCED, capital_phi, phi_grid
from .tower import (
    compose_tower,
    expand_all,
    expand_profile,
    expansion_horizon,
    ge_report,
    lambda_l,
    perturbation,
    tame_profile,
)

VALIDATION_ERRORS = (
    KeyError,
    TypeError,
    ValueError,
    json.JSONDecodeError,
    NotEisenstein,
    NotAUnit,
    NotOneUnit,
    NotDivisible,
    BadTameDegree,
    NotSeparable,
)


def decode_element(floor, data):
    """Decode the JSON element encoding relative to a given floor."""
    if not isinstance(data, list):
        raise ValueError("element must be a JSON array")
    if isinstance(floor, GroundField):
        out = floor.zero()
        pi = floor.uniformizer()
        for pair in data:
            if (not isinstance(pair, list) or len(pair) != 2
                    or not all(isinstance(v, int) and not isinstance(v, bool)
                               for v in pair)):
                raise ValueError("ground element entries are [digit, power] "
                                 "integers, got %s" % json.dumps(pair))
            digit, power = pair
            if power < 0:
                raise ValueError("negative power in element encoding")
            out = out + floor.from_int(digit) * pi ** power
        return out
    if len(data) > floor.degree:
        raise ValueError("too many coordinates for degree %d" % floor.degree)
    parts = [decode_element(floor.base, coord) for coord in data]
    return FloorElement(floor, parts + [floor.base.zero()]
                        * (floor.degree - len(parts)))


def _field(obj, key, where):
    if key not in obj:
        raise ValueError("%s has no field %r" % (where, key))
    return obj[key]


def load_job(path):
    with open(path, "r", encoding="utf-8") as fh:
        job = json.load(fh)
    if not isinstance(job, dict):
        raise ValueError("job must be a JSON object")
    p, mode, precision, steps = (
        _field(job, key, "job") for key in ("p", "mode", "precision", "steps"))
    for key, value in (("p", p), ("precision", precision)):
        if not isinstance(value, int) or isinstance(value, bool):
            raise ValueError("%s must be an integer, got %r" % (key, value))
    if mode == "EQUAL":
        ground = GroundField.equal_char(p, precision)
    elif mode == "MIXED":
        ground = GroundField.mixed_char(p, precision)
    else:
        raise ValueError("mode must be EQUAL or MIXED")
    if not isinstance(steps, list) or not steps:
        raise ValueError("steps must be a non-empty list")
    floors = {"K": ground}
    order = []
    prev = "K"
    for k, step in enumerate(steps):
        where = "steps[%d]" % k
        if not isinstance(step, dict):
            raise ValueError("%s must be an object" % where)
        name, base_name, data = (
            _field(step, key, where) for key in ("name", "base", "coeffs"))
        for key, value in (("name", name), ("base", base_name)):
            if not isinstance(value, str):
                raise ValueError("%s of %s must be a string, got %s"
                                 % (key, where, json.dumps(value)))
        if name in floors:
            raise ValueError("duplicate step name %r" % name)
        if base_name != prev:
            raise ValueError("steps must chain: %r has base %r, expected %r"
                             % (name, base_name, prev))
        base = floors[base_name]
        if not isinstance(data, list):
            raise ValueError("coeffs of step %r must be a list" % name)
        coeffs = []
        for i, c in enumerate(data):
            try:
                coeffs.append(decode_element(base, c))
            except ValueError as exc:
                raise ValueError("coeffs[%d] of step %r: %s"
                                 % (i, name, exc)) from None
        floors[name] = attach_eisenstein(base, EisensteinPoly(coeffs), name)
        order.append(name)
        prev = name
    return {"ground": ground, "floors": floors, "order": order}


def pick_field(job, name):
    if name is None:
        return job["order"][-1]
    if name not in job["floors"] or name == "K":
        raise ValueError("unknown field %r" % name)
    return name


def fraction_arg(text):
    try:
        return Fraction(text)
    except ZeroDivisionError:  # argparse reports only ValueError and TypeError
        raise ValueError(text) from None


def nonnegative(flag, value):
    """Break functions and probes live on x >= 0."""
    if value is not None and value < 0:
        raise ValueError("%s must be nonnegative, got %s" % (flag, value))


def ser(value):
    """JSON-safe scalar: infinity -> null, Fraction -> int or [num, den]."""
    if value == INFINITY:
        return None
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return int(value)
        return [value.numerator, value.denominator]
    return value


def plot_samples(fun):
    """Samples at x = 0, 1/4, ... through max(4, last vertex + 1)."""
    top = max([x for x, _ in fun.vertices()], default=Fraction(0))
    xmax = max(Fraction(4), top + 1)
    xs, out = Fraction(0), []
    while xs <= xmax:
        y = fun(xs)
        out.append([xs.numerator, xs.denominator, y.numerator, y.denominator])
        xs += Fraction(1, 4)
    return out


def parse_u(floor, text):
    if text is None or text == "1":
        return 1
    if text == "1+pi":
        return floor.one() + floor.uniformizer()
    return decode_element(floor, json.loads(text))


def cmd_invariants(job, args):
    floor = job["floors"][pick_field(job, args.field)]
    _, profile = expand_profile(floor, floor.base)
    return {
        "n": profile.n,
        "nu": profile.nu,
        "tilde": [ser(v) for v in profile.tilde],
        "i": [ser(v) for v in profile.i],
    }


def cmd_phi(job, args):
    nonnegative("--at", args.at)
    floor = job["floors"][pick_field(job, args.field)]
    _, profile = expand_profile(floor, floor.base)
    if not 0 <= args.j <= profile.nu:
        raise ValueError("j must lie in [0, %d]" % profile.nu)
    fun = phi(profile, args.j)
    out = fun.as_dict()
    out["j"] = args.j
    if args.at is not None:
        value = fun(args.at)
        out["at"] = [args.at.numerator, args.at.denominator]
        out["value"] = [value.numerator, value.denominator]
    if args.emit_plot_data:
        out["samples"] = plot_samples(fun)
    return out


def cmd_copolygon(job, args):
    floor = job["floors"][pick_field(job, args.field)]
    norm = VK if args.norm == "vK" else VL
    with perturbation(floor, floor.base) as (es, profile):
        if norm == VK:
            fun = valuation_function(es, VK)
        elif args.j is not None:
            if not 0 <= args.j <= profile.nu:
                raise ValueError("j must lie in [0, %d]" % profile.nu)
            fun = truncated_psi(es, args.j)
        else:
            fun = valuation_function(es, VL)
    out = {"function": fun.as_dict(), "norm": args.norm,
           "j": args.j if norm == VL else None}
    if args.emit_plot_data:
        out["samples"] = plot_samples(fun)
    return out


def cmd_oracle(job, args):
    nonnegative("--c", args.c)
    floor = job["floors"][pick_field(job, args.field)]
    series, profile = expand_profile(floor, floor.base, cmax=args.c)
    if not 0 <= args.j <= profile.nu:
        raise ValueError("j must lie in [0, %d]" % profile.nu)
    flavor = REDUCED if args.flavor == "reduced" else FULL
    u = parse_u(floor, args.u)
    cap = capital_phi(series, floor, args.c, args.j, flavor=flavor, u=u)
    expected = phi(profile, args.j)(args.c)
    return {
        "j": args.j,
        "c": args.c,
        "flavor": args.flavor,
        "Phi": ser(cap),
        "phi": ser(expected),
        "match": cap == expected,
    }


def cmd_tame(job, args):
    if args.e < 1:
        raise ValueError("--e must be positive, got %d" % args.e)
    floor = job["floors"][pick_field(job, args.field)]
    lift, profile = tame_profile(floor, args.e)
    scaled = [args.e * v if v != INFINITY else None
              for v in lift.base_profile.i]
    return {
        "e": args.e,
        "i": [ser(v) for v in profile.i],
        "scaled": scaled,
        "match": [ser(v) for v in profile.i] == scaled,
    }


def cmd_tower(job, args):
    if len(job["order"]) != 2:
        raise ValueError("tower reports need a job with exactly two steps")
    nonnegative("--at", args.at)
    lower, upper = (job["floors"][name] for name in job["order"])
    T = compose_tower(lower.poly, upper.poly, name=upper.name)
    if not 0 <= args.l <= T.lower.nu + T.upper.nu:
        raise ValueError("l must lie in [0, %d]" % (T.lower.nu + T.upper.nu))
    x = args.at if args.at is not None else Fraction(0)
    report = ge_report(T, args.l, x)
    out = report.as_dict()
    if args.emit_plot_data:
        lam = lambda_l(T, args.l)
        ph = phi(T.composed, args.l)
        out["lambda_function"] = lam.as_dict()
        out["phi_function"] = ph.as_dict()
        out["samples"] = {
            "lambda": plot_samples(lam),
            "phi": plot_samples(ph),
        }
    return out


def cmd_verify(job, args):
    nonnegative("--cmax", args.cmax)
    floors, names = job["floors"], list(job["order"])
    sweeps = [(floors[name], floors[name].base, None, args.cmax)
              for name in names]
    if len(names) >= 2:
        # composed chain: expand the ground uniformizer on the top floor
        names.append(names[-1] + "/K")
        sweeps.append((sweeps[-1][0], job["ground"], None, args.cmax))
    fields, ok = {}, True
    swept = expand_all(sweeps)
    for name, (top, *_), (series, profile) in zip(names, sweeps, swept):
        rows, good = oracle_grid(top, series, profile, args.cmax)
        fields[name] = {"ok": good, "rows": rows}
        ok = ok and good
    return {"cmax": args.cmax, "fields": fields, "ok": ok}


def sweep_ready(floor, target, first_horizon, cmax):
    """expand_profile(floor, base, first_horizon, cmax), for target the
    uniformizer of base embedded in floor: the form bench/probes.py calls."""
    base = floor
    while floor.absolute_degree // base.absolute_degree < target.valuation():
        base = base.base
    return expand_profile(floor, base, first_horizon, cmax)


def oracle_grid(floor, series, profile, cmax):
    rows, ok = [], True
    grid = phi_grid(series, floor, cmax)
    for j, caps in enumerate(grid):
        fun = phi(profile, j)
        for c, cap in enumerate(caps):
            expected = fun(c)
            match = cap == expected
            ok = ok and match
            rows.append([j, c, ser(expected), ser(cap), match])
    return rows, ok


def composed_horizon(top):
    """Horizon for the ground uniformizer expanded on the top floor."""
    return expansion_horizon(top, top.ground)


def emit(payload, tsv=False):
    if tsv and isinstance(payload, dict) and "fields" in payload:
        lines = []
        for name in sorted(payload["fields"]):
            for row in payload["fields"][name]["rows"]:
                lines.append("\t".join([name] + [json.dumps(v) for v in row]))
        lines.append("ok\t%s" % json.dumps(payload["ok"]))
        sys.stdout.write("\n".join(lines) + "\n")
        return
    sys.stdout.write(
        json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")


@functools.cache
def build_parser():
    parser = argparse.ArgumentParser(
        prog="ramify",
        description="Ramification invariants of totally ramified extensions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, field=True):
        sp.add_argument("job", help="path to the job JSON file")
        if field:
            sp.add_argument("--field", default=None,
                            help="step name (default: last step)")

    sp = sub.add_parser("invariants", help="break indices of one step")
    common(sp)

    sp = sub.add_parser("phi", help="generalized break function of one step")
    common(sp)
    sp.add_argument("--j", type=int, required=True)
    sp.add_argument("--at", type=fraction_arg, default=None,
                    help="evaluate at a rational, e.g. 7/2")
    sp.add_argument("--emit-plot-data", action="store_true")

    sp = sub.add_parser("copolygon", help="valuation function of the twisted "
                        "coefficient series")
    common(sp)
    sp.add_argument("--j", type=int, default=None)
    sp.add_argument("--norm", choices=["vK", "vL"], default="vL")
    sp.add_argument("--emit-plot-data", action="store_true")

    sp = sub.add_parser("oracle", help="dual-number congruence probe")
    common(sp)
    sp.add_argument("--j", type=int, required=True)
    sp.add_argument("--c", type=int, required=True)
    sp.add_argument("--flavor", choices=["full", "reduced"], default="full")
    sp.add_argument("--u", default=None,
                    help='perturbation unit: "1", "1+pi", or JSON coords')

    sp = sub.add_parser("tame", help="adjoin an e-th root of the uniformizer")
    common(sp)
    sp.add_argument("--e", type=int, required=True)

    sp = sub.add_parser("tower", help="two-step composition report")
    common(sp, field=False)
    sp.add_argument("--l", type=int, required=True)
    sp.add_argument("--at", type=fraction_arg, default=None)
    sp.add_argument("--emit-plot-data", action="store_true")

    sp = sub.add_parser("verify", help="oracle vs formula sweep per step")
    common(sp, field=False)
    sp.add_argument("--cmax", type=int, default=6)
    sp.add_argument("--tsv", action="store_true")
    return parser


COMMANDS = {
    "invariants": cmd_invariants,
    "phi": cmd_phi,
    "copolygon": cmd_copolygon,
    "oracle": cmd_oracle,
    "tame": cmd_tame,
    "tower": cmd_tower,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        job = load_job(args.job)
        payload = COMMANDS[args.command](job, args)
    except (*VALIDATION_ERRORS, OSError) as ex:
        print("error: %s" % ex, file=sys.stderr)
        return 2
    except PrecisionRefusal as ex:
        print("error: %s" % ex, file=sys.stderr)
        return 3
    except (TheoremViolation, AssertionError) as ex:
        print("error: %s" % ex, file=sys.stderr)
        return 4
    emit(payload, tsv=getattr(args, "tsv", False))
    if args.command == "verify" and not payload["ok"]:
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
