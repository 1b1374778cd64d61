"""The four workloads: their inputs, one batch of each, and its checks.

Each workload is a closed loop with one caller: a batch runs its
operations one after another, each starting when the previous returns.
Every operation's output is checked; a failed check, an exception or an
unexpected exit code makes the operation fail.

The verify and CLI workloads run fixed jobs, and their stdout is checked
against digests recorded from the package (``digests.json``).  The
verify workloads do not depend on the seed; the CLI mix takes its
command order from it.  The fuzz workload draws its towers from the seed
with ``fuzzgen``; its digests apply at the acceptance seed only.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import time
import traceback
from fractions import Fraction

import fuzzgen

HERE = os.path.dirname(os.path.abspath(__file__))
DIGESTS = os.path.join(HERE, "digests.json")

TOWER_GRID = [Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(1),
              Fraction(3, 2), Fraction(2), Fraction(3), Fraction(5)]

# -- job files -------------------------------------------------------------

PI = [[1, 1]]          # the ground uniformizer: t, or p in mixed mode
PI_L = [[], [[1, 0]]]  # the uniformizer of the first step


def readme_tower(mode, precision):
    """X^2 + tX + t over F_2((t)), or X^2 + 2X + 2 over Q_2; then Y^2 + pi Y + pi."""
    return {"p": 2, "mode": mode, "precision": precision, "steps": [
        {"name": "L", "base": "K", "coeffs": [PI, PI]},
        {"name": "M", "base": "L", "coeffs": [PI_L, PI_L]},
    ]}


def cubic(mode, precision):
    """X^3 + tX + t over F_3((t)), or X^3 - 3 over Q_3."""
    coeffs = [PI, PI, []] if mode == "EQUAL" else [[[-1, 1]], [], []]
    return {"p": 3, "mode": mode, "precision": precision,
            "steps": [{"name": "L", "base": "K", "coeffs": coeffs}]}


def not_eisenstein():
    """X^2 + tX + t^2: the constant term has valuation 2."""
    return {"p": 2, "mode": "EQUAL", "precision": 64,
            "steps": [{"name": "L", "base": "K", "coeffs": [[[1, 2]], PI]}]}


JOBS = {
    "readme_equal_6": readme_tower("EQUAL", 6),
    "not_eisenstein": not_eisenstein(),
}
for _prec in (64, 400):
    JOBS["readme_equal_%d" % _prec] = readme_tower("EQUAL", _prec)
    JOBS["readme_mixed_%d" % _prec] = readme_tower("MIXED", _prec)
    JOBS["f3_cubic_%d" % _prec] = cubic("EQUAL", _prec)
    JOBS["q3_cubic_%d" % _prec] = cubic("MIXED", _prec)


def write_jobs(workdir, names):
    paths = {}
    for name in names:
        paths[name] = os.path.join(workdir, name + ".json")
        with open(paths[name], "w", encoding="utf-8") as fh:
            json.dump(JOBS[name], fh)
    return paths


# -- running the CLI in process ----------------------------------------------


def run_cli(ramify, argv):
    """ramify.cli.main(argv) with stdout and stderr captured.

    An argument error exits through SystemExit and an uncaught exception
    becomes exit 1 with its traceback, as both would for a user.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = ramify.cli.main(argv)
        except SystemExit as ex:
            rc = ex.code
        except Exception:  # noqa: BLE001 - the operation fails, the run goes on
            traceback.print_exc()
            rc = 1
    return rc, out.getvalue(), err.getvalue()


def sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_digests():
    with open(DIGESTS, "r", encoding="utf-8") as fh:
        return json.load(fh)


class Batch:
    """Outcome of one batch: per-operation latencies and failures.

    ``span(name)`` opens the span that roots one operation in a traced
    run; untraced it does nothing.
    """

    def __init__(self, span=None):
        self.attempted = 0
        self.failures = []
        self.latencies = []
        self.retries = 0
        self.span = span or (lambda name: contextlib.nullcontext())

    def fail(self, what, why, count=1):
        self.failures.append("%s: %s" % (what, why))
        return count


# -- verify_equal / verify_mixed -------------------------------------------


class Verify:
    """``ramify verify --cmax 6`` on the README tower; one op per oracle row."""

    cmax = 6

    def __init__(self, name, job):
        self.name = name
        self.job = job

    def inputs(self, ramify, seed, workdir, smoke=False):
        paths = write_jobs(workdir, [self.job])
        cmax = 1 if smoke else self.cmax
        return {"argv": ["verify", paths[self.job], "--cmax", str(cmax)],
                "key": "verify %s --cmax %d" % (self.job, cmax)}

    def warmup(self, ramify, inputs):
        run_cli(ramify, inputs["argv"][:2] + ["--cmax", "0"])

    def batch(self, ramify, inputs, digests, span=None):
        b = Batch(span)
        key = inputs["key"]
        expected = digests[key]
        b.attempted += expected["rows"]
        t = time.perf_counter()
        with b.span("op " + key):
            rc, out, err = run_cli(ramify, inputs["argv"])
        b.latencies.append(time.perf_counter() - t)
        if rc != 0:
            return b, b.fail(key, "exit %d: %s" % (rc, err.strip()),
                             expected["rows"])
        why = check_payload(["verify"], json.loads(out))
        if why is None and sha256(out) != expected["sha256"]:
            why = "stdout differs from its digest"
        return b, b.fail(key, why, expected["rows"]) if why else 0


# -- fuzz_towers -----------------------------------------------------------


def tower_sample_points(ramify, T, l):
    xs = set(TOWER_GRID)
    for fun in (ramify.tower.lambda_l(T, l), ramify.invariants.phi(T.composed, l)):
        xs.update(x for x, _ in fun.vertices())
    return sorted(xs)


def check_profile(ramify, P):
    """Acceptance criterion 10: the index chain and its closed form."""
    assert P.i[P.nu] == 0 and (P.nu == 0 or P.i[P.nu - 1] >= 1), P.i
    assert all(P.i[j] >= P.i[j + 1] for j in range(P.nu)), P.i
    assert ramify.invariants.indices_closed_form(P.tilde, P.vLp) == P.i, P.i


def tower_report(ramify, T):
    """Acceptance criterion 9's sweep; returns the serialized reports.

    ``ge_report`` raises TheoremViolation itself when the composed break
    function dips below the bound or a unique tie lacks equality.
    """
    for P in (T.lower, T.upper, T.composed):
        check_profile(ramify, P)
    lines = [json.dumps([[str(v) for v in P.i]
                         for P in (T.lower, T.upper, T.composed)])]
    for l in range(T.lower.nu + T.upper.nu + 1):
        for x in tower_sample_points(ramify, T, l):
            report = ramify.tower.ge_report(T, l, x)
            where = "l=%d x=%s" % (l, x)
            assert report.phi >= report.lam, where
            assert report.equality == (report.phi == report.lam), where
            assert report.equality or not report.hypothesis, where
            lines.append(json.dumps(report.as_dict(), sort_keys=True))
    return "\n".join(lines) + "\n"


class FuzzTowers:
    """The acceptance build of 50 towers, then each tower's report sweep."""

    name = "fuzz_towers"

    def inputs(self, ramify, seed, workdir, smoke=False):
        size = 3 if smoke else fuzzgen.SIZE
        # generated here so that set-up time covers it; each batch draws
        # them again, because floors cache values between uses
        fuzzgen.tower_specs(ramify, seed, size)
        return {"seed": seed, "size": size}

    def warmup(self, ramify, inputs):
        E1, E2 = fuzzgen.tower_specs(ramify, inputs["seed"], 1)[0]
        fuzzgen.build_tower(ramify, E1, E2)

    def batch(self, ramify, inputs, digests, span=None):
        b = Batch(span)
        expected = digests.get("fuzz_towers") \
            if inputs["seed"] == fuzzgen.ACCEPTANCE_SEED else None
        failed = 0
        # the whole build is the command a user waits for, as in the
        # acceptance test; towers are operations, not commands
        t = time.perf_counter()
        for idx, (E1, E2) in enumerate(
                fuzzgen.tower_specs(ramify, inputs["seed"], inputs["size"])):
            b.attempted += 1
            try:
                with b.span("op tower %d" % idx):
                    T, retried = fuzzgen.build_tower(ramify, E1, E2)
                    text = tower_report(ramify, T)
            except Exception as ex:  # noqa: BLE001 - the tower fails, the run goes on
                failed += b.fail("tower %d" % idx, "%s: %s"
                                 % (type(ex).__name__, ex))
                continue
            b.retries += retried
            if expected and sha256(text) != expected[idx]:
                failed += b.fail("tower %d" % idx, "report differs from its digest")
        b.latencies.append(time.perf_counter() - t)
        return b, failed


# -- cli_mix ---------------------------------------------------------------


def cli_commands():
    """(job, argv tail, expected exit code) of one pass of the mix."""
    cmds = []
    for prec in (64, 400):
        for job, e, two in (("readme_equal", 3, True), ("readme_mixed", 3, True),
                            ("f3_cubic", 2, False), ("q3_cubic", 2, False)):
            job = "%s_%d" % (job, prec)
            cmds += [
                (job, ["invariants"], 0),
                (job, ["phi", "--j", "1", "--at", "7/2"], 0),
                (job, ["phi", "--j", "0", "--emit-plot-data"], 0),
                (job, ["copolygon", "--norm", "vL", "--j", "1"], 0),
                (job, ["copolygon", "--norm", "vK"], 0),
                (job, ["oracle", "--j", "1", "--c", "3", "--u", "1+pi"], 0),
                (job, ["oracle", "--j", "1", "--c", "3", "--u", "1+pi",
                       "--flavor", "reduced"], 0),
                (job, ["tame", "--e", str(e)], 0),
            ]
            if two:
                cmds += [
                    (job, ["invariants", "--field", "L"], 0),
                    (job, ["tower", "--l", "1"], 0),
                    (job, ["tower", "--l", "2", "--at", "1/2",
                           "--emit-plot-data"], 0),
                ]
        cmds.append(("q3_cubic_%d" % prec, ["verify", "--cmax", "2"], 0))
    # refusals that are correct today
    cmds += [
        ("not_eisenstein", ["invariants"], 2),
        ("readme_equal_64", ["phi", "--j", "5"], 2),
        ("readme_equal_64", ["tame", "--e", "2"], 2),
        ("readme_equal_6", ["verify", "--cmax", "6"], 3),
    ]
    return cmds


def command_key(job, tail):
    return " ".join([tail[0], job] + tail[1:])


def check_payload(tail, payload):
    """The package's own cross-checks carried in a command's output."""
    if tail[0] in ("oracle", "tame") and payload["match"] is not True:
        return "oracle and formula disagree"
    if tail[0] == "verify" and not (
            payload["ok"] and all(r[4] for f in payload["fields"].values()
                                  for r in f["rows"])):
        return "verify found a mismatch"
    return None


class CliMix:
    """Short ``ramify.cli.main`` calls over a seeded order of the command mix."""

    name = "cli_mix"

    def inputs(self, ramify, seed, workdir, smoke=False):
        rng = random.Random(seed)
        cmds = cli_commands()
        if smoke:
            cmds = [c for c in cmds if not c[0].endswith("_400")]
        paths = write_jobs(workdir, sorted({c[0] for c in cmds}))
        rng.shuffle(cmds)
        return {"cmds": [(job, tail, rc, [tail[0], paths[job]] + tail[1:])
                         for job, tail, rc in cmds]}

    def warmup(self, ramify, inputs):
        for job, tail, rc, argv in inputs["cmds"][:4]:
            run_cli(ramify, argv)

    def batch(self, ramify, inputs, digests, span=None):
        b = Batch(span)
        failed = 0
        phis, copolygons = {}, []
        for job, tail, want, argv in inputs["cmds"]:
            key = command_key(job, tail)
            b.attempted += 1
            t = time.perf_counter()
            with b.span("op " + key):
                rc, out, err = run_cli(ramify, argv)
            b.latencies.append(time.perf_counter() - t)
            if rc != want:
                failed += b.fail(key, "exit %d, expected %d: %s"
                                 % (rc, want, err.strip()))
                continue
            if rc != 0:
                if out or not err.startswith("error: "):
                    failed += b.fail(key, "refusal without its error message")
                continue
            payload = json.loads(out)
            why = check_payload(tail, payload)
            if why is None and sha256(out) != digests.get(key, {}).get("sha256"):
                why = "stdout differs from its digest"
            if why:
                failed += b.fail(key, why)
            elif tail[0] == "phi":
                phis[(job, tail[2])] = function_of(payload)
            elif tail[0] == "copolygon" and "--j" in tail:
                copolygons.append((key, job, tail[-1], function_of(payload)))
        # copolygon --j j must equal phi --j j on the same job
        for key, job, j, fun in copolygons:
            if phis.get((job, j), fun) != fun:
                failed += b.fail(key, "copolygon differs from phi")
        return b, failed


def function_of(payload):
    fun = payload.get("function", payload)
    return {k: fun[k] for k in ("f0", "vertices", "final_slope")}


WORKLOADS = {w.name: w for w in (
    Verify("verify_equal", "readme_equal_64"),
    Verify("verify_mixed", "readme_mixed_64"),
    FuzzTowers(),
    CliMix(),
)}


def tour(ramify, workdir):
    """One call into every traced layer, on the README tower at precision 64.

    A traced run starts each pass with it, so that every span metric is
    measured on every workload.
    """
    path = write_jobs(workdir, ["readme_equal_64"])["readme_equal_64"]
    for tail in (["verify", "--cmax", "0"], ["copolygon", "--norm", "vK"],
                 ["tame", "--e", "3"], ["tower", "--l", "1"]):
        rc, out, err = run_cli(ramify, [tail[0], path] + tail[1:])
        if rc != 0:
            raise RuntimeError("tour command %s failed: %s" % (tail, err))
