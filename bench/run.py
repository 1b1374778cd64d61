"""The ramify benchmark: four workloads, end to end and per layer.

One workload, as the contract of BENCHMARK.json runs it:

    python3 bench/run.py --workload verify_equal --seed 7 --seconds 20 --trace 0

prints a few lines about the run and, as its last line, one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
ones.  Without ``--workload`` every workload runs, each in a child
process of its own (one at a time), untraced and then traced, and a
table of all metrics is printed.
``--smoke`` runs the smallest size, one batch, with no timing.

Run from the repository root; the package is imported from ``src/``.
See bench/README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

sys.path.insert(0, HERE)

import fuzzgen  # noqa: E402
import probes  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 30
DEFAULT_SECONDS = 25

END_TO_END = (("wall_s", "s"), ("work_per_s", "ops/s"), ("cmd_p50_ms", "ms"),
              ("cmd_p90_ms", "ms"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

SPAN_METRICS = (
    "oracle.capital_phi", "series.expand_digits", "series.evaluate",
    "series.compose_series", "series.eth_root_substitute",
    "invariants.inseparability_profile", "invariants.phi", "copolygon.fstar",
    "copolygon.valuation_function", "tower.compose_tower", "tower.ge_report",
    "tower.tame_lift_tower", "cli.load_job", "cli.sweep_ready",
    "cli.oracle_grid",
)
COUNT_ONLY = ("tower.lambda_l",)
OP_COUNTS = ("base.add", "base.mul", "extension.floor_add",
             "extension.floor_mul", "oracle.dual_add", "oracle.dual_mul")
OBSERVE = {"series.expand_digits":
           lambda series: ("series.expand_digits.digits", series.horizon)}


def unit_of(name):
    for suffix, unit in (("_ns", "ns"), ("_us", "us"), ("_ms", "ms"),
                         (".self_s", "s")):
        if suffix in name:
            return unit
    return "ratio" if name.endswith("ratio") or name.endswith("per_row") \
        else "count"


# -- set-up ----------------------------------------------------------------


def forget_ramify():
    """Drop an earlier import of the package and collect what it held."""
    for name in [m for m in sys.modules if m == "ramify" or m.startswith("ramify.")]:
        del sys.modules[name]
    gc.collect()


def import_ramify():
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    importlib.import_module("ramify.cli")
    return sys.modules["ramify"]


def setup(workload, seed, workdir, smoke):
    """Import and input generation, several times; the last one is kept.

    The time is the median set-up.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        forget_ramify()
        t = time.perf_counter()
        ramify = import_ramify()
        inputs = workload.inputs(ramify, seed, workdir, smoke)
        times.append(time.perf_counter() - t)
    return ramify, inputs, statistics.median(times)


# -- measuring -------------------------------------------------------------


class Tally:
    """Operations attempted and failed over every batch of a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def add(self, batch):
        self.attempted += batch.attempted
        self.failed += batch.failed
        self.failures.extend(batch.failures)


def timed_batch(workload, ramify, inputs, digests, tally, span=None):
    t = time.perf_counter()
    batch, batch.failed = workload.batch(ramify, inputs, digests, span)
    elapsed = time.perf_counter() - t
    tally.add(batch)
    return elapsed, batch


def quantile(values, q):
    """The q-quantile, interpolated between order statistics."""
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]


def window_left(start, seconds, last):
    """Whether another batch of about ``last`` seconds fits the window.

    A batch starts while at least half of it fits, so a run ends within
    half a batch of ``seconds``.
    """
    return time.perf_counter() - start + last / 2 < seconds


def measure(workload, ramify, inputs, digests, seconds, smoke, tally):
    """Batches back to back for about ``seconds``; at least one.

    Every batch runs the same operations in the same order.  Each timing
    is a mean over the whole run: ``wall_s`` is the mean batch time, and
    the command percentiles are taken across the commands of a batch,
    each at its mean latency over the run.  On a shared machine the
    speed drifts by tens of percent over tens of seconds, and one call
    can take twice as long as the next; a mean over the run averages
    both, where the fastest repeat depends on how many fast moments the
    run caught (see README.md).
    """
    workload.warmup(ramify, inputs)
    batches = []
    start = time.perf_counter()
    while True:
        elapsed, batch = timed_batch(workload, ramify, inputs, digests, tally)
        batches.append((elapsed, batch))
        if smoke or not window_left(start, seconds, elapsed):
            break
    times = [t for t, _ in batches]
    per_command = [statistics.fmean(column) for column in
                   zip(*(b.latencies for _, b in batches))]
    passed = sum(b.attempted - b.failed for _, b in batches)
    metrics = {
        "wall_s": statistics.fmean(times),
        "work_per_s": passed / sum(times),
        "cmd_p50_ms": statistics.median(per_command) * 1e3,
        "cmd_p90_ms": quantile(per_command, 0.9) * 1e3,
    }
    detail = {"batches": len(times), "commands": len(per_command),
              "batch_s_quartiles": [quantile(times, q) for q in (0.25, 0.5, 0.75)]}
    return metrics, detail


def measure_traced(workload, ramify, inputs, digests, seconds, smoke, tally,
                   workdir, spans_path):
    """Pairs of an untraced and a traced batch for about ``seconds``.

    Each traced pass opens with the layer tour.  Counts come from the
    first traced pass, and every later pass must repeat them exactly.
    """
    metrics = probes.run(ramify)
    workload.warmup(ramify, inputs)
    tracer = spans.Tracer(ramify, OBSERVE)
    ratios, first, mismatch = [], None, []
    start = time.perf_counter()
    while True:
        plain, _ = timed_batch(workload, ramify, inputs, digests, tally)
        tracer.reset()
        tracer.install()
        try:
            with tracer.span("tour"):
                workloads.tour(ramify, workdir)
            traced, batch = timed_batch(workload, ramify, inputs, digests,
                                        tally, tracer.span)
        finally:
            tracer.restore()
        ratios.append(traced / plain)
        layer = layer_metrics(tracer, batch)
        counts = {k: v for k, v in layer.items() if unit_of(k) == "count"}
        if first is None:
            first = layer
            tracer.write(spans_path)
        elif counts != {k: first[k] for k in counts}:
            mismatch.append(sorted(k for k in counts if counts[k] != first[k]))
        if smoke or not window_left(start, seconds, plain + traced):
            break
    metrics.update(first)
    metrics["trace.overhead_ratio"] = statistics.median(ratios)
    detail = {"passes": len(ratios), "spans_file": os.path.relpath(spans_path, ROOT),
              "count_mismatches": mismatch}
    return metrics, detail


def layer_metrics(tracer, batch):
    agg = tracer.aggregate()
    empty = {"count": 0, "self_s": 0.0}
    out = {}
    for name in SPAN_METRICS:
        a = agg.get(name, empty)
        out[name + ".count"] = a["count"]
        out[name + ".self_s"] = a["self_s"]
    for name in COUNT_ONLY:
        out[name + ".count"] = agg.get(name, empty)["count"]
    for name in OP_COUNTS:
        out[name + ".count"] = tracer.counts[name]
    out["series.expand_digits.digits"] = tracer.counts["series.expand_digits.digits"]
    kids = tracer.children()
    rows = evals = 0
    escalations = 0
    for rec in tracer.spans:
        if rec[spans.NAME] == "oracle.capital_phi" and not rec[spans.RAISED]:
            rows += 1
            evals += sum(k[spans.NAME] == "series.evaluate" for k in kids[rec[spans.ID]])
        elif rec[spans.NAME] == "cli.sweep_ready":
            expansions = sum(k[spans.NAME] == "series.expand_digits"
                             for k in kids[rec[spans.ID]])
            escalations += expansions > 1
    out["oracle.evals_per_row"] = evals / rows if rows else 0.0
    out["cli.sweep_ready.escalations"] = escalations
    out["tower.retries"] = batch.retries
    return out


# -- metadata ----------------------------------------------------------------


def src_lines():
    total = 0
    for folder, _, files in os.walk(SRC):
        for f in files:
            if f.endswith(".py"):
                with open(os.path.join(folder, f), "rb") as fh:
                    total += fh.read().count(b"\n")
    return total


def commit():
    """HEAD's commit id, or "unknown" outside a git checkout."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, check=False)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def metadata(args):
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "src_lines": src_lines(), "commit": commit(), "seed": args.seed,
            "seconds": args.seconds, "smoke": args.smoke}


# -- one workload ------------------------------------------------------------


def run_workload(args):
    workload = workloads.WORKLOADS[args.workload]
    workdir = os.path.join(HERE, "_work", str(os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    try:
        ramify, inputs, setup_s = setup(workload, args.seed, workdir, args.smoke)
        digests = workloads.load_digests()
        tally = Tally()
        if args.trace:
            os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
            spans_path = os.path.join(HERE, "results", "spans-%s-%d.jsonl"
                                      % (args.workload, args.seed))
            metrics, detail = measure_traced(
                workload, ramify, inputs, digests, args.seconds, args.smoke,
                tally, workdir, spans_path)
        else:
            metrics, detail = measure(workload, ramify, inputs, digests,
                                      args.seconds, args.smoke, tally)
            metrics["setup_s"] = setup_s
            metrics["peak_rss_mb"] = \
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line in tally.failures[:20]:
        print("FAILED %s" % line, file=sys.stderr)
    correct = tally.failed == 0 and not detail.get("count_mismatches")
    detail.update(workload=args.workload, trace=args.trace,
                  fail_ratio=tally.failed / tally.attempted)
    print("meta " + json.dumps(metadata(args), sort_keys=True))
    print("detail " + json.dumps(detail, sort_keys=True))
    result = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }
    for name, unit in END_TO_END:
        if name in result["metrics"]:
            result["metrics"][name]["unit"] = unit
    print(json.dumps(result))
    return 0 if correct else 1


# -- every workload ----------------------------------------------------------


def child(args, name, trace):
    argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(trace)] + (["--smoke"] if args.smoke else [])
    proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          check=False)
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise SystemExit("%s --trace %d printed no result (exit %d)"
                         % (name, trace, proc.returncode))
    detail = next(json.loads(l[7:]) for l in lines if l.startswith("detail "))
    return json.loads(lines[-1]), detail, proc.returncode


def run_all(args):
    report = {"meta": metadata(args), "workloads": {}}
    status = 0
    for name in workloads.WORKLOADS:
        untraced, detail, rc0 = child(args, name, 0)
        traced, tdetail, rc1 = child(args, name, 1)
        status = status or rc0 or rc1
        report["workloads"][name] = {
            "end_to_end": untraced, "per_layer": traced,
            "detail": detail, "traced_detail": tdetail}
    print_table(report)
    return status


def print_table(report):
    names = list(report["workloads"])
    print("meta " + json.dumps(report["meta"], sort_keys=True))
    cols = [n for n, _ in END_TO_END] + ["fail_ratio"]
    print("%-13s" % "workload" + "".join("%14s" % c for c in cols)
          + "  batches  batch time quartiles")
    for name in names:
        w = report["workloads"][name]
        m, d = w["end_to_end"]["metrics"], w["detail"]
        print("%-13s" % name
              + "".join("%14.4g" % m[c]["value"] for c, _ in END_TO_END)
              + "%14.4g" % d["fail_ratio"]
              + "  %7d  %s" % (d["batches"], " ".join(
                  "%.3f" % q for q in d["batch_s_quartiles"])))
    print("units: " + ", ".join("%s %s" % nu for nu in END_TO_END)
          + ", fail_ratio failed/attempted")
    print()
    layer = sorted(report["workloads"][names[0]]["per_layer"]["metrics"])
    print("%-42s" % "per layer (traced)" + "".join("%14s" % n[:13] for n in names))
    for key in layer:
        vals = [report["workloads"][n]["per_layer"]["metrics"][key] for n in names]
        print("%-42s" % ("%s [%s]" % (key, vals[0]["unit"]))
              + "".join("%14.6g" % v["value"] for v in vals))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=fuzzgen.ACCEPTANCE_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="smallest size, one batch, no timing gate")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "ramify", "__init__.py")):
        print("error: no package at %s; run from a checkout of the "
              "repository" % SRC, file=sys.stderr)
        return 2
    if args.workload:
        return run_workload(args)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
