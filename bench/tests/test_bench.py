"""The benchmark's own checks: generator parity, smoke runs, tracing.

    python -m pytest bench/tests -q

from the repository root.  The smoke runs use the smallest size and
check outputs and metric names, never timings.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
for path in (os.path.join(ROOT, "tests"), os.path.join(ROOT, "src"), BENCH):
    if path not in sys.path:
        sys.path.insert(0, path)

import ramify  # noqa: E402
import ramify.cli  # noqa: E402

import fuzzgen  # noqa: E402
import spans  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    CONTRACT = json.load(_fh)


def run_bench(*args, cwd=ROOT, root=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(root, "bench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600, check=False)
    return proc


def test_fuzz_generator_matches_acceptance_batch():
    import test_acceptance

    theirs = test_acceptance.fuzz_towers()
    specs = fuzzgen.tower_specs(ramify, fuzzgen.ACCEPTANCE_SEED)
    assert len(specs) == len(theirs) == 50
    for idx, ((E1, E2), T) in enumerate(zip(specs, theirs)):
        ours, _ = fuzzgen.build_tower(ramify, E1, E2)
        assert (ours.lower.i, ours.upper.i, ours.composed.i) == \
            (T.lower.i, T.upper.i, T.composed.i), idx


def test_other_seeds_keep_the_shapes():
    def shape(spec):
        E1, E2 = spec
        return (E1.coeffs[0].floor.p, E1.coeffs[0].floor.mode, E1.degree,
                E2.degree,
                [c.valuation() if not c.exact_zero else None for c in E1.coeffs])

    base = fuzzgen.tower_specs(ramify, fuzzgen.ACCEPTANCE_SEED, 12)
    other = fuzzgen.tower_specs(ramify, 7, 12)
    assert [shape(s) for s in base] == [shape(s) for s in other]


@pytest.mark.parametrize("workload", [w["name"] for w in CONTRACT["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run(workload, trace):
    proc = run_bench("--workload", workload, "--smoke", "--trace", str(trace),
                     "--seed", "3")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = CONTRACT["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_traced_counts_repeat():
    def counts():
        proc = run_bench("--workload", "fuzz_towers", "--smoke", "--trace", "1")
        assert proc.returncode == 0, proc.stderr
        metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
        return {k: v["value"] for k, v in metrics.items() if v["unit"] == "count"}

    first = counts()
    assert first["tower.compose_tower.count"] > 0
    assert first == counts()


def test_tracer_spans_nest_and_restore():
    K = ramify.base.GroundField.equal_char(2, 64)
    t = K.uniformizer()
    L = ramify.extension.attach_eisenstein(
        K, ramify.extension.EisensteinPoly([t, t]))
    pi = L.uniformizer()
    original = ramify.cli.capital_phi
    tracer = spans.Tracer(ramify)
    tracer.install()
    try:
        assert ramify.cli.capital_phi is ramify.oracle.capital_phi
        assert ramify.cli.capital_phi is not original
        with tracer.span("root"):
            ramify.tower.compose_tower(L.poly, [pi, pi])
    finally:
        tracer.restore()
    assert ramify.cli.capital_phi is original
    assert tracer.counts["base.mul"] > 0
    ids = {rec[spans.ID]: rec for rec in tracer.spans}
    for rec in tracer.spans[1:]:
        parent = ids[rec[spans.PARENT]]
        assert parent[spans.START] <= rec[spans.START] <= rec[spans.END] \
            <= parent[spans.END]
    agg = tracer.aggregate()
    assert agg["tower.compose_tower"]["count"] == 1
    for a in agg.values():
        assert 0 <= a["self_s"] <= a["total_s"] + 1e-9


def test_refuses_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "_work", "results"))
    proc = run_bench("--workload", "cli_mix", "--smoke", cwd=tmp_path,
                     root=str(tmp_path))
    assert proc.returncode != 0
    assert not proc.stdout.strip()
