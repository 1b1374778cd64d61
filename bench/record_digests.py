"""Record the stdout digests that the benchmark checks outputs against.

    python3 bench/record_digests.py

runs every command of the verify and CLI workloads once, and the fuzz
batch at the acceptance seed, and writes ``bench/digests.json``: for
each command its exit code, the SHA-256 of its stdout and, for verify,
the number of oracle rows.  Run it only on a commit whose outputs are
trusted; the digests are the benchmark's record of correct output.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import fuzzgen  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def main():
    ramify = run.import_ramify()
    workdir = os.path.join(HERE, "_work", "record")
    os.makedirs(workdir, exist_ok=True)
    out = {}
    try:
        paths = workloads.write_jobs(workdir, sorted(workloads.JOBS))
        cmds = [(job, tail) for job, tail, _ in workloads.cli_commands()]
        for name in ("readme_equal_64", "readme_mixed_64"):
            for cmax in (1, workloads.Verify.cmax):
                cmds.append((name, ["verify", "--cmax", str(cmax)]))
        for job, tail in cmds:
            rc, stdout, _ = workloads.run_cli(
                ramify, [tail[0], paths[job]] + tail[1:])
            entry = {"rc": rc, "sha256": workloads.sha256(stdout)}
            if tail[0] == "verify" and rc == 0:
                entry["rows"] = sum(len(f["rows"]) for f in
                                    json.loads(stdout)["fields"].values())
            out[workloads.command_key(job, tail)] = entry
        towers = []
        for E1, E2 in fuzzgen.tower_specs(ramify, fuzzgen.ACCEPTANCE_SEED):
            T, _ = fuzzgen.build_tower(ramify, E1, E2)
            towers.append(workloads.sha256(workloads.tower_report(ramify, T)))
        out["fuzz_towers"] = towers
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(workloads.DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
