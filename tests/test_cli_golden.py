"""Golden outputs of the CLI at low precisions and at 64.

Each entry of data/cli_golden.json is a short SHA-256 of (exit code,
stdout, stderr) of one in-process ``ramify`` run: a job, a job precision
and a command.  The jobs are the README tower and the F_3/Q_3 cubics in
both modes, and a three-step tower over F_2((t)); the precisions are
2-12, where refusals and the digits each answer spends show, and 64.
Any change to an answer, a refusal or the precision a refusal names
fails the test with the job, the precision and the command.

Record the file again, after a change meant to alter these outputs, with

    PYTHONPATH=src python tests/test_cli_golden.py --record
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

import pytest

from ramify.cli import main

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "cli_golden.json")

_L = {"name": "L", "base": "K", "coeffs": [[[1, 1]], [[1, 1]]]}
_M = {"name": "M", "base": "L", "coeffs": [[[], [[1, 0]]], [[], [[1, 0]]]]}
_N = {"name": "N", "base": "M",
      "coeffs": [[[], [[[1, 0]]]], [[], [[[1, 0]]]]]}

JOBS = {
    # X^2 + tX + t, then Y^2 + pi_L Y + pi_L
    "readme_equal": {"p": 2, "mode": "EQUAL", "steps": [_L, _M]},
    "readme_mixed": {"p": 2, "mode": "MIXED", "steps": [_L, _M]},
    # X^3 + tX + t over F_3((t)), X^3 - 3 over Q_3
    "f3_cubic": {"p": 3, "mode": "EQUAL", "steps": [
        {"name": "L", "base": "K", "coeffs": [[[1, 1]], [[1, 1]], []]}]},
    "q3_cubic": {"p": 3, "mode": "MIXED", "steps": [
        {"name": "L", "base": "K", "coeffs": [[[-1, 1]], [], []]}]},
    # the README tower, then Z^2 + pi_M Z + pi_M
    "f2_three_step": {"p": 2, "mode": "EQUAL", "steps": [_L, _M, _N]},
}

PRECISIONS = list(range(2, 13)) + [64]

COMMANDS = [
    ["invariants"],
    ["invariants", "--field", "L"],
    ["phi", "--j", "0"],
    ["copolygon"],
    ["copolygon", "--norm", "vK"],
    ["copolygon", "--j", "0"],
    ["oracle", "--j", "0", "--c", "3"],
    ["oracle", "--j", "0", "--c", "3", "--u", "1+pi"],
    ["oracle", "--j", "0", "--c", "3", "--flavor", "reduced"],
    ["tame", "--e", "3"],
    ["tame", "--e", "5"],
    ["tower", "--l", "1"],
    ["verify", "--cmax", "0"],
    ["verify", "--cmax", "2"],
    ["verify", "--cmax", "6"],
]


def _digest(path, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([argv[0], path] + argv[1:])
    blob = json.dumps([code, out.getvalue(), err.getvalue()])
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def digests(name, folder):
    """{"precision command": digest} for every run of one job."""
    out = {}
    for precision in PRECISIONS:
        path = os.path.join(folder, "%s-%d.json" % (name, precision))
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(dict(JOBS[name], precision=precision), fh)
        for argv in COMMANDS:
            out["%d %s" % (precision, " ".join(argv))] = _digest(path, argv)
    return out


@pytest.mark.parametrize("name", sorted(JOBS))
def test_cli_outputs_match_the_golden_file(tmp_path, name):
    with open(GOLDEN, encoding="utf-8") as fh:
        want = json.load(fh)[name]
    got = digests(name, str(tmp_path))
    changed = ["%s at precision %s: %s" % ((name,) + tuple(k.split(" ", 1)))
               for k in want if got.get(k) != want[k]]
    assert sorted(got) == sorted(want)
    assert not changed, "\n".join(changed)


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_cli_golden.py --record")
    with tempfile.TemporaryDirectory() as folder:
        table = {name: digests(name, folder) for name in sorted(JOBS)}
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
