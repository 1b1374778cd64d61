from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

from conftest import CASE_BUILDERS
from ramify import cli, tower
from ramify.cli import main
from ramify.invariants import inseparability_profile
from ramify.series import expand_digits
from ramify.tower import expansion_horizon
from test_acceptance import fuzz_towers

F2_QUADRATIC = {
    "p": 2,
    "mode": "EQUAL",
    "precision": 64,
    "steps": [
        {"name": "L", "base": "K", "coeffs": [[[1, 1]], [[1, 1]]]},
    ],
}

TOWER = {
    "p": 2,
    "mode": "EQUAL",
    "precision": 64,
    "steps": [
        {"name": "L", "base": "K", "coeffs": [[[1, 1]], [[1, 1]]]},
        {"name": "M", "base": "L",
         "coeffs": [[[], [[1, 0]]], [[], [[1, 0]]]]},
    ],
}

Q2_SQRT2 = {
    "p": 2,
    "mode": "MIXED",
    "precision": 64,
    "steps": [
        {"name": "L", "base": "K", "coeffs": [[[-2, 0]], []]},
    ],
}


def _write(tmp_path, payload, name="job.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_invariants_output(tmp_path, capsys):
    job = _write(tmp_path, F2_QUADRATIC)
    code, out = _run(capsys, ["invariants", job, "--field", "L"])
    assert code == 0
    assert json.loads(out) == {"i": [1, 0], "n": 2, "nu": 1, "tilde": [1, 0]}


def test_invariants_null_for_missing_raw_index(tmp_path, capsys):
    job = _write(tmp_path, Q2_SQRT2)
    code, out = _run(capsys, ["invariants", job])
    assert code == 0
    assert json.loads(out) == {"i": [2, 0], "n": 2, "nu": 1,
                               "tilde": [None, 0]}


def test_phi_vertex_list(tmp_path, capsys):
    job = _write(tmp_path, F2_QUADRATIC)
    code, out = _run(capsys, ["phi", job, "--field", "L", "--j", "1"])
    assert code == 0
    assert json.loads(out) == {
        "f0": [0, 1], "final_slope": 1, "j": 1, "vertices": [[1, 1, 2, 1]]}


def test_phi_at_rational(tmp_path, capsys):
    job = _write(tmp_path, F2_QUADRATIC)
    code, out = _run(capsys, ["phi", job, "--j", "1", "--at", "7/2"])
    assert code == 0
    payload = json.loads(out)
    assert payload["at"] == [7, 2]
    assert payload["value"] == [9, 2]


def test_oracle_match(tmp_path, capsys):
    job = _write(tmp_path, F2_QUADRATIC)
    code, out = _run(capsys, ["oracle", job, "--j", "1", "--c", "2"])
    assert code == 0
    payload = json.loads(out)
    assert payload["match"] is True
    assert payload["Phi"] == 3 and payload["phi"] == 3


def test_oracle_unit_and_flavor_flags(tmp_path, capsys):
    job = _write(tmp_path, F2_QUADRATIC)
    code, out = _run(capsys, ["oracle", job, "--j", "1", "--c", "2",
                              "--flavor", "reduced", "--u", "1+pi"])
    assert code == 0
    assert json.loads(out)["Phi"] == 3


def test_copolygon_norms(tmp_path, capsys):
    job = _write(tmp_path, F2_QUADRATIC)
    code, out = _run(capsys, ["copolygon", job, "--j", "1"])
    assert code == 0
    assert json.loads(out)["function"] == {
        "f0": [0, 1], "final_slope": 1, "vertices": [[1, 1, 2, 1]]}
    code, out = _run(capsys, ["copolygon", job, "--norm", "vK"])
    assert code == 0
    assert json.loads(out)["function"] == {
        "f0": [0, 1], "final_slope": 1, "vertices": [[1, 2, 1, 1]]}


def test_tame_report(tmp_path, capsys):
    job = _write(tmp_path, Q2_SQRT2)
    code, out = _run(capsys, ["tame", job, "--e", "3"])
    assert code == 0
    assert json.loads(out) == {
        "e": 3, "i": [6, 0], "match": True, "scaled": [6, 0]}


def test_tower_report(tmp_path, capsys):
    job = _write(tmp_path, TOWER)
    code, out = _run(capsys, ["tower", job, "--l", "1"])
    assert code == 0
    assert json.loads(out) == {
        "l": 1,
        "x": [0, 1],
        "lambda": [2, 1],
        "phi": [3, 1],
        "S": {"0": [], "1": [[0, 1], [1, 0]]},
        "hypothesis": False,
        "equality": False,
        "in_T_l": False,
    }


def test_verify_ok(tmp_path, capsys):
    job = _write(tmp_path, TOWER)
    code, out = _run(capsys, ["verify", job, "--cmax", "3"])
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert set(payload["fields"]) == {"L", "M", "M/K"}


def test_verify_tsv(tmp_path, capsys):
    job = _write(tmp_path, F2_QUADRATIC)
    code, out = _run(capsys, ["verify", job, "--cmax", "2", "--tsv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1] == "ok\ttrue"
    assert lines[0].split("\t")[0] == "L"


def test_deterministic_output(tmp_path, capsys):
    job = _write(tmp_path, TOWER)
    _, first = _run(capsys, ["verify", job, "--cmax", "4"])
    _, second = _run(capsys, ["verify", job, "--cmax", "4"])
    assert first == second
    _, third = _run(capsys, ["tower", job, "--l", "2", "--at", "1/2"])
    _, fourth = _run(capsys, ["tower", job, "--l", "2", "--at", "1/2"])
    assert third == fourth


def test_plot_data(tmp_path, capsys):
    job = _write(tmp_path, F2_QUADRATIC)
    code, out = _run(capsys, ["phi", job, "--j", "1", "--emit-plot-data"])
    assert code == 0
    samples = json.loads(out)["samples"]
    assert samples[0] == [0, 1, 0, 1]
    assert [1, 1, 2, 1] in samples


def test_exit_code_bad_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{nope", encoding="utf-8")
    assert main(["invariants", str(path)]) == 2


def test_exit_code_unknown_field(tmp_path, capsys):
    job = _write(tmp_path, F2_QUADRATIC)
    assert main(["invariants", job, "--field", "Z"]) == 2


def test_exit_code_bad_mode(tmp_path, capsys):
    bad = dict(F2_QUADRATIC)
    bad["mode"] = "OTHER"
    job = _write(tmp_path, bad)
    assert main(["invariants", job]) == 2


def test_exit_code_broken_chain(tmp_path, capsys):
    bad = json.loads(json.dumps(TOWER))
    bad["steps"][1]["base"] = "K"
    job = _write(tmp_path, bad)
    assert main(["invariants", job]) == 2


def test_exit_code_tame_clash(tmp_path, capsys):
    job = _write(tmp_path, F2_QUADRATIC)
    assert main(["tame", job, "--e", "2"]) == 2


def test_exit_code_precision(tmp_path, capsys):
    tiny = dict(F2_QUADRATIC)
    tiny["precision"] = 6
    job = _write(tmp_path, tiny)
    assert main(["verify", job, "--cmax", "6"]) == 3


def test_exit_code_tower_needs_two_steps(tmp_path, capsys):
    job = _write(tmp_path, F2_QUADRATIC)
    assert main(["tower", job, "--l", "0"]) == 2


def test_non_eisenstein_rejected(tmp_path, capsys):
    bad = {
        "p": 2, "mode": "EQUAL", "precision": 16,
        "steps": [{"name": "L", "base": "K", "coeffs": [[[1, 0]], [[1, 1]]]}],
    }
    job = _write(tmp_path, bad)
    assert main(["invariants", job]) == 2


def test_exit_code_inseparable(tmp_path, capsys):
    # X**2 + t in equal characteristic 2 has vanishing derivative
    bad = {
        "p": 2, "mode": "EQUAL", "precision": 32,
        "steps": [{"name": "L", "base": "K", "coeffs": [[[1, 1]], []]}],
    }
    job = _write(tmp_path, bad)
    assert main(["invariants", job]) == 2


@pytest.mark.parametrize("argv, flag", [
    (["phi", "--j", "1", "--at", "-3"], "--at"),
    (["oracle", "--j", "0", "--c", "-2"], "--c"),
    (["tame", "--e", "-1"], "--e"),
])
def test_out_of_domain_flags_rejected(tmp_path, capsys, argv, flag):
    job = _write(tmp_path, F2_QUADRATIC)
    assert main([argv[0], job] + argv[1:]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and flag in err


def test_tower_at_negative_rejected(tmp_path, capsys):
    job = _write(tmp_path, TOWER)
    assert main(["tower", job, "--l", "0", "--at", "-1"]) == 2
    assert "--at" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [
    ("precision", 64.0), ("precision", "64"), ("p", 2.0), ("p", True),
])
def test_non_integer_job_numbers_rejected(tmp_path, capsys, key, value):
    job = _write(tmp_path, dict(F2_QUADRATIC, **{key: value}))
    assert main(["invariants", job]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: %s must be an integer" % key)


@pytest.mark.parametrize("argv", [
    ["tame", "--e", "3"],
    ["invariants"],
    ["copolygon"],
    ["oracle", "--j", "0", "--c", "1"],
])
def test_no_digit_fits_exits_3(tmp_path, capsys, argv):
    # H = 2 digits past offset 2 fit from precision 4 on; the oracle's probe
    # at c = 1 needs 5, which fit from 7 on; copolygon's one division by
    # pi^2 spends 2 ground digits and reading its quotients to valuation H
    # one more, so the 4 the profile names suffice
    enough = {"oracle": 7}.get(argv[0], 4)
    job = _write(tmp_path, dict(F2_QUADRATIC, precision=3))
    assert main([argv[0], job] + argv[1:]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ")
    assert err.endswith("; they fit from job precision %d on\n" % enough)
    if argv[0] in ("oracle", "copolygon"):
        # it is also the first precision at which the command answers
        for precision, code in ((enough - 1, 3), (enough, 0)):
            job = _write(tmp_path, dict(F2_QUADRATIC, precision=precision))
            assert main([argv[0], job] + argv[1:]) == code


def test_dry_expansion_names_digits_and_precision(tmp_path, capsys):
    # M/K needs 29 digits past offset 4; at precision 20 it expands 16, and
    # each division by pi spends at most one ground digit, so 4 + 29 suffice
    job = _write(tmp_path, dict(TOWER, precision=20))
    assert main(["verify", job, "--cmax", "6"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("error: the digit expansion ran dry: 16 of 29 digits past "
                   "offset 4 at ground precision 20; they fit from job "
                   "precision 33 on\n")


_STEP = F2_QUADRATIC["steps"][0]


@pytest.mark.parametrize("job, message", [
    ([F2_QUADRATIC], "job must be a JSON object"),
    (dict(F2_QUADRATIC, steps=[5]), "steps[0] must be an object"),
    (dict(F2_QUADRATIC, steps=[dict(_STEP, coeffs=5)]),
     "coeffs of step 'L' must be a list"),
    (dict(F2_QUADRATIC, steps=[dict(_STEP, name=["L"])]),
     'name of steps[0] must be a string, got ["L"]'),
    (dict(F2_QUADRATIC, steps=[dict(_STEP, coeffs=[[[True, 1]], [[1, 1]]])]),
     "coeffs[0] of step 'L': ground element entries are [digit, power] "
     "integers, got [true, 1]"),
    (dict(F2_QUADRATIC, steps=[dict(_STEP, coeffs=[5, [[1, 1]]])]),
     "coeffs[0] of step 'L': element must be a JSON array"),
    (dict(TOWER, steps=[TOWER["steps"][0], dict(
        TOWER["steps"][1], coeffs=[[[], [[1, 0]]], [[], [[1, 0]], []]])]),
     "coeffs[1] of step 'M': too many coordinates for degree 2"),
    ({k: v for k, v in F2_QUADRATIC.items() if k != "steps"},
     "job has no field 'steps'"),
    (dict(F2_QUADRATIC, steps=[{"name": "L", "coeffs": _STEP["coeffs"]}]),
     "steps[0] has no field 'base'"),
], ids=["array", "step", "coeffs", "name", "bool_digit", "coeff_not_array",
        "too_many_coordinates", "no_steps", "no_base"])
def test_malformed_job_names_the_field(tmp_path, capsys, job, message):
    path = _write(tmp_path, job)
    assert main(["invariants", path]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: %s\n" % message


def test_equal_precision_bound_names_field_and_limit(tmp_path, capsys):
    job = _write(tmp_path, dict(F2_QUADRATIC, p=3, precision=20000))
    assert main(["invariants", job]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("error: precision 20000 too large for F_3((t)): "
                   "at most 16383\n")


def test_parser_survives_a_refused_flag(tmp_path, capsys):
    # the parser is built once per process, so an argparse exit must not
    # change what the next call prints
    job = _write(tmp_path, TOWER)
    argv = ["tower", job, "--l", "2", "--at", "1/2"]
    with pytest.raises(SystemExit) as exc:
        main(["tower", job, "--l", "2", "--bogus"])
    assert exc.value.code == 2
    capsys.readouterr()
    code, out = _run(capsys, argv)
    assert code == 0
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    fresh = subprocess.run(
        [sys.executable, "-c",
         "import sys; from ramify.cli import main; sys.exit(main(sys.argv[1:]))"]
        + argv,
        capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=src))
    assert out == fresh.stdout
    assert cli.build_parser() is cli.build_parser()


@pytest.mark.parametrize("argv", [
    ["phi", "--j", "1", "--at", "1/0"],
    ["tower", "--l", "0", "--at", "1/0"],
])
def test_zero_denominator_is_an_argparse_error(tmp_path, capsys, argv):
    job = _write(tmp_path, TOWER)
    with pytest.raises(SystemExit) as exc:
        main([argv[0], job] + argv[1:])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "argument --at: invalid fraction_arg value: '1/0'" in err


def test_equal_mode_needs_p_below_257(tmp_path, capsys):
    job = _write(tmp_path, dict(F2_QUADRATIC, p=257, precision=64))
    assert main(["invariants", job]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: F_p((t)) needs p < 257, got p = 257\n"


def test_large_prime_job_answers(tmp_path, capsys):
    # X^2 + p over Q_p, p = 10^18 + 3: primality is settled at once
    job = _write(tmp_path, dict(Q2_SQRT2, p=10 ** 18 + 3, steps=[
        {"name": "L", "base": "K", "coeffs": [[[1, 1]], []]}]))
    code, out = _run(capsys, ["invariants", job])
    assert code == 0
    assert json.loads(out) == {"i": [0], "n": 2, "nu": 0, "tilde": [0]}
    code, out = _run(capsys, ["phi", job, "--j", "0", "--at", "3/2"])
    assert code == 0
    assert json.loads(out)["value"] == [3, 2]
    # the probe ring stops at the series' eps-degree, far below p
    code, out = _run(capsys, ["verify", job, "--cmax", "3"])
    assert code == 0
    assert json.loads(out)["ok"] is True
    code, out = _run(capsys, ["oracle", job, "--j", "0", "--c", "1"])
    assert code == 0
    assert json.loads(out)["Phi"] == 1 and json.loads(out)["match"]
    code, out = _run(capsys, ["copolygon", job])
    assert code == 0
    assert json.loads(out)["function"] == {
        "f0": [0, 1], "final_slope": 1, "vertices": []}


README_MIXED = dict(TOWER, mode="MIXED")

F3_CUBIC = {
    "p": 3,
    "mode": "EQUAL",
    "precision": 64,
    "steps": [
        {"name": "L", "base": "K", "coeffs": [[[1, 1]], [[1, 1]], []]},
    ],
}

Q3_CUBIC = dict(F3_CUBIC, mode="MIXED", steps=[
    {"name": "L", "base": "K", "coeffs": [[[-1, 1]], [], []]},
])


@pytest.mark.parametrize("job", [TOWER, README_MIXED, F3_CUBIC, Q3_CUBIC],
                         ids=["readme_equal", "readme_mixed", "f3_cubic",
                              "q3_cubic"])
def test_answers_do_not_depend_on_precision(tmp_path, capsys, job):
    # an answer printed at a low precision is the one printed at 64; a job
    # too short for its answer is refused with exit 3 and nothing on stdout
    def run(precision, argv):
        path = _write(tmp_path, dict(job, precision=precision))
        code = main([argv[0], path] + argv[1:])
        out, err = capsys.readouterr()
        return code, out, err

    for argv in (["verify", "--cmax", "2"], ["oracle", "--j", "0", "--c", "3"],
                 ["invariants"], ["copolygon", "--norm", "vK"],
                 ["tame", "--e", "5"]):
        code, want, _ = run(64, argv)
        assert code == 0
        for precision in range(3, 21):
            code, out, err = run(precision, argv)
            if code == 0:
                assert out == want, (argv, precision)
            else:
                assert (code, out) == (3, ""), (argv, precision, err)
                assert err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    ["copolygon"], ["copolygon", "--norm", "vK"], ["copolygon", "--j", "0"],
])
@pytest.mark.parametrize("job", [TOWER, README_MIXED],
                         ids=["readme_equal", "readme_mixed"])
def test_copolygon_of_the_readme_tower_answers_at_precision_3(
        tmp_path, capsys, job, argv):
    # one division by pi^2 on M, and reading to H: the digits the profile
    # of M/L reads at precision 3 are enough
    def run(precision):
        path = _write(tmp_path, dict(job, precision=precision))
        code = main([argv[0], path, "--field", "M"] + argv[1:])
        return code, capsys.readouterr().out

    want = run(64)
    assert want[0] == 0
    assert run(3) == want


F3_SQRT = dict(F3_CUBIC, steps=[
    {"name": "L", "base": "K", "coeffs": [[[-1, 1]], []]},
])


@pytest.mark.parametrize("precision, argv", [
    (4, ["tame", "--field", "L", "--e", "5"]),
    (4, ["invariants", "--field", "L"]),
    (4, ["phi", "--field", "L", "--j", "1", "--at", "7/2"]),
    (2, ["invariants", "--field", "M"]),
    (2, ["tame", "--field", "M", "--e", "3"]),
], ids=["tame_L", "invariants_L", "phi_L", "invariants_M", "tame_M"])
def test_profile_answers_from_the_digits_it_tracks(tmp_path, capsys,
                                                    precision, argv):
    # the README tower over Q_2 tracks fewer digits than the horizon H asks
    # at these precisions, but enough for the index check to certify every
    # index, so the profile answers as at precision 64
    code, want = _run(capsys, [argv[0], _write(tmp_path, README_MIXED)]
                      + argv[1:])
    assert code == 0
    low = _write(tmp_path, dict(README_MIXED, precision=precision))
    assert _run(capsys, [argv[0], low] + argv[1:]) == (0, want)


# X + 6, then Y^2 + 2 over it, over Q_2
Q2_DEGREE_ONE_BASE = {
    "p": 2,
    "mode": "MIXED",
    "precision": 64,
    "steps": [
        {"name": "L", "base": "K", "coeffs": [[[1, 1], [1, 2]]]},
        {"name": "M", "base": "L", "coeffs": [[[[1, 1]]], [[]]]},
    ],
}

REFUSALS = {
    "%s-%s" % (name, mode): (job, argv, range(3, 8))
    for mode, job in (("equal", TOWER), ("mixed", README_MIXED))
    for name, argv in (("verify6", ["verify", "--cmax", "6"]),
                       ("verify2", ["verify", "--cmax", "2"]),
                       ("tower", ["tower", "--l", "1"]))
}
# the series tame lifts comes back short, though it holds enough digits for
# its own profile; the index check on the lifted series then refuses
REFUSALS["tame5-q2_degree_one_base"] = (Q2_DEGREE_ONE_BASE,
                                        ["tame", "--e", "5"], [2])
REFUSALS["tame5-q3_cubic"] = (Q3_CUBIC, ["tame", "--e", "5"], [2])


@pytest.mark.parametrize("job, argv, precisions", list(REFUSALS.values()),
                         ids=list(REFUSALS))
def test_job_refusal_names_a_precision_that_answers(tmp_path, capsys, job,
                                                     argv, precisions):
    # verify and tower expand several series; the refusal they report
    # names the precision from which every series of the job fits, not
    # only the first that runs short, and tame names the one from which
    # the series it lifts fits, so the rerun there answers
    answered = set()
    for precision in precisions:
        low = _write(tmp_path, dict(job, precision=precision))
        assert main([argv[0], low] + argv[1:]) == 3
        out, err = capsys.readouterr()
        named = re.search(r"; they fit from job precision (\d+) on\n$", err)
        assert out == "" and named, (precision, err)
        enough = int(named.group(1))
        if enough not in answered:
            high = _write(tmp_path, dict(job, precision=enough))
            assert main([argv[0], high] + argv[1:]) == 0, (precision, enough)
            capsys.readouterr()
            answered.add(enough)


# X^2 + 2t + t^2 over F_3((t)), then Y^3 + t^2 pi_L Y^2 + 2t^2 pi_L Y + pi_L
F3_TWO_STEP = {
    "p": 3,
    "mode": "EQUAL",
    "precision": 64,
    "steps": [
        {"name": "L", "base": "K", "coeffs": [[[2, 1], [1, 2]], []]},
        {"name": "M", "base": "L",
         "coeffs": [[[], [[1, 0]]], [[], [[2, 2]]], [[], [[1, 2]]]]},
    ],
}


@pytest.mark.parametrize("argv", [
    ["invariants"], ["tame", "--e", "5"], ["tower", "--l", "0"],
    ["verify", "--cmax", "2"], ["oracle", "--j", "0", "--c", "1"],
], ids=["invariants", "tame", "tower", "verify", "oracle"])
def test_uncertified_different_exponent_is_named(tmp_path, capsys, argv):
    # at precision 2 every tracked digit of E'(pi_M) vanishes, so the
    # different exponent of M/L, which sizes every expansion, is refused
    low = _write(tmp_path, dict(F3_TWO_STEP, precision=2))
    assert main([argv[0], low] + argv[1:]) == 3
    assert capsys.readouterr() == ("", (
        "error: the different exponent of step 'M' is not certified at "
        "ground precision 2: it is at least 15\n"))


@pytest.mark.parametrize("precision, argv", [
    (3, ["invariants"]),
    (4, ["oracle", "--j", "0", "--c", "3"]),
    (4, ["verify", "--cmax", "4"]),
], ids=["invariants", "oracle", "verify"])
def test_sparse_job_answers_at_low_precision(tmp_path, capsys, precision,
                                              argv):
    # X^2 - t over F_3((t)): a division by pi moves one coordinate down
    # whole and divides the other by t, so each coordinate spends a ground
    # digit every other step and these jobs answer below the n + H bound
    code, want = _run(capsys, [argv[0], _write(tmp_path, F3_SQRT)] + argv[1:])
    assert code == 0
    low = _write(tmp_path, dict(F3_SQRT, precision=precision))
    assert _run(capsys, [argv[0], low] + argv[1:]) == (0, want)


def test_each_digit_series_is_expanded_once(tmp_path, monkeypatch):
    calls = []

    def spy(target, horizon, *need):
        calls.append((target.floor.absolute_degree, target.valuation()))
        return expand_digits(target, horizon, *need)

    monkeypatch.setattr(tower, "expand_digits", spy)
    job = _write(tmp_path, TOWER)
    assert main(["verify", job, "--cmax", "6"]) == 0
    # (absolute degree of the floor, offset): L/K, M/L and M/K
    assert sorted(calls) == [(2, 2), (4, 2), (4, 4)]
    calls.clear()
    assert main(["tame", job, "--field", "L", "--e", "3"]) == 0
    # the series of L/K, then the lifted series on the cubic floor over L
    assert sorted(calls) == [(2, 2), (6, 2)]


def test_sweep_refuses_an_i0_the_different_does_not_give(tmp_path, capsys,
                                                          monkeypatch):
    different_over = tower.different_over
    monkeypatch.setattr(tower, "different_over",
                        lambda top, offset: different_over(top, offset) + 1)
    job = _write(tmp_path, TOWER)
    assert main(["verify", job, "--cmax", "2"]) == 4
    out, err = capsys.readouterr()
    assert out == ""
    # the M/K sweep, which needs the most precision, runs first
    assert err == ("error: i_0 = 3 read off the digits, but the different "
                   "exponent d = 7 gives d - n + 1 = 4\n")


def two_step_sweeps(top, base, cmaxes):
    """Sweep series for each cmax the two-step way: read i_0 off a first
    expansion, then expand again when the sweep needs more digits."""
    target = top.embed(base.uniformizer())
    first = expand_digits(target, expansion_horizon(top, base))
    first_profile = inseparability_profile(first, top.p_valuation())
    for cmax in cmaxes:
        series, profile = first, first_profile
        need = profile.i[0] + top.p ** profile.nu * cmax + 2
        if need > series.horizon:
            series = expand_digits(target, need)
            profile = inseparability_profile(series, top.p_valuation())
        yield cmax, series, profile


def _sweep_fields():
    for name in sorted(CASE_BUILDERS):
        case = CASE_BUILDERS[name]()
        yield case.floor, case.ground
    for T in fuzz_towers()[:20]:
        L, M = T.lower_floor, T.upper_floor
        yield from ((L, L.base), (M, L), (M, L.base))


def test_sweep_ready_matches_the_two_step_reference():
    for top, base in _sweep_fields():
        for cmax, want, want_profile in two_step_sweeps(top, base, range(7)):
            got, got_profile = tower.expand_profile(top, base, cmax=cmax)
            assert got.offset == want.offset
            assert [c.residue() for c in got.coeffs] == \
                [c.residue() for c in want.coeffs]
            assert got_profile == want_profile
