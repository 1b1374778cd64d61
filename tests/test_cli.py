from __future__ import annotations

import json

import pytest

from ramify.cli import main

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
    job = _write(tmp_path, dict(F2_QUADRATIC, precision=3))
    assert main([argv[0], job] + argv[1:]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and "from job precision 4 on" in err


def test_dry_expansion_names_digits_and_precision(tmp_path, capsys):
    # the room check passes at precision 20, but M/K expands only 16 digits
    job = _write(tmp_path, dict(TOWER, precision=20))
    assert main(["verify", job, "--cmax", "6"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("error: the digit expansion ran dry: 16 of 29 digits past "
                   "offset 4 at ground precision 20\n")
