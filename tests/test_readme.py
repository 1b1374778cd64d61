"""The README's "Library use" block runs as written and prints what its
comments say, and each `$ ramify ...` example under "Commands" prints, on
the README's job file, the lines shown below it."""

from __future__ import annotations

import pathlib
import re
import shlex

from ramify.cli import main

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def library_block():
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library use"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_use_block_prints_its_comments(capsys):
    code = library_block()
    exec(compile(code, "README.md", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    calls = [line for line in code.splitlines() if line.startswith("print(")]
    assert len(printed) == len(calls)
    for line, out in zip(calls, printed):
        if "#" in line:
            # the comment opens with the printed value, e.g. "3, agrees with f(2)"
            comment = line.split("#", 1)[1].strip()
            assert comment == out or comment.startswith(out + ","), (line, out)


def _section(title):
    text = README.read_text(encoding="utf-8")
    start = text.index(title)
    return text[start:text.index("\n#", start + len(title))]


def command_examples():
    """(argv, shown lines) for each `$ ramify` line under "Commands"."""
    out = []
    for block in re.findall(r"```sh\n(.*?)```", _section("### Commands"), re.S):
        for line in block.splitlines():
            if line.startswith("$ ramify "):
                out.append((shlex.split(line)[2:], []))
            else:
                out[-1][1].append(line)
    return out


def test_command_examples_print_what_the_readme_shows(tmp_path, capsys):
    job = re.search(r"```json\n(.*?)```", _section("### Job file"), re.S)
    path = tmp_path / "job.json"
    path.write_text(job.group(1), encoding="utf-8")
    examples = command_examples()
    assert len(examples) == 9
    for argv, shown in examples:
        code = main([str(path) if a == "job.json" else a for a in argv])
        printed = capsys.readouterr().out.splitlines()
        assert code == 0, argv
        # a line "..." stands for the lines left out; any other line with
        # "..." elides part of its JSON and is not compared
        if "..." in shown:
            k = shown.index("...")
            pairs = list(zip(shown[:k], printed)) + list(
                zip(shown[k + 1:], printed[k + 1 - len(shown):]))
        else:
            assert len(printed) == len(shown), argv
            pairs = zip(shown, printed)
        for want, got in pairs:
            if "..." not in want:
                assert want == got, argv
