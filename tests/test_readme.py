"""The README's "Library use" block runs as written and prints what its
comments say."""

from __future__ import annotations

import pathlib
import re

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
