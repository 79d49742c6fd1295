"""The README's command-line examples run and print what they say.

Each ``hurwitzlab ...`` line of the "Command line" code block runs through
``cli.main`` in an empty directory and must exit 0; a line ending in
``# -> P`` must fit the polynomial whose display is P.
"""

from __future__ import annotations

import json
import re
import shlex
from pathlib import Path

import pytest

from hurwitzlab import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def _examples() -> list[tuple[list[str], str | None]]:
    text = README.read_text(encoding="utf-8")
    (block,) = re.findall(r"^## Command line\n\n```sh\n(.*?)^```", text, re.M | re.S)
    examples = []
    for line in block.splitlines():
        command, _, display = line.partition("# -> ")
        program, *argv = shlex.split(command, comments=True)
        assert program == "hurwitzlab", line
        examples.append((argv, display.strip() or None))
    return examples


EXAMPLES = _examples()


def test_some_examples_name_their_fit():
    assert any(display for _, display in EXAMPLES)


@pytest.mark.parametrize("argv, display", EXAMPLES, ids=[" ".join(a) for a, _ in EXAMPLES])
def test_readme_example_runs(tmp_path, monkeypatch, capsys, argv, display):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("HURWITZ_CACHE", raising=False)
    assert cli.main(argv) == 0
    out, _ = capsys.readouterr()
    if display is not None:
        assert json.loads(out)["display"] == display
