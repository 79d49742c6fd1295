"""Every function in the package is reached from the command line.

The commands below cover what the CLI documents: compute as a cache miss, a
hit, a verified hit, by both methods, over the oracle budget and on a damaged
cache record; the documented fits; wall crossings at g=0 and g=1, one of
them with no adjacent witness and one on an edge wall; the self-test; and
invalid input, negative budgets included.  Run in-process under a profile
hook, they must call every named function and method defined in
``src/hurwitzlab``, nested ones and hand-written dunder methods included, so
that no production code exists only for the tests.  ``__str__`` and
``__repr__`` are exempt: formatting calls them on error paths and in test
failure output.  Methods that ``dataclasses`` generates have no source lines
and are not counted.
"""

from __future__ import annotations

import inspect
import json
import sys
from pathlib import Path

import hurwitzlab
from hurwitzlab import chambers, cli, hurwitz, symgroup

PACKAGE = Path(hurwitzlab.__file__).resolve().parent

CACHED = ("compute", "-g", "0", "-x", "7,1,-2,-3,-3", "--cache", "cache.jsonl")
DAMAGED = ("compute", "-g", "0", "-x", "2,-1,-1", "--cache", "damaged.jsonl")
COMMANDS = [
    (CACHED, 0),  # miss
    (CACHED, 0),  # hit
    (CACHED + ("--verify",), 0),
    (DAMAGED, 0),
    (("compute", "-g", "0", "-x", "3,1,-2,-2", "--method", "both", "--no-cache"), 0),
    (
        ("compute", "-g", "0", "-x", "9,4,-5,-5,-3", "--method", "oracle",
         "--budget", "1000", "--no-cache"),
        3,
    ),
    (("fit", "-g", "0", "-x", "7,1,-2,-3,-3", "--json"), 0),
    (("fit", "-g", "1", "-x", "1,-1"), 0),
    (("wallcross", "-g", "0", "-x", "7,1,-2,-3,-3", "--wall", "1,3,4"), 0),
    (("wallcross", "-g", "0", "-x", "7,1,-2,-3,-3", "--wall", "2"), 0),
    (("wallcross", "-g", "1", "-x", "3,1,-2,-2", "--wall", "2"), 0),
    (("wallcross", "-g", "0", "--profile=-1,3,-2", "--wall", "2"), 5),
    (("selftest",), 0),
    (("compute", "-g", "0", "-x", "3,x,-2", "--no-cache"), 2),
    (("compute", "-g", "0", "-x", "3,1,-2", "--no-cache"), 2),
    (("fit", "-g", "0", "-x", "2,1,-1,-2"), 2),
    (("fit", "-g", "0", "-x", "1,-1"), 2),
    (("wallcross", "-g", "0", "-x", "7,1,-2,-3,-3", "--wall", "2,x"), 2),
    (("wallcross", "-g", "0", "-x", "7,1,-2,-3,-3", "--wall", "9"), 2),
    (("wallcross", "-g", "0", "-x", "7,1,-2,-3,-3", "--wall", "1,6"), 2),
    (("compute", "-g", "0", "-x", "2,-1,-1", "--cache", "."), 2),
    (
        ("compute", "-g", "0", "-x", "9,4,-5,-5,-3", "--method", "oracle",
         "--budget", "-1", "--no-cache"),
        2,
    ),
]

EXEMPT = ("__str__", "__repr__")


def _defined_functions() -> set[tuple[str, int, str]]:
    """(file, first line, name) of every named function in the package."""
    found = set()
    for path in PACKAGE.glob("*.py"):
        stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
        while stack:
            code = stack.pop()
            stack.extend(c for c in code.co_consts if hasattr(c, "co_code"))
            name = code.co_name
            is_function = code.co_flags & inspect.CO_NEWLOCALS  # not a class body
            if is_function and not name.startswith("<") and name not in EXEMPT:
                found.add((code.co_filename, code.co_firstlineno, name))
    return found


def test_every_function_is_reached_from_the_cli(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "damaged.jsonl").write_text(
        json.dumps({"key": "g=0;pos=2;neg=-1,-1", "value": "banana"}) + "\n"
    )
    # a memoized result would hide the call that computes it
    for module in (chambers, hurwitz, symgroup):
        for value in vars(module).values():
            getattr(value, "cache_clear", lambda: None)()

    called = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            called.add((code.co_filename, code.co_firstlineno, code.co_name))

    codes = []
    sys.setprofile(profile)
    try:
        for argv, _ in COMMANDS:
            codes.append(cli.main(list(argv)))
    finally:
        sys.setprofile(None)
    capsys.readouterr()

    assert codes == [code for _, code in COMMANDS]
    unreached = sorted(
        f"{Path(file).name}:{line} {name}"
        for file, line, name in _defined_functions() - called
    )
    assert unreached == []
