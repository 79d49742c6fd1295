"""The benchmark worker's calls into the program resolve in the source tree.

``perfbench/worker.py`` imports ``chambers``, ``cli``, ``hurwitz`` and
``piecewise`` and calls the program through attribute chains on them, such
as ``chambers.ChamberWitness.at``.  A renamed or deleted target would fail
every operation of a benchmark round, so each chain it calls is parsed out
of the worker's source and looked up here.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

WORKER = Path(__file__).resolve().parents[1] / "perfbench" / "worker.py"
MODULES = ("chambers", "cli", "hurwitz", "piecewise")


def _called_chains(source: str) -> set[tuple[str, ...]]:
    """(module, attribute, ...) of every call whose callee is an attribute
    chain rooted at one of MODULES."""
    chains = set()
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        attrs, callee = [], node.func
        while isinstance(callee, ast.Attribute):
            attrs.append(callee.attr)
            callee = callee.value
        if attrs and isinstance(callee, ast.Name) and callee.id in MODULES:
            chains.add((callee.id, *reversed(attrs)))
    return chains


def test_every_worker_call_resolves():
    chains = _called_chains(WORKER.read_text(encoding="utf-8"))
    assert ("chambers", "ChamberWitness", "at") in chains
    missing = []
    for chain in sorted(chains):
        target = importlib.import_module(f"hurwitzlab.{chain[0]}")
        for attr in chain[1:]:
            target = getattr(target, attr, None)
        if not callable(target):
            missing.append(".".join(chain))
    assert missing == []


def test_every_benchmark_command_line_parses(monkeypatch):
    # inputs.py imports its sibling checks.py by the bare name
    monkeypatch.syspath_prepend(str(WORKER.parent))
    inputs = importlib.import_module("inputs")
    cli = importlib.import_module("hurwitzlab.cli")
    ops = inputs.fit_ops(13) + inputs.cli_ops(13, "cache.jsonl")
    argvs = [op.argv for op in ops if op.argv]
    assert {argv[0] for argv in argvs} == {"wallcross", "compute", "selftest"}
    parser = cli.build_parser()
    for argv in argvs:
        parser.parse_args(list(argv))  # an unknown option raises SystemExit
