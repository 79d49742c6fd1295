"""The benchmark worker's calls into the program resolve in the source tree.

``perfbench/worker.py`` imports ``chambers``, ``cli``, ``hurwitz`` and
``piecewise`` and calls the program through attribute chains on them, such
as ``chambers.ChamberWitness.at``.  A renamed or deleted target would fail
every operation of a benchmark round, so each chain it calls is parsed out
of the worker's source and looked up here.  Likewise every call site that
``perfbench/layertrace.py`` wraps must exist, apart from a pinned list of
sites already gone, or its per-layer counts silently read 0.
"""

from __future__ import annotations

import ast
import importlib
import sys
from pathlib import Path

WORKER = Path(__file__).resolve().parents[1] / "perfbench" / "worker.py"
LAYERTRACE = WORKER.parent / "layertrace.py"
MODULES = ("chambers", "cli", "hurwitz", "piecewise")
# trace hooks whose targets were deleted or renamed in the program
ABSENT_HOOKS = {
    ("hurwitz", "mn_character"),
    ("cli", "mn_character"),
    ("hurwitz", "irreducible_dimension"),
    ("piecewise", "interpolate"),
    ("cli", "interpolate"),
    ("piecewise", "sample_chamber"),
}


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


def test_every_trace_hook_resolves_apart_from_the_pinned_absent_ones(monkeypatch):
    # layertrace.py imports only the stdlib at module level, so importing it
    # wraps nothing; no bytecode is written into perfbench/
    imported = set()
    for node in ast.parse(LAYERTRACE.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Import):
            imported |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported.add("." if node.level else node.module.split(".")[0])
    assert imported and imported <= sys.stdlib_module_names | {"__future__"}
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(LAYERTRACE.parent))
    layertrace = importlib.import_module("layertrace")

    absent = set()
    for sites in layertrace.HOOKS.values():
        for where, attr, _ in sites:
            module_name, _, cls_name = where.partition(".")
            owner = importlib.import_module(f"hurwitzlab.{module_name}")
            if cls_name:
                owner = getattr(owner, cls_name)
            if not callable(getattr(owner, attr, None)):
                absent.add((where, attr))
    # equality, so a hook whose target comes back must leave the list too
    assert absent == ABSENT_HOOKS
