"""Per-layer spans and counts, recorded from the benchmark's own files.

hurwitzlab's modules import each other's functions by name
(``from .symgroup import mn_character``), so a function is wrapped where it
is called: in the namespace of every module that calls it.  Spans nest
through one stack, and a span's self time is its duration minus the time of
the spans it contains.  A call site that no longer exists is recorded as
absent and its metrics read 0, so the trace survives a refactor that removes
a function.
"""

from __future__ import annotations

import importlib
import os
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


@dataclass
class Tracer:
    spans: dict[str, Span] = field(default_factory=dict)
    counts: dict[str, float] = field(default_factory=dict)
    absent: list[str] = field(default_factory=list)
    # child time accumulated by each open span, innermost last
    _stack: list[list] = field(default_factory=list)

    def active(self, name: str) -> bool:
        return any(frame[0] == name for frame in self._stack)

    def add(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def wrap(self, name: str, fn, after):
        span = self.spans.setdefault(name, Span())
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            result = None
            started = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                elapsed = clock() - started
                stack.pop()
                span.calls += 1
                span.total_s += elapsed
                span.self_s += elapsed - frame[1]
                if after is not None:
                    # also after a raise: a failed call did its work too.
                    # The hook's own time counts as the enclosing span's
                    # child time, so it lands in no self time.
                    hook_started = clock()
                    after(self, args, kwargs, result)
                    elapsed += clock() - hook_started
                if stack:
                    stack[-1][1] += elapsed

        return traced

    def self_total(self) -> float:
        return sum(span.self_s for span in self.spans.values())


# -- counters read from arguments and results ---------------------------------


def _oracle(tracer, args, kwargs, result):
    if result is not None:
        tracer.add("oracle_leaves", result.stats.tuples_examined or 0)


def _oracle_in_fit(tracer, args, kwargs, result):
    _oracle(tracer, args, kwargs, result)
    if tracer.active("piecewise.fit_chamber"):
        tracer.add("spot_checks")


def _interpolate(tracer, args, kwargs, result):
    points = args[0] if args else kwargs["points"]
    # the rows of the system; in a fit's square solve, its unknowns
    tracer.add("unknowns", len(points))
    if result is None and tracer.active("piecewise.fit_chamber"):
        # the solve raised, and the fit retries with more points
        tracer.add("retries")


def _node(tracer, args, kwargs, result):
    if tracer.active("piecewise.fit_chamber"):
        profile = args[0] if args else kwargs["profile"]
        tracer.add("nodes")
        degree = sum(v for v in profile.x if v > 0)
        tracer.counts["max_node_degree"] = max(tracer.counts.get("max_node_degree", 0), degree)


def _cache_lookup(tracer, args, kwargs, result):
    """The size of the file a lookup faces, not what the lookup read: a stat
    for the bytes, and the round's appends so far for the records (each
    round starts from an empty cache file)."""
    path = args[0] if args else kwargs["path"]
    if result is not None:
        tracer.add("cache_hits")
    if os.path.exists(path):
        tracer.add("cache_bytes_scanned", os.path.getsize(path))
    tracer.add("cache_records_scanned", tracer.spans["cli.cache_append"].calls)


# span name -> call sites as (module, attribute, counter hook)
HOOKS = {
    "symgroup.mn_character": [("hurwitz", "mn_character", None), ("cli", "mn_character", None)],
    "symgroup.irreducible_dimension": [("hurwitz", "irreducible_dimension", None)],
    "hurwitz.frobenius_connected": [
        ("hurwitz", "frobenius_connected", None),
        ("piecewise", "frobenius_connected", _node),
        ("cli", "frobenius_connected", None),
    ],
    "hurwitz.frobenius_disconnected": [("hurwitz", "frobenius_disconnected", None)],
    "hurwitz.oracle_count": [
        ("piecewise", "oracle_count", _oracle_in_fit),
        ("cli", "oracle_count", _oracle),
    ],
    "exact.interpolate": [
        ("piecewise", "interpolate", _interpolate),
        ("cli", "interpolate", _interpolate),
    ],
    "exact.MultiPoly.evaluate": [("exact.MultiPoly", "evaluate", None)],
    "exact.poly_divmod": [("cli", "poly_divmod", None)],
    "chambers.sample_chamber": [("piecewise", "sample_chamber", None)],
    "chambers.adjacent_chamber": [("cli", "adjacent_chamber", None)],
    "piecewise.fit_chamber": [("piecewise", "fit_chamber", None), ("cli", "fit_chamber", None)],
    "piecewise.wall_crossing": [("cli", "wall_crossing", None)],
    "piecewise.product_formula_report": [("cli", "product_formula_report", None)],
    "identities.verify_identities": [("cli", "verify_identities", None)],
    "cli.main": [("cli", "main", None)],
    "cli.cache_lookup": [("cli", "cache_lookup", _cache_lookup)],
    "cli.cache_append": [("cli", "cache_append", None)],
}


def install() -> Tracer:
    """Wrap every call site in HOOKS.  All owners are resolved, and so their
    modules imported, before the first wrap, so that no ``from .x import y``
    runs after it and picks up a wrapper."""
    tracer = Tracer()
    sites = []
    for span, where_list in HOOKS.items():
        tracer.spans[span] = Span()
        for where, attr, after in where_list:
            module_name, _, cls_name = where.partition(".")
            try:
                owner = importlib.import_module(f"hurwitzlab.{module_name}")
            except ImportError:
                owner = None
            if owner is not None and cls_name:
                owner = getattr(owner, cls_name, None)
            fn = getattr(owner, attr, None)
            if fn is None:
                tracer.absent.append(f"{where}.{attr}")
            else:
                sites.append((owner, attr, tracer.wrap(span, fn, after)))
    for owner, attr, traced in sites:
        setattr(owner, attr, traced)
    return tracer


def layer_metrics(tracer: Tracer, cache_file_bytes: int) -> dict[str, float]:
    """The per-layer metrics of one traced round."""
    s = tracer.spans
    c = tracer.counts.get
    oracle_s = s["hurwitz.oracle_count"].total_s
    return {
        "symgroup.characters": s["symgroup.mn_character"].calls,
        "symgroup.characters_s": s["symgroup.mn_character"].total_s,
        "symgroup.dimensions": s["symgroup.irreducible_dimension"].calls,
        "symgroup.dimensions_s": s["symgroup.irreducible_dimension"].total_s,
        "hurwitz.evaluations": s["hurwitz.frobenius_connected"].calls,
        "hurwitz.subprofiles": s["hurwitz.frobenius_disconnected"].calls,
        "hurwitz.charsum_self_s": s["hurwitz.frobenius_disconnected"].self_s,
        "hurwitz.inclexcl_self_s": s["hurwitz.frobenius_connected"].self_s,
        "hurwitz.oracle_calls": s["hurwitz.oracle_count"].calls,
        "hurwitz.oracle_leaves": c("oracle_leaves", 0),
        "hurwitz.oracle_s": oracle_s,
        "hurwitz.oracle_leaves_per_s": c("oracle_leaves", 0) / oracle_s if oracle_s else 0.0,
        "exact.interpolations": s["exact.interpolate"].calls,
        "exact.unknowns": c("unknowns", 0),
        "exact.interpolate_s": s["exact.interpolate"].total_s,
        "exact.validations": s["exact.MultiPoly.evaluate"].calls,
        "exact.validate_s": s["exact.MultiPoly.evaluate"].total_s,
        "exact.divmod_s": s["exact.poly_divmod"].total_s,
        "chambers.samples": s["chambers.sample_chamber"].calls,
        "chambers.sample_s": s["chambers.sample_chamber"].total_s,
        "chambers.adjacent_s": s["chambers.adjacent_chamber"].total_s,
        "piecewise.fits": s["piecewise.fit_chamber"].calls,
        "piecewise.retries": c("retries", 0),
        "piecewise.nodes": c("nodes", 0),
        "piecewise.max_node_degree": c("max_node_degree", 0),
        "piecewise.spot_checks": c("spot_checks", 0),
        "piecewise.fit_self_s": s["piecewise.fit_chamber"].self_s,
        "identities.verify_s": s["identities.verify_identities"].total_s,
        "cli.commands": s["cli.main"].calls,
        "cli.command_self_s": s["cli.main"].self_s,
        "cli.cache_lookups": s["cli.cache_lookup"].calls,
        "cli.cache_hits": c("cache_hits", 0),
        "cli.cache_lookup_s": s["cli.cache_lookup"].total_s,
        "cli.cache_bytes_scanned": c("cache_bytes_scanned", 0),
        "cli.cache_records_scanned": c("cache_records_scanned", 0),
        "cli.cache_appends": s["cli.cache_append"].calls,
        "cli.cache_append_s": s["cli.cache_append"].total_s,
        "cli.cache_file_bytes": cache_file_bytes,
    }


PER_LAYER_UNITS = {
    name: ("1/s" if name.endswith("_per_s") else "s" if name.endswith("_s") else "count")
    for name in layer_metrics(Tracer(spans={k: Span() for k in HOOKS}), 0)
}
