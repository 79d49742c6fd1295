"""Seeded inputs of the three workloads.

Stdlib only, and free of any hurwitzlab import: the worker builds its
operation list from these descriptions, and the parent process rebuilds the
same descriptions to check the answers.  ``random.Random`` seeded with a
string is independent of PYTHONHASHSEED, so a seed always gives the same
inputs.

Why the inputs look the way they do:

* ``evaluate`` fixes the degrees.  The cost of a one-part evaluation is set
  by its degree (a sum over the partitions of d), not by how the parts split,
  so the seed picks the genus, the split and the labelling.  A ray point
  with several positive parts costs more or less with its shape, so each
  ray's part multiset is drawn once, the same for every seed, and the seed
  picks its labelling.
* ``fit`` runs a fixed list of witnesses in a fixed order, whatever the
  seed.  A relabelled witness samples other nodes, and one witness's fit
  costs anywhere from 1.2 s to 4.7 s (g=1, n=4, d<=5), so witnesses drawn
  from the seed would swamp any regression bound.  The order is fixed too:
  the fit that runs first pays for the memo entries the others share, so a
  seed-chosen order would move the per-operation percentiles.
* ``cli`` draws distinct small part multisets and presents each one under
  three seed-chosen labellings, one per pass, so the hit pass cannot match
  on the command text.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from checks import signs

# One one-part profile per degree; the seed picks genus and the split of d.
EVALUATE_ONE_PART_DEGREES = tuple(range(25, 35))
EVALUATE_ONE_PART_GENERA = (0, 1, 2, 3)
# Rays k*x for k = 1..g+3: (n, positive parts, g, degree of x).
# Points off every wall have no balanced sub-blocks, and small degrees have
# few such points: (5, 2, g, 6) admits only three part multisets.
EVALUATE_RAY_SLOTS = (
    (4, 2, 0, 8),
    (4, 2, 1, 6),
    (4, 2, 2, 5),
    (5, 2, 0, 8),
    (5, 3, 1, 6),
    (5, 2, 2, 6),
)

FIT_WITNESSES = (
    ((7, 1, -2, -3, -3), 0),
    ((3, 1, -2, -2), 1),
    ((-1, -1, -1, 3), 1),
    ((3, -1, -2), 2),
    ((2, -1, -1), 2),
)
WALLCROSS = ((7, 1, -2, -3, -3), 0, (2, 5))
# README: the chamber of (7,1,-2,-3,-3) carries H_0 = 6*x1^2.
DOCUMENTED_FIT = {"n": 5, "terms": {"2,0,0,0": "6"}}

CLI_MAX_DEGREE = 6
CLI_MAX_PARTS = 6
CLI_GENERA = (0, 1, 2)
CLI_PROFILES = 340
# Documented values of the two README examples.
CLI_EXAMPLES = (((7, 1, -2, -3, -3), 0, "294"), ((9, 4, -5, -5, -3), 0, "540"))


@dataclass(frozen=True)
class Op:
    """One operation of a round: what it runs and on what."""

    kind: str  # "one_part", "ray_point", "fit", "wallcross", "cli"
    x: tuple[int, ...] = ()
    g: int = 0
    argv: tuple[str, ...] = ()
    group: int = -1  # index of the ray a ray point belongs to


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"perfbench:{workload}:{seed}")


def _composition(rng: random.Random, total: int, parts: int) -> list[int]:
    """A uniformly chosen composition of total into positive parts."""
    cuts = sorted(rng.sample(range(1, total), parts - 1))
    bounds = [0] + cuts + [total]
    return [b - a for a, b in zip(bounds, bounds[1:])]


def multiset_key(x: tuple[int, ...], g: int) -> tuple:
    return (g, tuple(sorted(x)))


def _ray_witnesses() -> list[tuple[int, ...]]:
    """One witness off every wall per ray slot, the same for every seed."""
    rng = random.Random("perfbench:evaluate:rays")
    out: list[tuple[int, ...]] = []
    for n, p, g, d0 in EVALUATE_RAY_SLOTS:
        while True:
            x = tuple(_composition(rng, d0, p) + [-b for b in _composition(rng, d0, n - p)])
            if 0 not in signs(x) and sorted(x) not in [sorted(y) for y in out]:
                out.append(x)
                break
    return out


def evaluate_ops(seed: int) -> list[Op]:
    rng = _rng("evaluate", seed)
    ops: list[Op] = []
    for d in EVALUATE_ONE_PART_DEGREES:
        g = rng.choice(EVALUATE_ONE_PART_GENERA)
        betas = _composition(rng, d, rng.choice((2, 3, 4)))
        x = [d] + [-b for b in betas]
        rng.shuffle(x)
        ops.append(Op("one_part", tuple(x), g))
    for ray, x in enumerate(_ray_witnesses()):
        x = list(x)
        rng.shuffle(x)
        g = EVALUATE_RAY_SLOTS[ray][2]
        for k in range(1, g + 4):
            ops.append(Op("ray_point", tuple(k * v for v in x), g, group=ray))
    # Ascending degree, as when tabulating: which evaluation pays for a
    # shared memo entry then does not depend on the seed, so the per-op
    # latency percentiles stay comparable between seeds.
    ops.sort(key=lambda op: (sum(v for v in op.x if v > 0), op.x, op.g))
    return ops


def fit_ops(seed: int) -> list[Op]:
    """The fixed fit list; the seed does not change it (see above)."""
    ops = [Op("fit", x, g) for x, g in FIT_WITNESSES]
    x, g, wall = WALLCROSS
    argv = (
        "wallcross", "-g", str(g), f"--profile={','.join(map(str, x))}",
        "--wall", ",".join(map(str, wall)), "--json",
    )
    ops.append(Op("wallcross", x, g, argv))
    return ops


def cli_universe() -> list[tuple]:
    """Every (g, positive parts, negative parts) the cli workload may draw."""
    def partitions(d, cap):
        if d == 0:
            yield ()
            return
        for first in range(min(d, cap), 0, -1):
            for rest in partitions(d - first, first):
                yield (first,) + rest

    out = []
    for d in range(1, CLI_MAX_DEGREE + 1):
        for alpha in partitions(d, d):
            for beta in partitions(d, d):
                n = len(alpha) + len(beta)
                if n > CLI_MAX_PARTS:
                    continue
                for g in CLI_GENERA:
                    if 2 * g - 2 + n >= 0:
                        out.append((g, alpha, beta))
    return out


def cli_ops(seed: int, cache_path: str) -> list[Op]:
    """Miss pass, hit pass and --verify pass over the same drawn keys, then
    the two documented examples by both methods and the self test."""
    rng = _rng("cli", seed)
    keys = rng.sample(cli_universe(), CLI_PROFILES)
    ops: list[Op] = []
    for flags in ((), (), ("--verify",)):
        order = list(range(len(keys)))
        rng.shuffle(order)
        for i in order:
            g, alpha, beta = keys[i]
            x = list(alpha) + [-b for b in beta]
            rng.shuffle(x)
            argv = (
                "compute", "-g", str(g), f"--profile={','.join(map(str, x))}",
                "--cache", cache_path, "--json",
            ) + flags
            ops.append(Op("cli", tuple(x), g, argv))
    for x, g, _ in CLI_EXAMPLES:
        argv = (
            "compute", "-g", str(g), f"--profile={','.join(map(str, x))}",
            "--method", "both", "--cache", cache_path, "--json",
        )
        ops.append(Op("cli", x, g, argv))
    ops.append(Op("cli", (), 0, ("selftest", "--json")))
    return ops


def build_ops(workload: str, seed: int, cache_path: str) -> list[Op]:
    if workload == "evaluate":
        return evaluate_ops(seed)
    if workload == "fit":
        return fit_ops(seed)
    if workload == "cli":
        return cli_ops(seed, cache_path)
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("evaluate", "fit", "cli")
