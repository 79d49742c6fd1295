"""Partitions, class data, and irreducible characters of the symmetric group.

Characters come a column at a time: ``character_column(mu)`` maps every
partition lambda with chi_lambda(mu) != 0 to that value.  It runs the
Murnaghan-Nakayama rule forwards on an abacus held in one int, and is
memoized, so no tables are shipped and any degree works.  That int is the
column's key for lambda; keys are comparable only between columns of one d.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

from .errors import count_argument


@dataclass(frozen=True)
class Partition:
    """Positive integer parts (possibly none), given in any order and kept
    weakly decreasing."""

    parts: tuple[int, ...]

    def __post_init__(self):
        parts = (count_argument("part", p, 1) for p in self.parts)
        object.__setattr__(self, "parts", tuple(sorted(parts, reverse=True)))

    @property
    def size(self) -> int:
        return sum(self.parts)

    def multiplicities(self) -> dict[int, int]:
        return dict(Counter(self.parts))

    def __str__(self) -> str:
        return "(" + ",".join(map(str, self.parts)) + ")"


def z_lambda(lam: Partition) -> int:
    """Centralizer order of a permutation of cycle type lam: prod k^{m_k} m_k!."""
    z = 1
    for k, m in lam.multiplicities().items():
        z *= k**m * math.factorial(m)
    return z


def partitions_of(d: int) -> Iterator[Partition]:
    """All partitions of d in lexicographically decreasing part order."""

    def gen(remaining: int, cap: int) -> Iterator[tuple[int, ...]]:
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, cap), 0, -1):
            for rest in gen(remaining - first, first):
                yield (first,) + rest

    d = count_argument("d", d)
    return map(Partition, gen(d, d))


@lru_cache(maxsize=None)
def character_column(mu: Partition) -> dict[int, int]:
    """Every nonzero chi_lambda(mu), keyed by lambda's bead mask; do not mutate.

    With d = |mu| beads, bit p of the mask is set when a bead sits at p, and
    lambda (padded to d rows) has its beads at lambda_i + d - i, so the empty
    partition is (1 << d) - 1.  Rim hooks of the lengths in mu, largest first,
    are added to it: a k-hook moves one bead from b to a free b + k, with sign
    (-1)^(beads strictly between).  Zero coefficients are dropped after each
    hook.  Keys of columns at different d are not comparable.
    """
    d = mu.size
    column = {(1 << d) - 1: 1}
    for k in mu.parts:
        between = (1 << (k - 1)) - 1
        grown: dict[int, int] = {}
        for mask, chi in column.items():
            movable = mask & ~(mask >> k)
            while movable:
                low = movable & -movable  # the bead at b = low.bit_length() - 1
                movable ^= low
                new = mask ^ low ^ (low << k)
                odd = ((mask >> low.bit_length()) & between).bit_count() & 1
                grown[new] = grown.get(new, 0) + (-chi if odd else chi)
        column = {mask: chi for mask, chi in grown.items() if chi}
    return column


def content_of_mask(mask: int, d: int) -> int:
    """cont(lambda), the sum of j - i over the cells (i, j) of lambda, from its
    mask on d beads: a bead at p ends a row whose last cell has content p - d,
    and the beads of the empty partition, at 0..d-1, fix the constant."""
    beads = (p for p in range(mask.bit_length()) if mask >> p & 1)
    # the constant is minus the sum of the same terms over p < d
    return sum(p * (p + 1) // 2 - d * p for p in beads) + d * (d - 1) * (2 * d - 1) // 6
