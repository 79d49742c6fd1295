"""Partitions, class data, and irreducible characters of the symmetric group.

Characters come a column at a time: ``character_column(mu)`` maps every
partition lambda with chi_lambda(mu) != 0 to that value.  It runs the
Murnaghan-Nakayama rule forwards, adding rim hooks of the lengths in mu to the
empty partition on a beta-set, and is memoized, so no tables are shipped and
any degree works.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Sequence


@dataclass(frozen=True, order=True)
class Partition:
    """A weakly decreasing tuple of positive integers (possibly empty)."""

    parts: tuple[int, ...]

    def __post_init__(self):
        if any(p <= 0 for p in self.parts):
            raise ValueError(f"partition parts must be positive: {self.parts}")
        if any(a < b for a, b in zip(self.parts, self.parts[1:])):
            raise ValueError(f"partition parts must be weakly decreasing: {self.parts}")

    @classmethod
    def from_iterable(cls, parts: Iterable[int]) -> Partition:
        return cls(tuple(sorted(parts, reverse=True)))

    @property
    def size(self) -> int:
        return sum(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

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

    for parts in gen(d, d):
        yield Partition(parts)


def _beta_set(parts: tuple[int, ...]) -> tuple[int, ...]:
    m = len(parts)
    return tuple(parts[i] + (m - 1 - i) for i in range(m))


def _partition_from_beta(beta: Sequence[int]) -> tuple[int, ...]:
    ordered = sorted(beta, reverse=True)
    m = len(ordered)
    parts = tuple(ordered[i] - (m - 1 - i) for i in range(m))
    return tuple(p for p in parts if p > 0)


@lru_cache(maxsize=None)
def character_column(mu: Partition) -> dict[Partition, int]:
    """Every nonzero chi_lambda(mu), keyed by lambda; do not mutate the result.

    Rim hooks of the lengths in mu, largest first, are added to the empty
    partition: on a beta-set, adding a k-hook moves one bead from b to a free
    b + k, with sign (-1)^(beads strictly between).  Padding the beta-set with
    k zero rows lets the hook start new rows.  Coefficients that cancel to 0
    are dropped after each hook.
    """
    column: dict[tuple[int, ...], int] = {(): 1}
    for k in mu.parts:
        grown: dict[tuple[int, ...], int] = {}
        for lam, chi in column.items():
            beta = _beta_set(lam + (0,) * k)
            members = set(beta)
            for b in beta:
                if b + k in members:
                    continue
                height = sum(1 for c in beta if b < c < b + k)
                new_lam = _partition_from_beta([b + k if c == b else c for c in beta])
                grown[new_lam] = grown.get(new_lam, 0) + (-1) ** height * chi
        column = {lam: chi for lam, chi in grown.items() if chi}
    return {Partition(lam): chi for lam, chi in column.items()}
