"""The resonance wall arrangement on the zero-sum lattice.

A wall is the hyperplane where a subset sum of the coordinates vanishes; on
the zero-sum space a subset and its complement cut out the same wall, so the
canonical representative is the one not containing index 1.  A chamber is
identified by the vector of signs of every canonical subset sum.  Fit nodes
and the adjacent chamber's witness are built deterministically, so results
are reproducible.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache
from operator import mul
from typing import Iterator

from .errors import (
    AdjacencyNotFoundError,
    DimensionMismatchError,
    OnWallError,
    SamplingBudgetExceededError,
    count_argument,
)
from .exact import MultiPoly, compositions, lattice_point
from .hurwitz import RamificationProfile

NODE_BUDGET = 100_000


@dataclass(frozen=True)
class Wall:
    """The wall of a nonempty proper subset of {1..n} or of its complement,
    the same hyperplane; it keeps the one avoiding index 1, sorted."""

    indices: tuple[int, ...]
    n: int

    def __post_init__(self):
        n = count_argument("n", self.n, 2)
        chosen = tuple(sorted({count_argument("wall index", i, None) for i in self.indices}))
        if not chosen or len(chosen) >= n:
            raise ValueError(f"not a proper nonempty subset of 1..{n}: {self.indices}")
        if chosen[0] < 1 or chosen[-1] > n:
            raise ValueError(f"wall indices out of range 1..{n}: {chosen}")
        if 1 in chosen:
            chosen = tuple(i for i in range(2, n + 1) if i not in chosen)
        object.__setattr__(self, "indices", chosen)

    def complement(self) -> tuple[int, ...]:
        return tuple(i for i in range(1, self.n + 1) if i not in self.indices)

    def form(self) -> MultiPoly:
        """The wall as a linear polynomial: the subset sum, in canonical form.

        With x_n = -(x_1 + ... + x_{n-1}), the coefficient of x_j is
        [j in the wall] - [n in the wall]."""
        last = self.n in self.indices
        units = [tuple(int(i == j) for i in range(1, self.n)) for j in range(1, self.n)]
        return MultiPoly(self.n, {u: (j in self.indices) - last for j, u in enumerate(units, 1)})

    def subset_sum(self, x) -> int:
        return sum(x[i - 1] for i in self.indices)

    def __str__(self) -> str:
        return "[" + ",".join(map(str, self.indices)) + "]"


@lru_cache(maxsize=None, typed=True)  # typed: walls(2.0) must not hit walls(2)
def walls(n: int) -> tuple[Wall, ...]:
    """All 2^{n-1} - 1 canonical walls, ordered by size then lexicographically."""
    count_argument("n", n, 2)
    rest = range(2, n + 1)
    out = []
    for size in range(1, n):
        for combo in itertools.combinations(rest, size):
            out.append(Wall(combo, n))
    return tuple(out)


@lru_cache(maxsize=None)
def _wall_recipe(n: int) -> tuple[tuple[int, int], ...]:
    """Per wall of walls(n): the 1-based position of the wall without its
    last index (0 when that is empty), and that index, 0-based."""
    position = {wall.indices: k for k, wall in enumerate(walls(n), 1)}
    return tuple(
        (position.get(wall.indices[:-1], 0), wall.indices[-1] - 1) for wall in walls(n)
    )


def _wall_sums(x: tuple[int, ...], n: int) -> list[int]:
    """The canonical subset sums of x in the order of walls(n), one addition
    each: a wall's sum is the sum of the wall minus its last index, which
    comes earlier in that order, plus that coordinate."""
    sums = [0]
    for prefix, last in _wall_recipe(n):
        sums.append(sums[prefix] + x[last])
    return sums[1:]


@dataclass(frozen=True)
class ChamberWitness:
    """A lattice point and the signs of its canonical subset sums, in the
    order of walls(n), derived from it: the signs name the point's chamber.

    Raises OnWallError naming the first wall (in canonical order) whose
    subset sum vanishes.
    """

    point: RamificationProfile
    signs: tuple[int, ...] = field(init=False)

    def __post_init__(self):
        n = self.point.n
        signs = tuple((s > 0) - (s < 0) for s in _wall_sums(self.point.x, n))
        if 0 in signs:
            raise OnWallError(walls(n)[signs.index(0)])
        object.__setattr__(self, "signs", signs)

    @classmethod
    def at(cls, profile: RamificationProfile) -> ChamberWitness:
        return cls(profile)

    @property
    def signature(self) -> str:
        return "".join("+" if s > 0 else "-" for s in self.signs)

    def differing_walls(self, other: ChamberWitness) -> list[Wall]:
        n = self.point.n
        if other.point.n != n:
            raise DimensionMismatchError(
                f"point {other.point} has n={other.point.n}, point {self.point} has n={n}"
            )
        return [wall for wall, a, b in zip(walls(n), self.signs, other.signs) if a != b]


def _is_valid_sample(candidate: tuple[int, ...], n: int, target: tuple[int, ...]) -> bool:
    """Every wall sum of the zero-sum candidate has the chamber's sign.  The
    walls {i} and {2..n} make this fix the sign of every coordinate too."""
    return all(want * s > 0 for want, s in zip(target, _wall_sums(candidate, n)))


def _sign_vectors(point: tuple[int, ...], radius: int) -> Iterator[tuple[int, ...]]:
    """Zero-sum vectors with entries in [-radius, radius], at least one of
    them +-radius, whose every entry is 0 or has the sign of point's entry
    there; ordered by degree (sum of positive entries), then
    lexicographically.  Entries are filled in coordinate order, least first,
    and a branch ends as soon as it cannot be completed."""
    n = len(point)
    side = [int(v < 0) for v in point]  # 0 for a positive entry, 1 for a negative
    # room[i][s]: the most that the entries of side s from coordinate i on add
    room = [[radius * side[i:].count(s) for s in (0, 1)] for i in range(n + 1)]
    lack = [0, 0]  # what each side's entries still lack of the degree

    def fill(i: int, full: bool) -> Iterator[tuple[int, ...]]:
        if not full and max(lack) < radius:
            return  # no entry can reach +-radius any more
        if i == n:
            yield ()
            return
        s = side[i]
        sizes = range(max(0, lack[s] - room[i + 1][s]), min(radius, lack[s]) + 1)
        for m in reversed(sizes) if s else sizes:
            lack[s] -= m
            for tail in fill(i + 1, full or m == radius):
                yield (-m if s else m,) + tail
            lack[s] += m

    for degree in range(radius, min(room[0]) + 1):
        lack[:] = [degree, degree]
        yield from fill(0, False)


def _in_closed_cone(vector: tuple[int, ...], n: int, target: tuple[int, ...]) -> bool:
    """Every wall sum of vector is 0 or has the chamber's sign."""
    return all(want * s >= 0 for want, s in zip(target, _wall_sums(vector, n)))


def _reduce(vector: tuple[int, ...], echelon: list[tuple[int, list[int]]]) -> list[int]:
    """vector with its components along the echelon rows removed (fraction
    free); nonzero iff vector is independent of them."""
    out = list(vector)
    for pivot, row in echelon:
        if out[pivot]:
            out = [row[pivot] * a - out[pivot] * b for a, b in zip(out, row)]
    return out


@dataclass(frozen=True)
class ChamberLattice:
    """An affine principal lattice inside one chamber: the fit nodes are
    ``lattice_point(base.x, steps, a)`` for a_i >= 0, sum a_i <= degree, and
    ``held_out`` are further lattice points, from the layers sum a_i =
    degree + 1, degree + 2, ...
    """

    base: RamificationProfile
    steps: tuple[tuple[int, ...], ...]
    held_out: tuple[RamificationProfile, ...]


def chamber_nodes(witness: ChamberWitness, degree: int, held_out: int) -> ChamberLattice:
    """The lattice for a fit of the given degree in the witness's chamber.

    The witness slides down its chamber to a base point b, moving along each
    unit step with its signs as far as the chamber allows, at one check per
    step, pass after pass until none moves it; n - 1 linearly independent
    closed-cone steps v_i (zero-sum vectors whose every wall sum is 0 or has
    the chamber's sign, so by the walls {i} and {2..n} every entry is 0 or
    has its coordinate's sign) are taken in degree order from the
    ``_sign_vectors`` of radius 1, 2, ...  The open chamber plus its closure
    stays in the open chamber, so every b + sum a_i v_i with a_i >= 0 lies in
    it, and the nodes with sum a_i <= degree determine a polynomial of that
    degree.  The chamber is convex and fixes each coordinate's sign, so only
    the corners b + degree * v_i are checked, and the cover degree
    deg(b) + sum a_i deg(v_i) picks the `held_out` cheapest later points
    (ties in lattice order), the only ones built.  Every check counts toward
    ``NODE_BUDGET``.
    """
    count_argument("degree", degree)
    count_argument("held_out", held_out)
    n = witness.point.n
    target = witness.signs
    spent = 0

    def spend() -> None:
        nonlocal spent
        spent += 1
        if spent > NODE_BUDGET:
            raise SamplingBudgetExceededError(
                f"node search exceeded {NODE_BUDGET} candidate checks"
            )

    base = witness.point.x
    # unit steps with the signs of the point: each one lowers the degree
    downhill = list(_sign_vectors(base, 1))
    moved = True
    while moved:
        moved = False
        for v in downhill:
            spend()
            # the largest t with want * (s - t * c) > 0 on every wall; v has a
            # positive entry, whose wall {i} or {2..n} makes the min nonempty
            t = min(
                (want * s - 1) // (want * c)
                for want, s, c in zip(target, _wall_sums(base, n), _wall_sums(v, n))
                if want * c > 0
            )
            if t:
                base, moved = tuple(b - t * c for b, c in zip(base, v)), True

    steps: list[tuple[int, ...]] = []
    echelon: list[tuple[int, list[int]]] = []
    radius = 0
    while len(steps) < n - 1:
        radius += 1
        for v in _sign_vectors(base, radius):
            spend()
            if not _in_closed_cone(v, n, target):
                continue
            rest = _reduce(v, echelon)
            pivot = next((i for i, c in enumerate(rest) if c), None)
            if pivot is not None:
                steps.append(v)
                echelon.append((pivot, rest))
                if len(steps) == n - 1:
                    break

    def checked(x: tuple[int, ...]) -> RamificationProfile:
        spend()
        if not _is_valid_sample(x, n, target):
            raise AssertionError(f"lattice point {x} left the chamber of {witness.point}")
        return RamificationProfile(x)

    if degree:
        for step in steps:
            checked(tuple(b + degree * v for b, v in zip(base, step)))
    costs = [sum(c for c in step if c > 0) for step in steps]
    extra: list[RamificationProfile] = []
    layer = degree
    while len(extra) < held_out:
        layer += 1
        ring = sorted(compositions(layer, n - 1), key=lambda a: sum(map(mul, a, costs)))
        for a in ring[: held_out - len(extra)]:
            extra.append(checked(lattice_point(base, steps, a)))
    return ChamberLattice(
        base=RamificationProfile(base), steps=tuple(steps), held_out=tuple(extra)
    )


def adjacent_chamber(witness: ChamberWitness, wall: Wall) -> ChamberWitness:
    """A witness across `wall` alone: the signs with that one reversed.

    With s the wall's sum at x and dir = -sign(s), every wall sum moves by -1,
    0 or +1 per unit along e_i - e_l (i in the wall set, l outside it).  The
    gap of (i, l) is the least |s_W| - |s| over the other walls W whose sum
    the move drives towards zero, 2 if there is none.  A gap >= 2 lets
    x + (|s| + 1) dir (e_i - e_l) cross `wall` alone; a gap of 1 needs 2x:
    2x + (2|s| + 1) dir (e_i - e_l).  One pass over the pairs takes the first
    with gap >= 2, else the first with gap 1.  Only these directions from x
    are looked at: a flip reachable only some other way, or not at all (no
    chamber has that sign vector), raises AdjacencyNotFoundError.
    """
    n = witness.point.n
    if wall.n != n:
        raise DimensionMismatchError(
            f"wall {wall} is for n={wall.n}, point {witness.point} has n={n}"
        )
    x = witness.point.x
    s = wall.subset_sum(x)
    direction = -1 if s > 0 else 1
    sums = [(w.indices, v) for w, v in zip(walls(n), _wall_sums(x, n)) if w != wall]
    scale = pair = None
    for i, l in itertools.product(wall.indices, wall.complement()):
        toward = [abs(v) - abs(s) for w, v in sums if ((i in w) - (l in w)) * v * s > 0]
        gap = min(toward, default=2)
        if gap >= 2:
            scale, pair = 1, (i, l)
            break
        if gap == 1 and pair is None:
            scale, pair = 2, (i, l)
    if pair is None:
        raise AdjacencyNotFoundError(f"no direction e_i - e_l flips {wall} alone")
    i, l = pair
    t = (scale * abs(s) + 1) * direction
    point = [scale * v for v in x]
    point[i - 1] += t
    point[l - 1] -= t
    other = ChamberWitness.at(RamificationProfile(tuple(point)))
    if witness.differing_walls(other) != [wall]:
        raise AssertionError(f"{other.point} is not across {wall} alone from {x}")
    return other
