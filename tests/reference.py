"""Reference code that only the tests use.

The package recovers chamber polynomials by Newton differences on a lattice
that always determines them; the dense Gauss-Jordan solver below is the
independent route the tests compare it against.  The package's oracle counts
transposition tuples by cut-and-join on conjugacy classes of (running
product, orbits); ``oracle_tuples`` below enumerates every tuple depth first
on actual permutations, and is the route the tests compare it against.  The package builds the witness across a wall in closed
form; ``adjacent_by_search`` below scans scaled candidates until a budget runs
out, and is the route the tests compare it against.  The package keys its
character columns by bead masks on an abacus held in one int;
``character_column_by_beta_sets`` below adds the same rim hooks on tuple
beta-sets and keys by ``Partition``, and ``partition_of_mask`` converts the
package's keys for comparison.  The package searches fit steps among the
vectors whose entries carry the chamber's signs; ``box_sign_vectors`` below
filters whole boxes instead.  The package runs the connected recursion on
integers scaled by the product of the parts; ``connected_value`` below runs
it on ``Fraction`` counts over characters from ``character_column_by_beta_sets``.
The permutation helpers,
the determinant, the polynomial constructors and the polynomial accessors
serve tests that check the package's conventions from first principles.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Mapping, Sequence

from hurwitzlab.chambers import ChamberWitness, Wall, walls
from hurwitzlab.errors import AdjacencyNotFoundError, OnWallError
from hurwitzlab.exact import Exponents, MultiPoly, compositions, monomials_up_to_degree
from hurwitzlab.hurwitz import RamificationProfile, simple_branch_count
from hurwitzlab.symgroup import Partition, z_lambda


class InconsistentSystemError(ValueError):
    """No polynomial of the requested degree matches the supplied values."""


class UnderdeterminedError(ValueError):
    """The evaluation matrix has deficient column rank; supply more points."""


def interpolate(
    points: Sequence[Sequence[int]],
    values: Sequence[Fraction | int],
    degree_bound: int,
) -> MultiPoly:
    """The unique polynomial of total degree <= degree_bound matching every
    (point, value) pair, by exact Gauss-Jordan elimination.

    Extra points are consistency checks: a system with no solution raises
    InconsistentSystemError, deficient column rank raises UnderdeterminedError.
    """
    if not points:
        raise ValueError("at least one interpolation point is required")
    if len(points) != len(values):
        raise ValueError(f"{len(points)} points but {len(values)} values supplied")
    n = len(points[0])
    projections = {tuple(point[: n - 1]) for point in points}
    if len(projections) != len(points):
        raise ValueError("duplicate free-coordinate projection")
    if any(len(point) != n or sum(point) != 0 for point in points):
        raise ValueError("points must be zero-sum vectors of one length")

    monos = monomials_up_to_degree(n - 1, degree_bound)
    rows = []
    for point, value in zip(points, values):
        free = [Fraction(v) for v in point[: n - 1]]
        row = [
            math.prod((v**e for v, e in zip(free, exps)), start=Fraction(1))
            for exps in monos
        ]
        rows.append(row + [Fraction(value)])

    pivot_of_col: dict[int, int] = {}
    pivot_row = 0
    for col in range(len(monos)):
        pivot = next((r for r in range(pivot_row, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[pivot_row], rows[pivot] = rows[pivot], rows[pivot_row]
        lead = rows[pivot_row][col]
        rows[pivot_row] = [v / lead for v in rows[pivot_row]]
        for r in range(len(rows)):
            if r != pivot_row and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[pivot_row])]
        pivot_of_col[col] = pivot_row
        pivot_row += 1

    if any(rows[r][-1] != 0 for r in range(pivot_row, len(rows))):
        raise InconsistentSystemError(
            f"no polynomial of degree <= {degree_bound} matches the supplied values"
        )
    if len(pivot_of_col) < len(monos):
        raise UnderdeterminedError(
            f"evaluation matrix has column rank {len(pivot_of_col)} < {len(monos)}"
        )
    return MultiPoly(n, {monos[col]: rows[row][-1] for col, row in pivot_of_col.items()})


def determinant(rows: Sequence[Sequence[int]]) -> int:
    """Leibniz expansion, independent of any elimination code."""
    total = 0
    for perm in itertools.permutations(range(len(rows))):
        inversions = sum(1 for i, j in itertools.combinations(perm, 2) if i > j)
        total += (-1) ** inversions * math.prod(rows[i][perm[i]] for i in range(len(rows)))
    return total


def raw_terms_poly(n: int, raw: Mapping[Exponents, Fraction | int]) -> MultiPoly:
    """Canonicalize a polynomial given with exponents over all n variables.

    Each power of x_n is expanded multinomially as (-(x_1+...+x_{n-1}))^e.
    """
    acc: dict[Exponents, Fraction] = {}
    for exps, coeff in raw.items():
        head, last = tuple(exps[:-1]), exps[-1]
        for comp in compositions(last, n - 1):
            weight = math.factorial(last)
            for c in comp:
                weight //= math.factorial(c)
            merged = tuple(h + c for h, c in zip(head, comp))
            term = (-1) ** last * weight * Fraction(coeff)
            acc[merged] = acc.get(merged, Fraction(0)) + term
    return MultiPoly(n, acc)


def poly_product(a: MultiPoly, b: MultiPoly) -> MultiPoly:
    """The product of two polynomials in one space, term by term."""
    assert a.n == b.n
    acc: dict[Exponents, Fraction] = {}
    for ea, ca in a.terms:
        for eb, cb in b.terms:
            key = tuple(x + y for x, y in zip(ea, eb))
            acc[key] = acc.get(key, Fraction(0)) + ca * cb
    return MultiPoly(a.n, acc)


def term_map(poly: MultiPoly) -> dict[Exponents, Fraction]:
    return dict(poly.terms)


def constant(n: int, value: Fraction | int) -> MultiPoly:
    return MultiPoly(n, {(0,) * (n - 1): Fraction(value)})


def total_degree(poly: MultiPoly) -> int:
    """Maximum total degree of the stored terms; -1 for the zero polynomial."""
    return max((sum(e) for e, _ in poly.terms), default=-1)


def homogeneous_components(poly: MultiPoly) -> dict[int, MultiPoly]:
    """Split by total degree; the components sum back to the polynomial."""
    buckets: dict[int, dict[Exponents, Fraction]] = {}
    for exps, coeff in poly.terms:
        buckets.setdefault(sum(exps), {})[exps] = coeff
    return {deg: MultiPoly(poly.n, terms) for deg, terms in sorted(buckets.items())}


def poly_from_json(data: Mapping) -> MultiPoly:
    """Inverse of ``MultiPoly.to_json_dict``."""
    terms = {
        tuple(int(p) for p in key.split(",")) if key else (): Fraction(value)
        for key, value in data["terms"].items()
    }
    return MultiPoly(int(data["n"]), terms)


@dataclass(frozen=True)
class Permutation:
    """A permutation of {1..d} stored as its image word.

    Products compose left to right: (sigma * tau)(i) = tau(sigma(i)).
    """

    images: tuple[int, ...]

    def __post_init__(self):
        if tuple(sorted(self.images)) != tuple(range(1, len(self.images) + 1)):
            raise ValueError(f"not a permutation of 1..{len(self.images)}: {self.images}")

    @classmethod
    def identity(cls, d: int) -> Permutation:
        return cls(tuple(range(1, d + 1)))

    @classmethod
    def from_cycles(cls, d: int, cycles: Iterable[Sequence[int]]) -> Permutation:
        images = list(range(1, d + 1))
        for cycle in cycles:
            for i, entry in enumerate(cycle):
                images[entry - 1] = cycle[(i + 1) % len(cycle)]
        return cls(tuple(images))

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def __mul__(self, other: Permutation) -> Permutation:
        if self.degree != other.degree:
            raise ValueError("permutations act on different sets")
        return Permutation(tuple(other.images[v - 1] for v in self.images))

    def inverse(self) -> Permutation:
        images = [0] * self.degree
        for i, v in enumerate(self.images):
            images[v - 1] = i + 1
        return Permutation(tuple(images))

    def cycles(self) -> list[tuple[int, ...]]:
        seen = [False] * self.degree
        out: list[tuple[int, ...]] = []
        for start in range(1, self.degree + 1):
            if seen[start - 1]:
                continue
            cycle = [start]
            seen[start - 1] = True
            nxt = self(start)
            while nxt != start:
                cycle.append(nxt)
                seen[nxt - 1] = True
                nxt = self(nxt)
            out.append(tuple(cycle))
        return out


def cycle_type(sigma: Permutation) -> Partition:
    """The multiset of cycle lengths of sigma, sorted decreasing."""
    return Partition(len(c) for c in sigma.cycles())


def is_transitive(d: int, gens: Iterable[Permutation]) -> bool:
    """True iff the group generated by gens acts transitively on {1..d}."""
    if d <= 0:
        raise ValueError("the ground set must be nonempty")
    parent = list(range(d))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    components = d
    for sigma in gens:
        if sigma.degree != d:
            raise ValueError(f"generator acts on {sigma.degree} points, expected {d}")
        for i in range(1, d + 1):
            a, b = find(i - 1), find(sigma(i) - 1)
            if a != b:
                parent[a] = b
                components -= 1
    return components == 1


def oracle_tuples(profile: RamificationProfile, g: int) -> tuple[int, int]:
    """(leaves examined, tuples accepted) of the oracle's search, by a
    depth-first enumeration of all r transposition factors.

    sigma0 is the representative of alpha with its cycles laid out
    consecutively.  The search keeps the running product sigma0 * tau_1 * ...
    * tau_j and its cycle count incrementally and prunes a branch as soon as
    the remaining factors cannot reach the number of parts of beta (each
    factor changes the count by exactly +-1, so both the distance and its
    parity must fit).  Every leaf is checked for the cycle type beta and for
    transitivity of the group generated by sigma0 and the factors.
    """
    r = simple_branch_count(g, profile.n)
    d = profile.degree
    alpha, beta = profile.sides()
    beta_parts = beta.parts
    sigma0 = list(range(d))
    start = 0
    for part in alpha.parts:
        for offset in range(part):
            sigma0[start + offset] = start + (offset + 1) % part
        start += part

    all_taus = [(a, b) for a in range(d) for b in range(a + 1, d)]
    target = len(beta_parts)
    prod = list(sigma0)
    inv = [0] * d
    for i, v in enumerate(prod):
        inv[v] = i

    label = [0] * d
    ncycles0 = 0
    seen = [False] * d
    for start in range(d):
        if seen[start]:
            continue
        j = start
        while not seen[j]:
            seen[j] = True
            label[j] = ncycles0
            j = sigma0[j]
        ncycles0 += 1

    chosen: list[tuple[int, int]] = []
    examined = 0
    accepted = 0

    def same_cycle(a: int, b: int) -> bool:
        j = prod[a]
        while j != a:
            if j == b:
                return True
            j = prod[j]
        return False

    def apply_tau(a: int, b: int) -> None:
        ia, ib = inv[a], inv[b]
        prod[ia], prod[ib] = b, a
        inv[a], inv[b] = ib, ia

    def leaf_type_matches() -> bool:
        lengths = []
        done = [False] * d
        for start in range(d):
            if done[start]:
                continue
            length = 0
            j = start
            while not done[j]:
                done[j] = True
                length += 1
                j = prod[j]
            lengths.append(length)
        lengths.sort(reverse=True)
        return tuple(lengths) == beta_parts

    def leaf_transitive() -> bool:
        parent = list(range(ncycles0))

        def find(i: int) -> int:
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        components = ncycles0
        for a, b in chosen:
            ra, rb = find(label[a]), find(label[b])
            if ra != rb:
                parent[ra] = rb
                components -= 1
        return components == 1

    def recurse(depth: int, cycles: int) -> None:
        nonlocal examined, accepted
        remaining = r - depth
        if remaining == 0:
            examined += 1
            if cycles == target and leaf_type_matches() and leaf_transitive():
                accepted += 1
            return
        for a, b in all_taus:
            delta = 1 if same_cycle(a, b) else -1
            new_cycles = cycles + delta
            gap = abs(new_cycles - target)
            if gap <= remaining - 1 and (gap + remaining - 1) % 2 == 0:
                apply_tau(a, b)
                chosen.append((a, b))
                recurse(depth + 1, new_cycles)
                chosen.pop()
                apply_tau(a, b)

    recurse(0, ncycles0)
    return examined, accepted


def adjacent_by_search(witness: ChamberWitness, wall: Wall, budget: int) -> ChamberWitness:
    """Search for a witness whose signs differ from its own at `wall` alone.

    Scales the base point to create room, then moves along e_i - e_l with i
    in the wall set and l outside it, scanning step sizes just past the sign
    change of the target subset sum; each candidate is checked for a full
    one-flip sign match.  Not every flip is realizable (the sign vector with
    that sign reversed can be empty), in which case the budget runs out and a
    structured error is raised.
    """
    n = witness.point.n
    if wall not in walls(n):
        raise ValueError(f"{wall} is not a canonical wall for n={n}")
    base_sum = wall.subset_sum(witness.point.x)
    direction = -1 if base_sum > 0 else 1
    # each wall with the sign that it has across `wall`
    wanted = [(w, -s if w == wall else s) for w, s in zip(walls(n), witness.signs)]
    inside = list(wall.indices)
    outside = list(wall.complement())
    spent = 0
    k = 0
    while spent < budget:
        k += 1
        scaled = tuple(k * v for v in witness.point.x)
        start = abs(k * base_sum) + 1
        for i in inside:
            for l in outside:
                for extra in range(k + 2):
                    if spent >= budget:
                        break
                    spent += 1
                    t = (start + extra) * direction
                    candidate = list(scaled)
                    candidate[i - 1] += t
                    candidate[l - 1] -= t
                    candidate_t = tuple(candidate)
                    if all(w.subset_sum(candidate_t) * want > 0 for w, want in wanted):
                        return ChamberWitness.at(RamificationProfile(candidate_t))
    raise AdjacencyNotFoundError(
        f"no point with the sign of {wall} reversed found within {budget} candidates"
    )


def _beta_set(parts: tuple[int, ...]) -> tuple[int, ...]:
    m = len(parts)
    return tuple(parts[i] + (m - 1 - i) for i in range(m))


def _partition_from_beta(beta: Sequence[int]) -> tuple[int, ...]:
    ordered = sorted(beta, reverse=True)
    m = len(ordered)
    parts = tuple(ordered[i] - (m - 1 - i) for i in range(m))
    return tuple(p for p in parts if p > 0)


@lru_cache(maxsize=None)
def character_column_by_beta_sets(mu: Partition) -> dict[Partition, int]:
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


def partition_of_mask(mask: int, d: int) -> Partition:
    """The partition whose d beads sit at the set bits of mask: the i-th bead
    from the top, at p, ends row i with lambda_i = p - (d - i)."""
    beads = [p for p in range(mask.bit_length() - 1, -1, -1) if mask >> p & 1]
    if len(beads) != d:
        raise ValueError(f"mask {mask:b} holds {len(beads)} beads, expected {d}")
    return Partition(tuple(p - (d - i) for i, p in enumerate(beads, 1) if p > d - i))


def random_witness(rng, n: int, top: int) -> ChamberWitness:
    """A witness whose first n - 1 entries are drawn from the nonzero
    integers in [-top, top], redrawn until it is a profile off every wall."""
    entries = [v for v in range(-top, top + 1) if v]
    while True:
        x = [rng.choice(entries) for _ in range(n - 1)]
        x.append(-sum(x))
        if x[-1]:
            try:
                return ChamberWitness.at(RamificationProfile(tuple(x)))
            except OnWallError:
                pass


def box_vectors(n: int, radius: int) -> list[tuple[int, ...]]:
    """Zero-sum vectors with entries in [-radius, radius], at least one of
    them +-radius, ordered by degree (sum of positive entries), then
    lexicographically."""
    out = []
    for free in itertools.product(range(-radius, radius + 1), repeat=n - 1):
        vector = free + (-sum(free),)
        if max(abs(v) for v in vector) == radius:
            out.append(vector)
    out.sort(key=lambda v: (sum(c for c in v if c > 0), v))
    return out


def box_sign_vectors(point: Sequence[int], radius: int) -> list[tuple[int, ...]]:
    """The vectors of ``box_vectors(len(point), radius)`` whose every entry
    is 0 or has the sign of point's entry there, in the same order."""
    return [
        v
        for v in box_vectors(len(point), radius)
        if all(c == 0 or (c > 0) == (p > 0) for c, p in zip(v, point))
    ]


def content(lam: Partition) -> int:
    """cont(lambda): the sum of j - i over the cells (i, j), row by row."""
    return sum(part * (part + 1) // 2 - i * part for i, part in enumerate(lam.parts, 1))


def disconnected_count(alpha: Partition, beta: Partition, r: int) -> Fraction:
    """Frobenius's formula in content form on the reference columns:
    d! / (z_alpha z_beta) * sum_lambda chi_lambda(alpha) chi_lambda(beta) cont(lambda)^r."""
    left = character_column_by_beta_sets(alpha)
    right = character_column_by_beta_sets(beta)
    total = sum(
        chi * right[lam] * content(lam) ** r for lam, chi in left.items() if lam in right
    )
    return Fraction(math.factorial(alpha.size) * total, z_lambda(alpha) * z_lambda(beta))


def _mult_factorial(lam: Partition) -> int:
    return math.prod(math.factorial(m) for m in lam.multiplicities().values())


def labeled_disconnected(pos: tuple[int, ...], neg: tuple[int, ...], r: int) -> Fraction:
    alpha = Partition(pos)
    beta = Partition(neg)
    labeled = Fraction(_mult_factorial(alpha) * _mult_factorial(beta), math.factorial(alpha.size))
    return labeled * disconnected_count(alpha, beta, r)


def _block_key(values: Sequence[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    pos = tuple(sorted((v for v in values if v > 0), reverse=True))
    neg = tuple(sorted((-v for v in values if v < 0), reverse=True))
    return pos, neg


@lru_cache(maxsize=None)
def connected_value(pos: tuple[int, ...], neg: tuple[int, ...], r: int) -> Fraction:
    """The connected labeled count by inclusion-exclusion over the balanced
    block that holds the first marked point, on ``Fraction`` counts:

        D(S, r) = sum over balanced B containing the first point and over r_B
                  of binom(r, r_B) C(B, r_B) D(S - B, r - r_B),

    with r_B >= |B| - 2 and r_B == |B| (mod 2)."""
    values = pos + tuple(-v for v in neg)
    first, others = values[0], values[1:]
    value = labeled_disconnected(pos, neg, r)
    for size in range(1, len(others)):
        for chosen in itertools.combinations(range(len(others)), size):
            block = (first,) + tuple(others[i] for i in chosen)
            if sum(block) != 0:
                continue
            block_pos, block_neg = _block_key(block)
            rest_pos, rest_neg = _block_key(
                [v for i, v in enumerate(others) if i not in chosen]
            )
            for rb in range(len(block) - 2, r + 1, 2):
                value -= (
                    math.comb(r, rb)
                    * connected_value(block_pos, block_neg, rb)
                    * labeled_disconnected(rest_pos, rest_neg, r - rb)
                )
    return value
