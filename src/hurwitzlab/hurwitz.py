"""Double Hurwitz numbers, exactly, by two independent routes.

``oracle_count`` counts the tuples of transposition factors that, with a fixed
permutation of the cycle type over 0, multiply to the cycle type over
infinity and generate a transitive group; its correctness is elementary, so
it serves as the ground truth.  It counts them by cut-and-join
(Goulden-Jackson): one forward pass over the conjugacy classes of (running
product, orbits of the group generated so far), in which each factor cuts one
cycle of the product or joins two.  It shares no code with the character
route.
``frobenius_connected`` evaluates Frobenius's formula in content form, an
integer sum over the partitions lambda of d where both character columns are
nonzero, for the disconnected count of factorizations.  It extracts the
connected part by a recursion on the balanced block that holds the first
labeled marked point.  The two are required to agree exactly; the test suite
checks this on an exhaustive grid.

Both routes use the labeled normalization: the preimages of 0 and of infinity
carry the labels of the input vector, which multiplies the unlabeled count by
prod_k m_k(alpha)! * prod_k m_k(beta)!.  This is the convention under which
the count is a function on the labeled zero-sum lattice and matches the
chamber polynomials reproduced in the acceptance tests.
"""

from __future__ import annotations

import itertools
import math
import operator
import time
from dataclasses import asdict, dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import BudgetExceededError, InvalidProfileError, count_argument
from .symgroup import Partition, character_column, content_of_mask

DEFAULT_ORACLE_BUDGET = 10**9


@dataclass(frozen=True)
class RamificationProfile:
    """A labeled zero-sum integer vector with nonzero entries.

    Positive entries are ramification orders over 0, absolute values of
    negative entries over infinity; the degree of the cover is the sum of the
    positive entries.  ``sides`` splits it by ``_sides``, the one implementation.
    """

    x: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "x", tuple(self.x))
        if any(not isinstance(v, int) or isinstance(v, bool) for v in self.x):
            raise InvalidProfileError(f"profile entries must be integers: {self.x}")
        if len(self.x) < 2:
            raise InvalidProfileError(f"profile needs at least 2 entries: {self.x}")
        if any(v == 0 for v in self.x):
            raise InvalidProfileError(f"profile entries must be nonzero: {self.x}")
        if sum(self.x) != 0:
            raise InvalidProfileError(
                f"profile entries must sum to zero: {self.x} sums to {sum(self.x)}"
            )

    @property
    def n(self) -> int:
        return len(self.x)

    @property
    def degree(self) -> int:
        return sum(v for v in self.x if v > 0)

    def sides(self) -> tuple[Partition, Partition]:
        """The cycle types (alpha, beta) over 0 and over infinity."""
        return _sides(self.x)

    def __str__(self) -> str:
        return "(" + ",".join(map(str, self.x)) + ")"


@dataclass(frozen=True)
class EnumerationStats:
    tuples_examined: int | None
    tuples_accepted: int | None
    elapsed_seconds: float


@dataclass(frozen=True)
class HurwitzResult:
    value: Fraction
    genus: int
    r: int
    method: str
    stats: EnumerationStats

    def to_json_dict(self) -> dict:
        return {
            "value": str(self.value),
            "g": self.genus,
            "r": self.r,
            "method": self.method,
            "stats": asdict(self.stats),
        }


def simple_branch_count(g: int, n: int) -> int:
    """Number of simple branch points r = 2g - 2 + n, nonnegative since a
    profile has n >= 2 entries."""
    count_argument("genus", g, error=InvalidProfileError)
    count_argument("n", n, 2, error=InvalidProfileError)
    return 2 * g - 2 + n


def invariant_violation(profile: RamificationProfile, r: int, value: Fraction) -> str | None:
    """Why value cannot be the count for profile with r branch points, or None.

    Cheap sanity invariants, checked on every computed value and on every
    value read back from the result cache.
    """
    count_argument("r", r)
    weight = math.prod(v for v in profile.x if v > 0)
    if weight % value.denominator:
        return f"integrality violated: {value} * {weight} is not an integer"
    if value < 0:
        return f"negative count {value} for {profile}"
    if profile.degree == 1 and r > 0 and value != 0:
        return f"degree-1 cover with r={r} must count 0, got {value}"
    return None


def _finalize(
    profile: RamificationProfile,
    g: int,
    r: int,
    value: Fraction,
    method: str,
    stats: EnumerationStats,
) -> HurwitzResult:
    violation = invariant_violation(profile, r, value)
    if violation is not None:
        raise AssertionError(violation)
    return HurwitzResult(value=value, genus=g, r=r, method=method, stats=stats)


# ---------------------------------------------------------------------------
# Monodromy oracle by cut-and-join
# ---------------------------------------------------------------------------


# The class of (running product, orbits): for each orbit the sorted lengths
# of the product's cycles in it, with the orbits themselves sorted.
OrbitCycles = tuple[tuple[int, ...], ...]


def _moves(state: OrbitCycles, delta: int) -> dict[OrbitCycles, int]:
    """The classes one transposition leads to from state, and how many lead there.

    For delta = +1 the transposition cuts a cycle of length L into {k, L-k}:
    L transpositions do, or L/2 when 2k = L, and the orbits stay.  For
    delta = -1 it joins two cycles of lengths L1 and L2: L1 * L2
    transpositions do, and the two orbits merge if they differ.
    """
    moves: dict[OrbitCycles, int] = {}

    def add(weight: int, others: tuple, orbit: tuple[int, ...]) -> None:
        child = tuple(sorted(others + (tuple(sorted(orbit)),)))
        moves[child] = moves.get(child, 0) + weight

    for i, orbit in enumerate(state):
        others = state[:i] + state[i + 1 :]
        for p, length in enumerate(orbit):
            left = orbit[:p] + orbit[p + 1 :]
            if delta == 1:
                for k in range(1, length // 2 + 1):
                    weight = length // 2 if 2 * k == length else length
                    add(weight, others, left + (k, length - k))
                continue
            # join with a later cycle of this orbit, then with a cycle of a
            # later orbit, so that each pair of cycles is taken once
            for q in range(p, len(left)):
                joined = left[:q] + left[q + 1 :] + (length + left[q],)
                add(length * left[q], others, joined)
            for j in range(i, len(others)):
                for q, other in enumerate(others[j]):
                    joined = left + others[j][:q] + others[j][q + 1 :] + (length + other,)
                    add(length * other, others[:j] + others[j + 1 :], joined)
    return moves


def _count_tuples(alpha: Partition, beta: Partition, r: int) -> tuple[int, int]:
    """Count accepted transposition r-tuples by cut-and-join.

    Returns (tuples examined, tuples accepted).  After sigma0 and the first j
    factors, the completions tau_{j+1}..tau_r depend only on the running
    product pi = sigma0 * tau_1 * ... * tau_j and on the orbits of the group
    generated so far: every pi-cycle lies in one orbit.  Conjugating by any
    permutation g maps the completions of (pi, orbits) one-to-one onto those
    of (g pi g^-1, g(orbits)), keeping cycle counts, cycle types and
    transitivity.  So the completions depend only on the conjugacy class of
    the pair, which is the sorted tuple over the orbits of the sorted lengths
    of the pi-cycles in each.  The pass walks these classes one factor at a
    time, holding one layer, the count of prefixes tau_1..tau_j per class
    they reach, and stepping it by the cut and join classes of ``_moves``.

    Each factor changes the cycle count by exactly +-1, so a step is pruned
    as soon as the remaining factors cannot reach the cycle count of beta
    (both the distance and its parity must fit).  An examined tuple is one
    that survives this prune to the last factor, as in a depth-first
    enumeration with the same prune; it is accepted when the product has
    type beta and the group is transitive.  For r = 0 the one empty tuple is
    examined.
    """
    target_type = tuple(sorted(beta.parts))
    target = len(target_type)
    layer = {tuple(sorted((part,) for part in alpha.parts)): 1}
    for rem in range(r - 1, -1, -1):
        following: dict[OrbitCycles, int] = {}
        for state, ways in layer.items():
            cycles = sum(map(len, state))
            for delta in (1, -1):
                gap = abs(cycles + delta - target)
                if gap > rem or (gap + rem) % 2:
                    continue
                for child, weight in _moves(state, delta).items():
                    following[child] = following.get(child, 0) + ways * weight
        layer = following
    return sum(layer.values()), layer.get((target_type,), 0)


def enumeration_size(d: int, r: int) -> int:
    """C(d,2)^r, the count of r-tuples of transpositions in S_d: the size of
    the tuple space, which ``oracle_count`` checks against its budget.  It
    bounds the tuples counted, not the work of counting them."""
    return math.comb(count_argument("d", d), 2) ** count_argument("r", r)


def oracle_count(
    profile: RamificationProfile,
    g: int,
    budget: int | None = DEFAULT_ORACLE_BUDGET,
) -> HurwitzResult:
    """Count genus-g covers by counting their monodromy tuples.

    One permutation sigma0 of the cycle type over 0 is fixed and the r-tuples
    of transposition factors are counted by cut-and-join on conjugacy classes
    (see ``_count_tuples``).  A tuple is accepted when the product has the
    cycle type over infinity and the generated group is transitive.  The
    stats report as examined every tuple a depth-first enumeration with the
    same cycle-count prune would reach, so they match one.  The budget
    bounds the size C(d,2)^r of the tuple space, as that enumeration's cost
    did; None leaves it unbounded.  The class-size factor cancels into the
    labeled normalization, giving

        H = prod_k m_k(beta)! * accepted / prod_k k^{m_k(alpha)}.

    Genus is not checked separately: fixing r = 2g-2+n forces it.
    """
    r = simple_branch_count(g, profile.n)
    d = profile.degree
    size = enumeration_size(d, r)
    if budget is not None and size > count_argument("budget", budget):
        raise BudgetExceededError(
            f"enumeration size C({d},2)^{r} = {size} exceeds budget {budget}"
        )
    alpha, beta = profile.sides()
    started = time.perf_counter()
    examined, accepted = _count_tuples(alpha, beta, r)
    labels = math.prod(map(math.factorial, beta.multiplicities().values()))
    value = Fraction(labels * accepted, math.prod(alpha.parts))
    stats = EnumerationStats(
        tuples_examined=examined,
        tuples_accepted=accepted,
        elapsed_seconds=time.perf_counter() - started,
    )
    return _finalize(profile, g, r, value, "oracle", stats)


# ---------------------------------------------------------------------------
# Character-sum route
# ---------------------------------------------------------------------------


def frobenius_disconnected(alpha: Partition, beta: Partition, r: int) -> int:
    """The character sum of Frobenius's formula in content form,

        S = sum_lambda chi_lambda(alpha) * chi_lambda(beta) * cont(lambda)^r,

    where cont(lambda), the sum of j - i over the cells (i, j) of lambda, is
    the central character of lambda on the transposition class.  The number
    of tuples (sigma_0, tau_1..tau_r, sigma_inf) multiplying to the identity,
    with sigma_0 of type alpha, sigma_inf of type beta and each tau a
    transposition, with no connectedness requirement, is d! S / (z_alpha
    z_beta); the labeled disconnected count is S / W, with W the product of
    all parts of alpha and beta.  Only lambda with both characters nonzero
    are visited.
    The two columns are intersected on their bead-mask keys, which is sound
    because alpha and beta have the same size d and so both use d beads;
    cont(lambda) is read from the mask (``content_of_mask``).
    """
    if alpha.size != beta.size:
        raise ValueError(f"|alpha|={alpha.size} differs from |beta|={beta.size}")
    d = count_argument("degree", alpha.size, 1)
    count_argument("r", r)
    small, large = sorted((character_column(alpha), character_column(beta)), key=len)
    total = 0
    for mask, chi in small.items():
        other = large.get(mask)
        if other is not None:
            total += chi * other * content_of_mask(mask, d) ** r
    return total


def _sides(values: tuple[int, ...]) -> tuple[Partition, Partition]:
    """The cycle types over 0 and over infinity of the parts; the one
    implementation, for profiles and for the recursion's sub-profiles."""
    return Partition(v for v in values if v > 0), Partition(-v for v in values if v < 0)


@lru_cache(maxsize=None)
def _connected_value(values: tuple[int, ...], r: int) -> int:
    """W times the connected labeled count for the profile with the given
    parts, sorted decreasing, W the product of their absolute values.

    A disconnected cover splits the labeled marked points S into balanced
    blocks, one per component, and its r branch points among them.  Fixing
    the block B that holds the first point gives, with C = connected / r!
    and D = disconnected / r!,

        D(S, r) = sum over balanced B containing the first point and over r_B
                  of C(B, r_B) * D(S - B, r - r_B),

    with D(empty, 0) = 1.  A connected block has genus >= 0, so
    r_B >= |B| - 2 and r_B == |B| (mod 2).  The B = S term is C(S, r); the
    rest are subtracted, with D taken straight from the character sum.  The
    code works with the counts themselves, so each term carries binom(r, r_B).
    The terms depend on B only through its part multiset, so the loop picks
    k_v of the m_v other parts equal to v, once per multiset, and weights the
    term by prod_v binom(m_v, k_v), the number of labeled blocks it stands for.
    W is multiplicative over the blocks and W times the labeled disconnected
    count is the integer character sum S of ``frobenius_disconnected``, so
    the recursion runs on W times the counts, all integers.
    """
    parts, ms = zip(*((v, len(list(run))) for v, run in itertools.groupby(values[1:])))
    value = frobenius_disconnected(*_sides(values), r)
    for ks in itertools.product(*(range(m + 1) for m in ms)):
        if values[0] + sum(map(operator.mul, parts, ks)) or ks == ms:
            continue
        block = values[:1] + tuple(v for v, k in zip(parts, ks) for _ in range(k))
        rest = _sides(tuple(v for v, k, m in zip(parts, ks, ms) for _ in range(m - k)))
        weight = math.prod(map(math.comb, ms, ks))
        for rb in range(len(block) - 2, r + 1, 2):
            value -= (
                weight
                * math.comb(r, rb)
                * _connected_value(block, rb)
                * frobenius_disconnected(*rest, r - rb)
            )
    return value


def frobenius_connected(profile: RamificationProfile, g: int) -> HurwitzResult:
    """Connected count via the character sum plus inclusion-exclusion.

    Independent of the oracle except for sharing the profile bookkeeping;
    sub-profile counts are memoized on (parts sorted decreasing, r).
    The recursion yields W times the count, W the product of all parts, in
    integers; the one division is here.
    """
    r = simple_branch_count(g, profile.n)
    started = time.perf_counter()
    parts = tuple(sorted(profile.x, reverse=True))
    value = Fraction(_connected_value(parts, r), math.prod(map(abs, parts)))
    stats = EnumerationStats(
        tuples_examined=None,
        tuples_accepted=None,
        elapsed_seconds=time.perf_counter() - started,
    )
    return _finalize(profile, g, r, value, "frobenius", stats)


def enumerate_profiles(n: int, max_degree: int) -> list[RamificationProfile]:
    """All valid profiles of length n with degree at most max_degree."""
    count_argument("max_degree", max_degree)
    entries = [v for v in range(-max_degree, max_degree + 1) if v != 0]
    out = []
    for combo in itertools.product(entries, repeat=count_argument("n", n)):
        if sum(combo) != 0:
            continue
        degree = sum(v for v in combo if v > 0)
        if degree == 0 or degree > max_degree:
            continue
        out.append(RamificationProfile(combo))
    return out
