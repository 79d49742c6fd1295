"""Double Hurwitz numbers, exactly, by two independent routes.

``oracle_count`` enumerates tuples of transposition factors closing up a fixed
monodromy representative and filters for connectedness; it is slow but its
correctness is elementary, so it serves as the ground truth.  It enumerates
all factors but the last, which it counts in closed form from the cycle
lengths of the running product and the orbits of the group generated so far.
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
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .errors import (
    BudgetExceededError,
    InvalidProfileError,
    NegativeBranchCountError,
)
from .symgroup import Partition, character_column, content_of_mask, z_lambda

DEFAULT_ORACLE_BUDGET = 10**9


@dataclass(frozen=True)
class RamificationProfile:
    """A labeled zero-sum integer vector with nonzero entries.

    Positive entries are ramification orders over 0, absolute values of
    negative entries over infinity; the degree of the cover is the sum of the
    positive entries.
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
        if not any(v > 0 for v in self.x):
            raise InvalidProfileError(f"profile needs a positive entry: {self.x}")

    @property
    def n(self) -> int:
        return len(self.x)

    @property
    def degree(self) -> int:
        return sum(v for v in self.x if v > 0)

    def positives(self) -> tuple[int, ...]:
        return tuple(v for v in self.x if v > 0)

    def negatives(self) -> tuple[int, ...]:
        return tuple(v for v in self.x if v < 0)

    def alpha(self) -> Partition:
        """Cycle type over 0."""
        return Partition.from_iterable(self.positives())

    def beta(self) -> Partition:
        """Cycle type over infinity."""
        return Partition.from_iterable(-v for v in self.negatives())

    def __str__(self) -> str:
        return "(" + ",".join(map(str, self.x)) + ")"


@dataclass(frozen=True)
class EnumerationStats:
    tuples_examined: int | None
    tuples_accepted: int | None
    elapsed_seconds: float

    def to_json_dict(self) -> dict:
        return {
            "tuples_examined": self.tuples_examined,
            "tuples_accepted": self.tuples_accepted,
            "elapsed_seconds": self.elapsed_seconds,
        }


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
            "stats": self.stats.to_json_dict(),
        }


def simple_branch_count(g: int, n: int) -> int:
    """Number of simple branch points r = 2g - 2 + n."""
    if g < 0:
        raise InvalidProfileError(f"genus must be nonnegative, got {g}")
    r = 2 * g - 2 + n
    if r < 0:
        raise NegativeBranchCountError(f"2g-2+n = {r} < 0 for g={g}, n={n}")
    return r


def _alpha_weight(alpha: Partition) -> int:
    """prod_k k^{m_k(alpha)}, the denominator of the labeled oracle count."""
    w = 1
    for k, m in alpha.multiplicities().items():
        w *= k**m
    return w


def _mult_factorial(lam: Partition) -> int:
    f = 1
    for m in lam.multiplicities().values():
        f *= math.factorial(m)
    return f


def invariant_violation(profile: RamificationProfile, r: int, value: Fraction) -> str | None:
    """Why value cannot be the count for profile with r branch points, or None.

    Cheap sanity invariants, checked on every computed value and on every
    value read back from the result cache.
    """
    weight = _alpha_weight(profile.alpha())
    if (value * weight).denominator != 1:
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
# Brute-force monodromy oracle
# ---------------------------------------------------------------------------


def _representative(alpha: Partition, d: int) -> list[int]:
    """A 0-based image word of cycle type alpha, cycles laid out consecutively."""
    images = list(range(d))
    start = 0
    for part in alpha.parts:
        for offset in range(part):
            images[start + offset] = start + (offset + 1) % part
        start += part
    return images


def _count_tuples(
    sigma0: list[int],
    r: int,
    beta_parts: tuple[int, ...],
    d: int,
) -> tuple[int, int]:
    """Count accepted transposition r-tuples.

    Returns (leaves examined, tuples accepted).  The first r-1 factors are
    enumerated depth first.  The search keeps the running product
    pi = sigma0 * tau_1 * ... * tau_j and its cycle count incrementally and
    prunes a branch as soon as the remaining factors cannot reach the target
    cycle count (each factor changes the count by exactly +-1, so both the
    distance and its parity must fit).

    The last factor is counted in closed form from the cycle lengths of pi
    and the orbits of the group generated so far; every pi-cycle lies in one
    orbit.  If pi has one cycle fewer than beta, tau_r must split a cycle:
    a cycle of length L splits into {k, L-k} under L transpositions, or L/2
    when 2k = L, and the group must already be transitive.  If pi has one
    cycle more, tau_r must merge two cycles of lengths L_i and L_j, which
    L_i * L_j transpositions do, and the group ends transitive when it had
    one orbit, or two with the cycles in different orbits.  Each
    transposition reaching the target cycle count is an examined leaf:
    sum C(L,2) of them for a split, C(d,2) - sum C(L,2) for a merge, the same
    leaves a full enumeration of tau_r visits.
    """
    all_taus = [(a, b) for a in range(d) for b in range(a + 1, d)]
    target = len(beta_parts)
    beta_count = [0] * (d + 1)
    for part in beta_parts:
        beta_count[part] += 1
    prod = list(sigma0)
    inv = [0] * d
    for i, v in enumerate(prod):
        inv[v] = i

    # Orbits of the subgroup generated so far are tracked via the sigma0-cycle
    # label of each point plus the factors chosen so far.
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

    def cycles_of_prod() -> tuple[list[int], list[int]]:
        """Lengths of the cycles of pi and one point on each."""
        lengths: list[int] = []
        points: list[int] = []
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
            points.append(start)
        return lengths, points

    def orbits() -> tuple[list[int], int]:
        """The orbit root of each sigma0-cycle label, and the number of orbits."""
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
        return [find(i) for i in range(ncycles0)], components

    def last_factor(cycles: int) -> tuple[int, int]:
        """(examined, accepted) over tau_r for the current pi."""
        split = cycles + 1 == target
        lengths, points = cycles_of_prod()
        same = sum(length * (length - 1) // 2 for length in lengths)
        leaves = same if split else d * (d - 1) // 2 - same
        # tau_r gives type beta iff the parts pi has beyond beta (extra) and
        # the parts it lacks (missing) are {L} and {k, L-k} for a split, or
        # {L_i, L_j} and {L_i + L_j} for a merge.
        count = [0] * (d + 1)
        for length in lengths:
            count[length] += 1
        extra: list[int] = []
        missing: list[int] = []
        for length in range(1, d + 1):
            diff = count[length] - beta_count[length]
            extra += [length] * diff
            missing += [length] * -diff
        shape = (1, 2) if split else (2, 1)
        if (len(extra), len(missing)) != shape or sum(extra) != sum(missing):
            return leaves, 0
        root, components = orbits()
        # a split keeps the orbits, so it needs one; a merge joins at most two
        if components > len(extra):
            return leaves, 0
        if split:
            whole = extra[0]
            per_cycle = whole if missing[0] != missing[1] else whole // 2
            return leaves, count[whole] * per_cycle
        p, q = extra
        if components == 1:
            pairs = count[p] * count[q] if p != q else math.comb(count[p], 2)
        else:
            where = [root[label[j]] for j in points]
            on_p = [o for o, length in zip(where, lengths) if length == p]
            on_q = [o for o, length in zip(where, lengths) if length == q]
            if p != q:
                pairs = sum(x != y for x in on_p for y in on_q)
            else:
                pairs = sum(x != y for x, y in itertools.combinations(on_p, 2))
        return leaves, pairs * p * q

    def recurse(depth: int, cycles: int) -> None:
        nonlocal examined, accepted
        remaining = r - depth
        if remaining == 1:
            if abs(cycles - target) == 1:
                leaves, hits = last_factor(cycles)
                examined += leaves
                accepted += hits
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

    if r == 0:
        # sigma0 alone: transitive only as one d-cycle
        return 1, int(ncycles0 == 1 and beta_parts == (d,))
    recurse(0, ncycles0)
    return examined, accepted


def enumeration_size(d: int, r: int) -> int:
    """C(d,2)^r, the count of r-tuples of transpositions in S_d: the size
    ``oracle_count`` checks against its budget."""
    return math.comb(d, 2) ** r


def oracle_count(
    profile: RamificationProfile,
    g: int,
    budget: int = DEFAULT_ORACLE_BUDGET,
) -> HurwitzResult:
    """Count genus-g covers by exhaustive monodromy enumeration.

    One representative of the cycle type over 0 is fixed and the r-tuples of
    transposition factors are counted: the first r-1 are enumerated, the last
    is counted from the cycle structure of their product (see
    ``_count_tuples``).  A tuple is accepted when the product has the cycle
    type over infinity and the generated group is transitive.  The stats
    report as examined every tuple a full enumeration would reach after
    pruning, so they match one.  The class-size factor cancels into the
    labeled normalization, giving

        H = prod_k m_k(beta)! * accepted / prod_k k^{m_k(alpha)}.

    Genus is not checked separately: fixing r = 2g-2+n forces it.
    """
    r = simple_branch_count(g, profile.n)
    d = profile.degree
    size = enumeration_size(d, r)
    if size > budget:
        raise BudgetExceededError(
            f"enumeration size C({d},2)^{r} = {size} exceeds budget {budget}"
        )
    alpha, beta = profile.alpha(), profile.beta()
    sigma0 = _representative(alpha, d)
    started = time.perf_counter()
    examined, accepted = _count_tuples(sigma0, r, beta.parts, d)
    value = Fraction(_mult_factorial(beta) * accepted, _alpha_weight(alpha))
    stats = EnumerationStats(
        tuples_examined=examined,
        tuples_accepted=accepted,
        elapsed_seconds=time.perf_counter() - started,
    )
    return _finalize(profile, g, r, value, "oracle", stats)


# ---------------------------------------------------------------------------
# Character-sum route
# ---------------------------------------------------------------------------


def frobenius_disconnected(alpha: Partition, beta: Partition, r: int) -> Fraction:
    """Number of tuples (sigma_0, tau_1..tau_r, sigma_inf) multiplying to the
    identity, with sigma_0 of type alpha, sigma_inf of type beta and each
    tau a transposition, with no connectedness requirement.

    Frobenius's formula in content form,

        d! / (z_alpha z_beta)
           * sum_lambda chi_lambda(alpha) * chi_lambda(beta) * cont(lambda)^r,

    where cont(lambda), the sum of j - i over the cells (i, j) of lambda, is
    the central character of lambda on the transposition class.  Only
    lambda with both characters nonzero are visited, and the sum is an integer.
    The two columns are intersected on their bead-mask keys, which is sound
    because alpha and beta have the same size d and so both use d beads;
    cont(lambda) is read from the mask (``content_of_mask``).
    """
    if alpha.size != beta.size:
        raise ValueError(f"|alpha|={alpha.size} differs from |beta|={beta.size}")
    d = alpha.size
    if d < 1:
        raise ValueError("degree must be at least 1")
    if r < 0:
        raise ValueError("r must be nonnegative")
    small, large = sorted((character_column(alpha), character_column(beta)), key=len)
    total = 0
    for mask, chi in small.items():
        other = large.get(mask)
        if other is not None:
            total += chi * other * content_of_mask(mask, d) ** r
    return Fraction(math.factorial(d) * total, z_lambda(alpha) * z_lambda(beta))


def _block_key(values: Sequence[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    pos = tuple(sorted((v for v in values if v > 0), reverse=True))
    neg = tuple(sorted((-v for v in values if v < 0), reverse=True))
    return pos, neg


def _labeled_disconnected(pos: tuple[int, ...], neg: tuple[int, ...], r: int) -> Fraction:
    alpha = Partition.from_iterable(pos)
    beta = Partition.from_iterable(neg)
    d = alpha.size
    labeled = Fraction(_mult_factorial(alpha) * _mult_factorial(beta), math.factorial(d))
    return labeled * frobenius_disconnected(alpha, beta, r)


@lru_cache(maxsize=None)
def _connected_value(pos: tuple[int, ...], neg: tuple[int, ...], r: int) -> Fraction:
    """Connected labeled count for the profile with given part multisets.

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
    """
    values = pos + tuple(-v for v in neg)
    first, others = values[0], values[1:]
    value = _labeled_disconnected(pos, neg, r)
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
                    * _connected_value(block_pos, block_neg, rb)
                    * _labeled_disconnected(rest_pos, rest_neg, r - rb)
                )
    return value


def frobenius_connected(profile: RamificationProfile, g: int) -> HurwitzResult:
    """Connected count via the character sum plus inclusion-exclusion.

    Independent of the oracle except for sharing the profile bookkeeping;
    sub-profile counts are memoized on (positive parts, negative parts, r).
    """
    r = simple_branch_count(g, profile.n)
    started = time.perf_counter()
    pos, neg = _block_key(profile.x)
    value = _connected_value(pos, neg, r)
    stats = EnumerationStats(
        tuples_examined=None,
        tuples_accepted=None,
        elapsed_seconds=time.perf_counter() - started,
    )
    return _finalize(profile, g, r, value, "frobenius", stats)


def enumerate_profiles(n: int, max_degree: int) -> list[RamificationProfile]:
    """All valid profiles of length n with degree at most max_degree."""
    entries = [v for v in range(-max_degree, max_degree + 1) if v != 0]
    out = []
    for combo in itertools.product(entries, repeat=n):
        if sum(combo) != 0:
            continue
        degree = sum(v for v in combo if v > 0)
        if degree == 0 or degree > max_degree:
            continue
        out.append(RamificationProfile(combo))
    return out
