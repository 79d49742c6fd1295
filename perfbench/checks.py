"""Answer checks computed apart from hurwitzlab, with stdlib Fractions only.

Nothing here imports the program.  Each check returns None when the answer
passes and a one-line reason when it does not.

* ``one_part_value``: the Goulden-Jackson-Vakil one-part closed form
  (Towards the geometry of double Hurwitz numbers, 2005),
  H = r! d^(r-1) [t^(2g)] prod_i S(beta_i t) / S(t), S(t) = sinh(t/2)/(t/2),
  r = 2g - 1 + m for the profile (d, -beta_1, ..., -beta_m).
* ``check_ray``: along a ray, H(k x) is a polynomial in k whose terms lie in
  degrees 2g-3+n .. 4g-3+n in steps of 2 (same paper).
* ``CoverCounter``: an exhaustive count of transposition walks in S_d by a
  transfer over (product, orbit partition) states.  It shares no code or
  method with the program's depth-first oracle or its character sums.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction

# in-chamber points at which a fitted or crossed polynomial is checked
EXTRA_POINTS = 3


def degree_window(g: int, n: int) -> list[int]:
    """Degrees in which a chamber polynomial can have terms."""
    return list(range(2 * g - 3 + n, 4 * g - 3 + n + 1, 2))


# ---------------------------------------------------------------------------
# One-part closed form
# ---------------------------------------------------------------------------


def _sinh_ratio(scale: int, order: int) -> list[Fraction]:
    """Coefficients of u^k, k <= order, of S(scale*t) with u = t^2."""
    return [
        Fraction(scale ** (2 * k), 4**k * math.factorial(2 * k + 1))
        for k in range(order + 1)
    ]


def _series_mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    return [sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(len(a))]


def _series_div(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out: list[Fraction] = []
    for k in range(len(a)):
        out.append((a[k] - sum(out[i] * b[k - i] for i in range(k))) / b[0])
    return out


def one_part_value(x: tuple[int, ...], g: int) -> Fraction:
    """Closed form for a profile with exactly one positive (or one negative)
    entry; H is unchanged when the two sides are swapped."""
    pos = [v for v in x if v > 0]
    neg = [-v for v in x if v < 0]
    if len(pos) != 1:
        pos, neg = neg, pos
    if len(pos) != 1:
        raise ValueError(f"{x} is not a one-part profile")
    d, betas = pos[0], neg
    r = 2 * g - 1 + len(betas)
    product = [Fraction(1)] + [Fraction(0)] * g
    for b in betas:
        product = _series_mul(product, _sinh_ratio(b, g))
    coeff = _series_div(product, _sinh_ratio(1, g))[g]
    return math.factorial(r) * Fraction(d) ** (r - 1) * coeff


def check_one_part(x: tuple[int, ...], g: int, value: Fraction) -> str | None:
    expected = one_part_value(x, g)
    if value != expected:
        return f"H_{g}{x} = {value}, closed form gives {expected}"
    return None


# ---------------------------------------------------------------------------
# Ray polynomiality
# ---------------------------------------------------------------------------


def solve(rows: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction] | None:
    """Exact solution of a square system, or None when it is singular."""
    m = len(rows)
    aug = [list(map(Fraction, row)) + [Fraction(v)] for row, v in zip(rows, rhs)]
    for col in range(m):
        pivot = next((i for i in range(col, m) if aug[i][col] != 0), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        for i in range(m):
            if i != col and aug[i][col] != 0:
                f = aug[i][col] / aug[col][col]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[col])]
    return [aug[i][m] / aug[i][i] for i in range(m)]


def check_ray(values: list[Fraction], n: int, g: int) -> str | None:
    """values[k-1] = H(k x) for k = 1..K with K above the number of unknowns.

    Fits c_e k^e over the degree window on the first points and requires the
    rest to agree."""
    degrees = degree_window(g, n)
    if len(values) <= len(degrees):
        return f"{len(values)} ray points do not exceed {len(degrees)} unknowns"
    m = len(degrees)
    coeffs = solve([[k**e for e in degrees] for k in range(1, m + 1)], values[:m])
    if coeffs is None:
        return "singular ray system"
    for k in range(m + 1, len(values) + 1):
        predicted = sum(c * k**e for c, e in zip(coeffs, degrees))
        if predicted != values[k - 1]:
            return (
                f"H(kx) is not a polynomial in degrees {degrees}: k={k} gives "
                f"{values[k - 1]}, the fit on k<={m} predicts {predicted}"
            )
    return None


# ---------------------------------------------------------------------------
# Exhaustive cover counts
# ---------------------------------------------------------------------------


def _canonical(labels: tuple[int, ...]) -> tuple[int, ...] | None:
    """Relabel blocks by first appearance; None once everything is one block."""
    seen: dict[int, int] = {}
    out = tuple(seen.setdefault(v, len(seen)) for v in labels)
    return None if len(seen) == 1 else out


def _cycle_type(images: tuple[int, ...]) -> tuple[int, ...]:
    done = [False] * len(images)
    lengths = []
    for start in range(len(images)):
        length = 0
        j = start
        while not done[j]:
            done[j] = True
            j = images[j]
            length += 1
        if length:
            lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


class CoverCounter:
    """Labelled connected counts H_g(alpha; beta) by walking transpositions.

    Fix sigma_0 of cycle type alpha and follow every sequence of r
    transpositions, keeping the product and the orbits of the group generated
    so far.  The orbits start as the cycles of sigma_0 and merge as
    transpositions join them.  With ``walks`` the number of sequences that
    end on one orbit with a product of type beta, the labelled count is

        H = walks * |C_alpha| * m(alpha)! m(beta)! / d!
          = walks * m(beta)! / prod_k k^{m_k(alpha)},

    the labels of the marked points multiplying the automorphism-weighted
    count by the multiplicity factorials.
    """

    def __init__(self) -> None:
        self._walks: dict[tuple[int, ...], list[Counter]] = {}

    def _walk(self, alpha: tuple[int, ...], r: int) -> Counter:
        # the connected cycle types after 0..j steps, then the states after j
        table = self._walks.get(alpha)
        if table is None:
            d = sum(alpha)
            images, labels, start = [0] * d, [0] * d, 0
            for block, part in enumerate(alpha):
                for offset in range(part):
                    images[start + offset] = start + (offset + 1) % part
                    labels[start + offset] = block
                start += part
            states = Counter({(tuple(images), _canonical(tuple(labels))): 1})
            table = self._walks[alpha] = [self._connected_types(states), states]
        taus = [(a, b) for a in range(sum(alpha)) for b in range(a + 1, sum(alpha))]
        while len(table) - 1 <= r:
            states = table.pop()
            nxt: Counter = Counter()
            for (images, labels), count in states.items():
                for a, b in taus:
                    # product sigma * tau: apply sigma, then swap a and b
                    new = [b if v == a else a if v == b else v for v in images]
                    if labels is None or labels[a] == labels[b]:
                        merged = labels
                    else:
                        la, lb = labels[a], labels[b]
                        merged = _canonical(tuple(la if v == lb else v for v in labels))
                    nxt[(tuple(new), merged)] += count
            table.append(self._connected_types(nxt))
            table.append(nxt)
        return table[r]

    @staticmethod
    def _connected_types(states: Counter) -> Counter:
        out: Counter = Counter()
        for (images, labels), count in states.items():
            if labels is None:
                out[_cycle_type(images)] += count
        return out

    def value(self, x: tuple[int, ...], g: int) -> Fraction:
        alpha = tuple(sorted((v for v in x if v > 0), reverse=True))
        beta = tuple(sorted((-v for v in x if v < 0), reverse=True))
        r = 2 * g - 2 + len(x)
        walks = self._walk(alpha, r)[beta]
        weight = math.prod(k**m for k, m in Counter(alpha).items())
        multiplicity = math.prod(math.factorial(m) for m in Counter(beta).values())
        return Fraction(walks * multiplicity, weight)


def check_count(counter: CoverCounter, x, g: int, value: Fraction) -> str | None:
    expected = counter.value(tuple(x), g)
    if value != expected:
        return f"H_{g}{tuple(x)} = {value}, exhaustive count gives {expected}"
    return None


# ---------------------------------------------------------------------------
# Polynomials as the program prints them
# ---------------------------------------------------------------------------


def poly_value(poly: dict, x: tuple[int, ...]) -> Fraction:
    """Evaluate a polynomial given as {"n": n, "terms": {"e1,..": "p/q"}}
    in the free coordinates x_1..x_{n-1} (x_n is eliminated)."""
    n = poly["n"]
    if len(x) != n or sum(x) != 0:
        raise ValueError(f"{x} is not a zero-sum point with {n} coordinates")
    total = Fraction(0)
    for key, coeff in poly["terms"].items():
        exps = [int(e) for e in key.split(",")] if key else []
        total += Fraction(coeff) * math.prod(v**e for v, e in zip(x, exps))
    return total


def term_degrees(poly: dict) -> set[int]:
    return {
        sum(int(e) for e in key.split(",")) if key else 0 for key in poly["terms"]
    }


def signs(x: tuple[int, ...]) -> tuple[int, ...]:
    """Sign of every subset sum over {2..n}, or 0 on a wall."""
    n = len(x)
    out = []
    for mask in range(1, 2 ** (n - 1)):
        s = sum(x[i + 1] for i in range(n - 1) if mask >> i & 1)
        out.append((s > 0) - (s < 0))
    return tuple(out)


def chamber_points(witness: tuple[int, ...], max_degree: int) -> list[tuple[int, ...]]:
    """Every lattice point of the witness's chamber with degree <= max_degree,
    lowest degree first."""
    n = len(witness)
    target = signs(witness)
    found = []

    def extend(prefix: list[int]) -> None:
        if sum(v for v in prefix if v > 0) > max_degree:
            return
        if sum(v for v in prefix if v < 0) < -max_degree:
            return
        if len(prefix) == n - 1:
            point = tuple(prefix) + (-sum(prefix),)
            degree = sum(v for v in point if v > 0)
            if point[-1] != 0 and degree <= max_degree and signs(point) == target:
                found.append(point)
            return
        for v in range(-max_degree, max_degree + 1):
            if v != 0:
                extend(prefix + [v])

    extend([])
    return sorted(found, key=lambda p: (sum(v for v in p if v > 0), p))


def lowest_chamber_points(witness: tuple[int, ...], count: int) -> list[tuple[int, ...]]:
    """The count lowest-degree lattice points of the witness's chamber."""
    degree = sum(v for v in witness if v > 0)
    for bound in range(1, degree + 1):
        points = chamber_points(witness, bound)
        if len(points) >= count or bound == degree:
            return points[:count]
    return []


def check_fit(
    poly: dict,
    witness: tuple[int, ...],
    g: int,
    counter: CoverCounter,
) -> str | None:
    """A fitted chamber polynomial: degree window, exhaustive counts at the
    lowest-degree points of its chamber and, for one-part witnesses, the
    closed form along the chamber."""
    n = len(witness)
    if not poly["terms"]:
        return f"empty polynomial for {witness}"
    window = set(degree_window(g, n))
    if not term_degrees(poly) <= window:
        return f"term degrees {sorted(term_degrees(poly))} leave the window {sorted(window)}"
    for point in lowest_chamber_points(witness, EXTRA_POINTS):
        reason = check_count(counter, point, g, poly_value(poly, point))
        if reason:
            return "fitted polynomial: " + reason
    if sum(v > 0 for v in witness) == 1 or sum(v < 0 for v in witness) == 1:
        degree = sum(v for v in witness if v > 0)
        for point in chamber_points(witness, degree + 6)[-EXTRA_POINTS:]:
            reason = check_one_part(point, g, poly_value(poly, point))
            if reason:
                return "fitted polynomial: " + reason
    return None


def wall_points(n: int, wall: tuple[int, ...], bound: int) -> list[tuple[int, ...]]:
    """Zero-sum points with entries in [-bound, bound] on the wall sum_{i in
    wall} x_i = 0 (1-based indices)."""
    out = []

    def extend(prefix: list[int]) -> None:
        if len(prefix) == n - 1:
            point = tuple(prefix) + (-sum(prefix),)
            if sum(point[i - 1] for i in wall) == 0:
                out.append(point)
            return
        for v in range(-bound, bound + 1):
            extend(prefix + [v])

    extend([])
    return out


def check_wallcross(
    poly: dict,
    wall: tuple[int, ...],
    from_poly: dict,
    to_witness: tuple[int, ...],
    counter: CoverCounter,
) -> str | None:
    """The crossing polynomial is nonzero, vanishes on the wall, and added to
    the polynomial of the chamber it leaves gives the exhaustive count at the
    lowest-degree points of the chamber it enters."""
    if not poly["terms"]:
        return "the crossing polynomial is zero"
    for point in wall_points(poly["n"], wall, 2):
        value = poly_value(poly, point)
        if value != 0:
            return f"crossing polynomial is {value} at {point} on wall {wall}"
    for point in lowest_chamber_points(to_witness, EXTRA_POINTS):
        value = poly_value(from_poly, point) + poly_value(poly, point)
        reason = check_count(counter, point, 0, value)
        if reason:
            return "chamber polynomial plus crossing: " + reason
    return None
