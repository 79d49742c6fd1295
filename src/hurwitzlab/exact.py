"""Exact rationals and multivariate polynomials on the zero-sum lattice.

Values are ``fractions.Fraction``, summed as integers over one denominator
where that is cheaper; nothing in this package ever rounds.
Polynomials live in canonical coordinates: on the hyperplane
x_1 + ... + x_n = 0 the last variable is redundant, so x_n is eliminated via
x_n = -(x_1 + ... + x_{n-1}) and a polynomial is a sparse map from exponent
vectors over the free variables x_1 .. x_{n-1} to rational coefficients.
Two polynomials take equal values on the whole lattice iff their canonical
term maps are equal, which makes polynomial identity testing exact.

Monomials are ordered graded-lexicographically with x_1 > x_2 > ... for
printing, so output is deterministic.  ``newton_interpolate`` calls a value
function on an affine principal lattice and recovers the polynomial by
integer forward differences, with no linear system and one division per term.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Callable, Iterator, Mapping, Sequence

from .errors import DimensionMismatchError, NonZeroSumError, count_argument

Exponents = tuple[int, ...]


def _grlex_key(exps: Exponents) -> tuple[int, Exponents]:
    return (sum(exps), exps)


def _exact(name: str, value) -> Fraction:
    """value as a Fraction if it is an int, not a bool, or a Fraction; else
    ValueError, naming it."""
    if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
        raise ValueError(f"{name} must be an int or a Fraction, got {value!r}")
    return Fraction(value)


def compositions(total: int, parts: int) -> Iterator[Exponents]:
    """All tuples of `parts` nonnegative integers summing to `total`, in
    lexicographic order: stars and bars, with the bars at increasing slots."""
    count_argument("total", total)
    if count_argument("parts", parts) == 0:
        return iter([()] if total == 0 else [])
    slots = total + parts - 1
    return (
        tuple(b - a - 1 for a, b in zip((-1, *bars), (*bars, slots)))
        for bars in itertools.combinations(range(slots), parts - 1)
    )


def monomials_up_to_degree(num_vars: int, degree: int) -> list[Exponents]:
    """Exponent vectors of total degree <= degree, graded-lex ascending.

    Read as lattice coordinates a (a_i >= 0, sum a_i <= degree), this is also
    the simplex lattice of ``newton_interpolate`` in its lattice order.
    """
    count_argument("num_vars", num_vars)
    count_argument("degree", degree)
    # compositions come out lexicographically ascending
    return [a for total in range(degree + 1) for a in compositions(total, num_vars)]


class MultiPoly:
    """Sparse polynomial in the canonical coordinates of a zero-sum space.

    ``n`` is the ambient number of variables; terms are keyed by exponent
    vectors of length ``n - 1`` (the free variables x_1..x_{n-1}).  Zero
    coefficients are never stored and terms are kept sorted graded-lex
    descending, so equality is structural.
    """

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: Mapping[Exponents, Fraction | int] | None = None):
        count_argument("n", n, 2)
        clean: dict[Exponents, Fraction] = {}
        for exps, coeff in (terms or {}).items():
            key = tuple(count_argument("exponent", e) for e in exps)
            if len(key) != n - 1:
                raise ValueError(
                    f"exponent vector {key} has length {len(key)}, expected {n - 1}"
                )
            value = _exact("coefficient", coeff)
            if value != 0:
                clean[key] = value
        self.n = n
        self.terms = tuple(
            sorted(clean.items(), key=lambda item: _grlex_key(item[0]), reverse=True)
        )

    # -- structural protocol ----------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def __repr__(self) -> str:
        return f"MultiPoly(n={self.n}, {self!s})"

    # -- arithmetic --------------------------------------------------------

    def _check_same_space(self, other: MultiPoly) -> None:
        if self.n != other.n:
            raise DimensionMismatchError(
                f"polynomials live in different spaces: n={self.n} vs n={other.n}"
            )

    def __sub__(self, other: MultiPoly) -> MultiPoly:
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check_same_space(other)
        acc = dict(self.terms)
        for exps, coeff in other.terms:
            acc[exps] = acc.get(exps, Fraction(0)) - coeff
        return MultiPoly(self.n, acc)

    # -- evaluation ----------------------------------------------------------

    def evaluate(self, x: Sequence[int]) -> Fraction:
        """Evaluate at a zero-sum lattice point given with all n coordinates:
        integer numerators over the lcm of the denominators, which are
        computed on each call, and one division."""
        if len(x) != self.n:
            raise DimensionMismatchError(
                f"point has {len(x)} coordinates, polynomial expects {self.n}"
            )
        if any(not isinstance(v, int) or isinstance(v, bool) for v in x):
            raise ValueError(f"point {tuple(x)} must have integer coordinates")
        if sum(x) != 0:
            raise NonZeroSumError(f"coordinates of {tuple(x)} do not sum to zero")
        den = math.lcm(*(c.denominator for _, c in self.terms))
        scaled = ((e, c.numerator * (den // c.denominator)) for e, c in self.terms)
        # exps has n - 1 entries, so map stops before x_n
        return Fraction(sum(c * math.prod(map(pow, x, e)) for e, c in scaled), den)

    # -- text forms ----------------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        pieces: list[str] = []
        for position, (exps, coeff) in enumerate(self.terms):
            mono = "*".join(
                f"x{i + 1}^{e}" if e > 1 else f"x{i + 1}"
                for i, e in enumerate(exps)
                if e
            )
            magnitude = abs(coeff)
            if mono and magnitude == 1:
                body = mono
            elif mono:
                body = f"{magnitude}*{mono}"
            else:
                body = str(magnitude)
            if position == 0:
                pieces.append(body if coeff > 0 else f"-{body}")
            else:
                pieces.append(f"+ {body}" if coeff > 0 else f"- {body}")
        return " ".join(pieces)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "terms": {",".join(map(str, e)): str(c) for e, c in self.terms},
        }


def poly_divmod(p: MultiPoly, divisor: MultiPoly) -> tuple[MultiPoly, MultiPoly]:
    """Exact division of p by a single divisor in graded-lex order.

    Returns (quotient, remainder) with p == quotient * divisor + remainder and
    no remainder term divisible by the divisor's leading monomial.
    """
    p._check_same_space(divisor)
    if divisor.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    lead_exps, lead_coeff = divisor.terms[0]
    work = {e: c for e, c in p.terms}
    quotient: dict[Exponents, Fraction] = {}
    remainder: dict[Exponents, Fraction] = {}
    while work:
        exps = max(work, key=_grlex_key)
        coeff = work[exps]
        if all(a >= b for a, b in zip(exps, lead_exps)):
            q_exps = tuple(a - b for a, b in zip(exps, lead_exps))
            # each quotient exponent is grlex below the one before it
            q_coeff = quotient[q_exps] = coeff / lead_coeff
            # the leading term of work cancels exactly in this subtraction
            for d_exps, d_coeff in divisor.terms:
                key = tuple(a + b for a, b in zip(q_exps, d_exps))
                updated = work.get(key, Fraction(0)) - q_coeff * d_coeff
                if updated == 0:
                    work.pop(key, None)
                else:
                    work[key] = updated
        else:
            remainder[exps] = coeff
            del work[exps]
    return MultiPoly(p.n, quotient), MultiPoly(p.n, remainder)


def lattice_point(
    base: Sequence[int], steps: Sequence[Sequence[int]], a: Sequence[int]
) -> tuple[int, ...]:
    """base + sum_i a_i * steps[i]."""
    return tuple(
        b + sum(k * step[j] for k, step in zip(a, steps)) for j, b in enumerate(base)
    )


def _adjugate(matrix: Sequence[Sequence[int]]) -> tuple[int, list[list[int]]]:
    """(det, adj) of a small square integer matrix by fraction-free
    Gauss-Jordan elimination; det is 0 if the matrix is singular."""
    size = len(matrix)
    rows = [[*row] + [int(i == j) for j in range(size)] for i, row in enumerate(matrix)]
    sign, lead = 1, 1
    for col in range(size):
        pivot = next((r for r in range(col, size) if rows[r][col]), None)
        if pivot is None:
            return 0, []
        rows[col], rows[pivot] = rows[pivot], rows[col]
        sign *= -1 if pivot != col else 1
        prev, lead, here = lead, rows[col][col], rows[col]
        for r, row in enumerate(rows):
            if r != col:
                # exact: every entry is a minor of the augmented matrix
                rows[r] = [(lead * a - row[col] * b) // prev for a, b in zip(row, here)]
    # the rows now read [lead I | lead V^-1], and lead = sign * det
    return sign * lead, [[sign * v for v in row[size:]] for row in rows]


def newton_interpolate(
    base: Sequence[int],
    steps: Sequence[Sequence[int]],
    value_at: Callable[[tuple[int, ...]], Fraction | int],
    degree: int,
) -> MultiPoly:
    """The unique polynomial of total degree <= D = degree taking the value
    value_at(lattice_point(base, steps, a)) for every a in the simplex lattice
    a_i >= 0, sum a_i <= D; once the base and steps pass their checks,
    value_at is called once per a, in ``monomials_up_to_degree`` order.

    base is a zero-sum point of length n and steps are n - 1 linearly
    independent zero-sum vectors.  Such a lattice is unisolvent for the
    degree (Chung-Yao), so nothing is solved.  The values times the lcm den
    of their denominators give integer forward differences c_k, one axis at
    a time.  With V the matrix of the steps' free coordinates, det V * a_i is
    l_i = (adj V (x - base))_i, so den D! det^D times the Newton form
    sum_k c_k prod_i C(a_i, k_i) / den is the integer polynomial
    sum_k c_k D!/prod_i k_i! det^(D-|k|) prod_i prod_{j<k_i} (l_i - j det).
    It is expanded by Horner's rule per axis; each coefficient is divided once.
    """
    n = count_argument("len(base)", len(base), 2)
    m = n - 1
    count_argument("degree", degree)
    base = tuple(count_argument("base entry", v, None) for v in base)
    steps = [tuple(count_argument("step entry", v, None) for v in step) for step in steps]
    if len(steps) != m:
        raise DimensionMismatchError(f"need {m} steps for n={n}, got {len(steps)}")
    for vector in (base, *steps):
        if len(vector) != n:
            raise DimensionMismatchError(
                f"{tuple(vector)} has length {len(vector)}, expected {n}"
            )
        if sum(vector) != 0:
            raise NonZeroSumError(f"{tuple(vector)} does not sum to zero")
    det, adj = _adjugate([[step[j] for step in steps] for j in range(m)])
    if not det:
        raise ValueError("the steps are linearly dependent")
    lattice = monomials_up_to_degree(m, degree)
    exact = {a: _exact("value", value_at(lattice_point(base, steps, a))) for a in lattice}

    # a lattice point or an exponent vector e is keyed by sum_i e_i radix^i
    radix = degree + 1
    shift = [radix**i for i in range(m)]
    keys = [sum(k * s for k, s in zip(a, shift)) for a in lattice]
    den = math.lcm(*(v.denominator for v in exact.values()))
    table = {k: int(exact[a] * den) for a, k in zip(lattice, keys)}
    for axis, unit in enumerate(shift):
        # descending along the axis, so each subtraction reads the lower
        # difference order of its neighbour
        along = sorted(zip((a[axis] for a in lattice), keys), reverse=True)
        for order in range(1, degree + 1):
            for height, k in along:
                if height < order:
                    break
                table[k] -= table[k - unit]

    offset = [-sum(w * b for w, b in zip(row, base)) for row in adj]
    forms = [[(s, w) for s, w in zip(shift, row) if w] for row in adj]
    fac = [math.factorial(k) for k in range(degree + 1)]

    def expand(axis: int, at: int, top: int, weight: int) -> dict[int, int]:
        # at is the key of k_1..k_axis, top = D - their sum, weight = prod k_i!
        if axis == m:
            return {0: table[at] * (fac[degree] // weight) * det**top}
        acc = expand(axis + 1, at + top * shift[axis], 0, weight * fac[top])
        for k in range(top - 1, -1, -1):
            # acc * (l_axis - k det) + the next lower term
            step = offset[axis] - k * det
            product = expand(axis + 1, at + k * shift[axis], top - k, weight * fac[k])
            for e, c in acc.items():
                product[e] = product.get(e, 0) + c * step
                for s, w in forms[axis]:
                    product[e + s] = product.get(e + s, 0) + c * w
            acc = product
        return acc

    scale = den * fac[degree] * det**degree
    terms = expand(0, 0, degree, 1)
    exps = {e: tuple(e // s % radix for s in shift) for e in terms}
    return MultiPoly(n, {exps[e]: Fraction(c, scale) for e, c in terms.items()})
