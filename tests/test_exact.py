"""Tests for exact rationals, canonical polynomials, and interpolation.

Newton interpolation on a lattice is the package's route; the Gauss-Jordan
solver in ``reference`` is the independent route it is compared against.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import pytest

from hurwitzlab.errors import DimensionMismatchError, NonZeroSumError
from hurwitzlab.exact import (
    MultiPoly,
    compositions,
    lattice_point,
    monomials_up_to_degree,
    newton_interpolate,
    poly_divmod,
)
from reference import (
    InconsistentSystemError,
    UnderdeterminedError,
    constant,
    determinant,
    homogeneous_components,
    interpolate,
    poly_from_json,
    poly_product,
    raw_terms_poly,
    term_map,
)


def _x(n: int, *indices: int) -> MultiPoly:
    """The canonical form of x_i + x_j + ... for the given indices."""
    units = (tuple(int(j == i) for j in range(1, n + 1)) for i in indices)
    return raw_terms_poly(n, {unit: 1 for unit in units})


def _chamber2_poly() -> MultiPoly:
    # 6*x1*(x1+x2+x5) in ambient dimension 5
    return raw_terms_poly(5, {(2, 0, 0, 0, 0): 6, (1, 1, 0, 0, 0): 6, (1, 0, 0, 0, 1): 6})


# -- exponent order ----------------------------------------------------------


def _sorted_compositions(total: int, parts: int) -> list[tuple[int, ...]]:
    tuples = itertools.product(range(total + 1), repeat=parts)
    return sorted(c for c in tuples if sum(c) == total)


def test_compositions_come_in_lexicographic_order():
    # fit --json lists held-out points of equal cost in this order
    for total in range(9):
        for parts in range(6):
            assert list(compositions(total, parts)) == _sorted_compositions(total, parts)
    assert list(compositions(0, 0)) == [()]
    assert list(compositions(3, 0)) == []
    assert list(compositions(0, 3)) == [(0, 0, 0)]


def test_monomials_come_by_total_then_lexicographically():
    for num_vars in range(6):
        for degree in range(9):
            expected = [a for t in range(degree + 1) for a in _sorted_compositions(t, num_vars)]
            assert monomials_up_to_degree(num_vars, degree) == expected


# -- rational scalar ---------------------------------------------------------


def test_fraction_field_axioms_randomized():
    rng = random.Random(7)
    for _ in range(200):
        a, b, c = (
            Fraction(rng.randint(-50, 50), rng.randint(1, 30)) for _ in range(3)
        )
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a


def test_fraction_storage_is_reduced():
    rng = random.Random(8)
    for _ in range(100):
        f = Fraction(rng.randint(-400, 400), rng.randint(1, 240))
        assert f.denominator > 0
        assert math.gcd(f.numerator, f.denominator) == 1


# -- evaluation --------------------------------------------------------------


def test_eval_linear():
    assert _x(3, 1, 2).evaluate((2, 1, -3)) == 3


def test_eval_zero_polynomial():
    assert MultiPoly(4).evaluate((1, 2, -1, -2)) == 0


def test_eval_chamber2_polynomial_at_example_point():
    assert _chamber2_poly().evaluate((9, 4, -5, -5, -3)) == 540


def test_eval_rejects_bad_points():
    p = _x(3, 1)
    with pytest.raises(DimensionMismatchError):
        p.evaluate((1, -1))
    with pytest.raises(NonZeroSumError):
        p.evaluate((1, 1, -1))


@pytest.mark.parametrize(
    "point",
    [(Fraction(1, 2), Fraction(-1, 2), 0), (Fraction(1), -1, 0), (1.0, -1, 0), (True, -1, 0)],
    ids=["half", "fraction-one", "float", "bool"],
)
def test_eval_rejects_non_integer_points(point):
    with pytest.raises(ValueError, match="integer coordinates"):
        _x(3, 1).evaluate(point)


def test_eval_matches_a_term_by_term_fraction_sum():
    rng = random.Random(12)
    n = 4
    monos = monomials_up_to_degree(n - 1, 4)
    for _ in range(20):
        p = MultiPoly(
            n, {m: Fraction(rng.randint(-9, 9), rng.randint(1, 12)) for m in monos}
        )
        free = [rng.randint(-6, 6) for _ in range(n - 1)]
        point = tuple(free) + (-sum(free),)
        expected = sum(
            (c * math.prod(v**e for v, e in zip(free, exps)) for exps, c in p.terms),
            Fraction(0),
        )
        assert p.evaluate(point) == expected


# -- subtraction and linearity ----------------------------------------------


def test_sub_self_is_zero():
    p = _chamber2_poly()
    assert (p - p).is_zero


def test_sub_reproduces_crossing_polynomial():
    lhs = _chamber2_poly() - raw_terms_poly(5, {(2, 0, 0, 0, 0): 6})
    rhs = raw_terms_poly(5, {(1, 1, 0, 0, 0): 6, (1, 0, 0, 0, 1): 6})
    assert lhs == rhs


def test_sub_linear():
    assert _x(3, 1, 2) - _x(3, 2) == _x(3, 1)


def test_sub_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        _x(3, 1) - _x(4, 1)


def test_eval_is_linear_under_sub():
    rng = random.Random(11)
    n = 4
    monos = monomials_up_to_degree(n - 1, 2)
    for _ in range(20):
        p = MultiPoly(n, {m: rng.randint(-5, 5) for m in monos})
        q = MultiPoly(n, {m: rng.randint(-5, 5) for m in monos})
        free = [rng.randint(-6, 6) for _ in range(n - 1)]
        point = tuple(free) + (-sum(free),)
        assert (p - q).evaluate(point) == p.evaluate(point) - q.evaluate(point)


# -- canonical form ----------------------------------------------------------


def _raw_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            out[key] = out.get(key, 0) + ca * cb
    return out


def test_canonical_equality_is_a_congruence():
    # p and p + (x1+...+xn) * q must canonicalize identically
    rng = random.Random(13)
    n = 4
    full_sum = {tuple(1 if j == i else 0 for j in range(n)): 1 for i in range(n)}
    for _ in range(25):
        p_raw = {
            tuple(rng.randint(0, 2) for _ in range(n)): rng.randint(-4, 4)
            for _ in range(4)
        }
        q_raw = {
            tuple(rng.randint(0, 1) for _ in range(n)): rng.randint(-4, 4)
            for _ in range(3)
        }
        shifted = dict(p_raw)
        for key, coeff in _raw_mul(full_sum, q_raw).items():
            shifted[key] = shifted.get(key, 0) + coeff
        assert raw_terms_poly(n, p_raw) == raw_terms_poly(n, shifted)


def test_chamber2_canonical_term_map():
    assert term_map(_chamber2_poly()) == {
        (1, 0, 1, 0): Fraction(-6),
        (1, 0, 0, 1): Fraction(-6),
    }


# -- homogeneous components --------------------------------------------------


def test_homogeneous_components_split():
    p = raw_terms_poly(3, {(2, 0, 0): 1, (1, 0, 0): 1})
    comps = homogeneous_components(p)
    assert set(comps) == {1, 2}
    assert comps[2] == raw_terms_poly(3, {(2, 0, 0): 1})
    assert comps[1] == _x(3, 1)
    assert p - comps[2] == comps[1]


def test_homogeneous_components_zero():
    assert homogeneous_components(MultiPoly(3)) == {}


def test_chamber2_polynomial_is_homogeneous():
    assert list(homogeneous_components(_chamber2_poly())) == [2]


# -- interpolation -----------------------------------------------------------


def _lattice(base, steps, degree):
    """The nodes of newton_interpolate, in the order it calls them."""
    return [lattice_point(base, steps, a) for a in monomials_up_to_degree(len(steps), degree)]


def test_interpolate_linear_recovery():
    base, steps = (2, 1, -3), [(1, 0, -1), (1, 1, -2)]
    target = _x(3, 1, 2)
    assert newton_interpolate(base, steps, target.evaluate, 1) == target


def test_interpolate_univariate_squares():
    # the node a = (k,) is (k + 1, -k - 1), with value (k + 1)^2
    squares = newton_interpolate((1, -1), [(1, -1)], lambda x: Fraction(x[0] ** 2), 2)
    assert squares == MultiPoly(2, {(2,): 1})


def test_newton_calls_the_value_function_once_per_node_in_lattice_order():
    base, steps = (3, -1, -2), [(2, 1, -3), (1, 2, -3)]
    target = MultiPoly(3, {(2, 0): Fraction(1, 2), (1, 1): -3, (0, 1): 5, (0, 0): 7})
    calls = []

    def value_at(x):
        calls.append(x)
        return target.evaluate(x)

    assert newton_interpolate(base, steps, value_at, 2) == target
    assert calls == _lattice(base, steps, 2)
    assert len(calls) == len(set(calls)) == 6


def test_newton_with_fractional_inverse_matches_gauss_jordan():
    # the steps' free coordinates have determinant 3, so a = V^-1 (x - b)
    # has true fractions
    base, steps = (3, -1, -2), [(2, 1, -3), (1, 2, -3)]
    target = MultiPoly(3, {(2, 0): Fraction(1, 2), (1, 1): -3, (0, 1): 5, (0, 0): 7})
    nodes = _lattice(base, steps, 2)
    assert newton_interpolate(base, steps, target.evaluate, 2) == target
    assert interpolate(nodes, [target.evaluate(p) for p in nodes], 2) == target


def test_newton_rejects_bad_lattices():
    # each check runs before the first call of the value function
    calls = []

    def value_at(x):
        calls.append(x)
        return 1

    with pytest.raises(ValueError, match="dependent"):
        newton_interpolate((2, 1, -3), [(1, 0, -1), (2, 0, -2)], value_at, 1)
    with pytest.raises(DimensionMismatchError):
        newton_interpolate((2, 1, -3), [(1, 0, -1)], value_at, 1)
    with pytest.raises(NonZeroSumError):
        newton_interpolate((2, 1, -2), [(1, 0, -1), (0, 1, -1)], value_at, 1)
    assert calls == []


@pytest.mark.parametrize("bad", [0.1, 1.0, True, "1", None])
def test_coefficients_and_values_must_be_exact(bad):
    # a float would enter as its binary fraction, a string would be parsed
    with pytest.raises(ValueError, match="^coefficient must be an int or a Fraction, got "):
        MultiPoly(2, {(1,): bad})
    with pytest.raises(ValueError, match="^value must be an int or a Fraction, got "):
        newton_interpolate((1, -1), ((1, -1),), lambda x: bad, 1)


def test_interpolate_inconsistent_constant():
    points = [(1, -1), (2, -2), (3, -3)]
    with pytest.raises(InconsistentSystemError):
        interpolate(points, [0, 0, 1], 0)


def test_interpolate_underdetermined_on_a_line():
    # all free projections on the diagonal: x1^2, x1*x2, x2^2 are confounded
    points = [(d, d, -2 * d) for d in (1, 2, 3, 4, 5, 6, 7)]
    values = [d for d, _, _ in points]
    with pytest.raises(UnderdeterminedError):
        interpolate(points, values, 2)


def test_interpolate_duplicate_projection_rejected():
    with pytest.raises(ValueError):
        interpolate([(1, -1), (1, -1)], [1, 1], 1)


def test_interpolate_round_trip_randomized():
    rng = random.Random(17)
    for n, degree in ((2, 3), (3, 2), (4, 1), (4, 2)):
        monos = monomials_up_to_degree(n - 1, degree)
        for _ in range(5):
            poly = MultiPoly(
                n,
                {
                    m: Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                    for m in monos
                },
            )
            while True:
                frees = [
                    tuple(rng.randint(-3, 3) for _ in range(n - 1)) for _ in range(n - 1)
                ]
                if determinant(frees) != 0:
                    break
            steps = [free + (-sum(free),) for free in frees]
            free = tuple(rng.randint(-5, 5) for _ in range(n - 1))
            base = free + (-sum(free),)
            nodes = _lattice(base, steps, degree)
            assert newton_interpolate(base, steps, poly.evaluate, degree) == poly
            assert interpolate(nodes, [poly.evaluate(p) for p in nodes], degree) == poly


# -- division ----------------------------------------------------------------


def test_poly_divmod_exact():
    crossing = raw_terms_poly(5, {(1, 1, 0, 0, 0): 6, (1, 0, 0, 0, 1): 6})
    wall_form = _x(5, 2, 5)
    quotient, remainder = poly_divmod(crossing, wall_form)
    assert remainder.is_zero
    assert quotient == raw_terms_poly(5, {(1, 0, 0, 0, 0): 6})
    assert poly_product(quotient, wall_form) == crossing


def test_poly_divmod_with_remainder():
    p = raw_terms_poly(3, {(2, 0, 0): 1, (0, 0, 0): 1})
    quotient, remainder = poly_divmod(p, _x(3, 1))
    assert poly_product(quotient, _x(3, 1)) == p - remainder
    assert remainder == constant(3, 1)


# -- text forms ----------------------------------------------------------------


def test_str_forms():
    assert str(raw_terms_poly(5, {(2, 0, 0, 0, 0): 6})) == "6*x1^2"
    assert str(MultiPoly(3)) == "0"
    assert str(_x(3, 1) - _x(3, 2)) == "x1 - x2"
    assert str(MultiPoly(2, {(3,): Fraction(1, 12), (1,): Fraction(-1, 12)})) == (
        "1/12*x1^3 - 1/12*x1"
    )


def test_str_graded_lex_order():
    p = MultiPoly(5, {(2, 0, 0, 0): 6, (1, 1, 0, 0): 6, (1, 0, 0, 1): 6})
    assert str(p) == "6*x1^2 + 6*x1*x2 + 6*x1*x4"


def test_json_round_trip():
    p = _chamber2_poly()
    assert poly_from_json(p.to_json_dict()) == p
    assert p.to_json_dict()["terms"] == {"1,0,1,0": "-6", "1,0,0,1": "-6"}
