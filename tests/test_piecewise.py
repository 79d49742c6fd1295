"""Tests for chamber fits, wall crossings, and the genus-0 product rule."""

from __future__ import annotations

import dataclasses
import itertools
import random
import re
from fractions import Fraction
from types import SimpleNamespace

import pytest

from hurwitzlab import piecewise

from hurwitzlab.chambers import ChamberWitness, Wall, adjacent_chamber, chamber_nodes
from hurwitzlab.errors import (
    DimensionMismatchError,
    NotAdjacentError,
    NotPolynomialError,
    OnWallError,
    UnstableCaseError,
)
from hurwitzlab.exact import MultiPoly, poly_divmod
from hurwitzlab.hurwitz import (
    RamificationProfile,
    enumeration_size,
    frobenius_connected,
    oracle_count,
)
from hurwitzlab.piecewise import (
    CONVENTIONS,
    crossing_blocks,
    fit_chamber,
    product_formula_report,
    wall_crossing,
)
from reference import (
    constant,
    interpolate,
    poly_from_json,
    poly_product,
    random_witness,
    total_degree,
)


def _witness(*entries: int) -> ChamberWitness:
    return ChamberWitness.at(RamificationProfile(entries))


# -- fitting ---------------------------------------------------------------------


def test_three_point_chamber_is_constant_one():
    fit = fit_chamber(_witness(2, 1, -3), 0)
    assert fit.polynomial == constant(3, 1)
    assert fit.degree_bound == 0


def test_two_part_genus_zero_refused():
    with pytest.raises(UnstableCaseError):
        fit_chamber(_witness(1, -1), 0)


def test_genus_one_two_part_fit_degree_three():
    fit = fit_chamber(_witness(1, -1), 1)
    assert fit.degree_bound == 3
    assert total_degree(fit.polynomial) == 3

    # independent route: evaluate at d = 2..6, interpolate directly,
    # then validate at d = 7, 8 against the enumeration oracle
    points = [(d, -d) for d in range(2, 7)]
    values = [frobenius_connected(RamificationProfile(p), 1).value for p in points]
    direct = interpolate(points, values, 3)
    assert direct == fit.polynomial
    for d in (7, 8):
        assert fit.polynomial.evaluate((d, -d)) == oracle_count(
            RamificationProfile((d, -d)), 1
        ).value


def test_fit_at_a_scaled_witness_matches_the_unscaled_one():
    # the slide moves 100000x the documented witness to the same base in a
    # few checks per direction, well inside the default node budget
    witness = _witness(7, 1, -2, -3, -3)
    scaled = _witness(*(100_000 * v for v in witness.point.x))
    assert scaled.signature == witness.signature
    assert chamber_nodes(scaled, 2, 5).base == chamber_nodes(witness, 2, 5).base
    here, there = fit_chamber(witness, 0), fit_chamber(scaled, 0)
    assert there.polynomial == here.polynomial == MultiPoly(5, {(2, 0, 0, 0): 6})
    assert there.validation == here.validation


def test_fit_validates_on_held_out_points():
    fit = fit_chamber(_witness(3, 1, -2, -2), 0)
    assert len(fit.validation) == 5
    for point, value in fit.validation:
        assert fit.polynomial.evaluate(point.x) == value


@pytest.mark.parametrize(
    "entries, g, calls",
    [((7, 1, -2, -3, -3), 0, 20), ((3, 1, -2, -2), 1, 61), ((3, -1, -2), 2, 50)],
)
def test_fit_evaluates_each_point_once(monkeypatch, entries, g, calls):
    # C(D + n - 1, n - 1) nodes and five held-out points, each passed
    # positionally, as perfbench's trace hook reads the profile from args[0]
    seen = []

    def counting(*args):
        seen.append(args[0].x)
        return frobenius_connected(*args)

    monkeypatch.setattr(piecewise, "frobenius_connected", counting)
    fit_chamber(_witness(*entries), g)
    assert len(seen) == len(set(seen)) == calls


def _fake_counts(monkeypatch, count, oracle_agrees: bool) -> None:
    """Replace the fit's character route by `count`, and the oracle of its
    spot checks too when `oracle_agrees`, so that the fake passes them."""

    def fake(p: RamificationProfile, g: int, **_) -> SimpleNamespace:
        return SimpleNamespace(value=count(p, g))

    monkeypatch.setattr(piecewise, "frobenius_connected", fake)
    if oracle_agrees:
        monkeypatch.setattr(piecewise, "oracle_count", fake)


def test_fit_rejects_non_polynomial_values(monkeypatch):
    # a count returning the degree is not constant on the n=3 chamber
    _fake_counts(monkeypatch, lambda p, g: Fraction(p.degree), oracle_agrees=True)
    with pytest.raises(NotPolynomialError):
        fit_chamber(_witness(2, 1, -3), 0)


def test_fit_spot_check_catches_a_lying_evaluator(monkeypatch):
    _fake_counts(monkeypatch, lambda p, g: Fraction(7), oracle_agrees=False)
    with pytest.raises(AssertionError):
        fit_chamber(_witness(2, 1, -3), 0)


def test_fit_spot_checks_the_base_point_first(monkeypatch):
    witness = _witness(7, 1, -2, -3, -3)
    base = chamber_nodes(witness, 2, 5).base

    def lies_at_base(p: RamificationProfile, g: int) -> Fraction:
        value = frobenius_connected(p, g).value
        return value + 1 if p == base else value

    _fake_counts(monkeypatch, lies_at_base, oracle_agrees=False)
    with pytest.raises(AssertionError, match=re.escape(f"disagrees with the oracle at {base}")):
        fit_chamber(witness, 0)


@pytest.mark.parametrize(
    "g, count",
    [
        # below the window: g=0, n=4 allows degree 1 only
        (0, lambda p, g: Fraction(5)),
        # wrong parity: g=1, n=4 allows degrees 3 and 5
        (1, lambda p, g: Fraction(p.x[0]) ** 4),
    ],
    ids=["constant", "even-degree"],
)
def test_fit_rejects_terms_outside_the_degree_window(monkeypatch, g, count):
    # both counts are polynomial, so held-out validation passes
    _fake_counts(monkeypatch, count, oracle_agrees=True)
    with pytest.raises(NotPolynomialError, match="window"):
        fit_chamber(_witness(3, 1, -2, -2), g)


# Recorded once from the Gauss-Jordan fit on sampled nodes that this
# package used before the lattice design.
PINNED_GENUS_TWO = {
    (4, -1, -3): {
        "8,0": "1/16", "7,1": "1/4", "6,2": "7/12", "5,3": "2/3", "4,4": "1/3",
        "6,0": "-5/24", "5,1": "-5/12", "4,2": "-5/12", "4,0": "7/48",
    },
    (3, 2, -4, -1): {
        "8,0,1": "-3/8", "7,1,1": "-3", "7,0,2": "-3/2", "6,2,1": "-21/2",
        "6,1,2": "-21/2", "6,0,3": "-7/2", "5,3,1": "-21", "5,2,2": "-63/2",
        "5,1,3": "-37/2", "5,0,4": "-4", "4,4,1": "-105/4", "4,3,2": "-105/2",
        "4,2,3": "-85/2", "4,1,4": "-15", "4,0,5": "-2", "3,5,1": "-21",
        "3,4,2": "-105/2", "3,3,3": "-55", "3,2,4": "-25", "3,1,5": "-4",
        "2,6,1": "-21/2", "2,5,2": "-63/2", "2,4,3": "-85/2", "2,3,4": "-25",
        "2,2,5": "-6", "1,7,1": "-3", "1,6,2": "-21/2", "1,5,3": "-37/2",
        "1,4,4": "-15", "1,3,5": "-4", "0,8,1": "-3/8", "0,7,2": "-3/2",
        "0,6,3": "-7/2", "0,5,4": "-4", "0,4,5": "-2", "6,0,1": "5/4",
        "5,1,1": "15/2", "5,0,2": "5/2", "4,2,1": "75/4", "4,1,2": "25/2",
        "4,0,3": "5/2", "3,3,1": "25", "3,2,2": "25", "3,1,3": "15/2",
        "2,4,1": "75/4", "2,3,2": "25", "2,2,3": "10", "1,5,1": "15/2",
        "1,4,2": "25/2", "1,3,3": "15/2", "0,6,1": "5/4", "0,5,2": "5/2",
        "0,4,3": "5/2", "4,0,1": "-7/8", "3,1,1": "-7/2", "2,2,1": "-21/4",
        "1,3,1": "-7/2", "0,4,1": "-7/8",
    },
}


@pytest.mark.parametrize("entries", list(PINNED_GENUS_TWO), ids=str)
def test_genus_two_fits_match_recorded_polynomials(entries):
    fit = fit_chamber(_witness(*entries), 2)
    recorded = poly_from_json({"n": len(entries), "terms": PINNED_GENUS_TWO[entries]})
    assert fit.polynomial == recorded


# g=1 on the chamber of (16,8,4,2,1,-31): degree 7 on 792 nodes, recorded
# once from the Horner expansion in Fraction arithmetic that preceded the
# integer one.  The polynomial is symmetric in x1..x5, so it is recorded as
# the coefficient of each monomial symmetric function, keyed by its
# exponents in descending order.
PINNED_SIX_PART = {
    (7,): 30, (6, 1): 150, (5, 2): 330, (5, 1, 1): 600, (4, 3): 450,
    (4, 2, 1): 1050, (4, 1, 1, 1): 1800, (3, 3, 1): 1200, (3, 2, 2): 1500,
    (3, 2, 1, 1): 2400, (3, 1, 1, 1, 1): 3600, (2, 2, 2, 1): 2700,
    (2, 2, 1, 1, 1): 3600, (5,): -30, (4, 1): -150, (3, 2): -300,
    (3, 1, 1): -600, (2, 2, 1): -900, (2, 1, 1, 1): -1800,
    (1, 1, 1, 1, 1): -3600,
}


def test_six_part_fit_matches_recorded_polynomial():
    terms = {
        exps: coeff
        for shape, coeff in PINNED_SIX_PART.items()
        for exps in itertools.permutations(shape + (0,) * (5 - len(shape)))
    }
    assert len(terms) == 456
    fit = fit_chamber(_witness(16, 8, 4, 2, 1, -31), 1)
    assert fit.polynomial == MultiPoly(6, terms)


# -- oracle spot checks -------------------------------------------------------------


def _count_oracle_calls(monkeypatch) -> list[tuple[RamificationProfile, int | None]]:
    ran = []

    def counting_oracle(profile, g, budget):
        ran.append((profile, budget))
        return oracle_count(profile, g, budget)

    monkeypatch.setattr(piecewise, "oracle_count", counting_oracle)
    return ran


def test_fit_runs_spot_checks_past_the_tuple_space_budget(monkeypatch):
    ran = _count_oracle_calls(monkeypatch)
    # r = 5 at the two cheapest nodes, of degrees 16 and 17: C(16,2)^5 and
    # C(17,2)^5 tuples, both past the oracle's default budget of 10^9
    fit = fit_chamber(_witness(-8, -1, -9, 2, 3, -9, 22), 0)
    assert [(p.degree, budget) for p, budget in ran] == [(16, None), (17, None)]
    assert min(enumeration_size(p.degree, 5) for p, _ in ran) > 10**10
    assert len(fit.polynomial.terms) == 81


def test_six_and_seven_part_genus_zero_fits_within_the_default_budget():
    # with (-8,-1,-9,2,3,-9,22), fitted in the test above
    rng = random.Random(3)
    for n in (6, 6, 6, 7, 7, 7):
        fit = fit_chamber(random_witness(rng, n, 9), 0)
        assert total_degree(fit.polynomial) == n - 3


# the witnesses of the benchmark's fit workload
BENCHMARK_FITS = [
    ((7, 1, -2, -3, -3), 0),
    ((3, 1, -2, -2), 1),
    ((-1, -1, -1, 3), 1),
    ((3, -1, -2), 2),
    ((2, -1, -1), 2),
]


@pytest.mark.parametrize("entries, g", BENCHMARK_FITS, ids=str)
def test_default_oracle_budget_runs_both_spot_checks(monkeypatch, entries, g):
    ran = _count_oracle_calls(monkeypatch)
    fit_chamber(_witness(*entries), g)
    assert len(ran) == 2


# -- wall crossings -----------------------------------------------------------------


@pytest.fixture(scope="module")
def n4_crossing():
    witness = _witness(3, 1, -2, -2)
    wall = Wall((2, 4), 4)
    other = adjacent_chamber(witness, wall)
    near = fit_chamber(witness, 0)
    far = fit_chamber(other, 0)
    return wall, near, far


def test_wall_crossing_requires_adjacency(n4_crossing):
    wall, near, _ = n4_crossing
    with pytest.raises(NotAdjacentError):
        wall_crossing(near, near, wall)
    five = dataclasses.replace(near, witness=_witness(7, 1, -2, -3, -3))
    with pytest.raises(NotAdjacentError, match="^chamber fits live in different dimensions$"):
        wall_crossing(near, five, wall)


def test_wall_crossing_antisymmetry(n4_crossing):
    wall, near, far = n4_crossing
    forward = wall_crossing(near, far, wall)
    backward = wall_crossing(far, near, wall)
    assert forward.polynomial == MultiPoly(4) - backward.polynomial


def test_wall_crossing_divisible_by_wall_form(n4_crossing):
    wall, near, far = n4_crossing
    crossing = wall_crossing(near, far, wall)
    quotient, remainder = poly_divmod(crossing.polynomial, wall.form())
    assert remainder.is_zero
    assert poly_product(quotient, wall.form()) == crossing.polynomial


def test_wall_crossing_vanishes_on_the_wall(n4_crossing):
    wall, near, far = n4_crossing
    crossing = wall_crossing(near, far, wall)
    for point in ((3, 2, -3, -2), (5, 1, -5, -1), (4, 3, -4, -3)):
        assert sum(point) == 0 and wall.subset_sum(point) == 0
        assert crossing.polynomial.evaluate(point) == 0


# -- product formula ------------------------------------------------------------------


def test_crossing_blocks_at_example_point():
    wall = Wall((2, 5), 5)
    q = RamificationProfile((9, 4, -5, -5, -3))
    block_i, block_c, delta = crossing_blocks(wall, q)
    assert delta == 1
    assert block_i.x == (4, -3, -1)
    assert block_c.x == (9, -5, -5, 1)


@pytest.mark.parametrize("indices, n", [((2,), 6), ((2,), 4), ((2, 5), 6)])
def test_crossing_blocks_rejects_a_wall_of_another_dimension(indices, n):
    x = RamificationProfile((7, 1, -2, -3, -3))
    message = f"^wall {re.escape(str(Wall(indices, n)))} is for n={n}, point .* has n=5$"
    with pytest.raises(DimensionMismatchError, match=message):
        crossing_blocks(Wall(indices, n), x)
    with pytest.raises(DimensionMismatchError, match=message):
        product_formula_report(Wall(indices, n), x)


def test_crossing_blocks_rejects_a_point_on_the_wall():
    wall = Wall((2, 5), 5)
    x = RamificationProfile((4, 2, -1, -3, -2))  # x2 + x5 = 0
    for split in (crossing_blocks, product_formula_report):
        with pytest.raises(OnWallError) as err:
            split(wall, x)
        assert err.value.wall == wall


def test_three_point_block_counts_are_one():
    for entries in ((4, -3, -1), (5, -3, -2), (7, -4, -3)):
        assert oracle_count(RamificationProfile(entries), 0).value == 1


def test_product_formula_requires_positive_side():
    wall = Wall((2, 5), 5)
    p = RamificationProfile((7, 1, -2, -3, -3))  # x2 + x5 = -2
    with pytest.raises(ValueError):
        product_formula_report(wall, p)


def test_product_formula_counts_each_block_once(monkeypatch):
    counted = []

    def counting(p: RamificationProfile, g: int):
        counted.append(p.x)
        return frobenius_connected(p, g)

    monkeypatch.setattr(piecewise, "frobenius_connected", counting)
    product_formula_report(Wall((2, 5), 5), RamificationProfile((9, 4, -5, -5, -3)))
    assert counted == [(4, -3, -1), (9, -5, -5, 1)]


def test_convention_catalogue():
    assert list(CONVENTIONS) == [
        "C(r-1,r1)",
        "C(r,r1)",
        "C(r-1,r2)",
        "-C(r-1,r1)",
        "-C(r,r1)",
        "-C(r-1,r2)",
    ]
    wall = Wall((2, 5), 5)
    q = RamificationProfile((9, 4, -5, -5, -3))
    report = product_formula_report(wall, q)
    assert list(report) == list(CONVENTIONS)
    assert report["-C(r,r1)"] == -report["C(r,r1)"]
