"""Property-based tests; skipped when ``hypothesis`` is not installed."""

from __future__ import annotations

import math

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from hurwitzlab.exact import (  # noqa: E402
    MultiPoly,
    monomials_up_to_degree,
    newton_interpolate,
)
from hurwitzlab.hurwitz import (  # noqa: E402
    RamificationProfile,
    frobenius_connected,
    oracle_count,
)
from reference import determinant  # noqa: E402

small = st.integers(min_value=-4, max_value=4)


@st.composite
def lattice_problems(draw):
    """A random polynomial of degree <= D on a random lattice, n = 2..5, D <= 6."""
    n = draw(st.integers(min_value=2, max_value=5))
    m = n - 1
    degree = draw(st.integers(min_value=0, max_value=6))
    frees = draw(
        st.lists(st.tuples(*[small] * m), min_size=m, max_size=m).filter(
            lambda rows: determinant(rows) != 0
        )
    )
    steps = [free + (-sum(free),) for free in frees]
    base_free = draw(st.tuples(*[small] * m))
    base = base_free + (-sum(base_free),)
    monos = monomials_up_to_degree(m, degree)
    chosen = draw(st.lists(st.sampled_from(monos), min_size=1, max_size=8, unique=True))
    coeffs = st.fractions(min_value=-20, max_value=20, max_denominator=12)
    poly = MultiPoly(n, {exps: draw(coeffs) for exps in chosen})
    return base, steps, degree, poly


@settings(max_examples=40, deadline=None)
@given(lattice_problems())
def test_newton_round_trip_on_random_lattices(problem):
    base, steps, degree, poly = problem
    assert newton_interpolate(base, steps, poly.evaluate, degree) == poly


# The oracle enumerates up to C(d,2)^r leaves; larger draws are discarded.
LEAF_BUDGET = 2 * 10**5


def _composition(draw, total: int, parts: int) -> list[int]:
    cuts = sorted(draw(st.permutations(range(1, total)))[: parts - 1])
    bounds = [0] + cuts + [total]
    return [b - a for a, b in zip(bounds, bounds[1:])]


@st.composite
def oracle_cases(draw):
    """A labeled profile with n <= 5 parts and degree d <= 6, and a genus
    whose enumeration fits the leaf budget."""
    n = draw(st.integers(min_value=2, max_value=5))
    k = draw(st.integers(min_value=1, max_value=n - 1))
    d = draw(st.integers(min_value=max(k, n - k), max_value=6))
    entries = _composition(draw, d, k) + [-v for v in _composition(draw, d, n - k)]
    profile = RamificationProfile(tuple(draw(st.permutations(entries))))
    g = draw(st.integers(min_value=0, max_value=2))
    r = 2 * g - 2 + n
    assume(r >= 0 and math.comb(d, 2) ** r <= LEAF_BUDGET)
    return profile, g


@settings(max_examples=40, deadline=None)
@given(oracle_cases())
def test_oracle_agrees_with_character_route(case):
    profile, g = case
    assert oracle_count(profile, g).value == frobenius_connected(profile, g).value


@settings(max_examples=40, deadline=None)
@given(oracle_cases(), st.randoms(use_true_random=False))
def test_oracle_invariant_under_relabeling(case, rng):
    profile, g = case
    entries = list(profile.x)
    rng.shuffle(entries)
    base = oracle_count(profile, g)
    relabeled = oracle_count(RamificationProfile(tuple(entries)), g)
    assert relabeled.value == base.value
    assert relabeled.stats.tuples_examined == base.stats.tuples_examined
    assert relabeled.stats.tuples_accepted == base.stats.tuples_accepted
