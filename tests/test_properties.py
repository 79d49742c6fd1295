"""Property-based tests; skipped when ``hypothesis`` is not installed."""

from __future__ import annotations

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from hurwitzlab.exact import (  # noqa: E402
    MultiPoly,
    lattice_point,
    monomials_up_to_degree,
    newton_interpolate,
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
    values = {
        a: poly.evaluate(lattice_point(base, steps, a))
        for a in monomials_up_to_degree(len(steps), degree)
    }
    assert newton_interpolate(base, steps, values, degree) == poly
