"""Acceptance suite: one test per exit criterion, exact tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
pass lines and timings.
"""

from __future__ import annotations

import time
from fractions import Fraction

import pytest

from hurwitzlab.chambers import ChamberWitness, Wall
from hurwitzlab.cli import run_selftest
from hurwitzlab.exact import lattice_point, monomials_up_to_degree, poly_divmod
from hurwitzlab.hurwitz import (
    RamificationProfile,
    enumerate_profiles,
    frobenius_connected,
    oracle_count,
)
from hurwitzlab.identities import verify_identities
from hurwitzlab.piecewise import fit_chamber, product_formula_report, wall_crossing
from hurwitzlab.chambers import adjacent_chamber, chamber_nodes
from reference import (
    homogeneous_components,
    poly_product,
    raw_terms_poly,
    term_map,
    total_degree,
)

P_POINT = (7, 1, -2, -3, -3)
Q_POINT = (9, 4, -5, -5, -3)
WALL_25 = Wall((2, 5), 5)


def _report(criterion: int, name: str, started: float) -> None:
    print(f"ACCEPTANCE {criterion} {name}: PASS ({time.perf_counter() - started:.1f}s)")


@pytest.fixture(scope="module")
def example_pair():
    """Chamber fits at the two documented witnesses plus their crossing."""
    p = RamificationProfile(P_POINT)
    q = RamificationProfile(Q_POINT)
    # re-derive the chamber facts before trusting the targets
    assert [w.indices for w in ChamberWitness(p).differing_walls(ChamberWitness(q))] == [(2, 5)]
    started = time.perf_counter()
    fit_p = fit_chamber(ChamberWitness.at(p), 0)
    fit_q = fit_chamber(ChamberWitness.at(q), 0)
    crossing = wall_crossing(fit_p, fit_q, WALL_25)
    return fit_p, fit_q, crossing, time.perf_counter() - started


@pytest.fixture(scope="module")
def genus0_matrix(example_pair):
    """Fits for three chambers each at n = 4 and n = 5."""
    fit_p, fit_q, _, _ = example_pair
    witnesses4 = [(3, 1, -2, -2), (2, 2, -1, -3), (1, -2, 3, -2)]
    witnesses5 = [(1, 1, 1, 1, -4)]
    fits = [fit_p, fit_q]
    for entries in witnesses4 + witnesses5:
        fits.append(fit_chamber(ChamberWitness.at(RamificationProfile(entries)), 0))
    signatures = {(f.witness.point.n, f.witness.signature) for f in fits}
    assert len(signatures) == len(fits), "matrix chambers must be pairwise distinct"
    return fits


def test_criterion_1_example_values():
    started = time.perf_counter()
    for entries, expected in ((P_POINT, 294), (Q_POINT, 540)):
        profile = RamificationProfile(entries)
        assert oracle_count(profile, 0).value == expected
        assert frobenius_connected(profile, 0).value == expected
    elapsed = time.perf_counter() - started
    assert elapsed < 60
    _report(1, "example values by both evaluators", started)


def test_criterion_2_example_polynomials(example_pair):
    started = time.perf_counter()
    fit_p, fit_q, crossing, fit_elapsed = example_pair
    # 6*x1^2, 6*x1*(x1 + x2 + x5) and 6*x1*(x2 + x5), over all five variables
    x1_x1, x1_x2, x1_x5 = (2, 0, 0, 0, 0), (1, 1, 0, 0, 0), (1, 0, 0, 0, 1)
    assert fit_p.polynomial == raw_terms_poly(5, {x1_x1: 6})
    assert fit_q.polynomial == raw_terms_poly(5, {x1_x1: 6, x1_x2: 6, x1_x5: 6})
    assert crossing.polynomial == raw_terms_poly(5, {x1_x2: 6, x1_x5: 6})
    # frozen canonical term maps, derived once by hand
    assert term_map(fit_p.polynomial) == {(2, 0, 0, 0): Fraction(6)}
    assert term_map(fit_q.polynomial) == {
        (1, 0, 1, 0): Fraction(-6),
        (1, 0, 0, 1): Fraction(-6),
    }
    assert term_map(crossing.polynomial) == {
        (2, 0, 0, 0): Fraction(-6),
        (1, 0, 1, 0): Fraction(-6),
        (1, 0, 0, 1): Fraction(-6),
    }
    assert fit_elapsed < 600
    _report(2, "example chamber and crossing polynomials", started)


def test_criterion_3_degree_bounds(genus0_matrix):
    started = time.perf_counter()
    for fit in genus0_matrix:
        n = fit.witness.point.n
        assert fit.degree_bound == n - 3
        assert total_degree(fit.polynomial) <= n - 3
    cubic = fit_chamber(ChamberWitness.at(RamificationProfile((1, -1))), 1)
    assert cubic.degree_bound == 3
    assert total_degree(cubic.polynomial) == 3
    for d in (7, 8):
        point = RamificationProfile((d, -d))
        assert cubic.polynomial.evaluate(point.x) == oracle_count(point, 1).value
    _report(3, "degree bounds across the fit matrix", started)


def test_criterion_4_oracle_character_equivalence():
    started = time.perf_counter()
    cases = 0
    for n in (2, 3, 4):
        for profile in enumerate_profiles(n, 4):
            for g in (0, 1):
                assert (
                    oracle_count(profile, g).value
                    == frobenius_connected(profile, g).value
                ), f"evaluators disagree at {profile}, g={g}"
                cases += 1
    assert cases >= 300
    elapsed = time.perf_counter() - started
    assert elapsed < 300
    _report(4, f"evaluator equivalence on {cases} grid cases", started)


def test_criterion_5_identities():
    started = time.perf_counter()
    report = verify_identities(30)
    assert report.ok and report.failures == ()
    elapsed = time.perf_counter() - started
    assert elapsed < 10
    _report(5, "alternating sum and beta integral identities", started)


def test_criterion_6_product_formula(example_pair):
    started = time.perf_counter()
    _, fit_q, crossing, _ = example_pair
    q = RamificationProfile(Q_POINT)
    target = crossing.polynomial.evaluate(q.x)
    assert target == 54
    report = product_formula_report(WALL_25, q)
    matching = [name for name, value in report.items() if value == target]
    assert matching == ["C(r,r1)"]

    design = chamber_nodes(ChamberWitness.at(q), 2, 0)
    nodes = [
        RamificationProfile(lattice_point(design.base.x, design.steps, a))
        for a in monomials_up_to_degree(q.n - 1, 2)
    ]
    extra = [p for p in nodes if p.x != q.x][:5]
    assert len(extra) == 5
    for point in extra:
        derived = crossing.polynomial.evaluate(point.x)
        assert product_formula_report(WALL_25, point)["C(r,r1)"] == derived
    _report(6, "product formula convention pinned and re-verified", started)


def test_criterion_7_genus0_structure(genus0_matrix, example_pair):
    started = time.perf_counter()
    for fit in genus0_matrix:
        n = fit.witness.point.n
        components = homogeneous_components(fit.polynomial)
        assert list(components) == [n - 3], f"fit at {fit.witness.point} inhomogeneous"

    crossings = [example_pair[2]]
    witness4 = ChamberWitness.at(RamificationProfile((3, 1, -2, -2)))
    wall4 = Wall((2, 4), 4)
    other4 = adjacent_chamber(witness4, wall4)
    crossings.append(
        wall_crossing(fit_chamber(witness4, 0), fit_chamber(other4, 0), wall4)
    )
    for crossing in crossings:
        quotient, remainder = poly_divmod(crossing.polynomial, crossing.wall.form())
        assert remainder.is_zero
        assert poly_product(quotient, crossing.wall.form()) == crossing.polynomial
    _report(7, "homogeneity and wall-form divisibility", started)


def test_criterion_8_invariant_suites():
    started = time.perf_counter()
    ok, results = run_selftest()
    assert ok, [r.detail for r in results if not r.ok]
    names = {r.name for r in results}
    assert {
        "crossing sign identities",
        "oracle vs character sum",
        "documented example values",
        "relabeling symmetry",
        "character column orthogonality",
        "interpolation round trip",
    } <= names
    _report(8, "self-test invariant suites", started)
