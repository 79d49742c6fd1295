"""Tests for the two count evaluators and their shared invariants."""

from __future__ import annotations

import importlib.util
import itertools
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from hurwitzlab.errors import BudgetExceededError, InvalidProfileError
from hurwitzlab.hurwitz import (
    RamificationProfile,
    enumeration_size,
    enumerate_profiles,
    frobenius_connected,
    frobenius_disconnected,
    invariant_violation,
    oracle_count,
    simple_branch_count,
)
from hurwitzlab.symgroup import Partition, partitions_of, z_lambda
from reference import connected_value, oracle_tuples


def _profile(*entries: int) -> RamificationProfile:
    return RamificationProfile(entries)


def _alpha_weight(profile: RamificationProfile) -> int:
    weight = 1
    for k, m in profile.sides()[0].multiplicities().items():
        weight *= k**m
    return weight


# -- profile validation --------------------------------------------------------


def test_profile_rejects_bad_inputs():
    with pytest.raises(InvalidProfileError):
        _profile(1)
    with pytest.raises(InvalidProfileError):
        _profile(1, 0, -1)
    with pytest.raises(InvalidProfileError):
        _profile(1, 1, -1)
    with pytest.raises(InvalidProfileError):
        _profile(1.5, -1.5)
    with pytest.raises(InvalidProfileError):
        _profile(True, -1)


def test_profile_derived_data():
    p = _profile(7, 1, -2, -3, -3)
    assert p.n == 5
    assert p.degree == 8
    assert p.sides() == (Partition((7, 1)), Partition((3, 3, 2)))


# -- simple branch count ---------------------------------------------------------


def test_simple_branch_count_values():
    assert simple_branch_count(0, 5) == 3
    assert simple_branch_count(1, 2) == 2
    assert simple_branch_count(0, 2) == 0


def test_simple_branch_count_negative():
    # n >= 2 with g >= 0 keeps r = 2g - 2 + n nonnegative: n = 1 is refused
    with pytest.raises(InvalidProfileError, match="^n must be at least 2, got 1$"):
        simple_branch_count(0, 1)


def test_negative_genus_rejected():
    with pytest.raises(InvalidProfileError):
        simple_branch_count(-1, 5)
    with pytest.raises(InvalidProfileError):
        frobenius_connected(_profile(7, 1, -2, -3, -3), -1)


@pytest.mark.parametrize("r", [1.5, True], ids=["r-float", "r-bool"])
def test_library_boundary_rejects_ill_typed_arguments(r):
    with pytest.raises(ValueError, match=f"^r must be an integer, got {r!r}$"):
        frobenius_disconnected(Partition((2,)), Partition((1, 1)), r)


# -- oracle ----------------------------------------------------------------------


def test_oracle_degree_one():
    result = oracle_count(_profile(1, -1), 0)
    assert result.value == 1
    assert result.r == 0
    assert result.stats.tuples_examined == 1


def test_oracle_one_transposition():
    assert oracle_count(_profile(1, 1, -2), 0).value == 1


def test_oracle_first_example_value():
    assert oracle_count(_profile(7, 1, -2, -3, -3), 0).value == 294


def test_oracle_budget_exceeded():
    with pytest.raises(BudgetExceededError):
        oracle_count(_profile(9, 4, -5, -5, -3), 0, budget=1000)


def test_oracle_determinism_across_runs():
    profile = _profile(3, 1, -2, -2)
    base = oracle_count(profile, 1)
    again = oracle_count(profile, 1)
    assert base.value == again.value
    assert base.stats.tuples_examined == again.stats.tuples_examined
    assert base.stats.tuples_accepted == again.stats.tuples_accepted


def _leaves(result) -> tuple[int, int]:
    return result.stats.tuples_examined, result.stats.tuples_accepted


def test_oracle_matches_full_enumeration():
    # the enumeration depends on (alpha, beta, g) only, so it runs once per key
    enumerated: dict = {}
    rs = set()
    for n in (2, 3, 4):
        for profile in enumerate_profiles(n, 5):
            for g in (0, 1):
                key = (*profile.sides(), g)
                if key not in enumerated:
                    enumerated[key] = oracle_tuples(profile, g)
                result = oracle_count(profile, g)
                assert _leaves(result) == enumerated[key], f"{profile} g={g}"
                rs.add(result.r)
    assert {0, 1} <= rs


def test_oracle_last_factor_makes_the_group_transitive():
    # sigma0 is the identity on two points: only tau_1 joins its two orbits
    profile = _profile(1, 1, -2)
    assert _leaves(oracle_count(profile, 0)) == oracle_tuples(profile, 0) == (1, 1)


@pytest.mark.parametrize(
    "entries, g, leaves",
    [
        ((7, 1, -2, -3, -3), 0, (14749, 1029)),
        ((9, 4, -5, -5, -3), 0, (302978, 9720)),
        ((5, 1, -2, -2, -2), 1, (475000, 31250)),
        ((6, 1, -2, -2, -3), 1, (2640519, 330480)),
        ((3, 2, -4, -1), 2, (838531, 499968)),
        ((7, 1, -2, -3, -3), 1, (11294304, 924385)),
    ],
    ids=["294", "540", "g1", "g1-six", "g2", "g1-witness"],
)
def test_oracle_recorded_leaf_counts(entries, g, leaves):
    # recorded from a depth-first enumeration of the first r-1 factors
    assert _leaves(oracle_count(_profile(*entries), g)) == leaves


def test_oracle_value_on_the_documented_genus_one_fit_witness():
    assert oracle_count(_profile(7, 1, -2, -3, -3), 1).value == 264110


@pytest.mark.parametrize(
    "entries, g", [((1,) * 12 + (-12,), 0), ((10,) + (-1,) * 10, 2)], ids=["1^12", "10"]
)
def test_oracle_matches_characters_far_past_the_default_budget(entries, g):
    profile = _profile(*entries)
    result = oracle_count(profile, g, budget=10**30)
    assert enumeration_size(profile.degree, result.r) > 10**20
    assert result.value == frobenius_connected(profile, g).value


@pytest.mark.parametrize(
    "entries, g", [((2, 1, -3), 300), ((3, -2, -1), 1000), ((2, 2, -1, -3), 200)]
)
def test_oracle_matches_characters_at_high_genus(entries, g):
    # hundreds of factors: the class walk has no depth limit
    profile = _profile(*entries)
    by_oracle = oracle_count(profile, g, budget=None).value
    assert by_oracle == frobenius_connected(profile, g).value


def test_oracle_enumeration_on_first_example():
    assert oracle_tuples(_profile(7, 1, -2, -3, -3), 0) == (14749, 1029)


# -- disconnected character counts ------------------------------------------------


def _disconnected_count(alpha: Partition, beta: Partition, r: int) -> Fraction:
    """The tuple count d! S / (z_alpha z_beta) from the character sum S."""
    total = frobenius_disconnected(alpha, beta, r)
    return Fraction(math.factorial(alpha.size) * total, z_lambda(alpha) * z_lambda(beta))


def test_disconnected_forced_inverse():
    assert _disconnected_count(Partition((2,)), Partition((2,)), 0) == 1


def test_disconnected_small_enumeration():
    assert _disconnected_count(Partition((1, 1)), Partition((2,)), 1) == 1


@pytest.mark.parametrize("d", (2, 3, 4, 5))
def test_disconnected_full_cycles(d):
    expected = math.factorial(d - 1)
    assert _disconnected_count(Partition((d,)), Partition((d,)), 0) == expected


def test_disconnected_size_mismatch():
    with pytest.raises(ValueError):
        frobenius_disconnected(Partition((2,)), Partition((3,)), 0)


def test_disconnected_degree_one_degenerate():
    assert _disconnected_count(Partition((1,)), Partition((1,)), 0) == 1
    assert _disconnected_count(Partition((1,)), Partition((1,)), 2) == 0


# -- connected counts --------------------------------------------------------------


def test_connected_degree_one():
    assert frobenius_connected(_profile(1, -1), 0).value == 1


def test_connected_automorphism_weight():
    assert frobenius_connected(_profile(2, -2), 0).value == Fraction(1, 2)


def test_connected_second_example_value():
    assert frobenius_connected(_profile(9, 4, -5, -5, -3), 0).value == 540


def _partitions_with_at_most(d: int, parts: int, cap: int | None = None):
    """Partitions of d into at most `parts` parts, each at most `cap`."""
    if d == 0:
        yield ()
        return
    if parts == 0:
        return
    for first in range(min(d, cap or d), 0, -1):
        for rest in _partitions_with_at_most(d - first, parts - 1, first):
            yield (first,) + rest


def test_connected_genus_zero_matches_hurwitz_formula():
    """Hurwitz's genus-0 formula for covers simply ramified over infinity, as
    proved in Goulden and Jackson, "Transitive factorizations into
    transpositions and holomorphic mappings on the sphere" (1997).  In this
    package's labelled normalization it reads
    H_0(alpha, -1^d) = (d+l-2)! d^(l-3) d! prod alpha_i^alpha_i / alpha_i!,
    with l the number of parts of alpha."""
    cases = 0
    for d in range(1, 15):
        for alpha in _partitions_with_at_most(d, 6):
            if len(alpha) + d < 3:
                continue  # the formula is stated for n >= 3
            ell = len(alpha)
            expected = (
                math.factorial(d + ell - 2) * Fraction(d) ** (ell - 3) * math.factorial(d)
            )
            for a in alpha:
                expected *= Fraction(a**a, math.factorial(a))
            profile = RamificationProfile(alpha + (-1,) * d)
            assert frobenius_connected(profile, 0).value == expected, alpha
            cases += 1
    assert cases == 386


def _load_bench_checks():
    """perfbench/checks.py, which computes its answers without this package."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "checks.py"
    spec = importlib.util.spec_from_file_location("bench_checks", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_connected_one_part_matches_the_closed_form():
    """The Goulden-Jackson-Vakil closed form for one-part double Hurwitz
    numbers, as ``perfbench/checks.py`` evaluates it: every stable profile
    (2g - 2 + n > 0) with a single part on one side, d <= 12 and 1-4 parts on
    the other, g = 0..3, in both orientations, plus two of higher degree."""
    one_part_value = _load_bench_checks().one_part_value
    cases = []
    for d in range(1, 13):
        for betas in _partitions_with_at_most(d, 4):
            x = (d,) + tuple(-b for b in betas)
            for g in range(4):
                if 2 * g - 1 + len(betas) > 0:
                    cases += [(x, g), (tuple(-v for v in x), g)]
    assert len(cases) == 1208
    for d in (30, 40):
        x = (d, -(d // 2), -(d // 3), -(d - d // 2 - d // 3))
        cases += [(x, g) for g in range(4)]
    for x, g in cases:
        assert frobenius_connected(RamificationProfile(x), g).value == one_part_value(x, g), (x, g)


def test_degenerate_degree_one_positive_r():
    # d = 1 with extra branch points supports no cover
    assert oracle_count(_profile(1, -1), 1).value == 0
    assert frobenius_connected(_profile(1, -1), 1).value == 0


def _part_multisets(n: int, max_degree: int):
    """One profile per pair of part multisets (alpha, beta) with n parts in all."""
    for d in range(1, max_degree + 1):
        for alpha in partitions_of(d):
            for beta in partitions_of(d):
                if len(alpha.parts) + len(beta.parts) == n:
                    yield RamificationProfile(alpha.parts + tuple(-b for b in beta.parts))


@pytest.mark.parametrize(
    "n, max_degree, genera", [(5, 5, (0, 1)), (6, 6, (0,))], ids=["n5", "n6"]
)
def test_methods_agree_on_five_and_six_points(n, max_degree, genera):
    # reaches splits into three balanced blocks, e.g. (1,1,1,-1,-1,-1)
    cases = 0
    for profile in _part_multisets(n, max_degree):
        for g in genera:
            assert (
                oracle_count(profile, g).value == frobenius_connected(profile, g).value
            ), f"mismatch at {profile} g={g}"
            cases += 1
    assert cases > 0


@pytest.mark.parametrize(
    "n, max_degree, genera",
    [
        (3, 10, (0, 1, 2, 3)),
        (4, 9, (0, 1, 2)),
        (5, 8, (0, 1, 2)),
        (6, 7, (0, 1)),
        (7, 7, (0, 1)),
    ],
    ids=["n3", "n4", "n5", "n6", "n7"],
)
def test_connected_counts_match_the_fraction_recursion(n, max_degree, genera):
    # the integer recursion scaled by the product of all parts against the
    # Fraction recursion over reference characters
    cases = 0
    for profile in _part_multisets(n, max_degree):
        alpha, beta = profile.sides()
        for g in genera:
            r = simple_branch_count(g, n)
            expected = connected_value(alpha.parts, beta.parts, r)
            assert frobenius_connected(profile, g).value == expected, (
                f"mismatch at {profile} g={g}"
            )
            cases += 1
    assert cases > 0


def test_methods_agree_on_small_sample():
    rng = random.Random(31)
    profiles = enumerate_profiles(3, 3)
    for profile in rng.sample(profiles, 12):
        for g in (0, 1):
            assert (
                oracle_count(profile, g).value
                == frobenius_connected(profile, g).value
            ), f"mismatch at {profile} g={g}"


# -- invariants --------------------------------------------------------------------


def test_symmetry_under_relabeling():
    rng = random.Random(37)
    bases = [(1, 2, -3), (2, -1, -1), (4, -1, -1, -2), (2, 2, -1, -3)]
    for base in bases:
        perms = sorted(set(itertools.permutations(base)))
        picked = perms if len(perms) <= 6 else rng.sample(perms, 6)
        for g in (0, 1):
            values = {oracle_count(RamificationProfile(p), g).value for p in picked}
            assert len(values) == 1, f"relabeling changed the count for {base}, g={g}"


def test_integrality_and_nonnegativity():
    for profile in enumerate_profiles(3, 3):
        for g in (0, 1):
            value = frobenius_connected(profile, g).value
            assert value >= 0
            assert (value * _alpha_weight(profile)).denominator == 1


def test_invariant_violation_rejects_a_non_integral_value():
    profile = _profile(3, -1, -2)
    # the labeled count times the product 3 of the positive parts is an integer
    assert "integrality" in invariant_violation(profile, 1, Fraction(1, 2))
    assert invariant_violation(profile, 1, Fraction(1, 3)) is None
    assert invariant_violation(profile, 1, Fraction(7)) is None
    assert "negative" in invariant_violation(profile, 1, Fraction(-1, 3))


def test_result_metadata():
    result = frobenius_connected(_profile(1, 1, -2), 0)
    assert result.method == "frobenius"
    assert result.genus == 0
    assert result.r == 1
    assert result.to_json_dict()["value"] == "1"
