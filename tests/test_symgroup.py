"""Tests for partitions, permutations, and character values."""

from __future__ import annotations

import math
import random
import re

import pytest

from hurwitzlab.symgroup import (
    Partition,
    character_column,
    content_of_mask,
    partitions_of,
    z_lambda,
)
from reference import (
    Permutation,
    character_column_by_beta_sets,
    cycle_type,
    is_transitive,
    partition_of_mask,
)


def _column(mu: Partition) -> dict[Partition, int]:
    """character_column(mu) with its bead-mask keys converted to partitions."""
    column = character_column(mu)
    return {partition_of_mask(mask, mu.size): chi for mask, chi in column.items()}


def _hook_dimension(parts: tuple[int, ...]) -> int:
    """Hook length formula, kept independent of the rim-hook character code."""
    d = sum(parts)
    if d == 0:
        return 1
    conjugate = [sum(1 for p in parts if p > c) for c in range(parts[0])]
    hooks = 1
    for i, row in enumerate(parts):
        for j in range(row):
            arm = row - j - 1
            leg = conjugate[j] - i - 1
            hooks *= arm + leg + 1
    return math.factorial(d) // hooks


# -- permutations and cycle types ---------------------------------------------


def test_cycle_type_identity():
    assert cycle_type(Permutation.identity(4)) == Partition((1, 1, 1, 1))


def test_cycle_type_mixed():
    sigma = Permutation.from_cycles(5, [(1, 2), (3, 4, 5)])
    assert cycle_type(sigma) == Partition((3, 2))


def test_cycle_type_full_cycle():
    for d in (2, 3, 6):
        sigma = Permutation.from_cycles(d, [tuple(range(1, d + 1))])
        assert cycle_type(sigma) == Partition((d,))


def test_composition_convention_left_to_right():
    # (sigma * tau)(i) = tau(sigma(i))
    sigma = Permutation.from_cycles(3, [(1, 2)])
    tau = Permutation.from_cycles(3, [(2, 3)])
    assert (sigma * tau)(1) == 3
    assert cycle_type(sigma * tau) == Partition((3,))


def test_cycle_type_is_conjugation_invariant():
    rng = random.Random(23)
    for _ in range(50):
        d = rng.randint(2, 7)
        images = list(range(1, d + 1))
        rng.shuffle(images)
        sigma = Permutation(tuple(images))
        rng.shuffle(images)
        tau = Permutation(tuple(images))
        assert cycle_type(sigma * tau * sigma.inverse()) == cycle_type(tau)


def test_invalid_permutation_rejected():
    with pytest.raises(ValueError):
        Permutation((1, 1, 3))


# -- class combinatorics -------------------------------------------------------


def test_z_lambda_identity_class():
    for d in (1, 3, 5):
        assert z_lambda(Partition((1,) * d)) == math.factorial(d)


def test_z_lambda_full_cycle():
    for d in (2, 4, 7):
        assert z_lambda(Partition((d,))) == d


def test_z_lambda_two_one():
    assert z_lambda(Partition((2, 1))) == 2


def test_partition_takes_parts_in_any_order():
    assert Partition((1, 2, 1)) == Partition((2, 1, 1))
    assert Partition((1, 2, 1)).parts == (2, 1, 1)
    assert Partition(iter((3, 1, 2))).parts == (3, 2, 1)


@pytest.mark.parametrize(
    "parts, message",
    [
        ((0,), "part must be positive, got 0"),
        ((2, -1), "part must be positive, got -1"),
        ((2.0,), "part must be an integer, got 2.0"),
        ((2.5,), "part must be an integer, got 2.5"),
        ((True,), "part must be an integer, got True"),
    ],
)
def test_partition_checks_each_part(parts, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        Partition(parts)


def test_empty_partition_base_case():
    empty = Partition(())
    assert z_lambda(empty) == 1
    assert _column(empty) == {empty: 1}


def test_class_sizes_partition_the_group():
    for d in range(1, 11):
        total = sum(math.factorial(d) // z_lambda(lam) for lam in partitions_of(d))
        assert total == math.factorial(d)


# -- characters -----------------------------------------------------------------


def test_trivial_representation():
    for d in (3, 5):
        for mu in partitions_of(d):
            assert _column(mu)[Partition((d,))] == 1


def test_sign_representation():
    for d in (3, 5, 6):
        for mu in partitions_of(d):
            assert _column(mu)[Partition((1,) * d)] == (-1) ** (d - len(mu.parts))


def test_standard_character_on_three_cycle():
    column = _column(Partition((3,)))
    assert column[Partition((2, 1))] == -1
    # cross-check via column orthogonality at d = 3
    assert sum(chi * chi for chi in column.values()) == z_lambda(Partition((3,)))


@pytest.mark.parametrize("d", range(1, 9))
def test_column_orthogonality(d):
    for mu in partitions_of(d):
        column = _column(mu)
        assert all(lam.size == d and chi != 0 for lam, chi in column.items())
        assert sum(chi * chi for chi in column.values()) == z_lambda(mu)


@pytest.mark.parametrize("d", range(1, 9))
def test_dimensions_match_hook_formula(d):
    column = _column(Partition((1,) * d))
    assert set(column) == set(partitions_of(d))
    for lam, dim in column.items():
        assert dim == _hook_dimension(lam.parts)
    assert sum(dim * dim for dim in column.values()) == math.factorial(d)


def test_column_matches_the_beta_set_route():
    for d in range(11):
        for mu in partitions_of(d):
            column = character_column(mu)
            assert all(mask.bit_count() == d for mask in column)
            assert _column(mu) == character_column_by_beta_sets(mu)


def test_content_of_mask():
    for d in range(15):
        for lam in partitions_of(d):
            parts = lam.parts + (0,) * (d - len(lam.parts))
            mask = sum(1 << (p + d - i) for i, p in enumerate(parts, 1))
            assert partition_of_mask(mask, d) == lam
            expected = sum(p * (p - 1) // 2 - i * p for i, p in enumerate(lam.parts))
            assert content_of_mask(mask, d) == expected


@pytest.mark.parametrize("d", range(1, 9))
def test_columns_are_orthogonal_on_their_keys(d):
    # the cross sums read the keys: they vanish only if both columns encode
    # each lambda by the same mask
    classes = list(partitions_of(d))
    for mu in classes:
        for nu in classes:
            small, large = sorted((character_column(mu), character_column(nu)), key=len)
            total = sum(chi * large.get(mask, 0) for mask, chi in small.items())
            assert total == (z_lambda(mu) if mu == nu else 0)


# -- transitivity ----------------------------------------------------------------


def test_transitive_single_point():
    assert is_transitive(1, [])


def test_not_transitive_two_orbits():
    gens = [
        Permutation.from_cycles(4, [(1, 2)]),
        Permutation.from_cycles(4, [(3, 4)]),
    ]
    assert not is_transitive(4, gens)


def test_transitive_adjacent_transpositions():
    gens = [
        Permutation.from_cycles(3, [(1, 2)]),
        Permutation.from_cycles(3, [(2, 3)]),
    ]
    assert is_transitive(3, gens)
