"""Tests for walls, chamber witnesses (a point and the wall signs derived from
it), chamber sampling, and adjacent chambers."""

from __future__ import annotations

import itertools
import math
import random

import pytest

from hurwitzlab import chambers
from hurwitzlab.chambers import (
    ChamberWitness,
    Wall,
    adjacent_chamber,
    chamber_nodes,
    walls,
)
from hurwitzlab.errors import (
    AdjacencyNotFoundError,
    DimensionMismatchError,
    OnWallError,
    SamplingBudgetExceededError,
)
from hurwitzlab.exact import compositions, lattice_point, monomials_up_to_degree
from hurwitzlab.hurwitz import RamificationProfile
from reference import (
    adjacent_by_search,
    box_sign_vectors,
    box_vectors,
    determinant,
    random_witness,
    raw_terms_poly,
    term_map,
)

EXAMPLE_C1 = RamificationProfile((7, 1, -2, -3, -3))
EXAMPLE_C2 = RamificationProfile((9, 4, -5, -5, -3))


# -- walls ---------------------------------------------------------------------


def test_wall_counts():
    assert [w.indices for w in walls(2)] == [(2,)]
    assert [w.indices for w in walls(3)] == [(2,), (3,), (2, 3)]
    assert len(walls(5)) == 15


def test_wall_canonicalization_takes_complement():
    assert Wall((1, 3, 4), 5).indices == (2, 5)
    assert Wall((2, 5), 5).indices == (2, 5)


def test_wall_takes_either_representative_in_any_order():
    assert Wall((1, 3, 4), 5) == Wall((2, 5), 5) == Wall((4, 1, 3), 5)
    assert Wall((5, 2), 5).indices == (2, 5)
    assert walls(5).index(Wall((1, 3, 4), 5)) == walls(5).index(Wall((2, 5), 5))


def test_wall_rejects_improper_subsets():
    with pytest.raises(ValueError, match=r"^not a proper nonempty subset of 1\.\.4: \(\)$"):
        Wall((), 4)
    with pytest.raises(ValueError, match="not a proper nonempty subset"):
        Wall((1, 2, 3, 4), 4)
    with pytest.raises(ValueError, match=r"^wall indices out of range 1\.\.5: \(2, 7\)$"):
        Wall((2, 7), 5)


@pytest.mark.parametrize("indices", [(1, 6), (1, 0), (1, -3)])
def test_wall_canonical_checks_the_range_before_complementing(indices):
    # complementing first would drop the stray index and return [2,3,4,5]
    with pytest.raises(ValueError, match=r"out of range 1\.\.5"):
        Wall(indices, 5)


def test_wall_form_is_the_subset_sum():
    wall = Wall((2, 5), 5)
    for point in ((9, 4, -5, -5, -3), (7, 1, -2, -3, -3)):
        assert wall.form().evaluate(point) == point[1] + point[4]
    assert str(wall) == "[2,5]"


def test_walls_distinct_as_forms():
    forms = [term_map(wall.form()) for wall in walls(4)]
    assert all(a != b for a, b in itertools.combinations(forms, 2))


@pytest.mark.parametrize("n", range(2, 9))
def test_wall_form_matches_the_expanded_subset_sum(n):
    # the sum of x_i over the wall, with x_n expanded by the reference route
    for wall in walls(n):
        units = (tuple(int(j == i) for j in range(1, n + 1)) for i in wall.indices)
        assert term_map(wall.form()) == term_map(raw_terms_poly(n, dict.fromkeys(units, 1)))


# -- signatures -----------------------------------------------------------------


def test_signature_small_examples():
    assert ChamberWitness(RamificationProfile((2, 1, -3))).signs == (1, -1, -1)
    assert ChamberWitness(RamificationProfile((1, 1, -2))).signs == (1, -1, -1)
    assert ChamberWitness(RamificationProfile((2, 1, -3))).signature == "+--"


def test_signature_on_wall_identifies_first_vanishing():
    with pytest.raises(OnWallError) as err:
        ChamberWitness(RamificationProfile((4, 1, -1, -1, -3)))
    assert err.value.wall.indices == (2, 3)


def test_signature_scaling_invariance():
    rng = random.Random(41)
    profiles = [(2, 1, -3), (7, 1, -2, -3, -3), (3, -1, -2)]
    for entries in profiles:
        base = ChamberWitness(RamificationProfile(entries))
        for _ in range(5):
            k = rng.randint(2, 20)
            scaled = RamificationProfile(tuple(k * v for v in entries))
            assert ChamberWitness(scaled).signs == base.signs


def test_example_pair_differs_exactly_at_one_wall():
    c1, c2 = ChamberWitness(EXAMPLE_C1), ChamberWitness(EXAMPLE_C2)
    assert [w.indices for w in c1.differing_walls(c2)] == [(2, 5)]
    assert [w.indices for w in c2.differing_walls(c1)] == [(2, 5)]
    assert c1.differing_walls(ChamberWitness(RamificationProfile((14, 2, -4, -6, -6)))) == []


def test_differing_walls_rejects_a_witness_of_another_dimension():
    four = ChamberWitness(RamificationProfile((3, 1, -2, -2)))
    message = r"^point \(3,1,-2,-2\) has n=4, point \(7,1,-2,-3,-3\) has n=5$"
    with pytest.raises(DimensionMismatchError, match=message):
        ChamberWitness(EXAMPLE_C1).differing_walls(four)


def test_witness_validation():
    # the signs are derived from the point, never passed in
    witness = ChamberWitness.at(EXAMPLE_C1)
    assert witness == ChamberWitness(EXAMPLE_C1)
    assert witness.signs == (1,) + (-1,) * 14
    assert witness.signature == "+" + "-" * 14
    with pytest.raises(TypeError):
        ChamberWitness(EXAMPLE_C1, ChamberWitness(EXAMPLE_C2).signs)
    with pytest.raises(OnWallError):
        ChamberWitness(RamificationProfile((4, 1, -1, -1, -3)))


# -- fit nodes -------------------------------------------------------------------


def _step_matrix(steps) -> list[tuple[int, ...]]:
    return [step[:-1] for step in steps]


def _nodes(design, degree: int) -> list[tuple[tuple[int, ...], RamificationProfile]]:
    """The fit nodes of a chamber lattice: each a with a_i >= 0 and
    sum a_i <= degree, in lattice order, with its point."""
    return [
        (a, RamificationProfile(lattice_point(design.base, design.steps, a)))
        for a in monomials_up_to_degree(len(design.steps), degree)
    ]


def test_sample_includes_scalings_for_two_parts():
    design = chamber_nodes(ChamberWitness.at(RamificationProfile((1, -1))), 2)
    assert design.base == (1, -1) and design.steps == ((1, -1),)
    assert [p.x for _, p in _nodes(design, 2)] == [(1, -1), (2, -2), (3, -3)]
    assert list(design.held_out) == [(k, -k) for k in range(4, 9)]


def _small_chambers(n: int) -> list[ChamberWitness]:
    """One witness for every chamber met by a point whose free coordinates
    lie in [-4, 4]; that is every chamber for n <= 4, and 146 of the 370 at
    n = 5."""
    chambers = {}
    for free in itertools.product(range(-4, 5), repeat=n - 1):
        point = free + (-sum(free),)
        if 0 in point:
            continue
        try:
            witness = ChamberWitness.at(RamificationProfile(point))
        except OnWallError:
            continue
        chambers.setdefault(witness.signs, witness)
    return list(chambers.values())


def test_sample_points_share_the_signature():
    # the documented chamber, then every chamber at n <= 4; only the corners
    # of the node simplex are checked inside chamber_nodes
    witnesses = [ChamberWitness.at(EXAMPLE_C1)]
    witnesses += [w for n in (2, 3, 4) for w in _small_chambers(n)]
    assert len(witnesses) == 1 + 2 + 6 + 32
    for witness in witnesses:
        n = witness.point.n
        design = chamber_nodes(witness, 3)
        nodes = _nodes(design, 3)
        points = [p for _, p in nodes] + [RamificationProfile(x) for x in design.held_out]
        assert len(nodes) == math.comb(3 + n - 1, n - 1)
        assert len(design.held_out) == 5
        assert len({p.x for p in points}) == len(points)
        assert RamificationProfile(design.base).degree <= witness.point.degree
        for p in points:
            assert ChamberWitness(p).signs == witness.signs
        for a, p in nodes:
            assert p.x == tuple(
                b + sum(k * step[j] for k, step in zip(a, design.steps))
                for j, b in enumerate(design.base)
            )


def test_held_out_points_are_the_cheapest_of_their_layers():
    # reference: build every lattice point of the layers beyond the nodes and
    # stable-sort each layer by cover degree; at degree 0 the held-out points
    # span two layers, 2 + 3 of them at n = 3 and 3 + 2 at n = 4
    for n in (3, 4):
        for witness in _small_chambers(n):
            for degree in (0, 1, 2, 3):
                design = chamber_nodes(witness, degree)
                expected = []
                layer = degree
                while len(expected) < chambers.HELD_OUT:
                    layer += 1
                    ring = [
                        lattice_point(design.base, design.steps, a)
                        for a in compositions(layer, n - 1)
                    ]
                    ring.sort(key=lambda x: sum(v for v in x if v > 0))
                    expected += ring[: chambers.HELD_OUT - len(expected)]
                assert list(design.held_out) == expected
                assert degree or layer == 2


@pytest.mark.parametrize("entries", [EXAMPLE_C1.x, EXAMPLE_C2.x, (3, 1, -2, -2)])
def test_corner_check_catches_an_escaped_lattice(monkeypatch, entries):
    # with every step accepted, the first independent unit steps leave the
    # chamber; the corner check must refuse the lattice
    monkeypatch.setattr(chambers, "_in_closed_cone", lambda vector, n, target: True)
    witness = ChamberWitness.at(RamificationProfile(entries))
    with pytest.raises(AssertionError, match="left the chamber"):
        chamber_nodes(witness, 3)


def test_sample_is_deterministic_and_prefix_stable():
    witness = ChamberWitness.at(EXAMPLE_C2)
    first = chamber_nodes(witness, 2)
    again = chamber_nodes(witness, 2)
    assert first == again
    larger = chamber_nodes(witness, 3)
    assert _nodes(larger, 3)[: len(_nodes(first, 2))] == _nodes(first, 2)
    held = [RamificationProfile(x).degree for x in first.held_out]
    assert held == sorted(held)


def test_base_slides_down_to_a_low_point():
    # the documented witness at 4x and 4000x, then every chamber at n = 4
    scaled = [tuple(k * v for v in EXAMPLE_C1.x) for k in (4, 4000)]
    witnesses = [ChamberWitness.at(RamificationProfile(x)) for x in scaled]
    witnesses += _small_chambers(4)
    for i, witness in enumerate(witnesses):
        base = RamificationProfile(chamber_nodes(witness, 0).base)
        assert ChamberWitness(base).signs == witness.signs
        bound = EXAMPLE_C1.degree - 1 if i < 2 else witness.point.degree
        assert base.degree <= bound
        # no unit step with the base's signs leads further down inside the chamber
        n = base.n
        for free in itertools.product((-1, 0, 1), repeat=n - 1):
            step = free + (-sum(free),)
            if any(c and (c > 0) != (b > 0) for c, b in zip(step, base.x)) or not any(step):
                continue
            lower = tuple(b - c for b, c in zip(base.x, step))
            if 0 in lower:
                continue
            try:
                assert ChamberWitness(RamificationProfile(lower)).signs != witness.signs
            except OnWallError:
                pass


@pytest.mark.parametrize(
    "entries", [(2, 1, -3), EXAMPLE_C1.x, EXAMPLE_C2.x, (-1, -1, -1, 3)]
)
def test_step_matrix_is_invertible_and_in_the_closed_cone(entries):
    witness = ChamberWitness.at(RamificationProfile(entries))
    design = chamber_nodes(witness, 1)
    n = len(entries)
    assert len(design.steps) == n - 1
    assert determinant(_step_matrix(design.steps)) != 0
    for step in design.steps:
        assert sum(step) == 0
        for wall, want in zip(walls(n), witness.signs):
            assert wall.subset_sum(step) * want >= 0


@pytest.mark.parametrize("n, top", [(2, 3), (3, 3), (4, 3), (5, 3), (6, 2)])
def test_sign_vectors_are_the_box_vectors_with_the_point_signs(n, top):
    for point in itertools.product((1, -1), repeat=n):
        if len(set(point)) < 2:
            continue
        for radius in range(1, top + 1):
            assert list(chambers._sign_vectors(point, radius)) == box_sign_vectors(
                point, radius
            ), (point, radius)


def test_closed_cone_steps_carry_the_chamber_signs():
    # so the whole box and its sign-compatible part offer the step search
    # the same candidates, in the same order
    rng = random.Random(23)
    for n in (3, 4, 5, 6):
        for _ in range(4):
            witness = random_witness(rng, n, 9)
            target = witness.signs
            for radius in (1, 2):
                whole = [
                    v for v in box_vectors(n, radius)
                    if chambers._in_closed_cone(v, n, target)
                ]
                signed = [
                    v for v in box_sign_vectors(witness.point.x, radius)
                    if chambers._in_closed_cone(v, n, target)
                ]
                assert whole == signed


def test_chamber_nodes_match_the_whole_box_route(monkeypatch):
    # steps from radius 1 to 3; one 7-part witness needs radius 3, where the
    # whole box holds 7^6 vectors
    rng = random.Random(15)
    witnesses = [random_witness(rng, n, 9) for n in (3, 4, 5, 6) for _ in range(4)]
    witnesses += [random_witness(rng, 7, 9) for _ in range(2)]
    designs = [chamber_nodes(witness, 2) for witness in witnesses]
    monkeypatch.setattr(
        chambers, "_sign_vectors", lambda point, radius: iter(box_sign_vectors(point, radius))
    )
    monkeypatch.setattr(chambers, "NODE_BUDGET", 10**7)
    for witness, design in zip(witnesses, designs):
        by_boxes = chamber_nodes(witness, 2)
        assert design.base == by_boxes.base
        assert design.steps == by_boxes.steps
        assert _nodes(design, 2) == _nodes(by_boxes, 2)
        assert design.held_out == by_boxes.held_out


def test_seven_part_step_search_stays_small(monkeypatch):
    # the whole-box route checks 300,571 vectors here, over the default
    # budget; given room, it finds this base and these steps
    witness = ChamberWitness.at(RamificationProfile((-8, -1, -9, 2, 3, -9, 22)))
    monkeypatch.setattr(chambers, "NODE_BUDGET", 20_000)
    design = chamber_nodes(witness, 4)
    assert design.base == (-5, -1, -5, 2, 2, -5, 12)
    assert design.steps == (
        (-1, 0, 0, 0, 0, 0, 1),
        (0, 0, -1, 0, 0, 0, 1),
        (0, 0, 0, 0, 0, -1, 1),
        (-1, 0, -1, 0, 1, -1, 2),
        (-1, 0, -1, 1, 0, -1, 2),
        (-2, -1, -2, 1, 1, -2, 5),
    )


def test_sample_budget_error(monkeypatch):
    witness = ChamberWitness.at(EXAMPLE_C1)
    monkeypatch.setattr(chambers, "NODE_BUDGET", 10)
    with pytest.raises(SamplingBudgetExceededError):
        chamber_nodes(witness, 2)


def test_every_small_chamber_gets_a_full_step_basis():
    # every chamber met by a point whose free coordinates lie in [-4, 4];
    # 76 of the 146 five-part ones need a step from the [-2, 2] box
    wide_steps = 0
    for n in (2, 3, 4, 5):
        witnesses = _small_chambers(n)
        for witness in witnesses:
            design = chamber_nodes(witness, 0)
            assert len(design.steps) == n - 1
            assert determinant(_step_matrix(design.steps)) != 0
            wide_steps += any(max(map(abs, step)) > 1 for step in design.steps)
        assert len(witnesses) == {2: 2, 3: 6, 4: 32, 5: 146}[n]
    assert wide_steps == 76


# -- adjacency -------------------------------------------------------------------


def test_adjacent_chamber_documented_wall():
    witness = ChamberWitness.at(EXAMPLE_C1)
    wall = Wall((2, 5), 5)
    other = adjacent_chamber(witness, wall)
    assert [w.indices for w in witness.differing_walls(other)] == [(2, 5)]
    # lands on the same side as the documented second chamber point
    assert other.signs == ChamberWitness(EXAMPLE_C2).signs


def test_adjacent_chamber_two_parts():
    witness = ChamberWitness.at(RamificationProfile((1, -1)))
    other = adjacent_chamber(witness, Wall((2,), 2))
    assert other.point.x == (-1, 1)
    assert other.signs == (1,)


def test_adjacent_chamber_infeasible_flip():
    # x2 is the only positive entry: x2 < 0 with x2 + x3 > 0 cannot happen
    witness = ChamberWitness.at(RamificationProfile((-1, 3, -2)))
    with pytest.raises(AdjacencyNotFoundError):
        adjacent_chamber(witness, Wall((2,), 3))


def test_adjacent_chamber_rejects_a_wall_of_another_dimension():
    witness = ChamberWitness.at(EXAMPLE_C1)
    message = r"^wall \[2\] is for n=4, point \(7,1,-2,-3,-3\) has n=5$"
    with pytest.raises(DimensionMismatchError, match=message):
        adjacent_chamber(witness, Wall((2,), 4))


def test_adjacent_chamber_matches_the_scaled_search():
    # the search's budget reaches its scale k = 4; along e_i - e_l every wall
    # is crossed at an integer distance, so it finds a point at k = 1 or 2 or
    # none at all, and the closed form must find the same one or none
    pairs = found = 0
    for n in (2, 3, 4, 5):
        for witness in _small_chambers(n):
            for wall in walls(n):
                pairs += 1
                budget = 18 * len(wall.indices) * len(wall.complement())
                try:
                    expected = adjacent_by_search(witness, wall, budget)
                except AdjacencyNotFoundError:
                    with pytest.raises(AdjacencyNotFoundError):
                        adjacent_chamber(witness, wall)
                else:
                    assert adjacent_chamber(witness, wall) == expected
                    found += 1
    assert (pairs, found) == (2434, 734)


def _every_chamber(n: int, count: int) -> list[ChamberWitness]:
    """One witness for each of the count chambers at n, from shells
    max |free coordinate| = 1, 2, ... of growing radius until all are met."""
    index_sets = [tuple(i - 1 for i in wall.indices) for wall in walls(n)]
    found = {}
    radius = 0
    while len(found) < count:
        radius += 1
        for free in itertools.product(range(-radius, radius + 1), repeat=n - 1):
            if radius not in map(abs, free):
                continue
            point = free + (-sum(free),)
            sums = [sum(point[i] for i in indices) for indices in index_sets]
            if 0 not in sums:
                found.setdefault(tuple(s > 0 for s in sums), point)
    return [ChamberWitness.at(RamificationProfile(x)) for x in found.values()]


def test_adjacent_chamber_on_every_five_part_chamber():
    # the resonance arrangement at n = 5 has 370 chambers (OEIS A034997); the
    # flip of a wall has an adjacent chamber exactly when its sign vector is
    # one of them, and then the closed form lands in it
    witnesses = _every_chamber(5, 370)
    assert len(witnesses) == 370
    existing = {witness.signs for witness in witnesses}
    found = missing = 0
    for witness in witnesses:
        for wall in walls(5):
            target = tuple(-s if w == wall else s for w, s in zip(walls(5), witness.signs))
            if target in existing:
                assert adjacent_chamber(witness, wall).signs == target
                found += 1
            else:
                with pytest.raises(AdjacencyNotFoundError):
                    adjacent_chamber(witness, wall)
                missing += 1
    assert (found, missing) == (1520, 4030)

