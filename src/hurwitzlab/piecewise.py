"""Chamber polynomials, wall-crossing polynomials, and the genus-0 product rule.

The count is a polynomial of total degree at most 4g - 3 + n on each chamber;
``fit_chamber`` recovers that polynomial by Newton interpolation on an
in-chamber lattice that determines it, and proves it on held-out points.
``wall_crossing`` is the difference of two adjacent chamber polynomials.  For
genus 0 the crossing across an inner wall also factors through a two-block
product formula; ``product_formula_report`` evaluates it under every
candidate binomial and sign convention in ``CONVENTIONS``, so that each can be
compared with the fitted crossing polynomial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .chambers import ChamberWitness, Wall, chamber_nodes
from .errors import (
    DimensionMismatchError,
    NotAdjacentError,
    NotPolynomialError,
    OnWallError,
    UnstableCaseError,
)
from .exact import MultiPoly, newton_interpolate
from .hurwitz import (
    RamificationProfile,
    frobenius_connected,
    oracle_count,
    simple_branch_count,
)


@dataclass(frozen=True)
class ChamberPolynomial:
    witness: ChamberWitness
    genus: int
    polynomial: MultiPoly
    degree_bound: int
    validation: tuple[tuple[RamificationProfile, Fraction], ...]

    def to_json_dict(self) -> dict:
        return {
            "witness": list(self.witness.point.x),
            "signature": self.witness.signature,
            "g": self.genus,
            "degree_bound": self.degree_bound,
            "polynomial": self.polynomial.to_json_dict(),
            "display": str(self.polynomial),
            "validation": [
                {"point": list(p.x), "value": str(v)} for p, v in self.validation
            ],
        }


@dataclass(frozen=True)
class WallCrossing:
    wall: Wall
    polynomial: MultiPoly
    chamber_from: ChamberWitness
    chamber_to: ChamberWitness

    def to_json_dict(self) -> dict:
        return {
            "wall": list(self.wall.indices),
            "polynomial": self.polynomial.to_json_dict(),
            "display": str(self.polynomial),
            "witness_from": list(self.chamber_from.point.x),
            "witness_to": list(self.chamber_to.point.x),
        }


def fit_chamber(witness: ChamberWitness, g: int) -> ChamberPolynomial:
    """Fit the chamber polynomial at the witness's chamber.

    Newton interpolation on the lattice of ``chamber_nodes``, whose nodes
    determine a polynomial of degree 4g-3+n, evaluates the count via the
    character route at each node, and the lattice's ``HELD_OUT`` held-out
    points prove the fit.  The two cheapest evaluated points
    (lowest cover degree, then lattice order, so the base point first) are
    cross-checked against the enumeration oracle, with no bound on its tuple
    space: the cut-and-join count costs a small share of the character-route
    evaluations at the nodes.  Every term degree must lie in the window
    [2g-3+n, 4g-3+n] with the parity of 4g-3+n.

    For n = 2, g = 0 the count is 1/d, which is not polynomial, and the fit
    refuses with UnstableCaseError.
    """
    n = witness.point.n
    simple_branch_count(g, n)  # rejects a bad genus; a profile has n >= 2
    if n == 2 and g == 0:
        raise UnstableCaseError(
            "the two-part genus-0 count is 1/d and admits no polynomial fit"
        )
    degree_bound = 4 * g - 3 + n

    design = chamber_nodes(witness, degree_bound)
    evaluated: list[tuple[RamificationProfile, Fraction]] = []  # in call order

    def count_at(x: tuple[int, ...]) -> tuple[RamificationProfile, Fraction]:
        point = RamificationProfile(x)
        # positional, as perfbench's trace hook reads the profile from args[0]
        evaluated.append((point, frobenius_connected(point, g).value))
        return evaluated[-1]

    poly = newton_interpolate(design.base, design.steps, lambda x: count_at(x)[1], degree_bound)
    held_out = [count_at(x) for x in design.held_out]
    for point, value in sorted(evaluated, key=lambda pair: pair[0].degree)[:2]:
        checked = oracle_count(point, g, budget=None).value
        if checked != value:
            raise AssertionError(
                f"evaluator disagrees with the oracle at {point}: {value} vs {checked}"
            )

    for point, value in held_out:
        got = poly.evaluate(point.x)
        if got != value:
            raise NotPolynomialError(
                f"fit fails at held-out point {point}: polynomial gives {got}, "
                f"count is {value}"
            )
    low = 2 * g - 3 + n
    for exps, _ in poly.terms:
        term_degree = sum(exps)
        if not low <= term_degree <= degree_bound or (degree_bound - term_degree) % 2:
            raise NotPolynomialError(
                f"fitted term of degree {term_degree} lies outside the window "
                f"[{low}, {degree_bound}] with the parity of {degree_bound}"
            )
    return ChamberPolynomial(
        witness=witness,
        genus=g,
        polynomial=poly,
        degree_bound=degree_bound,
        validation=tuple(held_out),
    )


def wall_crossing(
    c1: ChamberPolynomial, c2: ChamberPolynomial, wall: Wall
) -> WallCrossing:
    """Difference of two adjacent chamber polynomials across `wall`."""
    if c1.witness.point.n != c2.witness.point.n:
        raise NotAdjacentError("chamber fits live in different dimensions")
    if c1.genus != c2.genus:
        raise NotAdjacentError("chamber fits have different genera")
    differing = c1.witness.differing_walls(c2.witness)
    if differing != [wall]:
        raise NotAdjacentError(
            f"signatures differ at {[str(w) for w in differing]}, expected exactly [{wall}]"
        )
    return WallCrossing(
        wall=wall,
        polynomial=c2.polynomial - c1.polynomial,
        chamber_from=c1.witness,
        chamber_to=c2.witness,
    )


# name -> (sign, top of the binomial is r - 1 rather than r, pick is r_1
# rather than r_2).  Resolved empirically against the fitted wall-crossing
# polynomial and pinned by the acceptance tests: only C(r,r1) with positive
# sign reproduces the crossing value at every probed point.
CONVENTIONS: dict[str, tuple[int, bool, bool]] = {
    "C(r-1,r1)": (1, True, True),
    "C(r,r1)": (1, False, True),
    "C(r-1,r2)": (1, True, False),
    "-C(r-1,r1)": (-1, True, True),
    "-C(r,r1)": (-1, False, True),
    "-C(r-1,r2)": (-1, True, False),
}


def crossing_blocks(
    wall: Wall, x: RamificationProfile
) -> tuple[RamificationProfile, RamificationProfile, int]:
    """Split x across the wall into two balanced blocks, appending the node
    multiplicity delta = |subset sum| with the sign that zeroes each block.

    Requires x strictly on the positive side of the wall (the chamber the
    crossing lands in).
    """
    if wall.n != x.n:
        raise DimensionMismatchError(f"wall {wall} is for n={wall.n}, point {x} has n={x.n}")
    total = wall.subset_sum(x.x)
    if total == 0:
        raise OnWallError(wall)
    if total < 0:
        raise ValueError(
            f"point {x} has negative sum {total} on wall {wall}; "
            "the product formula is evaluated on the positive side"
        )
    delta = total
    block_i = tuple(x.x[i - 1] for i in wall.indices) + (-delta,)
    block_c = tuple(x.x[l - 1] for l in wall.complement()) + (delta,)
    return RamificationProfile(block_i), RamificationProfile(block_c), delta


def product_formula_report(wall: Wall, x: RamificationProfile) -> dict[str, Fraction]:
    """Every candidate convention's value of the genus-0 crossing at x, keyed
    by convention name: sign * delta * C(top, pick) * H(I block) *
    H(complement block), with top r - 1 or r and pick r_1 or r_2 = r - r_1."""
    block_i, block_c, delta = crossing_blocks(wall, x)
    r = simple_branch_count(0, x.n)
    r1 = simple_branch_count(0, block_i.n)
    blocks = delta * frobenius_connected(block_i, 0).value * frobenius_connected(block_c, 0).value
    return {
        name: sign * math.comb(r - 1 if drop_one else r, r1 if pick_r1 else r - r1) * blocks
        for name, (sign, drop_one, pick_r1) in CONVENTIONS.items()
    }
