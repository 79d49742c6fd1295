"""The benchmark's answer checks accept right answers and reject perturbed
ones: a value plus one, a doubled value, a ray that is not polynomial.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

Stdlib only; nothing here imports hurwitzlab.  The right answers come from
the two independent routes in checks.py (closed form and exhaustive walk
count) and from the README's documented polynomials.
"""

from __future__ import annotations

import os
import sys
import unittest
from fractions import Fraction

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import inputs  # noqa: E402

COUNTER = checks.CoverCounter()

# H_1 on the one-part chamber (a, -b, -c): by the closed form
# H = d^2 (b^2 + c^2 - 1) / 4, i.e. x1^4/4 + x1^3 x2/2 + x1^2 x2^2/2 - x1^2/4.
ONE_PART_G1 = {"n": 3, "terms": {"4,0": "1/4", "3,1": "1/2", "2,2": "1/2", "2,0": "-1/4"}}
# README: crossing [2,5] out of the chamber of (7,1,-2,-3,-3) is (x2 + x5) * 6*x1.
CROSSING = {"n": 5, "terms": {"2,0,0,0": "-6", "1,0,1,0": "-6", "1,0,0,1": "-6"}}
CROSSING_TO = (9, 2, -4, -6, -1)


def perturbed(value: Fraction) -> list[Fraction]:
    return [value + 1, 2 * value if value else Fraction(1)]


class OnePart(unittest.TestCase):
    PROFILES = [((3, -1, -1, -1), 0), ((4, -2, -2), 1), ((5, -1, -4), 1), ((4, -1, -1, -2), 1), ((3, -1, -2), 2)]

    def test_closed_form_matches_exhaustive_count(self):
        for x, g in self.PROFILES:
            with self.subTest(x=x, g=g):
                self.assertEqual(checks.one_part_value(x, g), COUNTER.value(x, g))

    def test_known_values(self):
        self.assertEqual(checks.one_part_value((3, -1, -1, -1), 0), 6)
        self.assertEqual(checks.one_part_value((4, -2, -2), 1), 28)
        self.assertEqual(checks.one_part_value((-4, 2, 2), 1), 28)

    def test_rejects_perturbed_values(self):
        for x, g in self.PROFILES:
            right = checks.one_part_value(x, g)
            self.assertIsNone(checks.check_one_part(x, g, right))
            for wrong in perturbed(right):
                self.assertIsNotNone(checks.check_one_part(x, g, wrong))


class Ray(unittest.TestCase):
    def ray(self, x, g):
        return [COUNTER.value(tuple(k * v for v in x), g) for k in range(1, g + 4)]

    def test_exhaustive_ray_is_polynomial(self):
        self.assertIsNone(checks.check_ray(self.ray((3, 1, -2, -2), 0), 4, 0))

    def test_one_part_ray_is_polynomial(self):
        values = [checks.one_part_value((5 * k, -2 * k, -3 * k), 2) for k in range(1, 6)]
        self.assertIsNone(checks.check_ray(values, 3, 2))

    def test_rejects_perturbed_ray(self):
        values = [checks.one_part_value((5 * k, -2 * k, -3 * k), 2) for k in range(1, 6)]
        for i in range(len(values)):
            for wrong in perturbed(values[i]):
                bad = values[:i] + [wrong] + values[i + 1 :]
                self.assertIsNotNone(checks.check_ray(bad, 3, 2), (i, wrong))

    def test_rejects_sequence_that_is_not_polynomial(self):
        self.assertIsNotNone(checks.check_ray([Fraction(2**k) for k in range(1, 6)], 3, 2))
        # a polynomial, but of a degree outside the window {3, 5} of g=1, n=4
        self.assertIsNotNone(checks.check_ray([Fraction(k**4) for k in range(1, 5)], 4, 1))
        self.assertIsNone(checks.check_ray([Fraction(k**5 - k**3) for k in range(1, 5)], 4, 1))

    def test_needs_more_points_than_unknowns(self):
        self.assertIsNotNone(checks.check_ray([Fraction(1), Fraction(2)], 3, 1))


class Counts(unittest.TestCase):
    def test_documented_examples(self):
        self.assertEqual(COUNTER.value((7, 1, -2, -3, -3), 0), 294)

    def test_small_values(self):
        self.assertEqual(COUNTER.value((2, -2), 0), Fraction(1, 2))
        self.assertEqual(COUNTER.value((1, -1), 1), 0)
        self.assertEqual(COUNTER.value((2, 2, -1, -3), 1), 216)

    def test_relabelling_does_not_change_the_count(self):
        self.assertEqual(COUNTER.value((1, -2, 3, -2), 1), COUNTER.value((3, 1, -2, -2), 1))

    def test_rejects_perturbed_values(self):
        for x, g in (((2, 2, -1, -3), 1), ((3, 1, -2, -2), 0)):
            right = COUNTER.value(x, g)
            self.assertIsNone(checks.check_count(COUNTER, x, g, right))
            for wrong in perturbed(right):
                self.assertIsNotNone(checks.check_count(COUNTER, x, g, wrong))


class Fits(unittest.TestCase):
    def test_accepts_documented_polynomials(self):
        self.assertIsNone(checks.check_fit(inputs.DOCUMENTED_FIT, (7, 1, -2, -3, -3), 0, COUNTER))
        self.assertIsNone(checks.check_fit(ONE_PART_G1, (3, -1, -2), 1, COUNTER))

    def test_rejects_perturbed_coefficients(self):
        for poly, witness, g in (
            (inputs.DOCUMENTED_FIT, (7, 1, -2, -3, -3), 0),
            (ONE_PART_G1, (3, -1, -2), 1),
        ):
            for key, coeff in poly["terms"].items():
                for wrong in perturbed(Fraction(coeff)):
                    bad = {"n": poly["n"], "terms": {**poly["terms"], key: str(wrong)}}
                    self.assertIsNotNone(checks.check_fit(bad, witness, g, COUNTER), (key, wrong))

    def test_rejects_terms_outside_the_degree_window(self):
        bad = {"n": 5, "terms": {"2,0,0,0": "6", "1,0,0,0": "1"}}
        self.assertIsNotNone(checks.check_fit(bad, (7, 1, -2, -3, -3), 0, COUNTER))

    def test_rejects_empty_polynomial(self):
        self.assertIsNotNone(checks.check_fit({"n": 5, "terms": {}}, (7, 1, -2, -3, -3), 0, COUNTER))


class WallCrossing(unittest.TestCase):
    def check(self, poly):
        return checks.check_wallcross(poly, (2, 5), inputs.DOCUMENTED_FIT, CROSSING_TO, COUNTER)

    def test_accepts_documented_crossing(self):
        self.assertIsNone(self.check(CROSSING))

    def test_rejects_perturbed_crossing(self):
        for key, coeff in CROSSING["terms"].items():
            for wrong in perturbed(Fraction(coeff)):
                bad = {"n": 5, "terms": {**CROSSING["terms"], key: str(wrong)}}
                self.assertIsNotNone(self.check(bad), (key, wrong))
        doubled = {"n": 5, "terms": {k: str(2 * Fraction(v)) for k, v in CROSSING["terms"].items()}}
        self.assertIsNotNone(self.check(doubled))
        self.assertIsNotNone(self.check({"n": 5, "terms": {}}))


class Inputs(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for workload in inputs.WORKLOADS:
            self.assertEqual(
                inputs.build_ops(workload, 7, "c.jsonl"), inputs.build_ops(workload, 7, "c.jsonl")
            )

    def test_evaluate_inputs_are_distinct_and_off_the_walls(self):
        for seed in range(5):
            ops = inputs.evaluate_ops(seed)
            keys = [inputs.multiset_key(op.x, op.g) for op in ops]
            self.assertEqual(len(keys), len(set(keys)))
            for op in ops:
                if op.kind == "ray_point":
                    self.assertNotIn(0, checks.signs(op.x))

    def test_cli_passes_present_each_key_three_times(self):
        ops = inputs.cli_ops(3, "c.jsonl")
        keys = [inputs.multiset_key(op.x, op.g) for op in ops if op.argv[0] == "compute"]
        self.assertEqual(len(ops), 3 * inputs.CLI_PROFILES + len(inputs.CLI_EXAMPLES) + 1)
        self.assertEqual(len(set(keys)), inputs.CLI_PROFILES + len(inputs.CLI_EXAMPLES))


if __name__ == "__main__":
    unittest.main()
