"""Tests for the exact sign identities."""

from __future__ import annotations

from fractions import Fraction

import pytest

from hurwitzlab import identities
from hurwitzlab.identities import (
    alternating_sum,
    beta_integral_exact,
    verify_identities,
)


def test_alternating_sum_single_term():
    assert alternating_sum(2, 1) == 1


def test_alternating_sum_direct_cases():
    assert alternating_sum(3, 1) == -1  # -C(2,1) + C(2,2)
    assert alternating_sum(3, 2) == 1


def test_beta_integral_forced_cases():
    for r2 in (1, 2, 5):
        if r2 + 1 >= 2:
            assert beta_integral_exact(1, r2) == 1
    assert beta_integral_exact(2, 1) == -1
    assert beta_integral_exact(3, 2) == 1


def test_parameter_validation():
    with pytest.raises(ValueError):
        alternating_sum(1, 1)
    with pytest.raises(ValueError):
        alternating_sum(3, 3)
    with pytest.raises(ValueError):
        beta_integral_exact(0, 1)


def test_both_routes_agree_up_to_thirty():
    for r in range(2, 31):
        for r2 in range(1, r):
            r1 = r - r2
            expected = (-1) ** (r1 - 1)
            assert alternating_sum(r, r2) == expected
            assert beta_integral_exact(r1, r2) == expected


def test_report_is_clean():
    assert identities.R_MAX == 30
    cases = sum(r - 1 for r in range(2, 31))
    assert verify_identities() == (True, f"{cases} cases up to r=30; failures: []")


def test_mutated_harness_detects_failures(monkeypatch):
    def broken(r: int, r2: int) -> int:
        return alternating_sum(r, r2) + (1 if r == 5 else 0)

    with monkeypatch.context() as patch:
        patch.setattr(identities, "alternating_sum", broken)
        ok, detail = verify_identities()
    assert not ok
    assert "alternating_sum(5," in detail

    def broken_beta(r1: int, r2: int) -> Fraction:
        return beta_integral_exact(r1, r2) * 2

    monkeypatch.setattr(identities, "beta_integral_exact", broken_beta)
    assert not verify_identities()[0]
