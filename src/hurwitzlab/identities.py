"""Two exact combinatorial identities behind the genus-0 crossing sign.

Both the alternating binomial sum and the exactly-integrated beta integral
collapse to (-1)^(r1 - 1); everything here is integer/rational arithmetic,
no quadrature.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from .errors import count_argument

R_MAX = 30


def alternating_sum(r: int, r2: int) -> int:
    """sum_{k=r2}^{r-1} C(r-1,k) C(k-1,r2-1) (-1)^(r-1-k)."""
    count_argument("r", r, 2)
    if count_argument("r2", r2, 1) > r - 1:
        raise ValueError(f"need r2 <= r-1, got r={r}, r2={r2}")
    return sum(
        comb(r - 1, k) * comb(k - 1, r2 - 1) * (-1) ** (r - 1 - k)
        for k in range(r2, r)
    )


def beta_integral_exact(r1: int, r2: int) -> Fraction:
    """r2 * C(r-1,r2) * integral_0^1 t^(r2-1) (t-1)^(r1-1) dt, exactly.

    The integrand is expanded binomially and integrated term by term.
    """
    count_argument("r1", r1, 1)
    count_argument("r2", r2, 1)
    r = r1 + r2
    integral = sum(
        Fraction(comb(r1 - 1, j) * (-1) ** (r1 - 1 - j), r2 + j)
        for j in range(r1)
    )
    return r2 * comb(r - 1, r2) * integral


def verify_identities() -> tuple[bool, str]:
    """Check both identities against (-1)^(r1-1) for all 2 <= r <= R_MAX:
    a self-test check, returning (ok, detail) with the failures listed in
    the detail, not raised."""
    failures: list[str] = []
    cases = 0
    for r in range(2, R_MAX + 1):
        for r2 in range(1, r):
            r1 = r - r2
            expected = (-1) ** (r1 - 1)
            cases += 1
            got_sum = alternating_sum(r, r2)
            if got_sum != expected:
                failures.append(
                    f"alternating_sum({r},{r2}) = {got_sum}, expected {expected}"
                )
            got_beta = beta_integral_exact(r1, r2)
            if got_beta != expected:
                failures.append(
                    f"beta_integral_exact({r1},{r2}) = {got_beta}, expected {expected}"
                )
    return not failures, f"{cases} cases up to r={R_MAX}; failures: {failures}"
