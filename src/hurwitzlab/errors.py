"""Exception taxonomy and the count rule shared across the package.

Every error carries a stable ``code`` string, which the command line maps to an
exit status; every public count argument passes the rule ``count_argument``.
"""

from __future__ import annotations


class HurwitzlabError(Exception):
    """Base class for all structured errors raised by this package."""

    code = "ERROR"


class DimensionMismatchError(HurwitzlabError):
    """Operands live in different ambient dimensions."""

    code = "DIMENSION_MISMATCH"


class NonZeroSumError(HurwitzlabError):
    """An evaluation point does not lie on the zero-sum hyperplane."""

    code = "NONZERO_SUM"


class InvalidProfileError(HurwitzlabError):
    """A ramification profile violates its invariants."""

    code = "INVALID_PROFILE"


class BudgetExceededError(HurwitzlabError):
    """The oracle's tuple space C(d,2)^r exceeds its budget."""

    code = "BUDGET_EXCEEDED"


class OnWallError(HurwitzlabError):
    """A lattice point lies on a resonance wall (some subset sum vanishes)."""

    code = "ON_WALL"

    def __init__(self, wall):
        self.wall = wall
        super().__init__(f"point lies on wall {wall}")


class SamplingBudgetExceededError(HurwitzlabError):
    """The search for a chamber's fit nodes ran out of candidate checks."""

    code = "SAMPLING_BUDGET_EXCEEDED"


class AdjacencyNotFoundError(HurwitzlabError):
    """No direction e_i - e_l from the witness flips the wall alone."""

    code = "ADJACENCY_NOT_FOUND"


class NotAdjacentError(HurwitzlabError):
    """Two chamber signatures differ somewhere other than the requested wall."""

    code = "NOT_ADJACENT"


class NotPolynomialError(HurwitzlabError):
    """A fit failed held-out validation or left the degree window."""

    code = "NOT_POLYNOMIAL"


class UnstableCaseError(HurwitzlabError):
    """Requested fit is known not to be polynomial (two-part genus zero)."""

    code = "UNSTABLE_CASE"


def count_argument(name: str, value, low: int | None = 0, error: type = ValueError) -> int:
    """value if it is an int, not a bool, and at least low (None: any int);
    else error, naming the argument."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise error(f"{name} must be an integer, got {value!r}")
    if low is not None and value < low:
        bound = {0: "nonnegative", 1: "positive"}.get(low, f"at least {low}")
        raise error(f"{name} must be {bound}, got {value}")
    return value
