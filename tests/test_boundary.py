"""Every public count argument is checked at the library boundary by one rule.

A count (genus, degree, budget, ...) is an ``int`` that is not a ``bool`` and
is at least some bound; ``errors.count_argument`` states the rule once.
``SWEEP`` lists every public count parameter with valid arguments around it.
The sweep feeds each one bad scalars (bools, floats, fractions, strings,
None, ints below the bound) and requires the rule's error, naming the
argument: never ``TypeError``, ``RecursionError``, another error or a
returned value.  The staleness test walks the public functions, methods and
validating constructors of the package; it requires each parameter annotated
``int`` or ``int | None`` to be swept (or exempt, with a reason), and each
swept parameter to reach ``count_argument``.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import re
from fractions import Fraction
from pathlib import Path
from typing import Callable, NamedTuple

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

import hurwitzlab  # noqa: E402
from hurwitzlab import cli, errors  # noqa: E402
from hurwitzlab.chambers import (  # noqa: E402
    ChamberWitness,
    Wall,
    chamber_nodes,
    walls,
)
from hurwitzlab.errors import InvalidProfileError  # noqa: E402
from hurwitzlab.exact import (  # noqa: E402
    MultiPoly,
    compositions,
    monomials_up_to_degree,
    newton_interpolate,
)
from hurwitzlab.hurwitz import (  # noqa: E402
    RamificationProfile,
    enumerate_profiles,
    enumeration_size,
    frobenius_connected,
    frobenius_disconnected,
    invariant_violation,
    oracle_count,
    simple_branch_count,
)
from hurwitzlab.identities import alternating_sum, beta_integral_exact  # noqa: E402
from hurwitzlab.piecewise import fit_chamber  # noqa: E402
from hurwitzlab.symgroup import Partition, partitions_of  # noqa: E402

PACKAGE = Path(hurwitzlab.__file__).resolve().parent
MODULES = [
    importlib.import_module(f"hurwitzlab.{path.stem}")
    for path in sorted(PACKAGE.glob("*.py"))
    if path.stem not in ("__init__", "__main__")
]


def _label(target) -> str:
    return f"{target.__module__.rsplit('.', 1)[-1]}.{target.__qualname__}"


class Row(NamedTuple):
    target: Callable
    parameter: str
    value: object  # a valid value of the parameter
    others: dict  # valid values of the other arguments the call needs
    named: str  # how the error names the argument
    low: int | None = 0  # the least valid value; None: every int is valid
    error: type = ValueError
    none_ok: bool = False
    place: Callable = lambda v: v  # the argument that carries the value

    @property
    def key(self) -> tuple[str, str]:
        return _label(self.target), self.parameter

    def call(self, value):
        return self.target(**self.others, **{self.parameter: self.place(value)})


PROFILE = RamificationProfile((2, 1, -3))
WITNESS = ChamberWitness.at(PROFILE)
# two parts, so that g=False is refused as a genus, not as the unstable g=0 case
FIT_WITNESS = ChamberWitness.at(RamificationProfile((1, -1)))
PAIR = {"alpha": Partition((2,)), "beta": Partition((1, 1))}
LINE = {"base": (1, -1), "steps": ((1, -1),), "value_at": lambda x: 1, "degree": 0}


def _without(others: dict, parameter: str) -> dict:
    return {k: v for k, v in others.items() if k != parameter}


def _pair(v):
    return (2, v)  # a bad element (wall index, part, entry) rides next to a good one


SWEEP = [
    Row(partitions_of, "d", 3, {}, "d"),
    Row(Partition, "parts", 2, {}, "part", low=1, place=_pair),
    Row(compositions, "total", 2, {"parts": 2}, "total"),
    Row(compositions, "parts", 2, {"total": 2}, "parts"),
    Row(monomials_up_to_degree, "num_vars", 2, {"degree": 2}, "num_vars"),
    Row(monomials_up_to_degree, "degree", 2, {"num_vars": 2}, "degree"),
    Row(MultiPoly, "n", 3, {}, "n", low=2),
    Row(MultiPoly, "terms", 1, {"n": 2}, "exponent", place=lambda v: {(v,): 1}),
    Row(newton_interpolate, "degree", 0, _without(LINE, "degree"), "degree"),
    Row(newton_interpolate, "base", -2, _without(LINE, "base"), "base entry", low=None,
        place=_pair),
    Row(newton_interpolate, "steps", -2, _without(LINE, "steps"), "step entry", low=None,
        place=lambda v: (_pair(v),)),
    Row(simple_branch_count, "g", 0, {"n": 3}, "genus", error=InvalidProfileError),
    Row(simple_branch_count, "n", 3, {"g": 0}, "n", error=InvalidProfileError),
    Row(enumeration_size, "d", 3, {"r": 1}, "d"),
    Row(enumeration_size, "r", 1, {"d": 3}, "r"),
    Row(oracle_count, "g", 0, {"profile": PROFILE}, "genus", error=InvalidProfileError),
    Row(oracle_count, "budget", 10, {"profile": PROFILE, "g": 0}, "budget", none_ok=True),
    Row(frobenius_connected, "g", 0, {"profile": PROFILE}, "genus", error=InvalidProfileError),
    Row(frobenius_disconnected, "r", 1, PAIR, "r"),
    Row(invariant_violation, "r", 1, {"profile": PROFILE, "value": Fraction(1)}, "r"),
    Row(enumerate_profiles, "n", 2, {"max_degree": 2}, "n"),
    Row(enumerate_profiles, "max_degree", 2, {"n": 2}, "max_degree"),
    Row(Wall, "indices", 3, {"n": 5}, "wall index", low=None, place=_pair),
    Row(Wall, "n", 5, {"indices": (2,)}, "n", low=2),
    Row(walls, "n", 3, {}, "n", low=2),
    Row(chamber_nodes, "degree", 2, {"witness": WITNESS}, "degree"),
    Row(fit_chamber, "g", 1, {"witness": FIT_WITNESS}, "genus", error=InvalidProfileError),
    Row(alternating_sum, "r", 5, {"r2": 2}, "r", low=2),
    Row(alternating_sum, "r2", 2, {"r": 5}, "r2", low=1),
    Row(beta_integral_exact, "r1", 2, {"r2": 3}, "r1", low=1),
    Row(beta_integral_exact, "r2", 3, {"r1": 2}, "r2", low=1),
    Row(cli.cache_key, "g", 0, {"profile": PROFILE}, "genus", error=InvalidProfileError),
]

# Public count parameters left out of the sweep, with the reason.
EXEMPT = {
    ("errors.count_argument", "low"): "the rule itself: its bound, set by each caller",
    ("symgroup.content_of_mask", "mask"): "a bead mask, not a count",
    ("symgroup.content_of_mask", "d"): (
        "runs once per shared key inside frobenius_disconnected, whose own degree "
        "and r pass the rule; a check here would be paid per key"
    ),
}


def _public_count_parameters() -> set[tuple[str, str]]:
    """(label, parameter) of every parameter annotated int or int | None of a
    public function, a public method, or the constructor of a public class
    with a hand-written __init__ or __post_init__: the other dataclasses are
    records that the package fills in itself."""
    targets = []
    for module in MODULES:
        for name, value in vars(module).items():
            if name.startswith("_") or getattr(value, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(inspect.unwrap(value)):
                targets.append(value)
            elif inspect.isclass(value):
                # a dataclass's __init__ is generated; its __post_init__ validates
                hand_written = "__post_init__" if dataclasses.is_dataclass(value) else "__init__"
                if hand_written in vars(value):
                    targets.append(value)
                targets.extend(
                    getattr(value, attr)
                    for attr, member in vars(value).items()
                    if not attr.startswith("_")
                    and (inspect.isfunction(member) or isinstance(member, classmethod))
                )
    return {
        (_label(target), parameter.name)
        for target in targets
        for parameter in inspect.signature(target).parameters.values()
        if parameter.annotation in ("int", "int | None")
    }


BAD = st.one_of(
    st.sampled_from((True, False, 2.0, Fraction(3), "2", None)),
    st.floats(),
    st.fractions(),
    st.text(max_size=3),
    st.integers(max_value=1),
)


@pytest.mark.parametrize("row", SWEEP, ids=[f"{r.key[0]}-{r.parameter}" for r in SWEEP])
@settings(max_examples=25, deadline=None)
@given(bad=BAD)
@example(bad=True)
@example(bad=False)
@example(bad=2.0)
@example(bad=1.5)
@example(bad=1.0)
@example(bad=Fraction(3))
@example(bad="2")
@example(bad=None)
@example(bad=-1)
@example(bad=0)
@example(bad=1)
def test_bad_count_argument_is_rejected(row, bad):
    is_int = isinstance(bad, int) and not isinstance(bad, bool)
    if is_int and (row.low is None or bad >= row.low) or bad is None and row.none_ok:
        return  # a valid value
    if is_int:
        wording = rf"^{re.escape(row.named)} must be [a-z0-9 ]+, got {bad}$"
    else:
        wording = f"^{re.escape(f'{row.named} must be an integer, got {bad!r}')}$"
    with pytest.raises(row.error, match=wording):
        row.call(bad)


class _Reached(Exception):
    pass


def test_every_public_count_parameter_is_swept_through_the_rule(monkeypatch):
    swept = [row.key for row in SWEEP]
    assert len(set(swept)) == len(swept), "a parameter is swept twice"
    assert sorted(_public_count_parameters() - set(swept) - set(EXEMPT)) == []

    # each swept parameter's valid value reaches count_argument by its name
    rule = errors.count_argument
    probe = None

    def recording_rule(name, value, *args, **kwargs):
        if (name, value) == probe:
            raise _Reached
        return rule(name, value, *args, **kwargs)

    for module in MODULES:
        if hasattr(module, "count_argument"):
            monkeypatch.setattr(module, "count_argument", recording_rule)
    unchecked = []
    for row in SWEEP:
        probe = (row.named, row.value)
        try:
            row.call(row.value)
        except _Reached:
            continue
        unchecked.append(f"{row.key[0]}({row.parameter})")
    assert unchecked == []


def test_walls_checks_its_argument_after_a_valid_call():
    assert walls(2) == (Wall((2,), 2),)
    for bad in (2.0, True):
        with pytest.raises(ValueError, match=f"^n must be an integer, got {bad!r}$"):
            walls(bad)
    # and keeps no memo: an untyped lru_cache would not serve walls(2.0) from
    # walls(2), as CPython keys a lone int argument by the int itself
    assert not hasattr(walls, "cache_info")
    assert walls(2) is not walls(2)


@pytest.mark.parametrize(
    "low, value, message",
    [
        (0, -1, "k must be nonnegative, got -1"),
        (1, 0, "k must be positive, got 0"),
        (2, 1, "k must be at least 2, got 1"),
        (0, True, "k must be an integer, got True"),
        (None, 2.0, "k must be an integer, got 2.0"),
    ],
)
def test_count_argument_wording(low, value, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        errors.count_argument("k", value, low)
    valid = -3 if low is None else low
    assert errors.count_argument("k", valid, low) == valid
