"""Command line front end, result cache, and self-test orchestration.

All values are printed as exact "p/q" strings inside JSON on stdout; notices
and structured errors go to stderr.  Exit codes: 0 success, 2 invalid input
or a point on a wall, 3 enumeration budget exceeded, 4 failed polynomial
validation, 5 no direction e_i - e_l (i in the wall set, l outside it) flips
the wall alone, 1 anything else.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import os
import random
import sys
import time
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Sequence

from . import __version__
from .chambers import ChamberWitness, Wall, adjacent_chamber
from .errors import HurwitzlabError, InvalidProfileError, count_argument
from .exact import MultiPoly, monomials_up_to_degree, newton_interpolate, poly_divmod
from .hurwitz import (
    DEFAULT_ORACLE_BUDGET,
    EnumerationStats,
    HurwitzResult,
    RamificationProfile,
    enumerate_profiles,
    frobenius_connected,
    frobenius_disconnected,
    invariant_violation,
    oracle_count,
    simple_branch_count,
)
from .identities import verify_identities
from .piecewise import fit_chamber, product_formula_report, wall_crossing
from .symgroup import partitions_of, z_lambda

DEFAULT_CACHE_PATH = "./hurwitz-cache.jsonl"
_METHODS = ("oracle", "frobenius", "both")

_EXIT_CODES = {
    "INVALID_PROFILE": 2,
    "NONZERO_SUM": 2,
    "ON_WALL": 2,
    "UNSTABLE_CASE": 2,
    "INVALID_ARGUMENT": 2,
    "BUDGET_EXCEEDED": 3,
    "SAMPLING_BUDGET_EXCEEDED": 3,
    "NOT_POLYNOMIAL": 4,
    "ADJACENCY_NOT_FOUND": 5,
}


def _emit(payload: dict, compact: bool) -> None:
    if compact:
        print(json.dumps(payload, separators=(",", ":")))
    else:
        print(json.dumps(payload, indent=2))


def _notice(message: str) -> None:
    print(message, file=sys.stderr)


def _emit_error(err: Exception, code: str | None = None) -> int:
    code = code or getattr(err, "code", "ERROR")
    payload = {"error": code, "detail": str(err)}
    wall = getattr(err, "wall", None)
    if wall is not None:
        payload["wall"] = list(wall.indices)
    print(json.dumps(payload), file=sys.stderr)
    return _EXIT_CODES.get(code, 1)


def _parse_profile(text: str) -> RamificationProfile:
    try:
        entries = tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise InvalidProfileError(f"cannot parse integer list {text!r}") from exc
    return RamificationProfile(entries)


def _parse_indices(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise ValueError(f"cannot parse index list {text!r}") from exc


# ---------------------------------------------------------------------------
# Result cache (append-only JSON lines; last record for a key wins)
# ---------------------------------------------------------------------------


def cache_key(g: int, profile: RamificationProfile) -> str:
    count_argument("genus", g, error=InvalidProfileError)
    alpha, beta = profile.sides()
    pos = ",".join(map(str, alpha.parts))
    neg = ",".join(str(-p) for p in beta.parts)
    return f"g={g};pos={pos};neg={neg}"


@contextlib.contextmanager
def _open_cache(path: str, mode: str):
    # an OSError on the cache file's open, read or write is invalid input
    try:
        with open(path, mode, encoding="utf-8") as handle:
            yield handle
    except OSError as err:
        raise ValueError(str(err)) from err


def cache_lookup(path: str, key: str) -> dict | None:
    if not os.path.exists(path):
        return None
    hit = None
    with _open_cache(path, "r") as handle:
        for line in handle:
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue  # tolerate a blank line or a torn trailing write
            if isinstance(record, dict) and record.get("key") == key:
                hit = record
    return hit


def cache_append(path: str, key: str, value: str, method: str) -> None:
    record = {
        "key": key,
        "value": value,
        "method": method,
        "version": __version__,
        "timestamp": time.time(),
    }
    with _open_cache(path, "a") as handle:
        handle.write(json.dumps(record) + "\n")
        handle.flush()


def _resolve_cache_path(args) -> str | None:
    if args.no_cache:
        return None
    if args.cache:
        return args.cache
    return os.environ.get("HURWITZ_CACHE", DEFAULT_CACHE_PATH)


# ---------------------------------------------------------------------------
# compute
# ---------------------------------------------------------------------------


def _cached_value(record: dict, profile: RamificationProfile, r: int) -> Fraction | None:
    """The record's value if it is str(v) of a Fraction v, as ``cache_append``
    writes it, its method is one that ``cache_append`` writes, and v passes
    the count invariants, else None after a notice: a damaged record, a JSON
    number or a value spelled "12.0" is never served."""
    try:
        value = Fraction(record.get("value"))
        if str(value) != record["value"]:
            raise ValueError("not the string cache_append writes")
    except (TypeError, ValueError, ZeroDivisionError):
        _notice(f"ignoring cache record for {record['key']}: unparsable value")
        return None
    if record.get("method") not in _METHODS:
        _notice(f"ignoring cache record for {record['key']}: unknown method")
        return None
    violation = invariant_violation(profile, r, value)
    if violation is not None:
        _notice(f"ignoring cache record for {record['key']}: {violation}")
        return None
    return value


def cmd_compute(args) -> int:
    profile = _parse_profile(args.x)
    g = args.g
    r = simple_branch_count(g, profile.n)
    path = _resolve_cache_path(args)
    key = cache_key(g, profile)
    record = cache_lookup(path, key) if path else None
    cached = _cached_value(record, profile, r) if record is not None else None

    if cached is not None and not args.verify:
        _notice(f"cache hit for {key}")
        stats = EnumerationStats(None, None, 0.0)
        hit = HurwitzResult(cached, g, r, record["method"], stats)
        _emit({**hit.to_json_dict(), "cached": True}, args.json)
        return 0

    if args.method == "frobenius":
        result = frobenius_connected(profile, g)
    else:
        result = oracle_count(profile, g, budget=args.budget)
    payload = result.to_json_dict()
    if args.method == "both":
        second = frobenius_connected(profile, g)
        if result.value != second.value:
            return _emit_error(
                AssertionError(
                    f"oracle gives {result.value}, character sum gives {second.value}"
                ),
                code="METHOD_MISMATCH",
            )
        stats = {"oracle": payload["stats"], "frobenius": asdict(second.stats)}
        payload.update(method="both", stats=stats)

    if cached is not None and cached != result.value:
        return _emit_error(
            AssertionError(f"cache holds {cached} but recomputation gives {result.value}"),
            code="CACHE_MISMATCH",
        )
    if path and cached is None:
        cache_append(path, key, payload["value"], payload["method"])
    _emit(payload, args.json)
    return 0


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------


def cmd_fit(args) -> int:
    witness = ChamberWitness.at(_parse_profile(args.x))
    _emit(fit_chamber(witness, args.g).to_json_dict(), args.json)
    return 0


# ---------------------------------------------------------------------------
# wallcross
# ---------------------------------------------------------------------------


def cmd_wallcross(args) -> int:
    witness = ChamberWitness.at(_parse_profile(args.x))
    requested = _parse_indices(args.wall)
    wall = Wall(requested, witness.point.n)
    if tuple(sorted(set(requested))) != wall.indices:
        _notice(f"normalized wall [{args.wall}] to canonical representative {wall}")

    # before any fit, so that a wall with no chamber across it exits 5 at once
    other = adjacent_chamber(witness, wall)
    crossing = wall_crossing(fit_chamber(witness, args.g), fit_chamber(other, args.g), wall)
    payload = crossing.to_json_dict()

    quotient, remainder = poly_divmod(crossing.polynomial, wall.form())
    if remainder.is_zero and not crossing.polynomial.is_zero:
        pretty = " + ".join(f"x{i}" for i in wall.indices)
        payload["factored"] = f"({pretty}) * ({quotient})"

    if args.g == 0 and len(wall.indices) in (1, wall.n - 1):
        # one block is (x_i, -delta) up to sign, whose count 1/delta is unstable
        _notice(f"no product formula on edge wall {wall}: one block has two parts")
    elif args.g == 0:
        positive_side = (
            witness if wall.subset_sum(witness.point.x) > 0 else other
        )
        point = positive_side.point
        # crossing value oriented as (positive side) - (negative side)
        oriented = crossing.polynomial.evaluate(point.x)
        if positive_side is witness:
            oriented = -oriented
        report = product_formula_report(wall, point)
        payload["product_formula"] = {
            "point": list(point.x),
            "wc_value": str(oriented),
            "conventions": {name: str(v) for name, v in report.items()},
            "matching": [name for name, v in report.items() if v == oriented],
        }
    _emit(payload, args.json)
    return 0


# ---------------------------------------------------------------------------
# selftest
# ---------------------------------------------------------------------------


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str


_IDENTITY_R_MAX = 30


def _check_identities() -> tuple[bool, str]:
    report = verify_identities(_IDENTITY_R_MAX)
    detail = f"{report.cases} cases up to r={_IDENTITY_R_MAX}; failures: {list(report.failures)}"
    return report.ok, detail


_GRID_MAX_D = 4


def _check_grid() -> tuple[bool, str]:
    cases = 0
    for n in (2, 3, 4):
        for profile in enumerate_profiles(n, _GRID_MAX_D):
            for g in (0, 1):
                a = oracle_count(profile, g).value
                b = frobenius_connected(profile, g).value
                if a != b:
                    return False, f"mismatch at {profile}, g={g}: {a} vs {b}"
                cases += 1
    return True, f"{cases} profile/genus cases agree exactly (d <= {_GRID_MAX_D}, n <= 4)"


_EXAMPLE_TARGETS = (
    ((7, 1, -2, -3, -3), 0, Fraction(294)),
    ((9, 4, -5, -5, -3), 0, Fraction(540)),
)


def _check_examples() -> tuple[bool, str]:
    for entries, g, expected in _EXAMPLE_TARGETS:
        profile = RamificationProfile(entries)
        by_oracle = oracle_count(profile, g).value
        by_characters = frobenius_connected(profile, g).value
        if by_oracle != expected or by_characters != expected:
            return False, (
                f"H_{g}{profile} gave oracle={by_oracle}, "
                f"characters={by_characters}, expected {expected}"
            )
    return True, "H_0(7,1,-2,-3,-3)=294 and H_0(9,4,-5,-5,-3)=540 by both methods"


def _check_symmetry() -> tuple[bool, str]:
    bases = [(1, 2, -3), (2, -1, -1), (3, 1, -2, -2)]
    cases = 0
    for base in bases:
        for g in (0, 1):
            reference = None
            for perm in sorted(set(itertools.permutations(base))):
                profile = RamificationProfile(perm)
                value = oracle_count(profile, g).value
                if reference is None:
                    reference = value
                elif value != reference:
                    return False, f"H_{g}{profile} = {value} != {reference}"
                cases += 1
    return True, f"{cases} relabeled evaluations invariant"


_ORTHOGONALITY_MAX_D = 8


def _check_orthogonality() -> tuple[bool, str]:
    # at r = 0 every content power is 1, so the disconnected character sum
    # is sum_lambda chi_lambda(mu) chi_lambda(nu), read on the column keys
    for d in range(1, _ORTHOGONALITY_MAX_D + 1):
        classes = list(partitions_of(d))
        for a, mu in enumerate(classes):
            for nu in classes[a:]:
                total = frobenius_disconnected(mu, nu, 0)
                expected = z_lambda(mu) if mu == nu else 0
                if total != expected:
                    return False, (
                        f"sum chi(mu) chi(nu) on classes {mu}, {nu} is {total}, "
                        f"expected {expected}"
                    )
    return True, f"all pairs of classes up to d={_ORTHOGONALITY_MAX_D}"


def _check_interpolation_roundtrip() -> tuple[bool, str]:
    rng = random.Random(20240901)
    # the last case has det < 0 and an odd degree, so det^D < 0
    for n, degree, sign in ((2, 3, 1), (3, 2, 1), (4, 2, 1), (3, 3, -1)):
        m = n - 1
        monos = monomials_up_to_degree(m, degree)
        terms = {
            exps: Fraction(rng.randint(-6, 6), 2 ** rng.randint(0, 2)) for exps in monos
        }
        # with this constant no value is an integer
        terms[(0,) * m] = Fraction(1, 3)
        poly = MultiPoly(n, terms)
        # free coordinates 2 on the diagonal and 1 above it: determinant 2^m,
        # so the substitution back to x has true fractions; sign -1 negates
        # the first step and the determinant
        frees = [
            tuple(2 if j == i else 1 if j > i else 0 for j in range(m)) for i in range(m)
        ]
        frees[0] = tuple(sign * c for c in frees[0])
        steps = [free + (-sum(free),) for free in frees]
        base = (3,) + (-1,) * (m - 1)
        base += (-sum(base),)
        refit = newton_interpolate(base, steps, poly.evaluate, degree)
        if refit != poly:
            return False, f"n={n}, degree {degree}, det sign {sign}: {refit} != {poly}"
    return True, "random polynomials recovered exactly"


def run_selftest() -> tuple[bool, list[CheckResult]]:
    checks = (
        ("crossing sign identities", _check_identities),
        ("oracle vs character sum", _check_grid),
        ("documented example values", _check_examples),
        ("relabeling symmetry", _check_symmetry),
        ("character column orthogonality", _check_orthogonality),
        ("interpolation round trip", _check_interpolation_roundtrip),
    )
    results = []
    for name, check in checks:
        ok, detail = check()
        _notice(f"[{'ok' if ok else 'FAIL'}] {name}: {detail}")
        results.append(CheckResult(name, ok, detail))
    return all(r.ok for r in results), results


def cmd_selftest(args) -> int:
    ok, results = run_selftest()
    _emit({"ok": ok, "checks": [asdict(r) for r in results]}, args.json)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hurwitzlab",
        description=(
            "Exact double Hurwitz numbers, chamber polynomials, and wall crossings."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, needs_profile: bool = True) -> None:
        if needs_profile:
            p.add_argument("-g", type=int, required=True, help="genus (nonnegative)")
            p.add_argument(
                "-x",
                "--profile",
                dest="x",
                required=True,
                help=(
                    "comma separated integers summing to zero, e.g. 7,1,-2,-3,-3 "
                    "(use --profile=-1,3,-2 when the first entry is negative)"
                ),
            )
        p.add_argument(
            "--json", action="store_true", help="compact single-line JSON output"
        )

    compute = sub.add_parser("compute", help="compute one double Hurwitz number")
    add_common(compute)
    compute.add_argument(
        "--method",
        choices=_METHODS,
        default="frobenius",
        help="evaluation route (default: frobenius)",
    )
    compute.add_argument(
        "--budget",
        type=int,
        default=DEFAULT_ORACLE_BUDGET,
        help="largest oracle tuple space C(d,2)^r allowed (it bounds the size, not the work)",
    )
    compute.add_argument("--cache", help="cache file path (JSON lines)")
    compute.add_argument(
        "--no-cache", action="store_true", help="bypass the result cache"
    )
    compute.add_argument(
        "--verify",
        action="store_true",
        help="recompute even on a cache hit and require agreement",
    )
    compute.set_defaults(func=cmd_compute)

    fit = sub.add_parser("fit", help="fit the chamber polynomial at a witness")
    add_common(fit)
    fit.set_defaults(func=cmd_fit)

    wallcross = sub.add_parser(
        "wallcross", help="wall-crossing polynomial across a resonance wall"
    )
    add_common(wallcross)
    wallcross.add_argument(
        "--wall",
        required=True,
        help="comma separated wall indices, either representative, e.g. 2,5",
    )
    wallcross.set_defaults(func=cmd_wallcross)

    selftest = sub.add_parser("selftest", help="run the built-in verification suite")
    add_common(selftest, needs_profile=False)
    selftest.set_defaults(func=cmd_selftest)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except HurwitzlabError as err:
        return _emit_error(err)
    except ValueError as err:
        return _emit_error(err, code="INVALID_ARGUMENT")


if __name__ == "__main__":
    raise SystemExit(main())
