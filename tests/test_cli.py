"""End-to-end tests of the command line interface.

Each case runs the package from this source tree in a subprocess and checks
stdout JSON, stderr notices, and exit codes.
"""

from __future__ import annotations

import dataclasses
import errno
import json
import math
import os
import subprocess
import sys

import pytest

_BASE = [sys.executable, "-m", "hurwitzlab"]
_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _env(env_extra: dict | None = None) -> dict:
    env = os.environ.copy()
    # the source tree first, so an uninstalled checkout runs too
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, env.get("PYTHONPATH"))))
    env.update(env_extra or {})
    return env


def _run(*args: str, env_extra: dict | None = None) -> subprocess.CompletedProcess:
    return subprocess.run(
        _BASE + list(args), capture_output=True, text=True, env=_env(env_extra), timeout=600
    )


def _stdout_json(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout)


def _stderr_json(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stderr.strip().splitlines()[-1])


# -- compute -----------------------------------------------------------------


def test_compute_example_both_methods(tmp_path):
    proc = _run(
        "compute", "-g", "0", "-x", "7,1,-2,-3,-3", "--method", "both", "--no-cache"
    )
    assert proc.returncode == 0
    payload = _stdout_json(proc)
    assert payload["value"] == "294"
    assert payload["r"] == 3
    assert payload["method"] == "both"
    assert payload["stats"]["oracle"]["tuples_examined"] == 14749
    assert payload["stats"]["oracle"]["tuples_accepted"] == 1029


def test_compute_trivial_cover():
    proc = _run("compute", "-g", "0", "-x", "1,-1", "--no-cache")
    assert proc.returncode == 0
    assert _stdout_json(proc)["value"] == "1"


def test_compute_rejects_nonzero_sum():
    proc = _run("compute", "-g", "0", "-x", "1,1,-1", "--no-cache")
    assert proc.returncode == 2
    assert _stderr_json(proc)["error"] == "INVALID_PROFILE"


def test_compute_budget_exceeded():
    proc = _run(
        "compute",
        "-g",
        "0",
        "-x",
        "9,4,-5,-5,-3",
        "--method",
        "oracle",
        "--budget",
        "1000",
        "--no-cache",
    )
    assert proc.returncode == 3
    assert _stderr_json(proc)["error"] == "BUDGET_EXCEEDED"


def test_compute_oracle_walks_deep_trivial_counts(capsys):
    # at d = 2 the class walk holds one class per factor, and a walk of
    # r = 2g factors has no depth limit
    from hurwitzlab import cli

    for g, method in ((500, "oracle"), (5000, "oracle"), (500, "frobenius")):
        argv = ["compute", "-g", str(g), "-x", "2,-2", "--no-cache", "--json"]
        code = cli.main(argv + ["--method", method])
        out, err = capsys.readouterr()
        assert (code, json.loads(out)["value"], err) == (0, "1/2", "")


def test_compute_reaches_fourteen_simple_points_on_each_side(capsys):
    # Hurwitz's genus-0 formula at (1^14, -1^14): (2d-2)! d^(d-3) d!, d = 14
    from hurwitzlab import cli

    profile = ",".join(["1"] * 14 + ["-1"] * 14)
    argv = ["compute", "-g", "0", f"--profile={profile}", "--no-cache", "--json"]
    assert cli.main(argv) == 0
    value = json.loads(capsys.readouterr().out)["value"]
    assert value == "142375666889904451297147822159994322891571200000000"
    assert int(value) == math.factorial(26) * 14**11 * math.factorial(14)


def test_compute_fractional_value():
    proc = _run("compute", "-g", "0", "-x", "2,-2", "--no-cache")
    assert proc.returncode == 0
    assert _stdout_json(proc)["value"] == "1/2"


def test_compute_deterministic_output_modulo_timing():
    args = (
        "compute", "-g", "0", "-x", "2,1,-3", "--no-cache", "--json",
        "--method", "frobenius",
    )
    first, second = _run(*args), _run(*args)
    assert first.returncode == second.returncode == 0

    def scrub(raw: str) -> dict:
        payload = json.loads(raw)
        payload["stats"].pop("elapsed_seconds")
        return payload

    assert scrub(first.stdout) == scrub(second.stdout)


# -- cache ---------------------------------------------------------------------


def test_cache_round_trip(tmp_path):
    cache = str(tmp_path / "cache.jsonl")
    args = ("compute", "-g", "0", "-x", "7,1,-2,-3,-3", "--cache", cache)
    cold = _run(*args)
    assert cold.returncode == 0
    assert os.path.exists(cache)
    record = json.loads(open(cache).read().splitlines()[-1])
    assert record["key"] == "g=0;pos=7,1;neg=-3,-3,-2"
    assert record["value"] == "294"

    warm = _run(*args)
    assert warm.returncode == 0
    assert _stdout_json(warm)["value"] == "294"
    assert _stdout_json(warm).get("cached") is True
    assert "cache hit" in warm.stderr

    verified = _run(*args, "--verify")
    assert verified.returncode == 0
    assert _stdout_json(verified)["value"] == "294"
    assert _stdout_json(verified).get("cached") is None


@pytest.mark.parametrize("where", ["directory", "missing-parent", "dot"])
def test_cache_path_that_cannot_be_opened_exits_2(tmp_path, where):
    # a directory fails on lookup, a missing parent on the append after the count
    cache = {
        "directory": str(tmp_path),
        "missing-parent": str(tmp_path / "absent" / "c.jsonl"),
        "dot": ".",
    }[where]
    proc = _run("compute", "-g", "0", "-x", "3,-1,-2", "--cache", cache)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert len(proc.stderr.splitlines()) == 1
    code = errno.ENOENT if where == "missing-parent" else errno.EISDIR
    detail = f"[Errno {code}] {os.strerror(code)}: {cache!r}"
    assert _stderr_json(proc) == {"error": "INVALID_ARGUMENT", "detail": detail}


def test_closed_stdout_is_not_invalid_input():
    # the reader closes its end before the fit is printed, so the write fails
    proc = subprocess.Popen(
        _BASE + ["fit", "-g", "1", "-x", "3,1,-2,-2", "--json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=_env(),
    )
    proc.stdout.close()
    stderr = proc.stderr.read()
    assert proc.wait(timeout=600) == 1
    assert "INVALID_ARGUMENT" not in stderr
    assert "BrokenPipeError" in stderr


def test_cache_verify_appends_only_on_miss(tmp_path):
    cache = tmp_path / "cache.jsonl"
    for _ in range(3):
        proc = _run(
            "compute", "-g", "0", "-x", "3,1,-2,-2", "--verify", "--cache", str(cache)
        )
        assert proc.returncode == 0
    assert len(cache.read_text().splitlines()) == 1


def test_cache_skips_blank_torn_and_non_object_lines(tmp_path, capsys):
    from hurwitzlab import cli

    # every line but the two records is skipped, and the later record wins
    key = "g=0;pos=7,1;neg=-3,-3,-2"
    records = [
        json.dumps({"key": key, "value": v, "method": "frobenius"}) for v in ("294", "300")
    ]
    torn = f'{{"key": "{key}", "va'
    cache = tmp_path / "cache.jsonl"
    cache.write_text("\n".join(["", "  ", "[1, 2]", '"text"', "null", *records, torn]))
    argv = ["compute", "-g", "0", "-x", "7,1,-2,-3,-3", "--cache", str(cache), "--json"]
    assert cli.main(argv) == 0
    out, err = capsys.readouterr()
    payload = json.loads(out)
    assert (payload["value"], payload["cached"]) == ("300", True)
    assert err == f"cache hit for {key}\n"


# unparsable; negative; parses but is not integral (1/3 times the product 2
# of the positive parts); nonzero for a degree-1 cover with branch points; a
# right value under a method that cache_append never writes, or under none
# (method None leaves the field out)
@pytest.mark.parametrize(
    "g, x, key, bad_value, method, reason, count",
    [
        ("0", "2,-1,-1", "g=0;pos=2;neg=-1,-1", "banana", "frobenius", "unparsable", "1"),
        ("0", "2,-1,-1", "g=0;pos=2;neg=-1,-1", "-1", "frobenius", "negative", "1"),
        ("0", "2,-1,-1", "g=0;pos=2;neg=-1,-1", "1/3", "frobenius", "integrality", "1"),
        (
            "1", "1,-1", "g=1;pos=1;neg=-1", "5", "frobenius",
            "degree-1 cover with r=2 must count 0, got 5", "0",
        ),
        (
            "0", "7,1,-2,-3,-3", "g=0;pos=7,1;neg=-3,-3,-2", "294", {"x": 1},
            "unknown method", "294",
        ),
        (
            "0", "7,1,-2,-3,-3", "g=0;pos=7,1;neg=-3,-3,-2", "294", None,
            "unknown method", "294",
        ),
    ],
    ids=["banana", "-1", "1/3", "degree-1", "method-object", "no-method"],
)
def test_cache_damaged_record_is_recomputed(
    tmp_path, g, x, key, bad_value, method, reason, count
):
    cache = tmp_path / "cache.jsonl"
    record = {"key": key, "value": bad_value, "method": method}
    if method is None:
        del record["method"]
    cache.write_text(json.dumps(record) + "\n")
    proc = _run("compute", "-g", g, "-x", x, "--cache", str(cache))
    assert proc.returncode == 0
    payload = _stdout_json(proc)
    assert (payload["value"], payload["method"]) == (count, "frobenius")
    assert "cached" not in payload
    assert f"ignoring cache record for {key}: {reason}" in proc.stderr
    # the recomputed value is appended, so the next lookup is a hit
    appended = json.loads(cache.read_text().splitlines()[-1])
    assert (appended["value"], appended["method"]) == (count, "frobenius")


def test_cache_mismatch_on_verify_exits_1(tmp_path, capsys):
    from hurwitzlab import cli

    # a well-formed record that passes the invariants, but not the count 6
    cache = tmp_path / "cache.jsonl"
    record = {"key": "g=0;pos=3,1;neg=-2,-2", "value": "7", "method": "frobenius"}
    cache.write_text(json.dumps(record) + "\n")
    argv = ["compute", "-g", "0", "-x", "3,1,-2,-2", "--verify", "--cache", str(cache)]
    assert cli.main(argv) == 1
    out, err = capsys.readouterr()
    detail = "cache holds 7 but recomputation gives 6"
    assert (out, err) == ("", f'{{"error": "CACHE_MISMATCH", "detail": "{detail}"}}\n')
    assert len(cache.read_text().splitlines()) == 1


def test_method_mismatch_exits_1(monkeypatch, capsys):
    from hurwitzlab import cli

    real = cli.frobenius_connected

    def off_by_one(profile, g):
        result = real(profile, g)
        return dataclasses.replace(result, value=result.value + 1)

    monkeypatch.setattr(cli, "frobenius_connected", off_by_one)
    argv = ["compute", "-g", "0", "-x", "3,1,-2,-2", "--method", "both", "--no-cache"]
    assert cli.main(argv) == 1
    out, err = capsys.readouterr()
    detail = "oracle gives 6, character sum gives 7"
    assert (out, err) == ("", f'{{"error": "METHOD_MISMATCH", "detail": "{detail}"}}\n')


# JSON values that cache_append never writes: a boolean, a number, and a
# string that parses but is not str() of its Fraction
@pytest.mark.parametrize(
    "x, key, stored, count",
    [
        ("3,-1,-1,-1", "g=0;pos=3;neg=-1,-1,-1", True, "6"),
        ("2,1,-1,-1,-1", "g=0;pos=2,1;neg=-1,-1,-1", 12.0, "24"),
        ("2,1,-1,-1,-1", "g=0;pos=2,1;neg=-1,-1,-1", "12.0", "24"),
    ],
    ids=["true", "number", "decimal-string"],
)
@pytest.mark.parametrize("verify", [(), ("--verify",)], ids=["lookup", "verify"])
def test_cache_serves_only_the_strings_it_writes(
    tmp_path, capsys, x, key, stored, count, verify
):
    from hurwitzlab import cli

    cache = tmp_path / "cache.jsonl"
    record = {"key": key, "value": stored, "method": "frobenius"}
    cache.write_text(json.dumps(record) + "\n")
    argv = ["compute", "-g", "0", f"--profile={x}", "--cache", str(cache), "--json"]
    assert cli.main(argv + list(verify)) == 0
    out, err = capsys.readouterr()
    payload = json.loads(out)
    assert (payload["value"], "cached" in payload) == (count, False)
    assert err == f"ignoring cache record for {key}: unparsable value\n"
    # recomputed and appended, so the next lookup is served the count
    assert json.loads(cache.read_text().splitlines()[-1])["value"] == count


def test_cache_skips_lines_that_are_not_records(tmp_path):
    cache = tmp_path / "cache.jsonl"
    cache.write_text("[1]\n5\n")
    proc = _run("compute", "-g", "0", "-x", "2,1,-3", "--cache", str(cache))
    assert proc.returncode == 0
    assert _stdout_json(proc)["value"] == "1"


def test_cache_env_var(tmp_path):
    cache = str(tmp_path / "env-cache.jsonl")
    proc = _run(
        "compute", "-g", "0", "-x", "1,1,-2",
        env_extra={"HURWITZ_CACHE": cache},
    )
    assert proc.returncode == 0
    assert os.path.exists(cache)


@pytest.mark.parametrize("source", ["option", "env", "no-cache"])
def test_empty_cache_path_disables_the_cache(tmp_path, source):
    # run in an empty directory, where the default path would create a file;
    # --no-cache is the empty path too, so all three print the same payload
    env = _env({"HURWITZ_CACHE": ""} if source == "env" else None)
    if source != "env":
        env.pop("HURWITZ_CACHE", None)
    extra = {"option": ["--cache", ""], "env": [], "no-cache": ["--no-cache"]}[source]
    payload = f'{{"value":"1","g":0,"r":1,"method":"frobenius","stats":{_FROBENIUS_STATS}}}'
    for _ in range(2):
        proc = subprocess.run(
            _BASE + ["compute", "-g", "0", "-x", "3,-1,-2", "--json", *extra],
            capture_output=True, text=True, env=env, cwd=tmp_path, timeout=600,
        )
        assert proc.returncode == 0
        assert (_without_elapsed(proc.stdout), proc.stderr) == (payload, "")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "flags, written",
    [
        (["--cache", "c.jsonl", "--no-cache"], []),
        (["--no-cache", "--cache", "c.jsonl"], ["c.jsonl"]),
    ],
    ids=["no-cache-last", "cache-last"],
)
def test_the_later_cache_flag_wins(tmp_path, monkeypatch, flags, written):
    from hurwitzlab import cli

    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("HURWITZ_CACHE", raising=False)
    assert cli.main(["compute", "-g", "0", "-x", "3,-1,-2", *flags]) == 0
    assert [p.name for p in tmp_path.iterdir()] == written


# -- fit --------------------------------------------------------------------------


def test_fit_first_example_chamber():
    proc = _run("fit", "-g", "0", "-x", "7,1,-2,-3,-3")
    assert proc.returncode == 0
    payload = _stdout_json(proc)
    assert payload["display"] == "6*x1^2"
    assert payload["polynomial"]["terms"] == {"2,0,0,0": "6"}
    assert payload["signature"].count("+") == 1
    assert len(payload["validation"]) == 5


def test_fit_scaled_example_chamber():
    # the documented witness times 100000 fits to the same polynomial and
    # validation; only the witness in the output differs
    here = _run("fit", "-g", "0", "-x", "7,1,-2,-3,-3", "--json")
    there = _run("fit", "-g", "0", "-x", "700000,100000,-200000,-300000,-300000", "--json")
    assert here.returncode == there.returncode == 0
    payload = _stdout_json(there)
    assert payload.pop("witness") == [700000, 100000, -200000, -300000, -300000]
    expected = _stdout_json(here)
    expected.pop("witness")
    assert payload == expected


def test_fit_on_wall_point_rejected():
    proc = _run("fit", "-g", "0", "-x", "4,1,-1,-1,-3")
    assert proc.returncode == 2
    err = _stderr_json(proc)
    assert err["error"] == "ON_WALL"
    assert err["wall"] == [2, 3]


def test_fit_genus_one_cubic():
    proc = _run("fit", "-g", "1", "-x", "1,-1")
    assert proc.returncode == 0
    payload = _stdout_json(proc)
    assert payload["display"] == "1/12*x1^3 - 1/12*x1"
    assert payload["degree_bound"] == 3


def test_fit_runs_the_spot_checks_of_a_large_fit():
    # both spot checks, at (1,1,1,1,1,1,-6) and at a degree-7 node, face more
    # than C(6,2)^7 = 170859375 tuples, and run with no notice
    proc = _run("fit", "-g", "1", "-x", "32,16,8,4,2,1,-63", "--json")
    assert proc.returncode == 0
    assert proc.stderr == ""
    payload = _stdout_json(proc)
    assert set(payload) == {
        "witness", "signature", "g", "degree_bound", "polynomial", "display", "validation"
    }
    assert payload["polynomial"]["terms"]["8,0,0,0,0,0"] == "210"


def test_fit_seven_part_witness_within_the_default_budget():
    proc = _run("fit", "-g", "0", "--profile=-8,-1,-9,2,3,-9,22", "--json")
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert _stdout_json(proc)["degree_bound"] == 4


@pytest.mark.parametrize(
    "extra", [("compute", "--no-cache"), ("fit",)], ids=["compute", "fit"]
)
def test_negative_genus_rejected(extra):
    proc = _run(*extra, "-g", "-1", "-x", "7,1,-2,-3,-3")
    assert proc.returncode == 2
    assert _stderr_json(proc)["error"] == "INVALID_PROFILE"


def test_fit_two_part_genus_zero_refused():
    proc = _run("fit", "-g", "0", "-x", "1,-1")
    assert proc.returncode == 2
    assert _stderr_json(proc)["error"] == "UNSTABLE_CASE"


# -- wallcross ----------------------------------------------------------------------


def test_wallcross_example_pair():
    proc = _run("wallcross", "-g", "0", "-x", "7,1,-2,-3,-3", "--wall", "2,5")
    assert proc.returncode == 0
    payload = _stdout_json(proc)
    assert payload["wall"] == [2, 5]
    assert payload["polynomial"]["terms"] == {
        "2,0,0,0": "-6",
        "1,0,1,0": "-6",
        "1,0,0,1": "-6",
    }
    assert payload["factored"] == "(x2 + x5) * (6*x1)"
    formula = payload["product_formula"]
    assert formula["matching"] == ["C(r,r1)"]
    assert formula["conventions"]["C(r,r1)"] == formula["wc_value"]


def test_wallcross_normalizes_complement_input():
    proc = _run("wallcross", "-g", "0", "-x", "7,1,-2,-3,-3", "--wall", "1,3,4")
    assert proc.returncode == 0
    assert "normalized wall" in proc.stderr
    assert _stdout_json(proc)["wall"] == [2, 5]


@pytest.mark.parametrize(
    "args, detail",
    [
        (("wallcross", "--wall", "9"), "wall indices out of range 1..5: (9,)"),
        (("wallcross", "--wall", "2,x"), "cannot parse index list '2,x'"),
        (("wallcross", "--wall", "1,6"), "wall indices out of range 1..5: (1, 6)"),
        (("wallcross", "--wall", "1,0"), "wall indices out of range 1..5: (0, 1)"),
    ],
    ids=[
        "wallcross-wall",
        "wallcross-wall-text",
        "wallcross-wall-1-6",
        "wallcross-wall-1-0",
    ],
)
def test_invalid_argument_exits_2(args, detail):
    proc = _run(args[0], "-g", "0", "-x", "7,1,-2,-3,-3", *args[1:])
    assert proc.returncode == 2
    assert _stderr_json(proc) == {"error": "INVALID_ARGUMENT", "detail": detail}
    assert "normalized wall" not in proc.stderr


def test_wallcross_adjacency_not_found():
    proc = _run("wallcross", "-g", "0", "--profile=-1,3,-2", "--wall", "2")
    assert proc.returncode == 5
    assert _stderr_json(proc)["error"] == "ADJACENCY_NOT_FOUND"


def test_wallcross_adjacency_not_found_fits_nothing(monkeypatch, capsys):
    from hurwitzlab import cli

    fits = []
    real = cli.fit_chamber

    def counted(*args, **kwargs):
        fits.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "fit_chamber", counted)
    argv = ["wallcross", "-g", "1", "-x", "6,9,6,6,-27", "--wall", "3,5"]
    assert cli.main(argv) == 5
    assert json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"] == (
        "ADJACENCY_NOT_FOUND"
    )
    assert fits == []


@pytest.mark.parametrize(
    "command", [("fit",), ("wallcross", "--wall", "2,5")], ids=["fit", "wallcross"]
)
def test_node_budget_exceeded_exits_3(monkeypatch, capsys, command):
    from hurwitzlab import chambers, cli

    monkeypatch.setattr(chambers, "NODE_BUDGET", 10)
    argv = [command[0], "-g", "0", "-x", "7,1,-2,-3,-3", *command[1:]]
    assert cli.main(argv) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == json.dumps(
        {"error": "SAMPLING_BUDGET_EXCEEDED", "detail": "node search exceeded 10 candidate checks"}
    ) + "\n"


# -- selftest --------------------------------------------------------------------------


def test_selftest_reduced_grid_passes():
    proc = _run("selftest", "--json")
    assert proc.returncode == 0
    payload = _stdout_json(proc)
    assert payload["ok"] is True
    names = {check["name"] for check in payload["checks"]}
    assert "oracle vs character sum" in names
    assert "documented example values" in names


def test_selftest_mutated_normalization_fails(monkeypatch, capsys):
    # a broken labeled normalization: the character route counts twice
    from hurwitzlab import cli

    real = cli.frobenius_connected

    def doubled(profile, g):
        result = real(profile, g)
        return dataclasses.replace(result, value=2 * result.value)

    monkeypatch.setattr(cli, "frobenius_connected", doubled)
    assert cli.main(["selftest", "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is False
    bad = [c for c in payload["checks"] if not c["ok"]]
    assert any(c["name"] == "documented example values" for c in bad)


def _one_too_high(real, x, g):
    """real, with its value one higher at profile x and genus g."""

    def patched(profile, genus):
        result = real(profile, genus)
        if profile.x == x and genus == g:
            return dataclasses.replace(result, value=result.value + 1)
        return result

    return patched


def test_selftest_grid_reports_a_mismatch(monkeypatch):
    from hurwitzlab import cli

    assert cli._check_grid()[0]
    patched = _one_too_high(cli.frobenius_connected, (1, -1), 1)
    monkeypatch.setattr(cli, "frobenius_connected", patched)
    assert cli._check_grid() == (False, "mismatch at (1,-1), g=1: 0 vs 1")


def test_selftest_symmetry_reports_the_profile(monkeypatch):
    from hurwitzlab import cli

    assert cli._check_symmetry()[0]
    monkeypatch.setattr(cli, "oracle_count", _one_too_high(cli.oracle_count, (2, 1, -3), 0))
    assert cli._check_symmetry() == (False, "H_0(2,1,-3) = 2 != 1")


def test_selftest_orthogonality_reads_the_keys(monkeypatch):
    # one-part columns with their values moved to the next key keep every
    # sum of squares, so only the cross-column sums can see the fault
    from hurwitzlab import cli, hurwitz

    real = hurwitz.character_column

    def shifted(mu):
        column = real(mu)
        if len(mu.parts) != 1:
            return column
        keys = sorted(column)
        return {key: column[moved] for key, moved in zip(keys, keys[1:] + keys[:1])}

    assert cli._check_orthogonality()[0]
    monkeypatch.setattr(hurwitz, "character_column", shifted)
    ok, detail = cli._check_orthogonality()
    assert not ok
    assert detail == "sum chi(mu) chi(nu) on classes (3), (2,1) is 2, expected 0"


# -- in-process contract details ---------------------------------------------------


def test_subcommand_options_are_pinned():
    import argparse

    from hurwitzlab import cli

    (subcommands,) = [
        action for action in cli.build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    options = {
        name: [
            "/".join(action.option_strings)
            for action in parser._actions
            if action.dest != "help"
        ]
        for name, parser in subcommands.choices.items()
    }
    common = ["-g", "-x/--profile", "--json"]
    assert options == {
        "compute": [*common, "--method", "--budget", "--cache", "--no-cache", "--verify"],
        "fit": common,
        "wallcross": [*common, "--wall"],
        "selftest": ["--json"],
    }


def _without_elapsed(raw: str) -> str:
    """The payload with every elapsed_seconds removed, re-serialized in its
    own key order, so that a comparison pins the order too."""

    def scrub(value):
        if isinstance(value, dict):
            return {k: scrub(v) for k, v in value.items() if k != "elapsed_seconds"}
        return value

    return json.dumps(scrub(json.loads(raw)), separators=(",", ":"))


_FROBENIUS_STATS = '{"tuples_examined":null,"tuples_accepted":null}'
_ORACLE_STATS = '{"tuples_examined":33,"tuples_accepted":9}'
_HIT_NOTICE = "cache hit for g=0;pos=3,1;neg=-2,-2\n"
_COMPUTE_PAYLOADS = [
    # a miss, a hit and a verified hit on one cache file, then both methods
    (
        ("--cache", "cache.jsonl"),
        f'{{"value":"6","g":0,"r":2,"method":"frobenius","stats":{_FROBENIUS_STATS}}}',
        "",
    ),
    (
        ("--cache", "cache.jsonl"),
        '{"value":"6","g":0,"r":2,"method":"frobenius",'
        f'"stats":{_FROBENIUS_STATS},"cached":true}}',
        _HIT_NOTICE,
    ),
    (
        ("--cache", "cache.jsonl", "--verify"),
        f'{{"value":"6","g":0,"r":2,"method":"frobenius","stats":{_FROBENIUS_STATS}}}',
        "",
    ),
    (
        ("--method", "both", "--no-cache"),
        '{"value":"6","g":0,"r":2,"method":"both",'
        f'"stats":{{"oracle":{_ORACLE_STATS},"frobenius":{_FROBENIUS_STATS}}}}}',
        "",
    ),
    (
        ("--method", "oracle", "--no-cache"),
        f'{{"value":"6","g":0,"r":2,"method":"oracle","stats":{_ORACLE_STATS}}}',
        "",
    ),
]


def test_compute_payloads_are_pinned(tmp_path, monkeypatch, capsys):
    from hurwitzlab import cli

    monkeypatch.chdir(tmp_path)
    for extra, payload, notice in _COMPUTE_PAYLOADS:
        argv = ["compute", "-g", "0", "-x", "3,1,-2,-2", "--json", *extra]
        assert cli.main(argv) == 0, extra
        out, err = capsys.readouterr()
        assert (_without_elapsed(out), err) == (payload, notice), extra
    # the record is appended on the miss only
    (line,) = (tmp_path / "cache.jsonl").read_text().splitlines()
    record = json.loads(line)
    assert list(record) == ["key", "value", "method", "version", "timestamp"]
    assert record["key"] == "g=0;pos=3,1;neg=-2,-2"
    assert (record["value"], record["method"]) == ("6", "frobenius")


_CROSSING_25 = (
    '{"wall":[2,5],"polynomial":{"n":5,"terms":{"2,0,0,0":"-6","1,0,1,0":"-6",'
    '"1,0,0,1":"-6"}},"display":"-6*x1^2 - 6*x1*x3 - 6*x1*x4",'
    '"witness_from":[7,1,-2,-3,-3],"witness_to":[9,2,-4,-6,-1],'
    '"factored":"(x2 + x5) * (6*x1)","product_formula":{"point":[9,2,-4,-6,-1],'
    '"wc_value":"54","conventions":{"C(r-1,r1)":"36","C(r,r1)":"54",'
    '"C(r-1,r2)":"18","-C(r-1,r1)":"-36","-C(r,r1)":"-54","-C(r-1,r2)":"-18"},'
    '"matching":["C(r,r1)"]}}\n'
)
_WALLCROSS_PAYLOADS = [
    (("-g", "0", "-x", "7,1,-2,-3,-3", "--wall", "2,5"), _CROSSING_25, ""),
    (
        ("-g", "0", "-x", "7,1,-2,-3,-3", "--wall", "1,3,4"),
        _CROSSING_25,
        "normalized wall [1,3,4] to canonical representative [2,5]\n",
    ),
    (
        ("-g", "1", "-x", "3,1,-2,-2", "--wall", "2"),
        '{"wall":[2],"polynomial":{"n":4,"terms":{"2,3,0":"-2","1,4,0":"-1",'
        '"2,1,0":"2","1,2,0":"1"}},'
        '"display":"-2*x1^2*x2^3 - x1*x2^4 + 2*x1^2*x2 + x1*x2^2",'
        '"witness_from":[3,1,-2,-2],"witness_to":[5,-1,-2,-2],'
        '"factored":"(x2) * (-2*x1^2*x2^2 - x1*x2^3 + 2*x1^2 + x1*x2)"}\n',
        "",
    ),
    # from the positive side of the wall: the crossing and its factor change
    # sign, the product formula's value does not
    (
        ("-g", "0", "-x", "9,2,-4,-6,-1", "--wall", "2,5"),
        '{"wall":[2,5],"polynomial":{"n":5,"terms":{"2,0,0,0":"6","1,0,1,0":"6",'
        '"1,0,0,1":"6"}},"display":"6*x1^2 + 6*x1*x3 + 6*x1*x4",'
        '"witness_from":[9,2,-4,-6,-1],"witness_to":[11,2,-4,-6,-3],'
        '"factored":"(x2 + x5) * (-6*x1)","product_formula":{"point":[9,2,-4,-6,-1],'
        '"wc_value":"54","conventions":{"C(r-1,r1)":"36","C(r,r1)":"54",'
        '"C(r-1,r2)":"18","-C(r-1,r1)":"-36","-C(r,r1)":"-54","-C(r-1,r2)":"-18"},'
        '"matching":["C(r,r1)"]}}\n',
        "",
    ),
]


@pytest.mark.parametrize(
    "args, payload, notice", _WALLCROSS_PAYLOADS, ids=["2,5", "1,3,4", "g1", "positive-side"]
)
def test_wallcross_payloads_are_pinned(capsys, args, payload, notice):
    from hurwitzlab import cli

    assert cli.main(["wallcross", *args, "--json"]) == 0
    assert capsys.readouterr() == (payload, notice)


@pytest.mark.parametrize(
    "x, wall",
    [
        ("7,1,-2,-3,-3", "2"),
        ("3,1,-2,-2", "2"),
        ("5,1,-2,-4", "2"),
        ("9,4,-5,-5,-3", "5"),
        ("1,3,-2,-2", "2,3,4"),
    ],
)
def test_genus_zero_edge_wall_reports_no_product_formula(capsys, x, wall):
    # on a wall of 1 or n - 1 indices one block is the unstable two-part
    # case, with count 1/delta, so no product formula applies there
    from hurwitzlab import cli

    assert cli.main(["wallcross", "-g", "0", "-x", x, "--wall", wall, "--json"]) == 0
    out, err = capsys.readouterr()
    payload = json.loads(out)
    assert payload["display"] == "0"
    # the zero polynomial has no factored form, though the wall divides it
    assert "factored" not in payload
    assert "product_formula" not in payload
    assert err == f"no product formula on edge wall [{wall}]: one block has two parts\n"


_SELFTEST_CHECKS = [
    ("crossing sign identities", "435 cases up to r=30; failures: []"),
    ("oracle vs character sum", "320 profile/genus cases agree exactly (d <= 4, n <= 4)"),
    (
        "documented example values",
        "H_0(7,1,-2,-3,-3)=294 and H_0(9,4,-5,-5,-3)=540 by both methods",
    ),
    ("relabeling symmetry", "42 relabeled evaluations invariant"),
    ("character column orthogonality", "all pairs of classes up to d=8"),
    ("interpolation round trip", "random polynomials recovered exactly"),
]


def test_selftest_checks_are_pinned(capsys):
    from hurwitzlab import cli

    assert cli.main(["selftest", "--json"]) == 0
    out, err = capsys.readouterr()
    payload = json.loads(out)
    assert payload["ok"] is True
    assert [(c["name"], c["detail"]) for c in payload["checks"]] == _SELFTEST_CHECKS
    assert all(c["ok"] is True for c in payload["checks"])
    assert list(payload["checks"][0]) == ["name", "ok", "detail"]
    assert err.splitlines() == [f"[ok] {name}: {detail}" for name, detail in _SELFTEST_CHECKS]


def test_selftest_runs_the_identity_check_it_looks_up(monkeypatch, capsys):
    # the check table is built per call, so the patched name is the one run
    from hurwitzlab import cli

    monkeypatch.setattr(cli, "verify_identities", lambda: (False, "patched"))
    assert cli.main(["selftest", "--json"]) == 1
    out, err = capsys.readouterr()
    payload = json.loads(out)
    assert payload["ok"] is False
    assert payload["checks"][0] == {
        "name": "crossing sign identities", "ok": False, "detail": "patched"
    }
    assert all(c["ok"] is True for c in payload["checks"][1:])
    assert err.splitlines()[0] == "[FAIL] crossing sign identities: patched"


def test_cache_keys_are_collision_free():
    from hurwitzlab.cli import cache_key
    from hurwitzlab.hurwitz import enumerate_profiles

    seen: dict[str, tuple] = {}
    for n in (2, 3, 4):
        for profile in enumerate_profiles(n, 3):
            for g in (0, 1):
                identity = (
                    g,
                    tuple(sorted(v for v in profile.x if v > 0)),
                    tuple(sorted(v for v in profile.x if v < 0)),
                )
                key = cache_key(g, profile)
                assert seen.setdefault(key, identity) == identity
    assert len(seen) == len(set(seen))


def test_exit_code_mapping(capsys):
    from hurwitzlab.cli import _emit_error
    from hurwitzlab.errors import (
        AdjacencyNotFoundError,
        BudgetExceededError,
        NotPolynomialError,
        UnstableCaseError,
    )

    assert _emit_error(NotPolynomialError("held-out mismatch")) == 4
    assert _emit_error(AdjacencyNotFoundError("nothing within budget")) == 5
    assert _emit_error(BudgetExceededError("too big")) == 3
    assert _emit_error(UnstableCaseError("1/d")) == 2
    assert _emit_error(ValueError("no such wall"), code="INVALID_ARGUMENT") == 2
    captured = capsys.readouterr()
    assert '"error": "NOT_POLYNOMIAL"' in captured.err
