"""hurwitzlab benchmark: one command runs a workload, checks every answer and
prints every metric by name with its unit.

    python3 perfbench/run.py --workload {evaluate,fit,cli} --seed N \
        --seconds S --trace {0,1}

Run it from anywhere; it benchmarks the hurwitzlab source tree next to this
directory (../src).  Each round runs in a fresh interpreter (worker.py), so
the process-wide memos start empty and the peak RSS belongs to that round
alone.  Rounds run one at a time, and new rounds start while the next one is
expected to end within --seconds.  Set-up time is the median over every
launch of the run, including launches that only set up.

With --trace 0 the last line reports the end-to-end metrics: medians over the
rounds.  With --trace 1, untraced and traced rounds alternate; the last line
reports the per-layer metrics of the traced rounds and the trace's overhead.
Uses the standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import inputs  # noqa: E402
from layertrace import PER_LAYER_UNITS  # noqa: E402

ROOT = os.path.dirname(HERE)
SETUP_LAUNCHES = 9
ROUND_TIMEOUT_S = 150


class BenchmarkError(Exception):
    pass


def launch(workload: str, seed: int, cache: str, trace: bool, setup_only: bool) -> tuple[float, dict | None]:
    """Start a worker; return its set-up time and, unless setup_only, its report."""
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", workload, "--seed", str(seed), "--cache", cache,
    ]
    cmd += ["--trace"] * trace + ["--setup-only"] * setup_only
    # Bytecode is always written and used, as after an install: whether the
    # environment sets PYTHONDONTWRITEBYTECODE would otherwise move set-up
    # time and peak RSS.
    dropped = ("HURWITZ_CACHE", "PYTHONPATH", "PYTHONDONTWRITEBYTECODE")
    env = {k: v for k, v in os.environ.items() if k not in dropped}
    env["PYTHONHASHSEED"] = "0"
    started = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT) as proc:
        try:
            ready = proc.stdout.readline()
            setup_s = time.perf_counter() - started
            rest, _ = proc.communicate(timeout=ROUND_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise BenchmarkError(f"{workload} round exceeded {ROUND_TIMEOUT_S} s")
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if ready.strip() != "ready" or proc.returncode != 0:
        raise BenchmarkError(f"worker failed with exit code {proc.returncode}")
    return setup_s, None if setup_only else json.loads(rest.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# Answers
# ---------------------------------------------------------------------------


def essence(op: inputs.Op, answer: dict):
    """What must repeat exactly from round to round (no timings)."""
    if "error" in answer:
        return answer["error"]
    if op.kind in ("one_part", "ray_point"):
        return answer["value"]
    if op.kind == "fit":
        return answer["polynomial"]
    out = answer["stdout"]
    if op.argv[0] == "selftest":
        return [out["ok"], [check["ok"] for check in out["checks"]]]
    if op.kind == "wallcross":
        return [out["polynomial"], out.get("factored")]
    return [out["value"], bool(out.get("cached")), answer["stderr"]]


def check_answers(workload: str, ops: list[inputs.Op], answers: list[dict]) -> list[str]:
    """Reasons why answers that did not fail are wrong; empty when all pass."""
    problems: list[str] = []
    counter = checks.CoverCounter()
    ok = [(op, a) for op, a in zip(ops, answers) if "error" not in a]

    def note(reason):
        if reason:
            problems.append(reason)

    if workload == "evaluate":
        rays: dict[int, list] = {}
        for op, answer in ok:
            value = Fraction(answer["value"])
            if op.kind == "one_part":
                note(checks.check_one_part(op.x, op.g, value))
            else:
                rays.setdefault(op.group, []).append((op, value))
        for points in rays.values():
            points.sort(key=lambda item: sum(v for v in item[0].x if v > 0))
            op0 = points[0][0]
            if len(points) == op0.g + 3:
                note(checks.check_ray([v for _, v in points], len(op0.x), op0.g))
    elif workload == "fit":
        for op, answer in ok:
            if op.kind == "fit":
                poly = answer["polynomial"]
                note(checks.check_fit(poly, op.x, op.g, counter))
                if (op.x, op.g) == inputs.FIT_WITNESSES[0] and poly != inputs.DOCUMENTED_FIT:
                    problems.append(f"H_0(7,1,-2,-3,-3) fitted as {poly}, documented 6*x1^2")
            else:
                out = answer["stdout"]
                note(checks.check_wallcross(
                    out["polynomial"], inputs.WALLCROSS[2], inputs.DOCUMENTED_FIT,
                    tuple(out["witness_to"]), counter,
                ))
    else:
        computed: dict[tuple, str] = {}
        examples = {inputs.multiset_key(x, g): value for x, g, value in inputs.CLI_EXAMPLES}
        for op, answer in ok:
            out = answer["stdout"]
            if op.argv[0] == "selftest":
                if out.get("ok") is not True:
                    problems.append(f"selftest reports {out.get('ok')}")
                continue
            key = inputs.multiset_key(op.x, op.g)
            value = out["value"]
            if key in examples:
                if value != examples[key]:
                    problems.append(f"documented example {op.x} gave {value}, expected {examples[key]}")
                continue
            hit = "--verify" not in op.argv and key in computed
            if bool(out.get("cached")) != hit or any("cache hit" in line for line in answer["stderr"]) != hit:
                problems.append(f"{op.argv}: cache hit reported as {out.get('cached')}, expected {hit}")
            if key in computed:
                if value != computed[key]:
                    problems.append(f"{op.argv}: {value} differs from the miss pass's {computed[key]}")
            else:
                computed[key] = value
                note(checks.check_count(counter, op.x, op.g, Fraction(value)))
    return problems


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=inputs.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # turn a termination request into SystemExit, so that the worker is
    # killed and the scratch directory removed on the way out
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not os.path.isfile(os.path.join(ROOT, "src", "hurwitzlab", "__init__.py")):
        print(f"no hurwitzlab source tree at {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    tmp_parent = os.path.join(ROOT, ".perfbench-tmp")
    os.makedirs(tmp_parent, exist_ok=True)
    tmp = tempfile.mkdtemp(dir=tmp_parent)
    try:
        return run(args, tmp)
    except BenchmarkError as err:
        print(f"benchmark failed: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        if not os.listdir(tmp_parent):
            os.rmdir(tmp_parent)


def run(args, tmp: str) -> int:
    setup: list[float] = []
    rounds: list[tuple[bool, dict]] = []
    round_s: list[float] = []
    started = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(rounds) % 2 == 1
        cache = os.path.join(tmp, f"round{len(rounds)}.jsonl")
        t0 = time.perf_counter()
        setup_s, report = launch(args.workload, args.seed, cache, traced, False)
        round_s.append(time.perf_counter() - t0)
        setup.append(setup_s)
        rounds.append((traced, report))
        elapsed = time.perf_counter() - started
        enough = len(rounds) >= (2 if args.trace else 1)
        if enough and elapsed + max(round_s) > args.seconds:
            break
    while len(setup) < SETUP_LAUNCHES:
        setup.append(launch(args.workload, args.seed, os.path.join(tmp, "setup.jsonl"), False, True)[0])

    ops = inputs.build_ops(args.workload, args.seed, os.path.join(tmp, "round0.jsonl"))
    first = rounds[0][1]["answers"]
    attempted = failed = 0
    problems = check_answers(args.workload, ops, first)
    reference = [essence(op, a) for op, a in zip(ops, first)]
    for index, (_, report) in enumerate(rounds):
        answers = report["answers"]
        attempted += len(answers)
        failed += sum("error" in a for a in answers)
        if index:
            for op, answer, want in zip(ops, answers, reference):
                if essence(op, answer) != want:
                    problems.append(f"round {index} answered {op.argv or op.x} differently")
                    break
    for line in problems[:20]:
        print(f"check failed: {line}", file=sys.stderr)
    for op, a in zip(ops, first):
        if "error" in a:
            print(f"operation failed: {op.argv or (op.x, op.g)}: {a['error']}", file=sys.stderr)

    plain = [r for t, r in rounds if not t]
    if args.trace:
        traced_reports = [r for t, r in rounds if t]
        metrics = {
            name: {"value": statistics.median(r["layers"][name] for r in traced_reports), "unit": unit}
            for name, unit in PER_LAYER_UNITS.items()
        }
        traced_wall = statistics.median(r["wall_s"] for r in traced_reports)
        metrics["trace.wall_s"] = {"value": traced_wall, "unit": "s"}
        # CPU time: stolen time would swamp the difference in wall time
        metrics["trace.overhead_s"] = {
            "value": statistics.median(r["cpu_s"] for r in traced_reports)
            - statistics.median(r["cpu_s"] for r in plain),
            "unit": "s",
        }
        metrics["trace.unattributed_s"] = {
            "value": statistics.median(r["wall_s"] - r["self_total_s"] for r in traced_reports),
            "unit": "s",
        }
        # the cli layer's command latency, from the untraced rounds
        commands = [
            [s * 1000 for op, s in zip(ops, r["op_cpu_s"]) if op.argv] for r in plain
        ]
        for q in (50, 99):
            metrics[f"cli.command_p{q}_ms"] = {
                "value": statistics.median(percentile(c, q) if c else 0.0 for c in commands),
                "unit": "ms",
            }
        for name in sorted({a for r in traced_reports for a in r["absent"]}):
            print(f"trace: call site {name} is absent; its metrics read 0")
        counts = [
            {k: v for k, v in r["layers"].items() if PER_LAYER_UNITS[k] == "count" and "bytes" not in k}
            for r in traced_reports
        ]
        if any(c != counts[0] for c in counts):
            print("trace: per-layer counts differ between traced rounds", file=sys.stderr)
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "cpu_s": {"value": statistics.median(r["cpu_s"] for r in plain), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in plain), "unit": "MB"},
        }
    print(
        f"{args.workload} seed={args.seed}: median round wall "
        f"{statistics.median(r['wall_s'] for r in plain):.3f} s, {len(rounds)} rounds, "
        f"{attempted} operations, "
        f"{failed} failed, {len(problems)} check failures, {len(setup)} launches, "
        f"{time.perf_counter() - started:.1f} s"
    )
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
