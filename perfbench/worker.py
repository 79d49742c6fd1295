"""One round of one workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload W --seed N --cache FILE
        [--trace] [--setup-only]

Imports hurwitzlab from the source tree next to this directory (../src), builds the round's operations from the seed,
prints "ready", performs the operations in order while timing them, and
prints one JSON line with the timings, the peak RSS and the raw answers.
Answers are checked by the parent process, outside the timed region.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time

import inputs
import layertrace

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _import_program():
    sys.path.insert(0, SRC)
    import hurwitzlab
    from hurwitzlab import chambers, cli, hurwitz, piecewise

    if not os.path.abspath(hurwitzlab.__file__).startswith(SRC + os.sep):
        raise ImportError(f"hurwitzlab was imported from {hurwitzlab.__file__}, not {SRC}")
    return chambers, cli, hurwitz, piecewise


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=inputs.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--cache", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    chambers, cli, hurwitz, piecewise = _import_program()
    ops = inputs.build_ops(args.workload, args.seed, args.cache)
    print("ready", flush=True)
    if args.setup_only:
        return 0
    tracer = layertrace.install() if args.trace else None

    raw = []
    op_cpu_s = []
    cpu = time.process_time
    started, cpu_started = time.perf_counter(), cpu()
    for op in ops:
        t0 = cpu()
        try:
            if op.kind in ("one_part", "ray_point"):
                # module attributes are looked up per call, so a traced run
                # goes through the wrappers
                raw.append(hurwitz.frobenius_connected(hurwitz.RamificationProfile(op.x), op.g).value)
            elif op.kind == "fit":
                witness = chambers.ChamberWitness.at(hurwitz.RamificationProfile(op.x))
                raw.append(piecewise.fit_chamber(witness, op.g).polynomial)
            else:
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.main(list(op.argv))
                raw.append((code, out.getvalue(), err.getvalue()))
        except Exception as exc:  # one failed operation must not end the round
            raw.append(exc)
        op_cpu_s.append(cpu() - t0)
    cpu_s = cpu() - cpu_started
    wall_s = time.perf_counter() - started
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    answers = [_answer(op, result) for op, result in zip(ops, raw)]
    report = {
        "cpu_s": cpu_s,
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_kb / 1024,
        "op_cpu_s": op_cpu_s,
        "answers": answers,
    }
    if tracer is not None:
        cache_bytes = os.path.getsize(args.cache) if os.path.exists(args.cache) else 0
        report["layers"] = layertrace.layer_metrics(tracer, cache_bytes)
        report["self_total_s"] = tracer.self_total()
        report["absent"] = tracer.absent
    print(json.dumps(report), flush=True)
    return 0


def _answer(op, result) -> dict:
    """The JSON-safe answer of one operation, or its failure."""
    if isinstance(result, Exception):
        return {"error": f"{type(result).__name__}: {result}"}
    if op.kind in ("one_part", "ray_point"):
        return {"value": str(result)}
    if op.kind == "fit":
        return {"polynomial": result.to_json_dict()}
    code, out, err = result
    answer = {"rc": code, "stderr": err.splitlines()}
    try:
        answer["stdout"] = json.loads(out)
    except json.JSONDecodeError:
        answer["error"] = f"exit {code}, stdout is not JSON: {out[:200]!r} {err[:200]!r}"
    if code != 0:
        answer["error"] = f"exit {code}: {err[:200]!r}"
    return answer


if __name__ == "__main__":
    sys.exit(main())
