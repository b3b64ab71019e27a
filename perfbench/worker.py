"""One round of a workload in a fresh interpreter.

    python3 perfbench/worker.py <workload> <seed> <round> <mode>

The worker imports the package, runs the workload's warm-up op and prints
``ready``; the time until then is one set-up sample.  It then draws the
round's ops from the seed and the round number, runs them in a closed loop
with one caller, checks each output, and prints one JSON object: each op's
time and outcome, the failed ops with their inputs, and the peak memory of
the process that ran the ops.  The mode is ``run`` (each op as a user
makes it: a `pfl` subprocess on ``cli``), ``replay`` (every op in-process)
or ``trace`` (in-process and traced); traced, the worker also prints the
per-layer rows, the per-op span summaries, the spans and the overlap
cache's entry count.

Each round runs in its own process so that the program's caches start
empty, as for a new caller, and so that a run's memory does not grow with
the number of rounds it makes.
"""

from __future__ import annotations

import json
import random
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import Outcome  # noqa: E402


def round_ops(workload, seed: int, number: int) -> list[dict]:
    """The ops of round ``number``: fixed by the seed, never repeated across rounds."""
    return workload.round(random.Random(f"{seed}:{number}"))


def main(argv: list[str]) -> int:
    name, seed, number, mode = argv[0], int(argv[1]), int(argv[2]), argv[3]
    traced = mode == "trace"
    workload = workloads.WORKLOADS[name](HERE.parent / ".perfbench_work")
    workload.call(workload.warm_up_op)
    print("ready", flush=True)

    ops = round_ops(workload, seed, number)
    subprocesses = mode == "run" and workload.call_subprocess is not None
    call = workload.call_subprocess if subprocesses else workload.call
    spans = tracing.Tracer()
    if traced:
        spans.install()
    rows, failures = [], []
    try:
        for index, op in enumerate(ops):
            span = spans.begin_op(number * len(ops) + index) if traced else None
            t0 = time.perf_counter_ns()
            try:
                output, error = call(op), None
            except Exception as exc:  # the op fails; the round goes on
                output, error = None, exc
            elapsed_ns = time.perf_counter_ns() - t0
            if traced:
                spans.end_op(span)
            if error is None:
                outcome, cause, size = workload.check(op, output)
            elif isinstance(error, workload.refusals):
                outcome, cause, size = Outcome.REFUSED, type(error).__name__, 0
            else:
                outcome, cause, size = Outcome.WRONG, f"{type(error).__name__}: {error}"[:120], 0
            rows.append([elapsed_ns / 1e6, outcome, cause, size])
            if outcome != Outcome.OK:
                failures.append({"round": number, "op": op, "outcome": outcome, "cause": cause})
    finally:
        spans.uninstall()
        workload.cleanup()

    who = resource.RUSAGE_CHILDREN if subprocesses else resource.RUSAGE_SELF
    result = {
        "ops": rows,
        "failures": failures,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
    }
    if traced:
        result["layers"] = tracing.layer_metrics(spans.spans)
        result["op_summaries"] = tracing.op_summaries(spans.spans)
        result["spans"] = spans.spans
        result["cache_entries"] = workloads.overlap_cache_entries()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
