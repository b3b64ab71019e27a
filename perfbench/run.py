"""Benchmark of pseudofermion: seeded workloads driven from outside the package.

Run from the repository root:

    python3 perfbench/run.py --workload levels --seed 1 --seconds 25 --trace 0

A run makes as many rounds of ops as fill ``--seconds`` at the workload's
nominal round time.  Each round runs in a fresh worker process
(``worker.py``) and draws its own ops from the seed and its number, so no
input repeats within a run and every run of one seed attempts the same ops.
``--trace 0`` times the ops untraced, in one closed loop with one caller,
and prints the end-to-end metrics; set-up time is the median over the
workers of the time until each is ready.  ``--trace 1`` makes half as many
rounds, each in-process twice, untraced and traced, and prints the
per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
name each metric with its unit.  A record of the run, with the machine, the
failed ops and, when traced, every span, is written under
``.perfbench_work/``.

The package is imported from ``src/`` next to this directory; without it the
benchmark exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

THREAD_VARIABLES = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)

# Give up on a worker whose round is still running after this long.
WORKER_TIMEOUT_S = 150


def load_package():
    """Import pseudofermion from ``src/`` of this checkout, or return None."""
    if not (SRC / "pseudofermion" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(HERE))
    import pseudofermion

    if Path(pseudofermion.__file__).resolve().parent.parent != SRC.resolve():
        return None
    return pseudofermion


def machine(seed: int) -> dict:
    """What the results depend on besides the code: cores, load, versions, BLAS."""
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError, AttributeError):
        blas = {"name": None, "version": None}
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, check=False,
        )
        commit = proc.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_at_start": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": "library default (one per usable cpu) unless set below",
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARIABLES},
        "commit": commit,
        "seed": seed,
    }


def run_round(name: str, seed: int, number: int, mode: str) -> tuple[float, dict]:
    """Run round ``number`` in a fresh worker; its set-up seconds and its result.

    ``mode`` is the worker's: ``run``, ``replay`` or ``trace``.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), name, str(seed), str(number), mode],
        stdout=subprocess.PIPE, text=True,
    )
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        output, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or ready.strip() != "ready":
        raise RuntimeError(f"worker for {name} round {number} failed with exit {proc.returncode}")
    return setup_s, json.loads(output)


def rounds_for(workload, seconds: float) -> int:
    """Rounds that take about ``seconds`` at the workload's nominal round time.

    The count does not depend on how fast this run happens to go, so a run
    of one seed always attempts the same ops and its tail always sits at
    the same rank.
    """
    return max(1, round(seconds / workload.round_seconds))


def latency(ms: list[float]) -> dict:
    """Median, tail and throughput of a closed-loop run.

    The tail is the latency at the highest percentile with at least 10 ops
    beyond it (all but one when there are fewer ops).  Throughput is ops
    completed over the time spent in them.
    """
    ms = sorted(ms)
    n = len(ms)
    beyond = min(10, n - 1)
    return {
        "p50": statistics.median(ms),
        "tail": ms[n - 1 - beyond],
        "tail_percentile": 100.0 * (n - beyond) / n,
        "ops": n,
        "ops_per_s": n / (sum(ms) / 1e3),
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(workload, seed: int, seconds: float):
    """Untraced run: the end-to-end metrics, plus details that are not bounded."""
    import reference

    rounds = rounds_for(workload, seconds)
    setup, results = [], []
    for number in range(rounds):
        setup_s, result = run_round(workload.name, seed, number, "run")
        setup.append(setup_s)
        results.append(result)
    rows = [row for result in results for row in result["ops"]]
    lat = latency([row[0] for row in rows])
    certified = sum(row[1] == "ok" for row in rows)
    errors = reference.forward_errors()
    worst = max(errors.values())
    metrics = {
        "setup_s": metric(statistics.median(setup), "s"),
        "op_ms.p50": metric(lat["p50"], "ms"),
        "op_ms.tail": metric(lat["tail"], "ms"),
        "ops_per_s": metric(lat["ops_per_s"], "1/s"),
        "certified_ratio": metric(certified / lat["ops"], "ratio"),
        "peak_rss_mb": metric(max(result["peak_rss_mb"] for result in results), "MB"),
        "fwd_err.max": metric(worst, "rel"),
    }
    details = {
        "fail_ratio": metric(1.0 - certified / lat["ops"], "ratio"),
        "fwd_err.log10_max": metric(math.log10(worst), "log10"),
        "op_ms.tail.percentile": metric(lat["tail_percentile"], "%"),
        "op_ms.tail.ops": metric(lat["ops"], "count"),
        "setup_s.samples": metric(setup, "s"),
        "fwd_err.by_point": metric(errors, "rel"),
        "rounds": metric(rounds, "count"),
    }
    if workload.call_subprocess:
        details["report_bytes.mean"] = metric(statistics.fmean(row[3] for row in rows), "bytes")
    return results, metrics, details, None


def per_layer(workload, seed: int, seconds: float):
    """Rounds replayed in-process, each once untraced and once traced.

    The two runs of a round start equally cold, in fresh workers, and the
    one that goes first alternates from round to round, so the tracing
    overhead is the median, over ops, of an op's traced time minus its
    untraced time.
    """
    import tracer as tracing

    traced_results, plain_results = [], []
    pairs = (rounds_for(workload, seconds) + 1) // 2
    for number in range(pairs):
        for traced in ((False, True) if number % 2 == 0 else (True, False)):
            _, result = run_round(workload.name, seed, number, "trace" if traced else "replay")
            (traced_results if traced else plain_results).append(result)
    traced_ms = [row[0] for result in traced_results for row in result["ops"]]
    plain_ms = [row[0] for result in plain_results for row in result["ops"]]
    overhead_ms = statistics.median(t - p for t, p in zip(traced_ms, plain_ms))
    metrics = {}
    for name in traced_results[0]["layers"]:
        rows = [result["layers"][name] for result in traced_results]
        metrics[f"{name}.self_ms"] = metric(sum(row["self_ms"] for row in rows), "ms")
        metrics[f"{name}.calls"] = metric(sum(row["calls"] for row in rows), "count")
        metrics[f"{name}.errors"] = metric(sum(row["errors"] for row in rows), "count")
    metrics["cli.report_bytes"] = metric(
        sum(row[3] for result in traced_results for row in result["ops"]), "bytes"
    )
    metrics["overlaps.cache_entries"] = metric(
        sum(result["cache_entries"] for result in traced_results), "count"
    )
    metrics["trace.overhead_ms"] = metric(overhead_ms, "ms")
    summaries = [s for result in traced_results for s in result["op_summaries"]]
    details = {
        "round_pairs": metric(pairs, "count"),
        "untraced_op_ms.mean": metric(statistics.fmean(plain_ms), "ms"),
        "traced_op_ms.mean": metric(statistics.fmean(traced_ms), "ms"),
        "trace.span_cost_us": metric(tracing.span_cost_ns() / 1e3, "us"),
        # Op wall time that no traced call covers: the benchmark's own glue
        # plus the part of the tracer's cost that falls outside the spans.
        "op_outside_spans_ms.max": metric(
            max(s["wall_ms"] - s["traced_self_ms"] for s in summaries), "ms"
        ),
    }
    trace_file = {
        "fields": ["name", "start_ns", "end_ns", "parent", "op_id", "error"],
        "rounds": [result["spans"] for result in traced_results],
        "ops": summaries,
    }
    return traced_results + plain_results, metrics, details, trace_file


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if load_package() is None:
        print(f"error: no pseudofermion package under {SRC}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    env = machine(args.seed)
    WORK.mkdir(exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](WORK)
    # A run's first round has measured up to 1.7x slower than the rest on
    # `levels`, in the ops where its memory grows most; one round, drawn
    # apart from the timed ones, is made first and dropped.
    run_round(workload.name, args.seed, -1, "replay")
    measure = per_layer if args.trace else end_to_end
    results, metrics, details, trace_file = measure(workload, args.seed, args.seconds)

    rows = [row for result in results for row in result["ops"]]
    wrong = sum(row[1] == "wrong" for row in rows)
    summary = {
        "correct": wrong == 0,
        "attempted": len(rows),
        "failed": wrong,
        "metrics": metrics,
    }
    # A traced run makes each round twice; an op that failed the same way
    # both times is listed once.
    failures = list({json.dumps(f): f for result in results for f in result["failures"]}.values())
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": env, "details": details,
        "failures": failures, "result": summary,
        "op_ms_by_round": [[row[0] for row in result["ops"]] for result in results],
    }
    (WORK / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if trace_file is not None:
        (WORK / f"{stem}.spans.json").write_text(json.dumps(trace_file) + "\n")

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"ops={len(rows)} rounds={len(results)}")
    print("machine " + json.dumps(env))
    for name, entry in metrics.items():
        print(f"metric {name} = {entry['value']:.6g} {entry['unit']}")
    for name, entry in details.items():
        value = entry["value"]
        shown = f"{value:.6g}" if isinstance(value, (int, float)) else json.dumps(value)
        print(f"detail {name} = {shown} {entry['unit']}")
    causes: dict[str, int] = {}
    for item in failures:
        causes[item["cause"]] = causes.get(item["cause"], 0) + 1
    print(f"failed ops: {len(failures)}; causes " + json.dumps(causes))
    print(f"record: {WORK.relative_to(ROOT) / (stem + '.json')}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
