"""Smoke test of the benchmark: every workload at minimal length, fixed seed.

Run from the repository root (under a minute on two cores):

    python3 perfbench/smoke.py

For each workload it runs ``run.py`` untraced and traced and asserts that

* the last line is the result object, correct, with every metric that
  ``BENCHMARK.json`` declares under its declared unit;
* the metrics the benchmark reports as details (``fail_ratio``,
  ``fwd_err.log10_max`` and, on ``cli``, ``report_bytes.mean``) appear with
  a unit;
* the untraced and the replayed run of one seed record the same failed
  ops, and the failures known today are among them;
* no traced op's summed self times exceed its wall time, and over all
  traced ops the wall time outside the traced calls stays within the
  tracing overhead plus the benchmark's glue;
* every package module has traced calls on some workload.

It also checks that the benchmark refuses to run without the package.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
SEED = 7
MODULES = ("overlaps", "blocks", "assembly", "fock", "bicoherent", "fixtures", "cli")

KNOWN_FAILURES = {
    "levels": ({"gamma": [0.7, 0.0], "level": 25}, "PositivityError"),
    "cli": (
        {"argv": ["assemble", "--gamma", "0.5", "--max-level", "20"]},
        "exit 1: check global_intertwining_on_basis",
    ),
}

# Benchmark code inside an op that no span covers: argument set-up and, on
# `cli`, output redirection and removal of the previous report.
GLUE_MS = 0.2


def run(workload: str, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
    record = json.loads((WORK / f"{workload}-seed{SEED}-trace{trace}.json").read_text())
    return result, record


def check_metrics(result: dict, declared: list[dict]) -> None:
    got = result["metrics"]
    assert set(got) == {m["name"] for m in declared}, set(got) ^ {m["name"] for m in declared}
    for m in declared:
        entry = got[m["name"]]
        assert entry["unit"] == m["unit"], (m["name"], entry)
        assert isinstance(entry["value"], (int, float)), (m["name"], entry)


def check_spans(workload: str, result: dict, record: dict) -> None:
    trace = json.loads((WORK / f"{workload}-seed{SEED}-trace1.spans.json").read_text())
    overhead_ms = max(result["metrics"]["trace.overhead_ms"]["value"], 0.0)
    span_cost_ms = record["details"]["trace.span_cost_us"]["value"] / 1e3
    assert trace["ops"], "no traced ops"
    outside = allowed = 0.0
    for op in trace["ops"]:
        assert op["wall_ms"] - op["traced_self_ms"] >= -1e-3, (workload, op)
        outside += op["wall_ms"] - op["traced_self_ms"]
        allowed += max(overhead_ms, (op["spans"] + 1) * span_cost_ms) + GLUE_MS
    # Summed over the ops, so that one collector pause or interrupt that
    # lands in the glue between spans does not fail the check.
    assert outside <= allowed, (workload, outside, allowed)


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    calls = {module: 0 for module in MODULES}
    for workload in (w["name"] for w in declared["workloads"]):
        plain, plain_record = run(workload, 0)
        check_metrics(plain, declared["end_to_end"])
        details = plain_record["details"]
        names = ["fail_ratio", "fwd_err.log10_max", "op_ms.tail.percentile", "op_ms.tail.ops"]
        if workload == "cli":
            names.append("report_bytes.mean")
        for name in names:
            assert details[name]["unit"], (workload, name)

        traced, traced_record = run(workload, 1)
        check_metrics(traced, declared["per_layer"])
        check_spans(workload, traced, traced_record)
        for name, entry in traced["metrics"].items():
            if name.endswith(".calls"):
                calls[name.split(".")[0]] += entry["value"]

        failures = plain_record["failures"]
        assert failures == traced_record["failures"], workload
        if workload in KNOWN_FAILURES:
            op, cause = KNOWN_FAILURES[workload]
            assert {"round": 0, "op": op, "outcome": "refused", "cause": cause} in failures, failures
        print(f"ok {workload}: {plain['attempted']} ops untraced, "
              f"{traced['attempted']} replayed, {len(failures)} failed")
    assert all(calls.values()), calls

    bare = WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "levels",
             "--seed", str(SEED), "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180, check=False,
        )
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout
    print("ok: without the package the benchmark exits", proc.returncode)
    return 0


if __name__ == "__main__":
    sys.exit(main())
