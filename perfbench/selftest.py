#!/usr/bin/env python3
"""Self-test of the pipeline benchmark on tiny cohorts.

    python3 perfbench/selftest.py

Checks that every workload prints every end-to-end metric of BENCHMARK.json
(and `rerun_s` on cache-rerun)
with its unit, that a traced run prints every per-layer metric, and that
corrupting one label file fails the correctness check. Takes a minute or two.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys

import run

TINY_PATIENTS = 40


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def check_command(workload: str, trace: int) -> None:
    spec = run.load_spec()
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    printed_too = ["rerun_s"] if workload == "cache-rerun" and not trace else []
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--patients", str(TINY_PATIENTS)],
        capture_output=True, text=True, timeout=300,
    )
    expect(proc.returncode == 0, f"{workload} exited {proc.returncode}: {proc.stderr[-800:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    expect(sorted(result) == ["attempted", "correct", "failed", "metrics"], f"result keys {sorted(result)}")
    expect(result["correct"] is True, f"{workload}: correctness check failed:\n{proc.stdout}")
    expect(result["attempted"] >= 1 and result["failed"] == 0, f"{workload}: {result['failed']} failed")
    expect(sorted(result["metrics"]) == sorted(m["name"] for m in listed), f"{workload}: metric names")
    for metric in listed:
        got = result["metrics"][metric["name"]]
        expect(got["unit"] == metric["unit"], f"{workload}: unit of {metric['name']}")
        expect(isinstance(got["value"], (int, float)), f"{workload}: {metric['name']} = {got['value']}")
        printed = [line for line in lines if line.startswith(f"metric {metric['name']} ")]
        expect(
            len(printed) == 1 and printed[0].endswith(f" {metric['unit']}"),
            f"{workload}: no 'metric {metric['name']} <value> {metric['unit']}' line",
        )
    for name in printed_too:
        unit = run.UNLISTED_UNITS[name]
        expect(
            any(line.startswith(f"metric {name} ") and line.endswith(f" {unit}") for line in lines),
            f"{workload}: no 'metric {name} <value> {unit}' line",
        )
    print(f"ok  {workload} --trace {trace}: {len(listed) + len(printed_too)} metrics with units")


def check_corruption_detected() -> None:
    work = run.WORK / "selftest"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    ctx = run.Context(run.replace(run.WORKLOADS["mock-cpu"], patients=TINY_PATIENTS), 5, work)
    run.setup(ctx)
    out = work / "out"
    clean = run.run_pass(ctx, out, None, "clean")
    expect(clean.ok, f"clean pass failed its checks: {clean.problems}")
    target = sorted((out / "det").glob("detect_merged_*.jsonl"))[0]
    records = run.read_jsonl(target)
    records[0]["label"] = 1 - int(records[0]["label"])
    target.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in records))
    problems = run.check_outputs(ctx.corpus, out)
    expect("detect" in problems, f"flipping one label in {target.name} went unnoticed")
    expect(run.output_digest(out) != clean.digest, "digest ignores a flipped label")
    shutil.rmtree(work)
    print(f"ok  flipping one label in {target.name} fails the check: {problems['detect'][0]}")


def main() -> int:
    for workload in sorted(run.WORKLOADS):
        for trace in (0, 1):
            check_command(workload, trace)
    check_corruption_detected()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
