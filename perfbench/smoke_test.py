#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at tiny sizes (about a minute).

    python3 perfbench/smoke_test.py

For every workload in BENCHMARK.json it checks that
  * an untraced run succeeds and emits exactly the end_to_end metrics, with
    their units, and a traced run exactly the per_layer metrics;
  * a run whose oracle answer is deliberately wrong (--corrupt-oracle)
    counts failed statements, reports correct=false and exits non-zero;
and that run.py, copied without the engine sources, exits non-zero
without printing a result. Exit status is 1 when any check fails.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
failures = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def run(workload, trace, *extra, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny",
         *extra],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    return proc.returncode, result


def expect_metrics(result, section, label):
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    got = {n: m.get("unit") for n, m in (result or {}).get("metrics", {}).items()}
    check(got == want, f"{label}: emits exactly the {section} metrics with units")
    check(all(isinstance(m.get("value"), (int, float))
              for m in (result or {}).get("metrics", {}).values()),
          f"{label}: every value is a number")


for workload in (w["name"] for w in SPEC["workloads"]):
    code, result = run(workload, 0)
    check(code == 0 and result is not None and result["correct"]
          and result["failed"] == 0 and result["attempted"] >= 1,
          f"{workload}: untraced run is correct (exit {code})")
    check(set(result or {}) == {"correct", "attempted", "failed", "metrics"},
          f"{workload}: result has exactly the four keys")
    expect_metrics(result, "end_to_end", f"{workload} untraced")

    code, result = run(workload, 1)
    check(code == 0 and result is not None and result["correct"],
          f"{workload}: traced run is correct (exit {code})")
    expect_metrics(result, "per_layer", f"{workload} traced")

    code, result = run(workload, 0, "--corrupt-oracle")
    check(code != 0 and result is not None and not result["correct"]
          and result["failed"] >= 1,
          f"{workload}: a wrong oracle answer is counted as a failure "
          f"(exit {code}, failed {result and result['failed']})")

# Without the engine sources the benchmark must fail fast and print nothing.
bare = ROOT / ".bench_build" / "smoke-bare"
shutil.rmtree(bare, ignore_errors=True)
shutil.copytree(ROOT / "perfbench", bare / "perfbench")
shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
code, result = run("fig2_mine", 0, cwd=bare)
check(code != 0 and result is None,
      f"without sources: exits non-zero (exit {code}) and prints no result")
shutil.rmtree(bare, ignore_errors=True)

print(f"{len(failures)} failure(s)")
sys.exit(1 if failures else 0)
