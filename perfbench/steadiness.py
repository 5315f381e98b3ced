#!/usr/bin/env python3
"""Steadiness check: runs one workload K times and reports the spread.

    python3 perfbench/steadiness.py --workload fig2_mine --runs 10 --first-seed 1
    python3 perfbench/steadiness.py --workload fig2_mine --runs 10 --first-seed 1 \\
        --save set_a.json
    python3 perfbench/steadiness.py --compare set_a.json set_b.json

Each run uses its own seed (first-seed, first-seed+1, ...). For every
end-to-end metric the script prints the median, the quartiles (Python's
statistics.quantiles(values, n=4)) and the spread (Q3 - Q1) / median, and
flags a spread above the metric's bound in BENCHMARK.json (setup_s is
exempt from the spread rule) or above a third of it (the margin to aim
for). --compare checks that the second set's median is not worse than the
first's by more than the bound, for every metric including setup_s.
Exit status is 1 when any check fails.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect result {result}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def summarize(spec, runs):
    ok = True
    print(f"{'metric':<16}{'median':>14}{'q1':>14}{'q3':>14}{'spread':>9}"
          f"{'bound':>8}  verdict")
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        values = [r[name] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        if name == "setup_s":
            verdict = "exempt"
        elif spread > bound:
            verdict, ok = "WIDER THAN BOUND", False
        elif spread > bound / 3:
            verdict = "above bound/3"
        else:
            verdict = "ok"
        print(f"{name:<16}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}{spread:>9.4f}"
              f"{bound:>8}  {verdict}")
    return ok


def compare(spec, first, second):
    ok = True
    for workload in sorted(set(first) & set(second)):
        print(f"[{workload}] second set vs first")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a = statistics.median(r[name] for r in first[workload])
            b = statistics.median(r[name] for r in second[workload])
            worse = (b - a) / a if metric["better"] == "lower" else (a - b) / a
            verdict = "ok" if worse <= bound else "WORSE THAN BOUND"
            ok = ok and worse <= bound
            print(f"  {name:<16}{a:>14.6g}{b:>14.6g}  worse by {worse:+.4f}"
                  f" (bound {bound})  {verdict}")
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", default=[],
                        help="repeatable; default: every workload")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--save", help="write the raw runs to this JSON file")
    parser.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    args = parser.parse_args()
    spec = load_spec()

    if args.compare:
        first, second = (json.loads(Path(p).read_text()) for p in args.compare)
        sys.exit(0 if compare(spec, first, second) else 1)

    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    ok, saved = True, {}
    for workload in workloads:
        runs = []
        for i in range(args.runs):
            runs.append(run_once(workload, args.first_seed + i, seconds, 0))
            print(f"  {workload} run {i + 1}/{args.runs}: "
                  + ", ".join(f"{k}={v:.6g}" for k, v in runs[-1].items()),
                  flush=True)
        print(f"[{workload}] {args.runs} runs, seeds {args.first_seed}.."
              f"{args.first_seed + args.runs - 1}")
        ok = summarize(spec, runs) and ok
        saved[workload] = runs
    if args.save:
        Path(args.save).write_text(json.dumps(saved, indent=1))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
