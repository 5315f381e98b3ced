#!/usr/bin/env python3
"""Builds flockbench from source and runs one workload.

    python3 perfbench/run.py --workload fig2_mine --seed 1 --seconds 20 --trace 0

Run from the repository root. The engine libraries and the benchmark are
built (Release) into $CARGO_TARGET_DIR, default .bench_build, on the first
run and incrementally afterwards. The benchmark's stdout passes through
unchanged: its last line is the result object. Extra arguments (--tiny,
--corrupt-oracle) are forwarded to the benchmark binary.

The binary runs with glibc's malloc backing its heap with transparent huge
pages (GLIBC_TUNABLES glibc.malloc.hugetlb=1). A Fig. 2 statement touches
a few hundred MB; with 4 KB pages its time moved with other tenants'
memory traffic on a shared host, with huge pages less (README.md).

Exit status is the binary's, or 2 when the sources are missing, the build
fails, or the run exceeds its time limit.
"""
import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def build(build_root):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"engine sources not found under {ROOT / 'src'}")
    build_dir = build_root / "flockbench"
    log_path = build_root / "flockbench-build.log"
    build_root.mkdir(parents=True, exist_ok=True)
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target", "flockbench",
                  "-j", jobs])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode:
                tail = log_path.read_text(errors="replace").splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build step failed: {' '.join(step)} (log: {log_path})")
    return build_dir / "flockbench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args, extra = parser.parse_known_args()

    build_root = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build_root.is_absolute():
        build_root = ROOT / build_root
    binary = build(build_root)

    # Catalog, spill and input files live under the build root, inside the
    # checkout, and are removed after the run.
    work_dir = build_root / "work" / f"{args.workload}-{os.getpid()}"
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", args.trace, "--work-dir", str(work_dir),
               "--trace-dir", str(build_root / "traces"), *extra]
    env = dict(os.environ)
    env["GLIBC_TUNABLES"] = ":".join(
        filter(None, [env.get("GLIBC_TUNABLES"), "glibc.malloc.hugetlb=1"]))
    try:
        code = subprocess.run(command, env=env, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        code = None
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if code is None:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.exit(code)


if __name__ == "__main__":
    main()
