#!/usr/bin/env python3
"""Build and run one workload of the repository benchmark.

    python3 perfbench/run.py --workload lion-lone-tcp --seed 1 \
        --seconds 24 --trace 0

Run from the repository root. The first call configures and builds the
library, seemore_node and the perfbench binary (Release) into
$CARGO_TARGET_DIR (default .bench_build); later calls only re-check the
build. The binary then runs pinned to all allowed cores but one, and the
node processes of the tcp workload inherit that mask. The last line of
stdout is the binary's JSON result; build output goes to stderr.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("lion-lone-tcp", "peacock-echo4k-sim", "dog-kv-failover-sim")


def build(build_dir):
    here = os.path.dirname(os.path.abspath(__file__))
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", here, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "bin", "perfbench")


def pinned_cores():
    """All allowed cores but one (one core when only one is allowed)."""
    allowed = sorted(os.sched_getaffinity(0))
    return allowed[:max(1, len(allowed) - 1)]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=24,
                        help="measured run length (BENCHMARK.json's "
                             "run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--wrong-check", default="",
                        help="feed this correctness check a wrong expectation"
                             " (the run must then fail)")
    args = parser.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                               ".bench_build"))
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return 2

    cores = pinned_cores()
    print(f"perfbench: {args.workload} seed={args.seed} pinned to cores "
          f"{cores}", file=sys.stderr)
    command = [binary, f"--workload={args.workload}", f"--seed={args.seed}",
               f"--seconds={args.seconds}", f"--trace={args.trace}",
               f"--work-root={build_dir}"]
    if args.wrong_check:
        command.append(f"--wrong-check={args.wrong_check}")
    run = subprocess.run(command,
                         preexec_fn=lambda: os.sched_setaffinity(0, cores))
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
