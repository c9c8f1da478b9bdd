#!/usr/bin/env python3
"""Show that the benchmark's correctness checks are not vacuous.

    python3 perfbench/selftest.py [--workload NAME ...]

For each workload, one short clean run lists the checks it makes (the
"checks made:" line on stderr) and must pass. Then every check is fed a
wrong expectation (run.py --wrong-check NAME), one run per check, and each
of those runs must fail on that check: exit status not 0, "correct": false
and a "CHECK FAILED <name>" line on stderr. Run from the repository root.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ("lion-lone-tcp", "peacock-echo4k-sim", "dog-kv-failover-sim")
SECONDS = 1


def run(workload, wrong=""):
    command = [sys.executable, os.path.join("perfbench", "run.py"),
               "--workload", workload, "--seed", "7",
               "--seconds", str(SECONDS)]
    if wrong:
        command += ["--wrong-check", wrong]
    proc = subprocess.run(command, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    checks, failed = [], set()
    for line in proc.stderr.splitlines():
        if line.startswith("checks made: "):
            checks = line[len("checks made: "):].split(", ")
        if line.startswith("CHECK FAILED "):
            failed.add(line[len("CHECK FAILED "):].split(":")[0])
    return proc.returncode, result, checks, failed


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    args = parser.parse_args()
    vacuous = []
    for workload in args.workload or WORKLOADS:
        code, result, checks, _ = run(workload)
        if code != 0 or not result or not result["correct"] or not checks:
            raise SystemExit(f"{workload}: the clean run failed (exit {code})")
        print(f"{workload}: clean run passes {len(checks)} checks")
        for check in checks:
            code, result, _, failed_checks = run(workload, check)
            failed = (code != 0 and check in failed_checks and
                      (result is None or not result["correct"]))
            print(f"  wrong expectation for {check:28s} -> "
                  f"{'run fails' if failed else 'RUN PASSES (vacuous)'}")
            if not failed:
                vacuous.append(f"{workload}:{check}")
    if vacuous:
        raise SystemExit("vacuous checks: " + ", ".join(vacuous))
    print("every check fails the run when fed a wrong expectation")


if __name__ == "__main__":
    main()
