#!/usr/bin/env python3
"""Build and run the wall-clock benchmark from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the benchmark (perfbench/perfbench.exe) and the shipped CLI (the
serve-mixed workload runs `rma_race serve` as a child process) with
dune, runs one workload, and prints the benchmark's output; its last
line is the JSON result. Exits non-zero without a result when the build
or the run fails. README.md in this directory describes the workloads
and every metric.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

WORKLOADS = ["minivite-online", "minivite-replay-j2", "cfd-replay", "serve-mixed"]
# These keep one CPU busy. They run pinned to one CPU, so the pass never
# migrates and the calibration kernel, which inherits the pin, times the
# CPU the pass runs on: the CPUs of the machines this was built on change
# speed each on its own. minivite-replay-j2 runs two domains, and
# serve-mixed the daemon beside its client.
ONE_CPU = {"minivite-online", "cfd-replay"}
BENCH_EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")
CLI_EXE = os.path.join("_build", "default", "bin", "rma_race_cli.exe")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def pin_to_one_cpu():
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def run_group(argv, timeout, env=None, stdout=None, preexec_fn=None):
    """Run argv in its own process group; on timeout kill the whole group
    (the serve daemon included) and wait for it."""
    try:
        proc = subprocess.Popen(
            argv,
            stdout=stdout,
            stderr=sys.stderr,
            env=env,
            start_new_session=True,
            preexec_fn=preexec_fn,
        )
    except OSError as e:
        fail("cannot run %s: %s" % (argv[0], e))
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("%s timed out after %d s" % (argv[0], timeout))
    return proc.returncode, out


def main():
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = ap.parse_args()

    # The shared dune cache lives outside the checkout; keep the build inside it.
    env = dict(os.environ, DUNE_CACHE="disabled")
    code, _ = run_group(
        ["dune", "build", "--root", ".", "./perfbench/perfbench.exe", "./bin/rma_race_cli.exe"],
        BUILD_TIMEOUT_S,
        env=env,
        stdout=sys.stderr,
    )
    if code != 0:
        fail("build failed (exit %d)" % code)

    code, out = run_group(
        [
            BENCH_EXE,
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
            "--daemon", CLI_EXE,
        ],
        RUN_TIMEOUT_S,
        stdout=subprocess.PIPE,
        preexec_fn=pin_to_one_cpu if args.workload in ONE_CPU else None,
    )
    lines = out.decode("utf-8", "replace").strip().splitlines()
    if code != 0 or not lines:
        fail("benchmark failed (exit %d)" % code)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("benchmark printed no result line")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result line")
    for line in lines:
        print(line)


if __name__ == "__main__":
    main()
