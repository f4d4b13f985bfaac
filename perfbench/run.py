#!/usr/bin/env python3
"""Run one perfbench workload from the root of a source checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the perfbench binary and the libraries it links (from ./src) into
.bench_build/ with CMake, runs the workload in its own process, and relays the
binary's output. The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1. Any
failed build, failed output check or missing metric exits non-zero without
that line. Scratch data (fleet journals) lives under .bench_build/ and is
removed when the run ends; nothing is fetched from the network.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "cmake")
OUT_DIR = os.path.join(ROOT, ".bench_build", "out")
BINARY = os.path.join(BUILD_DIR, "perfbench")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no sources: run from the root of a checkout that has src/")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                      "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(step))


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    section = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in section}


def stop_group(proc):
    """Kills whatever is left of the binary's process group and waits."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    expected = expected_metrics(args.trace)
    build()
    os.makedirs(OUT_DIR, exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", OUT_DIR]
    # Own process group: fleet workers and forked backends are reaped even
    # if the binary is killed.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    timed_out = threading.Event()

    def on_timeout():
        timed_out.set()
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    watchdog = threading.Timer(RUN_TIMEOUT_S, on_timeout)
    watchdog.start()
    lines = []
    try:
        for line in proc.stdout:
            lines.append(line.rstrip("\n"))
            if not line.startswith("{"):
                sys.stdout.write(line)
                sys.stdout.flush()
    finally:
        watchdog.cancel()
        stop_group(proc)
    if timed_out.is_set():
        fail("workload %s timed out after %d s" % (args.workload,
                                                   RUN_TIMEOUT_S))
    if proc.returncode != 0:
        fail("workload %s failed (exit %d)" % (args.workload, proc.returncode))
    if not lines:
        fail("workload %s printed nothing" % args.workload)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("workload %s: last line is not JSON" % args.workload)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("workload %s: unexpected result keys" % args.workload)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        fail("workload %s: metrics differ from BENCHMARK.json "
             "(missing %s, extra %s)" % (args.workload, missing, extra))
    if result["correct"] is not True or result["attempted"] < 1:
        fail("workload %s: incorrect result" % args.workload)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
