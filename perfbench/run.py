#!/usr/bin/env python3
"""End-to-end benchmark of asicpp.

Builds the perfbench driver (perfbench/CMakeLists.txt, which compiles the
library sources under src/) into .bench_build/ and runs one workload:

  python3 perfbench/run.py --workload service --seed 1 --seconds 10 --trace 0

Workloads (both run sessions on the built-in quickstart and DECT designs on
the iterative, levelized, compiled and jit engines):
  pipeline  the sessions through the library: pipeline::compile and the
            engine instance
  service   the same sessions as protocol lines through the service

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones. The
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. Everything the run writes stays under .bench_build/.
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("pipeline", "service")
# Time the driver may take beyond --seconds: three set-ups (each with a
# cold host compile of the jit images) plus the last unit of work.
SLACK_S = 140


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found beside perfbench/")
    build_dir = os.path.join(OUT, "perfbench")
    log = {"stdout": sys.stderr, "stderr": sys.stderr}
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        r = subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                            "-DCMAKE_BUILD_TYPE=Release"], **log)
        if r.returncode != 0:
            fail("configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    r = subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench",
                        "-j", jobs], **log)
    if r.returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "perfbench")


def run(binary, args, scratch):
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scratch", scratch]
    # Its own process group, so a timeout also stops the host compilers it
    # may have started.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            env=dict(os.environ, TMPDIR=scratch),
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=args.seconds + SLACK_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("timed out")
    if proc.returncode != 0:
        fail(f"driver exited with status {proc.returncode}")
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds <= 0 or args.seed < 0:
        fail("--seconds must be positive and --seed non-negative")

    binary = build()
    scratch = os.path.join(OUT, f"run-{os.getpid()}")
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch)
    try:
        out = run(binary, args, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    lines = out.strip().splitlines()
    if not lines:
        fail("driver printed no result")
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail(f"malformed result: {lines[-1]}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
