#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/BENCHMARK.md).

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --regenerate-expected [--write]

The first form builds the benchmark and the `saraccc` daemon from source
with dune, runs one measurement, and passes the benchmark's output
through: its last line is the JSON result. The second recomputes the
committed paper-eval checksums and prints a diff; it is never part of a
measured run.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

BUILD_PROFILE = "dev"
TARGETS = ["./perfbench/main.exe", "./bin/saraccc.exe"]
BENCH_EXE = os.path.join("_build", "default", "perfbench", "main.exe")
SARACCC_EXE = os.path.join("_build", "default", "bin", "saraccc.exe")
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    if shutil.which("dune") is None:
        fail("dune not found")
    env = dict(os.environ, DUNE_CACHE="disabled")
    proc = subprocess.run(
        ["dune", "build", "--root", ".", "--profile", BUILD_PROFILE] + TARGETS,
        stdout=sys.stderr, stderr=sys.stderr, env=env)
    if proc.returncode != 0:
        fail("build failed")


def commit():
    if not os.path.isdir(".git") or shutil.which("git") is None:
        return "unknown"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def run_isolated(argv):
    """Run argv in its own session; whatever it leaves behind (a daemon
    it did not get to stop) is killed and reaped before returning."""
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, _ = proc.communicate()
        print("perfbench: run timed out", file=sys.stderr)
        proc.returncode = 124
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    return proc.returncode, out.decode()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=[0, 1])
    ap.add_argument("--regenerate-expected", action="store_true")
    ap.add_argument("--write", action="store_true")
    args = ap.parse_args()

    if not os.path.isfile(os.path.join("perfbench", "run.py")):
        fail("run from the repository root")
    build()
    if args.regenerate_expected:
        sys.exit(subprocess.run([BENCH_EXE, "expected"] + (["--write"] if args.write else [])).returncode)
    if None in (args.workload, args.seed, args.seconds, args.trace):
        fail("need --workload, --seed, --seconds and --trace")
    code, out = run_isolated([
        BENCH_EXE, "run", "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--saraccc", SARACCC_EXE, "--commit", commit()])
    if code != 0:
        sys.stderr.write(out)
        fail("benchmark exited with code %d" % code)
    sys.stdout.write(out)


if __name__ == "__main__":
    main()
