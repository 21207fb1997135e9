#!/usr/bin/env python3
"""Build and run the SpecHD layer-by-layer benchmark.

    python3 perfbench/run.py --workload <batch|stream_job|incremental|search>
        --seed N --seconds S --trace <0|1> [--perturb]

Run from the root of a checkout. Builds `spechd-server` (from the
repository's workspace) and the benchmark binary `spechd-perfbench` (the package in
this directory) in release mode into `$CARGO_TARGET_DIR` (default
`.bench_build`), then runs it. The last line of standard output is
the result JSON; see README.md in this directory.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["batch", "stream_job", "incremental", "search"]
# The benchmark binary must end within this many seconds of starting
# (builds excluded).
RUN_LIMIT_S = 170


def fail(msg):
    print(f"[perfbench] error: {msg}", file=sys.stderr)
    sys.exit(2)


def build(cmd, env):
    # Cargo's own output goes to stderr so the result stays the last
    # stdout line.
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    if done.returncode != 0:
        fail(f"build failed: {' '.join(cmd)}")


def stop_group(pgid):
    """Kills every process the benchmark binary left behind and waits for them."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.02)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], required=True)
    p.add_argument("--perturb", action="store_true",
                   help="corrupt one output before the correctness gate (must fail)")
    a = p.parse_args()
    # SIGTERM unwinds like an error, so a build or a benchmark still running
    # is stopped by the cleanup below (and by `subprocess.run`).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    for needed in ("Cargo.toml", "crates/server/Cargo.toml", "crates/core/Cargo.toml"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail(f"{needed} not found: run from a full checkout of the repository")

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build(["cargo", "build", "--release", "--offline", "--quiet", "-p", "spechd-server"], env)
    build(["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join("perfbench", "Cargo.toml")], env)

    work = os.path.join(ROOT, ".bench_build", "perfbench-work", str(os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    cmd = [
        os.path.join(target, "release", "spechd-perfbench"),
        "--workload", a.workload,
        "--seed", str(a.seed),
        "--seconds", str(a.seconds),
        "--trace", str(a.trace),
        "--server-bin", os.path.join(target, "release", "spechd-server"),
        "--work-dir", work,
        "--spans-dir", os.path.join(ROOT, ".bench_build", "perfbench-spans"),
    ]
    if a.perturb:
        cmd.append("--perturb")
    # The benchmark gets its own process group so that every process it starts
    # can be stopped with it.
    bench = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)
    try:
        code = bench.wait(timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        print(f"[perfbench] error: benchmark exceeded {RUN_LIMIT_S} s", file=sys.stderr)
        code = 1
    finally:
        stop_group(bench.pid)
        bench.wait()
        shutil.rmtree(work, ignore_errors=True)
    sys.exit(0 if code == 0 else 1)


if __name__ == "__main__":
    main()
