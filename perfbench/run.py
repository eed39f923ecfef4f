#!/usr/bin/env python3
"""Build and run the du-opacity checker benchmark.

    python3 perfbench/run.py --workload open-short --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  The benchmark is an OCaml program
(perfbench/src) linked against the checkout's own lib/, and it drives the
checkout's `tm serve` (bin/).  The libraries in lib/ are private to the
repository's dune project, so both are built in a workspace of their own
under .bench_build/ws: lib/, bin/ and perfbench/src are copied there beside
perfbench/dune-project and built with dune.  Nothing is written outside the
checkout: dune's shared cache is disabled and temporary files go to
.bench_build/tmp.

The last line of standard output is the program's JSON result.  A failed
build exits non-zero without printing one.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WS = os.path.join(BUILD, "ws")
EXE = os.path.join(WS, "_build", "default", "bench", "tmbench.exe")
TM = os.path.join(WS, "_build", "default", "bin", "tm.exe")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def build(env):
    sources = (("lib", os.path.join(ROOT, "lib")), ("bin", os.path.join(ROOT, "bin")),
               ("bench", os.path.join(HERE, "src")))
    if not all(os.path.isdir(src) for _, src in sources):
        sys.stderr.write("perfbench: no lib/ and bin/ beside perfbench/; run from a checkout\n")
        return False
    os.makedirs(WS, exist_ok=True)
    for name, src in sources:
        dst = os.path.join(WS, name)
        shutil.rmtree(dst, ignore_errors=True)
        shutil.copytree(src, dst)
    shutil.copyfile(os.path.join(HERE, "dune-project"), os.path.join(WS, "dune-project"))
    cmd = ["dune", "build", "--root", WS, "--profile", "release",
           "./bench/tmbench.exe", "./bin/tm.exe"]
    try:
        done = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        sys.stderr.write(f"perfbench: build failed: {e}\n")
        return False
    if done.returncode != 0:
        sys.stderr.write(done.stdout.decode(errors="replace"))
        sys.stderr.write("perfbench: build failed\n")
        return False
    return True


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    env = dict(os.environ)
    env["DUNE_CACHE"] = "disabled"
    env["TMPDIR"] = os.path.join(BUILD, "tmp")
    os.makedirs(env["TMPDIR"], exist_ok=True)
    if not build(env):
        return 2
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--tm", os.path.relpath(TM, ROOT)]
    # The load generator and `tm serve` get CPUs of their own, so that
    # where the scheduler happens to place them does not move the figures.
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) >= 2:
        cmd += ["--generator-cpus", str(cpus[0]),
                "--server-cpus", ",".join(str(c) for c in cpus[1:])]
    # A process group of its own, so a timeout also stops the `tm serve`
    # processes the benchmark started.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.stderr.write("perfbench: run timed out\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
