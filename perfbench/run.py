#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

Run from the root of a checkout:

    python3 perfbench/run.py --workload fig07_sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

The first run configures and compiles the simulator and the perfbench
binary into $CARGO_TARGET_DIR (default .bench_build, relative to the
checkout root); later runs rebuild only what changed. For one workload
the last line of stdout is the binary's JSON result. `--workload all` runs every workload
in turn and ends with a summary table instead.
"""

import json
import math
import os
import shutil
import subprocess
import sys

WORKLOADS = ("fig07_sweep", "compute_sweep", "codec_roundtrip")
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A wedged simulation is stopped after this plus four times --seconds: a
# traced fig07 run is one untraced pass (up to about 60 s on a loaded
# host) and one traced pass, however short --seconds is.
HANG_MARGIN_S = 120


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    """Configures (once) and builds the perfbench binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "gpu", "gpu_system.h")):
        fail("simulator sources not found: run from a full checkout")
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", build_dir, *generator,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "perfbench")


def run(binary, args):
    """Runs the binary with a CABA_*-free environment; returns stdout."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("CABA_")}
    cmd = [binary, "--golden-dir", os.path.join(HERE, "golden"), *args]
    seconds = 10.0
    if "--seconds" in args and args.index("--seconds") + 1 < len(args):
        try:
            seconds = float(args[args.index("--seconds") + 1])
        except ValueError:
            pass   # the binary rejects it with a usage message
    if not math.isfinite(seconds) or seconds < 0:
        seconds = 10.0   # likewise
    timeout = HANG_MARGIN_S + 4 * seconds
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"{' '.join(args)} did not finish in {timeout:g} s", 3)
    if proc.returncode != 0:
        fail(f"perfbench exited with {proc.returncode}", proc.returncode)
    return proc.stdout


def main(argv):
    if "--workload" not in argv:
        fail("usage: run.py --workload NAME|all [--seed N] [--seconds S] [--trace 0|1]")
    i = argv.index("--workload")
    workload = argv[i + 1] if i + 1 < len(argv) else ""
    if workload not in WORKLOADS + ("all",):
        fail(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)} or all")
    binary = build()
    if workload != "all":
        sys.stdout.write(run(binary, argv))
        return 0

    rest = argv[:i] + argv[i + 2:]
    results = {}
    for name in WORKLOADS:
        out = run(binary, ["--workload", name, *rest])
        sys.stdout.write(out)
        results[name] = json.loads(out.strip().splitlines()[-1])
    print("\nsummary")
    for name, res in results.items():
        print(f"{name}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']}")
        for metric, m in res["metrics"].items():
            print(f"  {metric:44s} {m['value']:16.6g} {m['unit']}")
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
