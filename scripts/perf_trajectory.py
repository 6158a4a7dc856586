#!/usr/bin/env python3
"""Measure fig07 wall-clock and emit a caba-perf-v1 BENCH document.

Runs one experiment (default fig07_performance) through the unified
caba_bench CLI N times (serially, CABA_JOBS=1), times each rep, and
writes a stable machine-readable perf document:

    {
      "schema": "caba-perf-v1",
      "bench": "fig07_performance",
      "commit": "<git sha or 'unknown'>",
      "host": {"machine": ..., "cpus": ...},
      "scale": 0.25,
      "reps": 2,
      "wall_seconds": [ ... one entry per rep ... ],
      "wall_seconds_best": 90.4,
      "cells": 100,
      "cells_per_second": 1.11,
      "design_wall_seconds": {"Base": ..., ...},   # from the best rep
      "rows": [{"app": ..., "design": ..., "cycles": ...,
                "instructions": ...}, ...]
    }

Timing lives ONLY in this document — the bench's own caba-bench-v1
JSON stays byte-deterministic (the CI determinism jobs cmp it), and
this script verifies that determinism across its own reps.

Per-design wall-clock is attributed by timestamping the sweep's
progress records ("[sweep] k/N APP x DESIGN", emitted when a cell
finishes) on the bench's stderr; with CABA_JOBS=1 the cells run
serially, so inter-record deltas are per-cell wall time.
"""

import argparse
import json
import os
import platform
import re
import subprocess
import sys
import time

PROGRESS_RE = re.compile(r"\[sweep\]\s*\d+/\d+\s+(\S+)\s+x\s+(\S+)")


def run_rep(bench, experiment, scale, json_path):
    """One timed bench run; returns (wall_seconds, per_design_wall)."""
    env = dict(os.environ)
    env["CABA_SCALE"] = repr(scale)
    env["CABA_JOBS"] = "1"  # serial: progress deltas == per-cell wall
    start = time.monotonic()
    proc = subprocess.Popen(
        [bench, experiment, "--json=" + json_path],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        env=env,
    )
    design_wall = {}
    prev = start
    buf = b""
    # Progress records are \r-terminated; read the raw byte stream and
    # timestamp each complete record on arrival.
    while True:
        chunk = proc.stderr.read(64)
        if not chunk:
            break
        buf += chunk
        while True:
            cut = min(
                (i for i in (buf.find(b"\r"), buf.find(b"\n")) if i >= 0),
                default=-1,
            )
            if cut < 0:
                break
            record, buf = buf[:cut], buf[cut + 1 :]
            now = time.monotonic()
            m = PROGRESS_RE.search(record.decode("utf-8", "replace"))
            if m:
                design = m.group(2)
                design_wall[design] = design_wall.get(design, 0.0) + (
                    now - prev
                )
                prev = now
    rc = proc.wait()
    wall = time.monotonic() - start
    if rc != 0:
        sys.exit(f"error: bench exited with status {rc}")
    return wall, design_wall


def run_profiled_rep(bench, experiment, scale, json_path, prof_path):
    """One extra rep with CABA_PROF attached (not counted in wall time).

    Returns the per-(component, phase) attribution from the bench's
    caba-prof-v1 document. The rep doubles as an end-to-end determinism
    check: the caller compares its bench JSON against the timed reps'.
    """
    env = dict(os.environ)
    env["CABA_SCALE"] = repr(scale)
    env["CABA_JOBS"] = "1"
    env["CABA_PROF"] = prof_path
    subprocess.run(
        [bench, experiment, "--json=" + json_path],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        env=env,
        check=True,
    )
    with open(prof_path) as f:
        prof_doc = json.load(f)
    if prof_doc.get("schema") != "caba-prof-v1":
        sys.exit("error: unexpected profile JSON schema")
    return {
        f"{e['component']}/{e['phase']}": e["ns"]
        for e in prof_doc["entries"]
        if e["calls"] > 0
    }


def result_rows(bench_doc):
    """Compact per-cell digest: enough to prove identical simulation."""
    rows = []
    for cell in bench_doc["cells"]:
        r = cell["result"]
        rows.append(
            {
                "app": cell["app"],
                "design": cell["design"],
                "cycles": r["cycles"],
                "instructions": r["instructions"],
            }
        )
    rows.sort(key=lambda r: (r["app"], r["design"]))
    return rows


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--bench", required=True,
                    help="path to the caba_bench binary")
    ap.add_argument("--experiment", default="fig07_performance",
                    help="experiment to time (see caba_bench --list)")
    ap.add_argument("--out", required=True,
                    help="output path for the caba-perf-v1 document")
    ap.add_argument("--scale", type=float, default=0.25)
    ap.add_argument("--reps", type=int, default=2)
    ap.add_argument("--commit", default=None,
                    help="commit sha to record (default: git rev-parse)")
    ap.add_argument("--note", default=None,
                    help="free-form annotation recorded in the document")
    ap.add_argument("--profile", action="store_true",
                    help="add one untimed CABA_PROF rep and record the "
                         "per-component wall-clock attribution (written "
                         "to <out>.prof.json and embedded under "
                         "'profile', a key bench_compare ignores)")
    args = ap.parse_args()

    commit = args.commit
    if commit is None:
        try:
            commit = subprocess.check_output(
                ["git", "rev-parse", "HEAD"], text=True
            ).strip()
        except (OSError, subprocess.CalledProcessError):
            commit = "unknown"

    walls = []
    best_design_wall = None
    first_bench_json = None
    for rep in range(args.reps):
        json_path = f"{args.out}.rep{rep}.bench.json"
        wall, design_wall = run_rep(args.bench, args.experiment, args.scale,
                                    json_path)
        print(f"rep {rep}: {wall:.3f}s", file=sys.stderr)
        with open(json_path, "rb") as f:
            bench_bytes = f.read()
        if first_bench_json is None:
            first_bench_json = bench_bytes
        elif bench_bytes != first_bench_json:
            sys.exit("error: bench JSON differs between reps "
                     "(simulator output is not deterministic)")
        if not walls or wall < min(walls):
            best_design_wall = design_wall
        walls.append(wall)
        os.remove(json_path)

    profile_attr = None
    if args.profile:
        json_path = f"{args.out}.prof_rep.bench.json"
        prof_path = f"{args.out}.prof.json"
        profile_attr = run_profiled_rep(
            args.bench, args.experiment, args.scale, json_path, prof_path
        )
        with open(json_path, "rb") as f:
            if f.read() != first_bench_json:
                sys.exit("error: bench JSON differs with CABA_PROF set "
                         "(the profiler perturbed the simulation)")
        os.remove(json_path)
        print(f"profiled rep: attribution in {prof_path}", file=sys.stderr)

    bench_doc = json.loads(first_bench_json)
    if bench_doc.get("schema") != "caba-bench-v1":
        sys.exit("error: unexpected bench JSON schema")
    rows = result_rows(bench_doc)

    best = min(walls)
    doc = {
        "schema": "caba-perf-v1",
        "bench": bench_doc["bench"],
        "commit": commit,
        "host": {
            "machine": platform.machine(),
            "cpus": os.cpu_count() or 0,
        },
        "scale": args.scale,
        "reps": args.reps,
        "wall_seconds": [round(w, 3) for w in walls],
        "wall_seconds_best": round(best, 3),
        "cells": len(bench_doc["cells"]),
        "cells_per_second": round(len(bench_doc["cells"]) / best, 4),
        "design_wall_seconds": {
            d: round(w, 3) for d, w in sorted(best_design_wall.items())
        },
        "rows": rows,
    }
    if args.note:
        doc["note"] = args.note
    if profile_attr is not None:
        doc["profile"] = {
            "source": os.path.basename(f"{args.out}.prof.json"),
            "attributed_ns": profile_attr,
        }
    with open(args.out, "w") as f:
        json.dump(doc, f, indent=1, sort_keys=False)
        f.write("\n")
    print(f"wrote {args.out}: best {best:.3f}s over {args.reps} reps, "
          f"{doc['cells_per_second']} cells/s", file=sys.stderr)


if __name__ == "__main__":
    main()
