#!/usr/bin/env python3
"""Compare two caba-perf-v1 documents: results must match, wall-clock
must not regress.

    bench_compare.py BASELINE CURRENT [--max-wall-regress 0.15]
                     [--strict-wall]

Two independent gates:

1. Result rows (always enforcing). Every (app, design) cell must report
   exactly the same cycles and instructions in both documents — a
   performance optimization must not change what the simulator computes.

2. Wall-clock (enforcing on matching hosts). CURRENT's best wall time
   may exceed BASELINE's by at most --max-wall-regress (default 15%).
   When the two documents were measured on different hosts the absolute
   times are not comparable, so the gate downgrades to a warning unless
   --strict-wall forces it.

Exit status 0 = pass, 1 = gate failure, 2 = malformed input.
"""

import argparse
import json
import sys


def malformed(msg):
    print(f"error: {msg}", file=sys.stderr)
    sys.exit(2)


def load(path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except OSError as e:
        malformed(f"cannot read {path}: {e}")
    except ValueError as e:
        malformed(f"{path} is not JSON: {e}")
    if not isinstance(doc, dict) or doc.get("schema") != "caba-perf-v1":
        malformed(f"{path} is not a caba-perf-v1 document")
    rows = doc.get("rows")
    row_keys = ("app", "design", "cycles", "instructions")
    if not isinstance(rows, list) or not all(
            isinstance(r, dict) and all(k in r for k in row_keys)
            for r in rows):
        malformed(f"{path} has no 'rows' list of {', '.join(row_keys)}")
    wall = doc.get("wall_seconds_best")
    if isinstance(wall, bool) or not isinstance(wall, (int, float)):
        malformed(f"{path} has no numeric 'wall_seconds_best'")
    return doc


def rows_by_cell(doc):
    return {(r["app"], r["design"]): r for r in doc["rows"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("baseline")
    ap.add_argument("current")
    ap.add_argument("--max-wall-regress", type=float, default=0.15,
                    help="allowed fractional wall-clock increase")
    ap.add_argument("--strict-wall", action="store_true",
                    help="enforce the wall gate across differing hosts")
    args = ap.parse_args()

    base = load(args.baseline)
    cur = load(args.current)
    failed = False

    for key in ("bench", "scale"):
        if base.get(key) != cur.get(key):
            print(f"FAIL: {key} differs "
                  f"({base.get(key)!r} vs {cur.get(key)!r}) — "
                  "the documents measure different things",
                  file=sys.stderr)
            sys.exit(1)

    # Gate 1: identical simulation results, cell by cell.
    b_rows, c_rows = rows_by_cell(base), rows_by_cell(cur)
    for key in sorted(set(b_rows) | set(c_rows)):
        b, c = b_rows.get(key), c_rows.get(key)
        if b is None or c is None:
            print(f"FAIL: cell {key} present in only one document",
                  file=sys.stderr)
            failed = True
            continue
        for field in ("cycles", "instructions"):
            if b[field] != c[field]:
                print(f"FAIL: {key} {field}: baseline {b[field]} != "
                      f"current {c[field]}", file=sys.stderr)
                failed = True
    if not failed:
        print(f"rows: {len(c_rows)} cells identical")

    # Gate 2: wall-clock trajectory.
    b_wall = base["wall_seconds_best"]
    c_wall = cur["wall_seconds_best"]
    limit = b_wall * (1.0 + args.max_wall_regress)
    same_host = base.get("host") == cur.get("host")
    verdict = (f"wall: baseline {b_wall:.3f}s, current {c_wall:.3f}s "
               f"(limit {limit:.3f}s)")
    if c_wall <= limit:
        print(verdict + " — ok")
        if c_wall < b_wall * (1.0 - args.max_wall_regress):
            print("note: current is much faster than baseline; consider "
                  "refreshing the committed BENCH document")
    elif same_host or args.strict_wall:
        print("FAIL: " + verdict + " — wall-clock regression",
              file=sys.stderr)
        failed = True
    else:
        print("warning: " + verdict + " — exceeded, but hosts differ "
              f"({base.get('host')} vs {cur.get('host')}); not enforced "
              "(pass --strict-wall to enforce)", file=sys.stderr)

    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
