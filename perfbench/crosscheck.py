#!/usr/bin/env python3
"""Checks a sweep golden file against results caba_bench produced.

    python3 perfbench/crosscheck.py perfbench/golden/fig07_sweep.txt fig07.json

The JSON is either a `caba_bench fig07_performance --json=PATH` document
(caba-bench-v1: every cell with its stats, so the whole digest is
compared) or a perf baseline such as BENCH_fig07.json (caba-perf-v1:
rows with cycles and instructions only). Both must come from the same
scale and seed as the golden. Exits 1 on any difference.
"""

import json
import struct
import sys

FNV_OFFSET = 0xCBF29CE484222325
FNV_PRIME = 0x100000001B3


def fnv(h, data):
    for byte in data:
        h = ((h ^ byte) * FNV_PRIME) & 0xFFFFFFFFFFFFFFFF
    return h


def digest(result):
    """perfbench's digest: cycles, instructions, then every counter and
    gauge by name (byte order), each name NUL-terminated."""
    h = fnv(FNV_OFFSET, struct.pack("<QQ", result["cycles"], result["instructions"]))
    counters = {**result["stats"], **result["gauges"]}
    for name in sorted(counters):
        h = fnv(h, name.encode() + b"\0" + struct.pack("<Q", counters[name]))
    return h


def main(golden_path, json_path):
    golden = {}
    with open(golden_path) as f:
        for line in f:
            if line.strip() and not line.startswith("#"):
                label, *values = line.split()
                golden[label] = [int(v) for v in values]
    with open(json_path) as f:
        doc = json.load(f)
    if isinstance(doc.get("cells"), list):
        # fig01 names its 1x cells "Base@1.0x"; perfbench calls them "Base".
        got = {f"{c['app']}/{c['design']}".replace("@1.0x", ""): c["result"]
               for c in doc["cells"]}
        got = {k: [r["cycles"], r["instructions"], digest(r)] for k, r in got.items()
               if k in golden}
    else:
        got = {f"{r['app']}/{r['design']}": [r["cycles"], r["instructions"]]
               for r in doc["rows"]}
    bad = 0
    for label in sorted(set(golden) | set(got)):
        want, have = golden.get(label), got.get(label)
        if want is None or have is None or want[:len(have)] != have:
            print(f"differs: {label}: golden {want} json {have}")
            bad += 1
    print(f"{len(got)} cells compared, {bad} differ")
    return 1 if bad else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1], sys.argv[2]))
