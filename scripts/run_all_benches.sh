#!/usr/bin/env bash
# Regenerates every paper figure/table through the unified caba_bench
# CLI. One process runs all experiments as one run plan, so cells
# shared between them (Figures 7/8/9 sweep the same grid) simulate
# once.
#
# Saves one log per experiment into bench_results/ (plus each
# experiment's caba-bench-v1 JSON) and a combined bench_output.txt in
# the working directory. Progress and errors go to stderr; the script
# exits with caba_bench's status when caba_bench fails.
#
# Usage: scripts/run_all_benches.sh [build-dir]
set -euo pipefail
BUILD=${1:-build}
OUT=bench_results
mkdir -p "$OUT"
"$BUILD"/bench/caba_bench --all --json \
    | tee bench_output.txt \
    | awk -v out="$OUT" '
        function emit(    file, i) {
            if (name == "")
                return
            file = out "/" name ".txt"
            # Drop the single separator blank line caba_bench appends,
            # keeping each log identical to the old standalone binary.
            if (n > 0 && lines[n] == "")
                n--
            for (i = 1; i <= n; i++)
                print lines[i] > file
            close(file)
        }
        /^=== .* ===$/ { emit(); name = $2; n = 0; next }
        { lines[++n] = $0 }
        END { emit() }'
echo "All bench logs in $OUT/, combined log in bench_output.txt"
