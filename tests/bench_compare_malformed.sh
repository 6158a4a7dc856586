#!/usr/bin/env bash
# Runs scripts/bench_compare.py on inputs it cannot compare and fails
# unless every run exits 2, its malformed-input status (1 means a gate
# failed, which these inputs never reach).
#
#   bench_compare_malformed.sh BENCH_COMPARE_PY WORK_DIR CASE...
#
# CASE is one of: missing, not-json, no-rows, no-wall.
set -u
script=$1
dir=$2
shift 2
mkdir -p "$dir"
status=0
for name in "$@"; do
    doc="$dir/$name.json"
    rm -f "$doc"
    case $name in
      missing) ;;
      not-json) printf 'not json\n' > "$doc" ;;
      no-rows) printf '{"schema": "caba-perf-v1", "wall_seconds_best": 1.0}\n' > "$doc" ;;
      no-wall) printf '{"schema": "caba-perf-v1", "rows": []}\n' > "$doc" ;;
      *) echo "unknown case '$name'" >&2; exit 1 ;;
    esac
    python3 "$script" "$doc" "$doc"
    rc=$?
    if [ "$rc" -ne 2 ]; then
        echo "FAIL: $name exited $rc, want 2" >&2
        status=1
    fi
done
exit $status
