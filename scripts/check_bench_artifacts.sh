#!/usr/bin/env bash
# Committed perf-artifact hygiene.
#
# Convention: BENCH_*.json files are build products and gitignored by
# default; an artifact is committed only when (a) a negation rule in
# .gitignore names it explicitly and (b) the producing bench binary is
# recorded inside the file itself ("bench": "<target>", a source file
# bench/<target>.cc). Every committed artifact must also carry the
# bench_util provenance stamp ("meta": git_sha/threads/simd/scale plus
# host_cores/cpu_model/compiler/build_type), so a reviewer can tell
# where the numbers came from.
#
# This script checks the mapping in both directions:
#   tracked BENCH_*.json  -> producing bench/<target>.cc exists,
#                            provenance meta complete,
#                            .gitignore negation present;
#   .gitignore negations  -> the named artifact is actually tracked.
#
# Exit: 0 clean, 1 violations, 77 when git/python3 is unavailable
# (ctest SKIP_RETURN_CODE).

set -u
cd "$(dirname "$0")/.."

if ! command -v git >/dev/null 2>&1 || ! command -v python3 >/dev/null 2>&1; then
    echo "check_bench_artifacts: git or python3 unavailable, skipping"
    exit 77
fi
if ! git rev-parse --is-inside-work-tree >/dev/null 2>&1; then
    echo "check_bench_artifacts: not a git checkout, skipping"
    exit 77
fi

fail=0

tracked=$(git ls-files 'BENCH_*.json')

for artifact in $tracked; do
    # The producing bench target is recorded in the artifact itself.
    bench=$(python3 - "$artifact" <<'EOF'
import json, sys
try:
    print(json.load(open(sys.argv[1])).get("bench", ""))
except Exception:
    pass
EOF
)
    if [ -z "$bench" ]; then
        echo "FAIL: $artifact is not valid JSON with a \"bench\" key"
        fail=1
        continue
    fi
    if [ ! -f "bench/$bench.cc" ]; then
        echo "FAIL: $artifact claims producer '$bench' but bench/$bench.cc does not exist"
        fail=1
    fi
    if ! python3 - "$artifact" <<'EOF'
import json, sys
meta = json.load(open(sys.argv[1])).get("meta", {})
missing = [k for k in ("git_sha", "threads", "simd", "scale",
                      "host_cores", "cpu_model", "compiler",
                      "build_type")
           if k not in meta]
sys.exit(1 if missing else 0)
EOF
    then
        echo "FAIL: $artifact lacks the bench_util provenance meta (git_sha/threads/simd/scale/host_cores/cpu_model/compiler/build_type)"
        fail=1
    fi
    if ! grep -qx "!$artifact" .gitignore; then
        echo "FAIL: $artifact is tracked but .gitignore has no '!$artifact' negation"
        fail=1
    fi
done

# Reverse direction: every negation names a tracked artifact.
while IFS= read -r line; do
    case "$line" in
      '!BENCH_'*.json)
        artifact=${line#!}
        if ! git ls-files --error-unmatch "$artifact" >/dev/null 2>&1; then
            echo "FAIL: .gitignore negates $artifact but it is not tracked"
            fail=1
        fi
        ;;
    esac
done < .gitignore

if [ "$fail" -eq 0 ]; then
    count=$(echo "$tracked" | grep -c . || true)
    echo "check_bench_artifacts: $count committed artifact(s) map 1:1 to bench targets"
fi
exit $fail
