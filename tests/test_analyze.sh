#!/bin/sh
# Self-test for tools/analyze (mnoc-analyze), run as a ctest.
#
# Five parts:
#   1. the real tree must analyze clean against the checked-in
#      baseline (exit 0) using the build's compile_commands.json,
#      and the analysis must cover every first-party source file;
#   2. the fixture tree in tests/analyze_fixtures/tree/ must trip
#      every rule exactly where seeded, and no ok_* file may appear;
#   3. the SARIF export must be structurally valid 2.1.0;
#   4. the findings must be byte-identical for MNOC_THREADS=1 and 8;
#   5. a malformed compilation database must end in a fatal naming
#      the database and a byte offset, never in a signal, and a
#      directory given as the baseline must end in a fatal naming it.
#
# Usage: test_analyze.sh <mnoc-analyze> <compile_commands.json> <repo-root>
set -eu

analyze=${1:?usage: test_analyze.sh <mnoc-analyze> <db> <repo-root>}
db=${2:?usage: test_analyze.sh <mnoc-analyze> <db> <repo-root>}
root=${3:?usage: test_analyze.sh <mnoc-analyze> <db> <repo-root>}

fail() {
    echo "test_analyze: FAIL: $*" >&2
    exit 1
}

[ -x "$analyze" ] || fail "analyzer not found at $analyze"
[ -f "$db" ] || fail "compilation database not found at $db"

scratch=$(mktemp -d)
trap 'rm -rf "$scratch"' EXIT

# --- 1. The tree itself is clean against the baseline. ------------
if ! "$analyze" --root "$root" --compile-commands "$db" \
        --baseline "$root/tools/analyze/baseline.txt" \
        > "$scratch/tree.txt" 2> "$scratch/tree.err"; then
    cat "$scratch/tree.txt" "$scratch/tree.err" >&2
    fail "mnoc-analyze reported findings on the real tree"
fi

# The worklist is the compilation database plus the headers it
# includes; a file outside both would escape every rule.
analyzed=$(sed -n 's/^mnoc-analyze: \([0-9]*\) file(s) analyzed.*/\1/p' \
               "$scratch/tree.err")
expected=$(cd "$root" && find src tests tools bench examples \
               \( -name '*.cc' -o -name '*.hh' -o -name '*.cpp' \) \
               -not -path '*/analyze_fixtures/*' | wc -l)
[ "$analyzed" -eq "$expected" ] ||
    fail "analyzed $analyzed file(s), but the tree holds $expected"

# --- 2. The fixtures trip every rule. -----------------------------
fixtures="$root/tests/analyze_fixtures/tree"
fixture_files=$(find "$fixtures" \( -name '*.cc' -o -name '*.hh' \) |
                    sort)
out="$scratch/findings.txt"
if "$analyze" --root "$fixtures" --sarif "$scratch/out.sarif" \
        $fixture_files \
        > "$out" 2> "$scratch/fixtures.err"; then
    cat "$out" >&2
    fail "mnoc-analyze accepted fixtures with seeded violations"
fi

# Each seeded violation must be flagged in its bad_* file...
while read -r needle; do
    grep -q "$needle" "$out" || {
        cat "$out" >&2
        fail "seeded violation '$needle' was not flagged"
    }
done <<EOF
bad_unordered_iteration.cc:12: \[unordered-iteration\]
bad_sink_annotation.cc:15: \[unordered-iteration\]
bad_wall_clock.cc:9: \[wall-clock\]
bad_unseeded_rng.cc:8: \[unseeded-rng\]
bad_raw_thread.cc:9: \[raw-thread\]
bad_shared_prng.cc:12: \[shared-prng\]
bad_discarded_result.cc:10: \[discarded-result\]
bad_discarded_journal.cc:10: \[discarded-result\]
bad_unclosed_writer.cc:10: \[unclosed-writer\]
bad_raw_ofstream.cc:9: \[raw-ofstream\]
bad_raw_getenv.cc:9: \[raw-getenv\]
bad_check_message.cc:9: \[check-message\]
bad_check_message.cc:10: \[check-message\]
bad_layering.cc:1: \[layering\]
ring.hh:4: \[include-cycle\]
bad_raw_pow.cc:1: \[raw-pow\]
bad_raw_pow.cc:2: \[raw-pow\]
bad_float.cc:1: \[float\]
bad_float.cc:2: \[float\]
bad_unit_param.hh:3: \[unit-param\] 'double coupler_loss_db'
bad_unit_param.hh:4: \[unit-param\] 'double power_mw'
bad_header_guard.hh:1: \[header-guard\] missing
bad_header_guard_pair.hh:2: \[header-guard\] .* not followed by
bad_header_guard_pair.hh:3: \[header-guard\] file must end with
bad_include_order.cc:1: \[include-order\] own header
bad_include_order.cc:4: \[include-order\] mixed
bad_include_order.cc:7: \[include-order\] .* sorted: core/zeta.hh,
bad_include_order.cc:10: \[include-order\] <system> include block after
bad_format.cc:2: \[format\] tab character
bad_format.cc:3: \[format\] trailing whitespace
bad_format.cc:4: \[format\] line is 80 columns
EOF

# ...and no clean counterpart (or suppressed site) may appear.
if grep -E 'ok_[a-z_]+\.(cc|hh)' "$out"; then
    cat "$out" >&2
    fail "a clean ok_* fixture was flagged"
fi

# --- 3. The SARIF export is structurally valid. -------------------
if command -v python3 > /dev/null 2>&1; then
    python3 - "$scratch/out.sarif" <<'EOF' || fail "invalid SARIF"
import json
import sys

with open(sys.argv[1], encoding="utf-8") as handle:
    doc = json.load(handle)
assert doc["version"] == "2.1.0", "version must be 2.1.0"
assert "sarif-schema-2.1.0" in doc["$schema"], "schema URI"
run = doc["runs"][0]
rules = {r["id"] for r in run["tool"]["driver"]["rules"]}
assert len(rules) == 18, "rule catalog incomplete"
results = run["results"]
assert results, "fixture run must produce results"
for result in results:
    assert result["ruleId"] in rules, "result references unknown rule"
    assert result["level"] in ("error", "warning"), "bad level"
    assert result["message"]["text"], "empty message"
    loc = result["locations"][0]["physicalLocation"]
    uri = loc["artifactLocation"]["uri"]
    assert not uri.startswith("/"), "URI must be root-relative"
    assert loc["region"]["startLine"] >= 1, "bad startLine"
print("sarif ok:", len(results), "results")
EOF
else
    echo "test_analyze: python3 missing, skipping SARIF check" >&2
fi

# --- 4. Findings are byte-identical across thread counts. ---------
MNOC_THREADS=1 "$analyze" --root "$fixtures" $fixture_files \
    > "$scratch/t1.txt" 2> /dev/null || true
MNOC_THREADS=8 "$analyze" --root "$fixtures" $fixture_files \
    > "$scratch/t8.txt" 2> /dev/null || true
cmp -s "$scratch/t1.txt" "$scratch/t8.txt" || {
    diff "$scratch/t1.txt" "$scratch/t8.txt" >&2 || true
    fail "findings differ between MNOC_THREADS=1 and 8"
}
[ -s "$scratch/t1.txt" ] || fail "thread-determinism run was empty"

# --- 5. Malformed databases are diagnosed, not crashed on. ---------
# 200 000 nested '[' overflowed the stack of the analyzer's former
# recursive reader (SIGSEGV); the reader caps nesting instead.
bad_db() {
    name=$1
    "$analyze" --root "$fixtures" --compile-commands "$scratch/$name" \
        > /dev/null 2> "$scratch/$name.err" && status=0 || status=$?
    [ "$status" -eq 2 ] || {
        cat "$scratch/$name.err" >&2
        fail "$name: exit status $status, expected the fatal exit 2"
    }
    grep -q "$scratch/$name: malformed JSON at byte [0-9]" \
        "$scratch/$name.err" || {
        cat "$scratch/$name.err" >&2
        fail "$name: the diagnostic names no database and byte"
    }
}
awk 'BEGIN { for (i = 0; i < 200000; ++i) printf "["; print "" }' \
    > "$scratch/deep.json"
bad_db deep.json
printf '[tttt]\n' > "$scratch/literal.json"
bad_db literal.json
printf '[{"directory": "/w", "file": "a.cc", "command": "c++ a.cc"},' \
    > "$scratch/truncated.json"
bad_db truncated.json

# A directory opens as a stream and fails only at the first read; it
# must be refused as not a regular file, naming the path.
mkdir "$scratch/baseline_dir"
"$analyze" --root "$fixtures" --baseline "$scratch/baseline_dir" \
    $fixture_files > /dev/null 2> "$scratch/baseline_dir.err" &&
    status=0 || status=$?
[ "$status" -eq 2 ] || {
    cat "$scratch/baseline_dir.err" >&2
    fail "baseline directory: exit status $status, expected the fatal exit 2"
}
refused="not a regular file, cannot load it as a baseline"
grep -q "$refused: $scratch/baseline_dir" "$scratch/baseline_dir.err" || {
    cat "$scratch/baseline_dir.err" >&2
    fail "baseline directory: the diagnostic names no path"
}

echo "test_analyze: PASS (tree clean and fully covered, fixtures" \
     "flagged, SARIF valid, thread-count deterministic, malformed" \
     "databases and a directory baseline diagnosed)"
