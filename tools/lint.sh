#!/bin/sh
# Static-analysis driver for the clang tools: clang-format and
# clang-tidy, when the binaries exist (the CI image has them, the
# minimal dev container may not; missing tools are reported as
# SKIPPED, never as failures).  The domain rules live in
# mnoc-analyze, which tools/check.sh runs next.
#
# Usage: tools/lint.sh [build-dir]
#   build-dir  directory holding compile_commands.json for clang-tidy
#              (default: build; configure with CMake first)
#
# Exits 0 only when every stage that could run found nothing.
set -eu
cd "$(dirname "$0")/.."

build_dir="${1:-build}"
status=0

stage() {
    echo "== $1 =="
}

# --- clang-format: whole-tree style check. -------------------------
stage "clang-format"
if command -v clang-format > /dev/null 2>&1; then
    files=$(find src tests tools bench examples \
                 \( -name '*.cc' -o -name '*.hh' -o -name '*.cpp' \) \
                 -not -path '*/analyze_fixtures/*')
    if clang-format --dry-run -Werror $files; then
        echo "clang-format: clean"
    else
        status=1
    fi
else
    echo "clang-format: SKIPPED (binary not installed)"
fi

# --- clang-tidy: curated checks from .clang-tidy. ------------------
stage "clang-tidy"
if command -v clang-tidy > /dev/null 2>&1; then
    if [ ! -f "$build_dir/compile_commands.json" ]; then
        echo "clang-tidy: no $build_dir/compile_commands.json;" \
             "run: cmake -B $build_dir -S ." >&2
        status=1
    else
        files=$(find src tools bench examples \
                     \( -name '*.cc' -o -name '*.cpp' \))
        if command -v run-clang-tidy > /dev/null 2>&1; then
            if run-clang-tidy -quiet -p "$build_dir" $files; then
                echo "clang-tidy: clean"
            else
                status=1
            fi
        else
            tidy_failed=0
            for f in $files; do
                clang-tidy -quiet -p "$build_dir" "$f" || tidy_failed=1
            done
            if [ "$tidy_failed" -eq 0 ]; then
                echo "clang-tidy: clean"
            else
                status=1
            fi
        fi
    fi
else
    echo "clang-tidy: SKIPPED (binary not installed)"
fi

if [ "$status" -eq 0 ]; then
    echo "lint: all available stages clean"
else
    echo "lint: FAILURES above" >&2
fi
exit "$status"
