#!/bin/sh
# Full pre-merge gate: static analysis, then the test suite in three
# build configurations -- the regular optimized build, an ASan+UBSan
# build (-DMNOC_SANITIZE=ON), and a TSan build (-DMNOC_TSAN=ON).
# Usage: tools/check.sh [jobs]
set -eu
cd "$(dirname "$0")/.."
JOBS="${1:-$(nproc 2>/dev/null || echo 4)}"

run_config() {
    dir="$1"
    shift
    cmake -B "$dir" -S . "$@"
    cmake --build "$dir" -j "$JOBS"
    ctest --test-dir "$dir" --output-on-failure -j "$JOBS"
}

echo "== regular configuration =="
run_config build -DMNOC_WERROR=ON

echo "== static analysis (clang-format, clang-tidy) =="
sh tools/lint.sh build

echo "== static analysis (mnoc-analyze) =="
./build/tools/analyze/mnoc-analyze --root . \
    --compile-commands build/compile_commands.json \
    --baseline tools/analyze/baseline.txt

echo "== documentation checks (doc_check) =="
python3 tools/doc_check.py --root .

echo "== sanitizer configuration (ASan+UBSan) =="
run_config build-asan -DMNOC_SANITIZE=ON -DCMAKE_BUILD_TYPE=Debug

echo "== sanitizer configuration (TSan) =="
run_config build-tsan -DMNOC_TSAN=ON -DCMAKE_BUILD_TYPE=Debug

echo "all checks passed"
