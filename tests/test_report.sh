#!/bin/sh
# Golden-file test for `mnocpt report`, `faults` and `adapt`:
# rendering the pinned 256-node trace fixture, and replaying the
# pinned 16-core epoch fixture, must reproduce the committed artifacts
# byte-for-byte.  Every artifact is stamped with the *trace's*
# embedded manifest (gitSha pinned to "0000000" in the fixtures), so
# the bytes are stable across commits; any drift is a deliberate
# format change and needs regenerated goldens (re-run this pipeline
# and copy the artifacts into tests/data/golden_report/ and
# tests/data/golden_replay/).
#
# Usage: test_report.sh <mnocpt-binary> <tests/data-dir>
set -eu

MNOCPT=${1:?usage: test_report.sh <mnocpt> <data-dir>}
DATA=${2:?usage: test_report.sh <mnocpt> <data-dir>}
DIR="${TMPDIR:-/tmp}/mnocpt_report_$$"
mkdir -p "$DIR"
trap 'rm -rf "$DIR"' EXIT

"$MNOCPT" design --trace "$DATA/golden_trace_256.trace" \
    --modes 2 --assign distance --out "$DIR/g.design" > /dev/null
"$MNOCPT" report --design "$DIR/g.design" \
    --trace "$DATA/golden_trace_256.trace" \
    --dir "$DIR/out" > /dev/null

# Runtime replays of the pinned 16-core epoch fixture: `faults`,
# `adapt`, and the report with both runtime sections.  The knobs they
# read are cleared so the defaults are what gets pinned.
unset MNOC_FAULTS MNOC_ADAPT MNOC_FAULT_SEED MNOC_ADAPT_WINDOW
EPOCHS="$DATA/golden_epoch_16.trace"
"$MNOCPT" design --trace "$EPOCHS" --modes 2 --assign comm \
    --out "$DIR/e.design" > /dev/null
"$MNOCPT" faults --design "$DIR/e.design" --trace "$EPOCHS" --seed 7 \
    --dir "$DIR/faults" > /dev/null
# A stressed replay that fires every non-collapse rule (128 trims, a
# relax, 3 failovers, 2 restores), so the controller's carried-over
# health and rule loop are pinned too.
"$MNOCPT" faults --design "$DIR/e.design" --trace "$EPOCHS" --seed 7 \
    --fault-scale 16 --vtol 1 --link-margin 2 \
    --dir "$DIR/faults_stress" > /dev/null
"$MNOCPT" adapt --design "$DIR/e.design" --trace "$EPOCHS" \
    --dir "$DIR/adapt" > /dev/null
MNOC_FAULTS=1 MNOC_ADAPT=1 "$MNOCPT" report --design "$DIR/e.design" \
    --trace "$EPOCHS" --dir "$DIR/replay" > /dev/null

status=0
# expect_same <output-dir> <golden-dir> <artifact>...
expect_same() {
    out=$1
    golden=$2
    shift 2
    for name in "$@"; do
        if ! cmp -s "$out/$name" "$golden/$name"; then
            echo "test_report: FAIL: $golden/$name differs" >&2
            status=1
        fi
    done
}
expect_same "$DIR/out" "$DATA/golden_report" mnoc_report.md \
    mnoc_power.csv mnoc_epochs.csv mnoc_source_power.pgm
expect_same "$DIR/faults" "$DATA/golden_replay/faults" \
    mnoc_fault_events.csv mnoc_reliability.csv
expect_same "$DIR/faults_stress" "$DATA/golden_replay/faults_stress" \
    mnoc_fault_events.csv mnoc_reliability.csv
expect_same "$DIR/adapt" "$DATA/golden_replay/adapt" \
    mnoc_adaptive.csv mnoc_adaptive_actions.csv
expect_same "$DIR/replay" "$DATA/golden_replay/report" mnoc_report.md \
    mnoc_power.csv mnoc_epochs.csv mnoc_source_power.pgm \
    mnoc_reliability.csv mnoc_adaptive.csv
if [ "$status" -ne 0 ]; then
    exit 1
fi
echo "test_report: PASS (report and replay artifacts byte-identical)"
