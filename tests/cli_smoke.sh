#!/bin/sh
# End-to-end smoke test of the mnocpt CLI: simulate -> map -> design ->
# evaluate -> budget -> report -> profile on a small system.  Any
# non-zero exit fails.
set -e
MNOCPT="$1"
DIR="${TMPDIR:-/tmp}/mnocpt_smoke_$$"
mkdir -p "$DIR"
trap 'rm -rf "$DIR"' EXIT

"$MNOCPT" simulate --benchmark water_s --cores 16 --ops 400 \
    --out "$DIR/t.trace"
"$MNOCPT" map --trace "$DIR/t.trace" --iterations 1500 \
    --out "$DIR/t.map"
"$MNOCPT" design --trace "$DIR/t.trace" --map "$DIR/t.map" \
    --modes 2 --assign comm --out "$DIR/t.design"
"$MNOCPT" evaluate --design "$DIR/t.design" --trace "$DIR/t.trace" \
    --map "$DIR/t.map" | grep -q "total"
"$MNOCPT" budget --design "$DIR/t.design" | grep -q "link budget: OK"
"$MNOCPT" yield --design "$DIR/t.design" --trials 25 --seed 3 \
    --csv "$DIR/t_yield.csv" | grep -q "yield"
grep -q "worst_margin_db" "$DIR/t_yield.csv"

# Seed-reproducibility: identical seeds give identical yield reports.
"$MNOCPT" yield --design "$DIR/t.design" --trials 25 --seed 3 \
    > "$DIR/y1.txt"
"$MNOCPT" yield --design "$DIR/t.design" --trials 25 --seed 3 \
    > "$DIR/y2.txt"
cmp -s "$DIR/y1.txt" "$DIR/y2.txt"

# A hardened design records its yield and degradation path.
"$MNOCPT" design --trace "$DIR/t.trace" --map "$DIR/t.map" \
    --modes 2 --assign comm --yield-target 0.8 --trials 40 \
    --out "$DIR/th.design" | grep -q "hardened to yield"
grep -q "resilience" "$DIR/th.design"
"$MNOCPT" budget --design "$DIR/th.design" | grep -q "link budget: OK"

# Report pipeline: an epoch-carrying trace renders a full report.
MNOC_LEDGER=1 MNOC_EPOCH_MSGS=200 "$MNOCPT" simulate \
    --benchmark water_s --cores 16 --ops 400 --out "$DIR/e.trace"
grep -q "^epochs " "$DIR/e.trace"
"$MNOCPT" report --design "$DIR/t.design" --trace "$DIR/e.trace" \
    --map "$DIR/t.map" --dir "$DIR/report" \
    | grep -q "report written"
grep -q "Average power" "$DIR/report/mnoc_report.md"
grep -q "messages each" "$DIR/report/mnoc_report.md"
grep -q "source_energy_j" "$DIR/report/mnoc_power.csv"
grep -q "total_energy_j" "$DIR/report/mnoc_epochs.csv"
[ -s "$DIR/report/mnoc_source_power.pgm" ]

# Re-rendering the same trace is byte-identical (ledger determinism).
"$MNOCPT" report --design "$DIR/t.design" --trace "$DIR/e.trace" \
    --map "$DIR/t.map" --dir "$DIR/report2" > /dev/null
cmp -s "$DIR/report/mnoc_report.md" "$DIR/report2/mnoc_report.md"
cmp -s "$DIR/report/mnoc_power.csv" "$DIR/report2/mnoc_power.csv"
cmp -s "$DIR/report/mnoc_source_power.pgm" \
    "$DIR/report2/mnoc_source_power.pgm"

# Streamed capture: simulate spools sealed epochs beside --out and
# removes the spool once the trace is written.
[ ! -e "$DIR/e.trace.spool" ]
[ ! -e "$DIR/t.trace.spool" ]
"$MNOCPT" stats --trace "$DIR/e.trace" | grep -q "messages each"

# A directory is not a trace: the diagnostic says so, naming it.
mkdir -p "$DIR/old.capture"
if "$MNOCPT" stats --trace "$DIR/old.capture" 2>"$DIR/err_dir.txt"
then exit 1; fi
grep -q "is a directory, not a trace file: $DIR/old.capture" \
    "$DIR/err_dir.txt"

# Profile: aggregate a span trace into a hotspot table.
MNOC_TRACE_SPANS="$DIR/spans.json" "$MNOCPT" evaluate \
    --design "$DIR/t.design" --trace "$DIR/t.trace" > /dev/null
"$MNOCPT" profile --spans "$DIR/spans.json" \
    --csv "$DIR/profile.csv" | grep -q "inclusive"
grep -q "buildLedger" "$DIR/profile.csv"

# Suppressed warnings surface in stats even when silenced.
"$MNOCPT" stats --trace "$DIR/t.trace" \
    | grep -q "log.suppressed_warnings"

# Runtime fault injection: the faults verb replays the trace under a
# seeded fault schedule and emits an event log plus a reliability
# time series; MNOC_FAULTS=1 folds the same engine into report.
"$MNOCPT" faults --design "$DIR/t.design" --trace "$DIR/e.trace" \
    --map "$DIR/t.map" --seed 7 --fault-scale 2.0 \
    --link-margin 0.5 --dir "$DIR/faults" \
    | grep -q "fault log written"
grep -q "start_epoch" "$DIR/faults/mnoc_fault_events.csv"
grep -q "margin_after_db" "$DIR/faults/mnoc_reliability.csv"
MNOC_FAULTS=1 "$MNOCPT" report --design "$DIR/t.design" \
    --trace "$DIR/e.trace" --map "$DIR/t.map" \
    --dir "$DIR/report_f" > /dev/null
grep -q "Reliability" "$DIR/report_f/mnoc_report.md"
grep -q "reconfig_energy_j" "$DIR/report_f/mnoc_reliability.csv"

# The same seed produces the same fault log and reliability series.
"$MNOCPT" faults --design "$DIR/t.design" --trace "$DIR/e.trace" \
    --map "$DIR/t.map" --seed 7 --fault-scale 2.0 \
    --link-margin 0.5 --dir "$DIR/faults2" > /dev/null
cmp -s "$DIR/faults/mnoc_fault_events.csv" \
    "$DIR/faults2/mnoc_fault_events.csv"
cmp -s "$DIR/faults/mnoc_reliability.csv" \
    "$DIR/faults2/mnoc_reliability.csv"

# One replay engine: `faults` and `adapt` with their defaults write
# the same series as the MNOC_FAULTS / MNOC_ADAPT report sections.
"$MNOCPT" faults --design "$DIR/t.design" --trace "$DIR/e.trace" \
    --map "$DIR/t.map" --seed 7 --dir "$DIR/faults_7" > /dev/null
MNOC_FAULTS=1 MNOC_FAULT_SEED=7 "$MNOCPT" report \
    --design "$DIR/t.design" --trace "$DIR/e.trace" --map "$DIR/t.map" \
    --dir "$DIR/report_f7" > /dev/null
cmp "$DIR/faults_7/mnoc_reliability.csv" \
    "$DIR/report_f7/mnoc_reliability.csv"
"$MNOCPT" adapt --design "$DIR/t.design" --trace "$DIR/e.trace" \
    --map "$DIR/t.map" --dir "$DIR/adapt_a" > /dev/null
MNOC_ADAPT=1 "$MNOCPT" report --design "$DIR/t.design" \
    --trace "$DIR/e.trace" --map "$DIR/t.map" --dir "$DIR/report_a" \
    > /dev/null
cmp "$DIR/adapt_a/mnoc_adaptive.csv" "$DIR/report_a/mnoc_adaptive.csv"

# One trace pass per replay verb, under every MNOC_FAULTS/MNOC_ADAPT
# combination: the adaptive controller steps inside the static ledger
# build, so no verb opens the trace twice.
# expect_one_pass <verb> [VAR=value...]
expect_one_pass() {
    verb=$1
    shift
    rm -f "$DIR/m.json"
    env "$@" MNOC_METRICS="$DIR/m.json" "$MNOCPT" "$verb" \
        --design "$DIR/t.design" --trace "$DIR/e.trace" \
        --map "$DIR/t.map" --dir "$DIR/one_pass" > /dev/null
    grep -q '"trace.stream_opens": 1' "$DIR/m.json"
}
expect_one_pass adapt
expect_one_pass report MNOC_FAULTS=1 MNOC_ADAPT=1
expect_one_pass report MNOC_ADAPT=1
expect_one_pass report MNOC_FAULTS=1
expect_one_pass report
expect_one_pass faults
expect_one_pass evaluate

# Garbage fault knobs must stop the run, naming the knob.
if MNOC_FAULTS=2 "$MNOCPT" report --design "$DIR/t.design" \
    --trace "$DIR/e.trace" --dir "$DIR/report_bad" \
    2>"$DIR/err_knob.txt"; then exit 1; fi
grep -q "MNOC_FAULTS" "$DIR/err_knob.txt"

# Overflowing counts are fatal too (never clamped to 2^63 - 1), and
# so is a bench integer with trailing garbage.
if MNOC_ADAPT_WINDOW=99999999999999999999 "$MNOCPT" adapt \
    --design "$DIR/t.design" --trace "$DIR/e.trace" \
    --dir "$DIR/adapt_bad" 2>"$DIR/err_window.txt"; then exit 1; fi
grep -q "MNOC_ADAPT_WINDOW" "$DIR/err_window.txt"
if MNOC_BENCH_CORES=12x "$MNOCPT" simulate --benchmark water_s \
    --cores 16 --ops 100 --out "$DIR/bad_cores.trace" \
    2>"$DIR/err_cores.txt"; then exit 1; fi
grep -q "MNOC_BENCH_CORES" "$DIR/err_cores.txt"

# A mistyped knob name is not silently ignored: the run warns,
# naming the variable.
MNOC_FAULT=1 "$MNOCPT" report --design "$DIR/t.design" \
    --trace "$DIR/e.trace" --dir "$DIR/report_typo" \
    2>"$DIR/err_typo.txt" > /dev/null
grep -q "unknown knob MNOC_FAULT " "$DIR/err_typo.txt"

# Artifact identity: a fresh trace, design and report depend only on
# their inputs, not on the observability knobs or the pool size.
# identity_run <tag> [VAR=value...]
identity_run() {
    tag=$1
    shift
    mkdir -p "$DIR/id_$tag"
    env "$@" MNOC_LEDGER=1 "$MNOCPT" simulate --benchmark water_s \
        --cores 16 --ops 400 --out "$DIR/id_$tag/t.trace" > /dev/null
    env "$@" "$MNOCPT" design --trace "$DIR/id_$tag/t.trace" \
        --modes 2 --assign comm --out "$DIR/id_$tag/t.design" \
        > /dev/null
    env "$@" "$MNOCPT" report --design "$DIR/id_$tag/t.design" \
        --trace "$DIR/id_$tag/t.trace" --dir "$DIR/id_$tag/report" \
        > /dev/null
}
identity_run off MNOC_THREADS=2 MNOC_TRACE_SPANS=0 MNOC_METRICS=0
identity_run on MNOC_THREADS=2 MNOC_TRACE_SPANS="$DIR/id_spans.json" \
    MNOC_METRICS=1
cmp "$DIR/id_off/t.trace" "$DIR/id_on/t.trace"
cmp "$DIR/id_off/t.design" "$DIR/id_on/t.design"
diff -r "$DIR/id_off/report" "$DIR/id_on/report"
identity_run t1 MNOC_THREADS=1
identity_run t4 MNOC_THREADS=4
cmp "$DIR/id_t1/t.trace" "$DIR/id_t4/t.trace"
cmp "$DIR/id_t1/t.design" "$DIR/id_t4/t.design"
diff -r "$DIR/id_t1/report" "$DIR/id_t4/report"

# Flight recorder: an adaptive replay under MNOC_JOURNAL records an
# epoch-anchored decision journal whose bytes are stamped with the
# trace's manifest and therefore do not depend on the pool size;
# `mnocpt explain` renders it into a per-epoch decision timeline.
MNOC_JOURNAL="$DIR/j1.mjrn" MNOC_THREADS=1 "$MNOCPT" adapt \
    --design "$DIR/t.design" --trace "$DIR/e.trace" \
    --map "$DIR/t.map" | grep -q "net savings"
MNOC_JOURNAL="$DIR/j4.mjrn" MNOC_THREADS=4 "$MNOCPT" adapt \
    --design "$DIR/t.design" --trace "$DIR/e.trace" \
    --map "$DIR/t.map" > /dev/null
cmp -s "$DIR/j1.mjrn" "$DIR/j4.mjrn"
"$MNOCPT" explain --journal "$DIR/j1.mjrn" --dir "$DIR/explain" \
    --jsonl "$DIR/explain/journal.jsonl" \
    | grep -q "decision timeline written"
grep -q "phase_signature" "$DIR/explain/mnoc_explain.md"
grep -q "epoch,kind,detail" "$DIR/explain/mnoc_timeline.csv"
grep -q "reconcile" "$DIR/explain/journal.jsonl"
# The Chrome-trace overlay composes with the span profiler (counter
# and instant events carry no duration, so profile skips them).
"$MNOCPT" profile --spans "$DIR/explain/mnoc_explain_trace.json" \
    > /dev/null

# A truncated journal must fail loudly, naming the byte offset.
head -c 40 "$DIR/j1.mjrn" > "$DIR/jbad.mjrn"
if "$MNOCPT" explain --journal "$DIR/jbad.mjrn" \
    --dir "$DIR/explain_bad" 2>"$DIR/err_journal.txt"
then exit 1; fi
grep -q "truncated journal" "$DIR/err_journal.txt"

# A directory given as a span file or as a journal fails naming the
# path (a directory opens as a stream and reads as zero bytes, or as
# an I/O error that names no file).
mkdir -p "$DIR/spans_dir" "$DIR/journal_dir"
if "$MNOCPT" profile --spans "$DIR/spans_dir" 2>"$DIR/err_spans_dir.txt"
then exit 1; fi
grep -q "not a regular file, cannot load it as a span: $DIR/spans_dir" \
    "$DIR/err_spans_dir.txt"
if "$MNOCPT" explain --journal "$DIR/journal_dir" --dir "$DIR/explain_dir" \
    2>"$DIR/err_journal_dir.txt"
then exit 1; fi
grep -q "not a regular file, cannot load it as a journal: $DIR/journal_dir" \
    "$DIR/err_journal_dir.txt"

# Unknown subcommands and missing/malformed options must fail cleanly,
# with a diagnostic that names the offender.
if "$MNOCPT" frobnicate 2>"$DIR/err_verb.txt"; then exit 1; fi
grep -q "frobnicate" "$DIR/err_verb.txt"
if "$MNOCPT" design --modes 2 2>/dev/null; then exit 1; fi
if "$MNOCPT" yield --design "$DIR/t.design" --trials xyz 2>/dev/null
then exit 1; fi

# Negative counts and windows, signed or oversized seeds, and repeated
# options must fail, naming the option.
# expect_bad_option <option> <mnocpt arguments...>
expect_bad_option() {
    option=$1
    shift
    if "$MNOCPT" "$@" 2>"$DIR/err_option.txt"; then exit 1; fi
    grep -q -- "$option" "$DIR/err_option.txt"
}
expect_bad_option --window adapt --design "$DIR/t.design" \
    --trace "$DIR/e.trace" --window -1 --dir "$DIR/bad_adapt"
expect_bad_option --iterations map --trace "$DIR/t.trace" \
    --iterations -5 --out "$DIR/bad.map"
expect_bad_option --seed faults --design "$DIR/t.design" \
    --trace "$DIR/e.trace" --seed -1 --dir "$DIR/bad_faults"
expect_bad_option --vseed faults --design "$DIR/t.design" \
    --trace "$DIR/e.trace" --vseed 18446744073709551616 \
    --dir "$DIR/bad_faults"
expect_bad_option --dir report --design "$DIR/t.design" \
    --trace "$DIR/e.trace" --dir "$DIR/bad_a" --dir "$DIR/bad_b"

# A missing trace fails with the path in the diagnostic.
if "$MNOCPT" evaluate --design "$DIR/t.design" \
    --trace "$DIR/no_such.trace" 2>"$DIR/err_trace.txt"
then exit 1; fi
grep -q "no_such.trace" "$DIR/err_trace.txt"

# A signed count in a trace record is fatal (it used to wrap to
# 2^64 - 1), naming the record kind and its byte offset.
sed '13s/.*/0 1 -1 5/' "$(dirname "$0")/data/golden_epoch_16.trace" \
    > "$DIR/signed.trace"
if "$MNOCPT" report --design "$DIR/t.design" --trace "$DIR/signed.trace" \
    --dir "$DIR/report_signed" 2>"$DIR/err_signed.txt"
then exit 1; fi
grep -q "epoch-cell record at byte 141" "$DIR/err_signed.txt"

# A bad mapping token is reported at its line, not its token index,
# and a signed core id is rejected like any other non-integer; so are
# an out-of-range core and a repeated one.
paste -d ' ' - - - - < "$DIR/t.map" | sed '4s/ [0-9]*$/ x/' \
    > "$DIR/lines.map"
if "$MNOCPT" evaluate --design "$DIR/t.design" --trace "$DIR/t.trace" \
    --map "$DIR/lines.map" 2>"$DIR/err_map.txt"
then exit 1; fi
grep -q "lines.map:4: field 'core'" "$DIR/err_map.txt"
sed '1s/^/+/' "$DIR/t.map" > "$DIR/plus.map"
if "$MNOCPT" evaluate --design "$DIR/t.design" --trace "$DIR/t.trace" \
    --map "$DIR/plus.map" 2>"$DIR/err_plus.txt"
then exit 1; fi
grep -q "plus.map:1: field 'core'" "$DIR/err_plus.txt"
sed '1s/.*/99/' "$DIR/t.map" > "$DIR/range.map"
if "$MNOCPT" design --trace "$DIR/t.trace" --map "$DIR/range.map" \
    --out "$DIR/range.design" 2>"$DIR/err_range.txt"
then exit 1; fi
grep -q "range.map:1: field 'core': core 99 is out of range" \
    "$DIR/err_range.txt"
sed -e '1s/.*/0/' -e '2s/.*/0/' "$DIR/t.map" > "$DIR/twice.map"
if "$MNOCPT" design --trace "$DIR/t.trace" --map "$DIR/twice.map" \
    --out "$DIR/twice.design" 2>"$DIR/err_twice.txt"
then exit 1; fi
grep -q "twice.map:2: field 'core': core 0 is used twice" \
    "$DIR/err_twice.txt"

# A directory given as a mapping fails naming the path (a directory
# opens as a stream and reads as a mapping of zero cores).
mkdir -p "$DIR/map_dir"
if "$MNOCPT" evaluate --design "$DIR/t.design" --trace "$DIR/t.trace" \
    --map "$DIR/map_dir" 2>"$DIR/err_map_dir.txt"
then exit 1; fi
grep -q "not a regular file, cannot load it as a mapping: $DIR/map_dir" \
    "$DIR/err_map_dir.txt"

# An unreadable design (a directory, here) fails with the path.
mkdir -p "$DIR/not_a_file.design"
if "$MNOCPT" budget --design "$DIR/not_a_file.design" \
    2>"$DIR/err_design.txt"
then exit 1; fi
grep -q "not_a_file.design" "$DIR/err_design.txt"

# Corrupt design files must be rejected, not misparsed.
head -c 200 "$DIR/t.design" > "$DIR/bad.design"
if "$MNOCPT" budget --design "$DIR/bad.design" 2>/dev/null
then exit 1; fi
echo "garbage" >> "$DIR/t.design"
if "$MNOCPT" budget --design "$DIR/t.design" 2>/dev/null
then exit 1; fi
echo "cli smoke OK"
