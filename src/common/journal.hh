/**
 * @file
 * Epoch-anchored decision journal (the runtime flight recorder).
 *
 * The adaptive and degradation controllers make their decisions at
 * epoch boundaries, in the serial epoch loop of the replay.  The
 * journal records those decisions -- phase-detector signatures,
 * candidate pricing, switches, trims, fault firings, and per-epoch
 * ledger reconciliation residuals -- as an append-only sequence of
 * fixed-width records so a run can be audited after the fact with
 * `mnocpt explain`.
 *
 * Determinism contract: every emission point lives in a serial epoch
 * loop, so the record sequence (and therefore the exported bytes) is
 * bit-identical at any MNOC_THREADS, enforced the same way as the
 * energy ledger.  Journal code never reads wall clocks: records are
 * anchored to epoch indices, not timestamps.
 *
 * Enablement: the MNOC_JOURNAL knob, through a CollectorSwitch
 * (common/knobs.hh): "1" records and writes "mnoc_journal.mjrn" at
 * process exit; any other non-"0" value records and writes to that
 * path.
 *
 * Cost contract: with MNOC_JOURNAL unset the only per-event cost is
 * one relaxed atomic load behind journalEnabled() -- no allocation,
 * no lock, no record construction (call sites build the record inside
 * the enabled branch).  BM_AdaptiveRunJournal (bench/micro_kernels.cc)
 * times an adaptive run with the journal off and on.
 *
 * Binary format (little-endian, fixed width):
 *
 *     8 bytes   magic "MNOCJRNL"
 *     u32       version (kJournalVersion)
 *     u32       manifest stamp length L
 *     L bytes   manifest stamp JSON (caller-set; runtime verbs stamp
 *               the *trace's* embedded manifest so the bytes do not
 *               depend on the rendering process's pool size)
 *     N x 180B  records: u32 kind, u64 epoch, u32 numInts,
 *               u32 numReals, 4 x i64 ints, 16 x f64 reals
 *     8 bytes   end magic "MNOCJEND"
 *     u64       record count N
 *
 * loadJournal() fails fatally with the record kind and byte offset on
 * corruption, and distinguishes truncation from corruption, in the
 * same diagnostic style as the TraceReader.
 */

#ifndef MNOC_COMMON_JOURNAL_HH
#define MNOC_COMMON_JOURNAL_HH

#include <array>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace mnoc {

/** What a journal record describes.  Values are part of the binary
 *  format; append new kinds at the end and bump kJournalVersion. */
enum class JournalKind : std::uint32_t {
    PhaseSignature = 1, ///< phase-detector ring-distance signature
    PhaseChange = 2,    ///< detector distance crossed the threshold
    Retarget = 3,       ///< adaptive: challenger build targeted a slot
    Price = 4,          ///< adaptive: out-of-sample challenger pricing
    Switch = 5,         ///< adaptive: active design switched
    Retire = 6,         ///< adaptive: candidate retired after a switch
    Expire = 7,         ///< adaptive: stale unswitched candidate aged out
    Trim = 8,           ///< degradation: source power trimmed up
    Relax = 9,          ///< degradation: trim stepped back down
    Failover = 10,      ///< degradation: mode remapped off a dead source
    Restore = 11,       ///< degradation: mode restored to its origin
    Collapse = 12,      ///< degradation: mode collapsed out of the topo
    FaultStart = 13,    ///< fault-timeline event became active
    FaultEnd = 14,      ///< fault-timeline event ended
    EpochBoundary = 15, ///< simulator sealed a traffic epoch
    Reconcile = 16,     ///< per-epoch ledger-vs-log residual
    Margin = 17,        ///< degradation: end-of-epoch margin summary
};

/** Number of kinds; valid kind values are 1..kJournalKindCount. */
inline constexpr std::uint32_t kJournalKindCount = 17;

/** Stable lower_snake name of a kind (used in JSONL and explain). */
const char *journalKindName(JournalKind kind);

/** One fixed-capacity journal record.  Plain value type: call sites
 *  build one on the stack inside a journalEnabled() branch and hand
 *  it to Journal::record(); nothing here allocates. */
struct JournalRecord
{
    static constexpr std::size_t kMaxInts = 4;
    static constexpr std::size_t kMaxReals = 16;

    JournalKind kind = JournalKind::PhaseSignature;
    std::uint64_t epoch = 0;
    std::uint32_t numInts = 0;
    std::uint32_t numReals = 0;
    std::array<std::int64_t, kMaxInts> ints{};
    std::array<double, kMaxReals> reals{};

    JournalRecord() = default;
    JournalRecord(JournalKind k, std::uint64_t e) : kind(k), epoch(e) {}

    JournalRecord &addInt(std::int64_t v);
    JournalRecord &addReal(double v);
};

/** Serialized size of one record in the binary format. */
inline constexpr std::size_t kJournalRecordBytes = 180;

/** Binary format version written by this build. */
inline constexpr std::uint32_t kJournalVersion = 1;

/** True when MNOC_JOURNAL asks for a journal.  One relaxed atomic
 *  load; this is the only thing the hot path pays when recording is
 *  off. */
bool journalEnabled();

/** Process-wide journal sink (mirrors the SpanRecorder pattern).
 *  record() appends under a mutex; all emission points run in serial
 *  epoch loops, so the order is deterministic regardless of pool
 *  size. */
class Journal
{
  public:
    /** The shared journal (never destroyed).  First use arms an
     *  at-exit export of the binary journal to exportPath() when
     *  MNOC_JOURNAL is on. */
    static Journal &global();

    /** Export destination: MNOC_JOURNAL's path, or the default
     *  "mnoc_journal.mjrn" when the knob is just "1".  Empty when the
     *  knob is off. */
    static std::string exportPath();

    /** Override the knob (tests). */
    static void setEnabled(bool enabled);

    /** Append one record.  Call sites must guard with
     *  journalEnabled() so the disabled path never reaches here. */
    void record(const JournalRecord &rec);

    /** Stamp the manifest JSON embedded in the binary header.  The
     *  runtime verbs stamp the *trace's* manifest so journal bytes do
     *  not depend on MNOC_THREADS of the recording process. */
    void setManifest(const std::string &manifest_json);

    /** Serialize header + records + end marker to a byte string. */
    std::string toBinary() const;

    /** Write toBinary() to @p path through the FileWriter choke
     *  point. */
    void writeFile(const std::string &path) const;

    /** Snapshot of the records so far (tests, explain-on-self). */
    std::vector<JournalRecord> snapshot() const;

    std::size_t size() const;

    /** Drop all records and the manifest stamp (tests). */
    void reset();

  private:
    mutable std::mutex mutex_;
    std::vector<JournalRecord> records_;
    std::string manifestJson_;
};

/** A journal loaded back from disk. */
struct JournalFile
{
    std::string manifestJson; ///< stamp from the header, verbatim
    std::vector<JournalRecord> records;
};

/** Parse a binary journal.  Fatal with the file, the record kind
 *  where known, and the byte offset on any malformation; truncation
 *  and corruption produce distinct messages.  The result carries the
 *  full record sequence -- discarding it is always a bug (enforced by
 *  mnoc-analyze's discarded-result rule). */
[[nodiscard]] JournalFile loadJournal(const std::string &path);

/** Render a journal as JSONL: one object per record with per-kind
 *  field names, preceded by a manifest line.  Deterministic. */
std::string journalToJsonl(const JournalFile &file);

/** One-line human rendering of a record (shared by explain's
 *  markdown narrative and timeline CSV). */
std::string journalRecordDetail(const JournalRecord &rec);

/** Render the `mnocpt explain` markdown narrative. */
std::string renderExplainMarkdown(const JournalFile &file);

/** Render the `mnocpt explain` timeline CSV (stamp comment row,
 *  header, one row per record). */
std::string renderExplainTimelineCsv(const JournalFile &file);

/** Render the Chrome-trace overlay: counter ("C") and instant ("i")
 *  events keyed by epoch.  Composes with MNOC_TRACE_SPANS output --
 *  `mnocpt profile` skips non-"X" phases. */
std::string renderExplainTrace(const JournalFile &file);

} // namespace mnoc

#endif // MNOC_COMMON_JOURNAL_HH
