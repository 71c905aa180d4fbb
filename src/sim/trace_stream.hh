/**
 * @file
 * Streaming trace I/O: pull-based readers and incremental writers
 * over the on-disk trace formats specified in docs/TRACE_FORMAT.md.
 *
 * Whole-file loadTrace()/saveTrace() (sim/trace.hh) are re-layered on
 * top of this layer; consumers that must stay bounded in memory --
 * the ledger build, `mnocpt stats/report/faults`, and the bench
 * harness -- pull epoch and message batches directly instead of
 * materializing a Trace.  A TraceReader has three sources:
 *
 *  - single-file traces ("mnoc-trace 1|2|3"), parsed line by line
 *    with a one-line lookahead,
 *  - the sharded streaming layout ("mnoc-trace-shards 1"): a
 *    directory holding an index file, epoch shard files (contiguous
 *    epoch ranges), and a triplet file, so epoch shards can be parsed
 *    and consumed in parallel by independent pool tasks, and
 *  - an in-memory Trace, served through the same pull interface, so
 *    the one ledger build prices loaded and captured traces alike.
 *
 * The strict-diagnostics contract of the whole-file parser is
 * preserved verbatim: every malformed or truncated record is a fatal
 * error naming the file, line, record kind, and byte offset where the
 * damaged record starts.  All writing goes through the FileWriter
 * choke point (common/io.hh), so a full disk is a hard error, never a
 * silently truncated shard.
 */

#ifndef MNOC_SIM_TRACE_STREAM_HH
#define MNOC_SIM_TRACE_STREAM_HH

#include <cstdint>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/io.hh"
#include "common/manifest.hh"
#include "common/matrix.hh"
#include "noc/network.hh"

namespace mnoc::sim {

struct Trace;

/** One sparse traffic record: the triplet-section row of the trace
 *  formats, and the unit of a streamed message batch. */
struct TraceMessage
{
    int src = 0;
    int dst = 0;
    std::uint64_t packets = 0;
    std::uint64_t flits = 0;
};

/**
 * Everything a trace file declares ahead of its bulk data: identity,
 * dimensions, provenance, and the epoch-block geometry.  Available
 * immediately after constructing a TraceReader, before any epoch or
 * message has been pulled.
 */
struct TraceHeader
{
    /** Format version: 1-3 for single files, kShardedVersion for the
     *  sharded directory layout. */
    int version = 0;
    std::string workloadName;
    std::string networkName;
    int numNodes = 0;
    noc::Tick totalTicks = 0;
    RunManifest manifest;
    /** Epoch windows the trace carries (0 for version < 3). */
    std::size_t numEpochs = 0;
    /** Messages per attribution epoch (0 when there are none). */
    std::uint64_t messagesPerEpoch = 0;
};

/** TraceHeader::version of the sharded directory layout. */
constexpr int kShardedVersion = 4;

/** Default record count of a streamed message batch: large enough to
 *  amortize call overhead, small enough to stay cache-resident. */
constexpr std::size_t kMessageBatch = 4096;

/**
 * Write one "<src> <dst> <packets> <flits>" line -- the epoch-cell
 * and triplet record of every trace format -- formatted with
 * std::to_chars into one buffer and handed to @p out in one write.
 */
void writeCountRecord(std::ostream &out, std::int64_t src, std::int64_t dst,
                      std::uint64_t packets, std::uint64_t flits);

/**
 * Line scanner with the byte-offset bookkeeping the strict trace
 * diagnostics are built on.  next() advances one line; lineOffset()
 * is where the current line starts (the end-of-file offset once
 * next() has returned false), which is exactly what a "<kind> record
 * at byte N" message must report for malformed and truncated records
 * respectively.
 */
class LineScanner
{
  public:
    /** Open @p path; fatal (naming the path) when that fails. */
    explicit LineScanner(const std::string &path);

    /** Re-open @p path and skip to byte @p offset / line @p lineno
     *  (shard fan-out: resume a parse mid-file). */
    LineScanner(const std::string &path, std::size_t offset,
                int lineno);

    /** Advance to the next line; false at end of file. */
    bool next();

    const std::string &line() const { return line_; }
    const std::string &path() const { return path_; }
    int lineno() const { return lineno_; }
    std::size_t lineOffset() const { return lineOffset_; }

    /** Fatal "path:line: why [kind record at byte N]" for the
     *  current line. */
    [[noreturn]] void fail(const std::string &kind,
                           const std::string &why) const;

    /** Same, for a truncation discovered when next() hit end of
     *  file: reports the line after the last one parsed and the
     *  end-of-file byte offset. */
    [[noreturn]] void failTruncated(const std::string &kind,
                                    const std::string &why) const;

    /** True when the underlying stream reported an I/O error. */
    bool bad() const { return in_.bad(); }

  private:
    std::string path_;
    std::ifstream in_;
    std::string line_;
    int lineno_ = 0;
    std::size_t lineOffset_ = 0;
    std::size_t offset_ = 0;
};

/**
 * Pull-based reader over a single-file, sharded or in-memory trace.
 *
 * Construction parses the header (through the manifest and the
 * epochs-block header); nextEpoch() then yields epoch cell lists in
 * epoch order, and once those are drained nextMessages() yields
 * bounded batches of triplet records.  Peak memory is one epoch (or
 * one batch) regardless of trace size.
 *
 * For parallel fan-out over a sharded trace, numShards()/shardRange()
 * describe the epoch partition and readShard() parses one shard on
 * the calling thread with an independently opened stream, so pool
 * tasks can consume disjoint shards concurrently.  Single-file
 * traces expose their whole epoch block as shard 0; an in-memory
 * trace exposes one shard per epoch.
 */
class TraceReader
{
  public:
    /** Open @p path: a trace file, or a sharded trace directory. */
    explicit TraceReader(const std::string &path);

    /**
     * Serve @p trace from memory.  The header is the one saveTrace()
     * would write (version 3 when the trace carries epochs, else 2),
     * and messages come in saveTrace()'s row-major, skip-zero triplet
     * order.  @p trace must outlive the reader.
     */
    explicit TraceReader(const Trace &trace);
    ~TraceReader();

    TraceReader(const TraceReader &) = delete;
    TraceReader &operator=(const TraceReader &) = delete;

    const TraceHeader &header() const { return header_; }
    const std::string &path() const { return path_; }
    bool sharded() const { return header_.version == kShardedVersion; }

    /**
     * Parse the next epoch's cell list into @p cells (replacing its
     * contents); false once every epoch has been yielded.  Cells are
     * validated against the node count, and a short epoch block is a
     * fatal truncation diagnostic.
     */
    bool nextEpoch(std::vector<noc::EpochCell> &cells);

    /**
     * Fill @p batch with up to @p max triplet records (replacing its
     * contents) and return the count; 0 at clean end of trace.  Must
     * only be called once nextEpoch() has returned false (or the
     * trace has no epochs).
     */
    std::size_t nextMessages(std::vector<TraceMessage> &batch,
                             std::size_t max);

    /** Epoch-shard count: the parallel grain.  1 for a single-file
     *  trace with epochs, one per epoch in memory, 0 for an
     *  epoch-free trace. */
    std::size_t numShards() const;

    /** Epochs [first, first + count) held by @p shard. */
    struct ShardRange
    {
        std::size_t firstEpoch = 0;
        std::size_t count = 0;
    };
    ShardRange shardRange(std::size_t shard) const;

    /**
     * Parse shard @p shard front to back, invoking @p sink once per
     * epoch with its global epoch index and cell list.  Opens its own
     * stream, so concurrent calls on distinct shards from pool tasks
     * are safe; diagnostics carry the shard file's own path and
     * offsets.
     */
    void readShard(std::size_t shard,
                   const std::function<void(
                       std::size_t epoch,
                       std::vector<noc::EpochCell> &&cells)> &sink)
        const;

    /**
     * Accumulate the whole triplet section into @p packets /
     * @p flits (sized numNodes x numNodes by the caller).  Bounded
     * streaming fill of the dense matrices the power models consume.
     */
    void readMessageMatrix(CountMatrix &packets,
                           CountMatrix &flits);

  private:
    void openSingleFile();
    void openSharded();
    /** Parse one "epoch <c>" block from @p scanner. */
    static void parseEpochBlock(LineScanner &scanner, int num_nodes,
                                std::vector<noc::EpochCell> &cells);
    /** Open shard @p shard's file, its header checked against the
     *  index. */
    std::unique_ptr<LineScanner> openShard(std::size_t shard) const;
    /** Advance the sequential cursor to the next epoch source. */
    bool advanceEpochShard();

    std::string path_;
    TraceHeader header_;
    std::unique_ptr<LineScanner> scanner_; ///< single-file cursor
    bool pending_ = false; ///< scanner_ holds an unconsumed line
    bool tripletsStarted_ = false;
    /** Where the epoch block (or triplet section) begins in a single
     *  file, for shard-0 re-reads. */
    std::size_t epochsOffset_ = 0;
    int epochsLineno_ = 0;

    /** Sharded layout: per-shard file names and epoch ranges. */
    std::vector<std::string> shardFiles_;
    std::vector<ShardRange> shardRanges_;
    std::string tripletFile_;
    /** Sequential-epoch cursor over the shard list. */
    std::size_t cursorShard_ = 0;
    std::size_t cursorEpoch_ = 0;
    std::unique_ptr<LineScanner> shardScanner_;
    std::size_t epochsYielded_ = 0;

    /** In-memory source; null when reading a file or directory. */
    const Trace *trace_ = nullptr;
    /** Row-major (src, dst) position of the in-memory triplet walk. */
    std::size_t tripletCursor_ = 0;
};

/**
 * Incremental writer for the sharded streaming layout: epochs are
 * appended as the run seals them (the bounded-memory capture path),
 * rolled into a new shard file every @p epochs_per_shard, and
 * finish() writes the triplet section plus the index once the final
 * tick count is known.  Every byte goes through FileWriter, so disk
 * full aborts the run instead of truncating a shard.
 */
class TraceShardWriter
{
  public:
    TraceShardWriter(const std::string &dir, std::string workload,
                     std::string network, int num_nodes,
                     std::uint64_t messages_per_epoch,
                     std::size_t epochs_per_shard = 256);
    ~TraceShardWriter();

    TraceShardWriter(const TraceShardWriter &) = delete;
    TraceShardWriter &operator=(const TraceShardWriter &) = delete;

    /** Append one sealed epoch (cells sorted by (src, dst)). */
    void appendEpoch(const std::vector<noc::EpochCell> &cells);

    /** Epochs appended so far. */
    std::size_t numEpochs() const { return numEpochs_; }

    /**
     * Write the triplet section and the index file, then close every
     * stream (checked).  Must be called exactly once; appendEpoch()
     * is invalid afterwards.
     */
    void finish(noc::Tick total_ticks, const CountMatrix &packets,
                const CountMatrix &flits,
                const RunManifest &manifest);

  private:
    void rollShard();

    std::string dir_;
    std::string workload_;
    std::string network_;
    int numNodes_;
    std::uint64_t messagesPerEpoch_;
    std::size_t epochsPerShard_;
    std::size_t numEpochs_ = 0;
    bool finished_ = false;
    std::vector<std::string> shardFiles_;
    std::vector<std::size_t> shardFirstEpoch_;
    std::vector<std::size_t> shardCounts_;
    std::unique_ptr<FileWriter> shard_;
};

} // namespace mnoc::sim

#endif // MNOC_SIM_TRACE_STREAM_HH
