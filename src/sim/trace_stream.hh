/**
 * @file
 * Streaming trace I/O: a pull-based reader and an incremental writer
 * over the on-disk trace format ("mnoc-trace 3") specified in
 * docs/TRACE_FORMAT.md.
 *
 * Whole-file loadTrace()/saveTrace() (sim/trace.hh) are layered on
 * top of this layer; consumers that must stay bounded in memory --
 * the ledger build, `mnocpt stats/report/faults`, and the bench
 * harness -- pull epoch and message batches directly instead of
 * materializing a Trace.  A TraceReader has two sources:
 *
 *  - a trace file, parsed line by line, and
 *  - an in-memory Trace, served through the same pull interface, so
 *    the one ledger build prices loaded and captured traces alike.
 *
 * The strict-diagnostics contract is that every malformed or
 * truncated record is a fatal error naming the file, line, record
 * kind, and byte offset where the damaged record starts.  All
 * writing goes through the FileWriter choke point (common/io.hh), so
 * a full disk is a hard error, never a silently truncated trace.
 */

#ifndef MNOC_SIM_TRACE_STREAM_HH
#define MNOC_SIM_TRACE_STREAM_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/io.hh"
#include "common/manifest.hh"
#include "common/matrix.hh"
#include "noc/network.hh"

namespace mnoc::sim {

struct Trace;
class LineScanner;

/** One sparse traffic record: the triplet-section row of the trace
 *  format, and the unit of a streamed message batch. */
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
    std::string workloadName;
    std::string networkName;
    int numNodes = 0;
    noc::Tick totalTicks = 0;
    RunManifest manifest;
    /** Epoch windows the trace carries (0 for an epoch-free trace). */
    std::size_t numEpochs = 0;
    /** Messages per attribution epoch (0 when there are none). */
    std::uint64_t messagesPerEpoch = 0;
};

/** Default record count of a streamed message batch: large enough to
 *  amortize call overhead, small enough to stay cache-resident. */
constexpr std::size_t kMessageBatch = 4096;

/**
 * Pull-based reader over a trace file or an in-memory trace.
 *
 * Construction parses the header (through the manifest and the
 * epochs-block header); nextEpoch() then yields epoch cell lists in
 * epoch order, and once those are drained nextMessages() yields
 * bounded batches of triplet records.  Peak memory is one epoch (or
 * one batch) regardless of trace size.  The cursor only moves
 * forward: a drained reader yields nothing more.
 */
class TraceReader
{
  public:
    /** Open the trace file @p path; fatal when @p path is a
     *  directory or cannot be opened. */
    explicit TraceReader(const std::string &path);

    /**
     * Serve @p trace from memory.  The header is the one saveTrace()
     * would write, and messages come in saveTrace()'s row-major,
     * skip-zero triplet order.  @p trace must outlive the reader.
     */
    explicit TraceReader(const Trace &trace);
    ~TraceReader();

    TraceReader(const TraceReader &) = delete;
    TraceReader &operator=(const TraceReader &) = delete;

    const TraceHeader &header() const { return header_; }
    const std::string &path() const { return path_; }

    /** True once an epoch or a message batch has been pulled. */
    bool consumed() const { return epochsYielded_ > 0 || tripletsStarted_; }

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

    /**
     * Accumulate the whole triplet section into @p packets /
     * @p flits (sized numNodes x numNodes by the caller).  Bounded
     * streaming fill of the dense matrices the power models consume.
     */
    void readMessageMatrix(CountMatrix &packets,
                           CountMatrix &flits);

  private:
    std::string path_;
    TraceHeader header_;
    std::unique_ptr<LineScanner> scanner_; ///< file cursor
    bool pending_ = false; ///< scanner_ holds an unconsumed line
    bool tripletsStarted_ = false;
    std::size_t epochsYielded_ = 0;

    /** In-memory source; null when reading a file. */
    const Trace *trace_ = nullptr;
    /** Row-major (src, dst) position of the in-memory triplet walk. */
    std::size_t tripletCursor_ = 0;
};

/**
 * Incremental trace writer for captures whose epochs stream out of a
 * running simulation: appendEpoch() spools each sealed epoch to
 * "<path>.spool" as the run seals it, so capture memory stays one
 * epoch however long the run is; finish() writes the header (now
 * that the tick count and manifest are known), copies the spool
 * behind it, writes the triplet section and removes the spool.  The
 * result is byte-identical to saveTrace() of the same trace.  A
 * writer destroyed before finish() removes its spool and leaves no
 * trace file.
 */
class TraceWriter
{
  public:
    TraceWriter(std::string path, std::string workload,
                std::string network, int num_nodes,
                std::uint64_t messages_per_epoch);
    ~TraceWriter();

    TraceWriter(const TraceWriter &) = delete;
    TraceWriter &operator=(const TraceWriter &) = delete;

    /** Append one sealed epoch (cells sorted by (src, dst)). */
    void appendEpoch(const std::vector<noc::EpochCell> &cells);

    /**
     * Write the trace file and remove the spool (every stream
     * checked).  Must be called exactly once; appendEpoch() is
     * invalid afterwards.
     */
    void finish(noc::Tick total_ticks, const CountMatrix &packets,
                const CountMatrix &flits,
                const RunManifest &manifest);

  private:
    std::string path_;
    std::string spoolPath_;
    TraceHeader header_;
    std::unique_ptr<FileWriter> spool_;
    bool finished_ = false;
};

} // namespace mnoc::sim

#endif // MNOC_SIM_TRACE_STREAM_HH
