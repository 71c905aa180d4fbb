#include "sim/trace_stream.hh"

#include <charconv>
#include <filesystem>
#include <fstream>
#include <string_view>
#include <utility>

#include "common/log.hh"
#include "common/metrics.hh"
#include "common/trace_span.hh"
#include "sim/trace.hh"

namespace mnoc::sim {

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
    /** Open @p path; fatal (naming the path) when that fails or
     *  @p path is a directory. */
    explicit LineScanner(const std::string &path);

    /** Advance to the next line; false at end of file. */
    bool next();

    const std::string &line() const { return line_; }
    const std::string &path() const { return path_; }

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

namespace {

/**
 * "path:line: why [kind record at byte N]" fatal for the strict
 * trace parser.  Every failure names the record kind being parsed
 * and the byte offset where it starts (for truncation, the offset
 * where the file ends), so a cut or corrupted trace can be opened
 * at the exact damage point instead of re-parsed by hand.
 */
[[noreturn]] void
parseFail(const std::string &path, int line, std::size_t offset,
          const std::string &kind, const std::string &why)
{
    fatal(path + ":" + std::to_string(line) + ": " + why + " [" +
          kind + " record at byte " + std::to_string(offset) + "]");
}

/**
 * Field cursor over one trace record, enforcing the lexical rules of
 * docs/TRACE_FORMAT.md on every record kind: a number is unsigned
 * decimal digits that fit the target type (no sign, no fraction, no
 * overflow), fields are separated by exactly one space (0x20), and
 * nothing -- not even a CR -- may follow the last field (done()).
 * Each read returns false on a violation, so a record parses as one
 * short-circuit chain:
 *
 *     FieldCursor f(line);
 *     if (!(f.number(src) && f.number(dst) && f.done()))
 *         fail(...);
 */
class FieldCursor
{
  public:
    explicit FieldCursor(std::string_view line) : rest_(line) {}

    /** Next field as an unsigned decimal that fits @p T. */
    template <typename T>
    bool number(T &value)
    {
        if (!separator())
            return false;
        const char *begin = rest_.data();
        std::uint64_t parsed = 0;
        auto [stop, ec] = std::from_chars(begin, begin + rest_.size(), parsed);
        if (ec != std::errc() || !std::in_range<T>(parsed))
            return false;
        rest_.remove_prefix(static_cast<std::size_t>(stop - begin));
        value = static_cast<T>(parsed);
        return true;
    }

    /** Next field is exactly @p expected.  A longer token fails on
     *  the separator or done() check that follows it. */
    bool keyword(std::string_view expected)
    {
        if (!separator() || !rest_.starts_with(expected))
            return false;
        rest_.remove_prefix(expected.size());
        return true;
    }

    /** True once the whole line has been consumed. */
    bool done() const { return rest_.empty(); }

  private:
    /** Every field but the first is preceded by exactly one space. */
    bool separator()
    {
        if (first_) {
            first_ = false;
            return true;
        }
        if (rest_.empty() || rest_.front() != ' ')
            return false;
        rest_.remove_prefix(1);
        return true;
    }

    std::string_view rest_;
    bool first_ = true;
};


/**
 * The header records, from "mnoc-trace 3" through the epochs-header.
 * Any other version -- 1 and 2 included -- is an unrecognized header
 * at byte 0.
 */
void
parseHeader(LineScanner &sc, TraceHeader &header)
{
    if (!sc.next())
        sc.failTruncated("header", "empty trace file");
    {
        FieldCursor f(sc.line());
        if (!(f.keyword("mnoc-trace") && f.keyword("3") && f.done()))
            sc.fail("header",
                    "unrecognized trace file header: " + sc.line());
    }

    if (!sc.next())
        sc.failTruncated("workload", "missing workload name");
    header.workloadName = sc.line();
    if (!sc.next())
        sc.failTruncated("network", "missing network name");
    header.networkName = sc.line();

    if (!sc.next())
        sc.failTruncated("dimensions", "missing trace dimensions");
    {
        FieldCursor f(sc.line());
        bool ok = f.number(header.numNodes) &&
                  f.number(header.totalTicks) && f.done();
        if (!ok || header.numNodes <= 0)
            sc.fail("dimensions",
                    "malformed trace dimensions: " + sc.line());
    }

    if (!sc.next())
        sc.failTruncated("manifest-header", "missing manifest block");
    std::size_t count = 0;
    {
        FieldCursor f(sc.line());
        if (!(f.keyword("manifest") && f.number(count) && f.done()))
            sc.fail("manifest-header",
                    "expected 'manifest <n>', got: " + sc.line());
    }
    for (std::size_t i = 0; i < count; ++i) {
        if (!sc.next())
            sc.failTruncated("manifest-entry", "truncated manifest block");
        if (!parseManifestEntry(sc.line(), header.manifest))
            sc.fail("manifest-entry",
                    "malformed manifest entry: " + sc.line());
    }

    if (!sc.next())
        sc.failTruncated("epochs-header", "missing epochs block");
    FieldCursor f(sc.line());
    if (!(f.keyword("epochs") && f.number(header.numEpochs) &&
          f.number(header.messagesPerEpoch) && f.done()))
        sc.fail("epochs-header",
                "expected 'epochs <n> <msgs>', got: " + sc.line());
}

/** Parse one "epoch <c>" block from @p sc into @p cells. */
void
parseEpochBlock(LineScanner &sc, int num_nodes,
                std::vector<noc::EpochCell> &cells)
{
    if (!sc.next())
        sc.failTruncated("epoch-header", "truncated epochs block");
    FieldCursor head(sc.line());
    std::size_t cell_count = 0;
    if (!(head.keyword("epoch") && head.number(cell_count) && head.done()))
        sc.fail("epoch-header",
                "expected 'epoch <cells>', got: " + sc.line());
    cells.clear();
    cells.reserve(cell_count);
    for (std::size_t c = 0; c < cell_count; ++c) {
        if (!sc.next())
            sc.failTruncated("epoch-cell", "truncated epoch cell list");
        FieldCursor f(sc.line());
        noc::EpochCell cell;
        if (!(f.number(cell.src) && f.number(cell.dst) &&
              f.number(cell.packets) && f.number(cell.flits) && f.done()))
            sc.fail("epoch-cell",
                    "malformed epoch cell (expected 'src dst packets "
                    "flits'): " + sc.line());
        if (cell.src >= num_nodes || cell.dst >= num_nodes)
            sc.fail("epoch-cell",
                    "epoch cell endpoint out of range: " + sc.line());
        cells.push_back(cell);
    }
}

/** The header saveTrace() writes for @p trace. */
TraceHeader
headerOf(const Trace &trace)
{
    std::size_t n = trace.flits.rows();
    fatalIf(trace.flits.cols() != n || trace.packets.rows() != n ||
                trace.packets.cols() != n,
            "trace packet and flit matrices must be square and agree");
    TraceHeader header;
    header.workloadName = trace.workloadName;
    header.networkName = trace.networkName;
    header.numNodes = static_cast<int>(n);
    header.totalTicks = trace.totalTicks;
    header.manifest = trace.manifest;
    header.numEpochs = trace.epochs.epochs.size();
    if (header.numEpochs > 0)
        header.messagesPerEpoch = trace.epochs.messagesPerEpoch;
    return header;
}

/*
 * The record writers.  saveTrace() and TraceWriter both write through
 * these, so every record of the format is formatted in one place.
 */

/** The header records, from "mnoc-trace 3" through the
 *  epochs-header. */
void
writeHeader(std::ostream &out, const TraceHeader &header)
{
    out << "mnoc-trace 3\n";
    out << header.workloadName << "\n" << header.networkName << "\n";
    out << header.numNodes << " " << header.totalTicks << "\n";
    auto lines = manifestLines(header.manifest);
    out << "manifest " << lines.size() << "\n";
    for (const auto &line : lines)
        out << line << "\n";
    out << "epochs " << header.numEpochs << " "
        << header.messagesPerEpoch << "\n";
}

/**
 * Write one "<src> <dst> <packets> <flits>" line -- the epoch-cell
 * and triplet record -- formatted with std::to_chars into one buffer
 * and handed to @p out in one write.
 */
void
writeCountRecord(std::ostream &out, std::int64_t src, std::int64_t dst,
                 std::uint64_t packets, std::uint64_t flits)
{
    // Four 20-digit fields, three spaces and the newline.  Each
    // field is bounded one byte short of the buffer, so its
    // separator always lands inside it.
    char line[88];
    char *const last = line + sizeof line - 1;
    char *p = line;
    auto field = [&](auto value, char separator) {
        p = std::to_chars(p, last, value).ptr;
        *p++ = separator;
    };
    field(src, ' ');
    field(dst, ' ');
    field(packets, ' ');
    field(flits, '\n');
    out.write(line, p - line);
}

/** One "epoch <c>" block. */
void
writeEpoch(std::ostream &out, const std::vector<noc::EpochCell> &cells,
           int num_nodes)
{
    out << "epoch " << cells.size() << "\n";
    for (const noc::EpochCell &cell : cells) {
        // Branch first: fatalIf would build its message per cell.
        if (cell.src < 0 || cell.src >= num_nodes || cell.dst < 0 ||
            cell.dst >= num_nodes)
            fatal("epoch cell endpoint out of range");
        writeCountRecord(out, cell.src, cell.dst, cell.packets,
                         cell.flits);
    }
}

/** The sparse triplet section: row-major, all-zero pairs skipped. */
void
writeTriplets(std::ostream &out, const CountMatrix &packets,
              const CountMatrix &flits)
{
    std::size_t n = packets.rows();
    fatalIf(packets.cols() != n || flits.rows() != n ||
                flits.cols() != n,
            "message matrix size mismatch");
    for (std::size_t s = 0; s < n; ++s) {
        for (std::size_t d = 0; d < n; ++d) {
            if (packets(s, d) == 0 && flits(s, d) == 0)
                continue;
            writeCountRecord(out, static_cast<std::int64_t>(s),
                             static_cast<std::int64_t>(d), packets(s, d),
                             flits(s, d));
        }
    }
}

} // namespace

LineScanner::LineScanner(const std::string &path) : path_(path)
{
    // An ifstream opens a directory without complaint and then reads
    // nothing, which would surface as a misleading truncated header.
    std::error_code ec;
    if (std::filesystem::is_directory(path, ec))
        fatal("is a directory, not a trace file: " + path);
    in_.open(path);
    if (!in_.is_open())
        fatal("cannot open trace file: " + path);
}

bool
LineScanner::next()
{
    lineOffset_ = offset_;
    if (!std::getline(in_, line_))
        return false;
    ++lineno_;
    offset_ += line_.size() + 1;
    return true;
}

void
LineScanner::fail(const std::string &kind,
                  const std::string &why) const
{
    parseFail(path_, lineno_, lineOffset_, kind, why);
}

void
LineScanner::failTruncated(const std::string &kind,
                           const std::string &why) const
{
    parseFail(path_, lineno_ + 1, lineOffset_, kind, why);
}

TraceReader::TraceReader(const std::string &path)
    : path_(path), scanner_(std::make_unique<LineScanner>(path))
{
    parseHeader(*scanner_, header_);
    MetricsRegistry::global().counter("trace.stream_opens").add();
}

TraceReader::TraceReader(const Trace &trace)
    : header_(headerOf(trace)), trace_(&trace)
{}

TraceReader::~TraceReader() = default;

bool
TraceReader::nextEpoch(std::vector<noc::EpochCell> &cells)
{
    if (epochsYielded_ >= header_.numEpochs)
        return false;
    if (trace_)
        cells = trace_->epochs.epochs[epochsYielded_];
    else
        parseEpochBlock(*scanner_, header_.numNodes, cells);
    ++epochsYielded_;
    return true;
}

std::size_t
TraceReader::nextMessages(std::vector<TraceMessage> &batch,
                          std::size_t max)
{
    panicIf(epochsYielded_ < header_.numEpochs,
            "trace epochs must be drained before messages");
    batch.clear();
    if (trace_) {
        tripletsStarted_ = true;
        auto n = static_cast<std::size_t>(header_.numNodes);
        for (; batch.size() < max && tripletCursor_ < n * n;
             ++tripletCursor_) {
            std::size_t s = tripletCursor_ / n;
            std::size_t d = tripletCursor_ % n;
            std::uint64_t packets = trace_->packets(s, d);
            std::uint64_t flits = trace_->flits(s, d);
            if (packets != 0 || flits != 0)
                batch.push_back({static_cast<int>(s),
                                 static_cast<int>(d), packets, flits});
        }
        return batch.size();
    }
    auto &sc = *scanner_;
    if (!tripletsStarted_) {
        // The epochs block ends where the triplet section begins.
        tripletsStarted_ = true;
        pending_ = sc.next();
    }
    while (batch.size() < max && pending_) {
        FieldCursor f(sc.line());
        TraceMessage msg;
        if (!(f.number(msg.src) && f.number(msg.dst) &&
              f.number(msg.packets) && f.number(msg.flits)))
            sc.fail("triplet",
                    "malformed trace triplet (expected 'src dst "
                    "packets flits'): " + sc.line());
        if (!f.done())
            sc.fail("triplet",
                    "trailing garbage after triplet: " + sc.line());
        if (msg.src >= header_.numNodes || msg.dst >= header_.numNodes)
            sc.fail("triplet",
                    "trace endpoint out of range: " + sc.line());
        batch.push_back(msg);
        pending_ = sc.next();
    }
    if (!pending_ && sc.bad())
        fatal("I/O error reading trace file: " + sc.path());
    return batch.size();
}

void
TraceReader::readMessageMatrix(CountMatrix &packets,
                               CountMatrix &flits)
{
    auto n = static_cast<std::size_t>(header_.numNodes);
    panicIf(packets.rows() != n || packets.cols() != n ||
                flits.rows() != n || flits.cols() != n,
            "message matrix size mismatch");
    // Epoch blocks sit ahead of the triplets; skip any the caller
    // has not consumed.
    std::vector<noc::EpochCell> discard;
    while (nextEpoch(discard)) {
    }
    std::vector<TraceMessage> batch;
    while (nextMessages(batch, kMessageBatch) > 0) {
        for (const TraceMessage &msg : batch) {
            packets(static_cast<std::size_t>(msg.src),
                    static_cast<std::size_t>(msg.dst)) = msg.packets;
            flits(static_cast<std::size_t>(msg.src),
                  static_cast<std::size_t>(msg.dst)) = msg.flits;
        }
    }
}

void
saveTrace(const std::string &path, const Trace &trace)
{
    TraceSpan span("saveTrace", "io");
    TraceHeader header = headerOf(trace);
    FileWriter writer(path);
    auto &out = writer.stream();
    writeHeader(out, header);
    for (const auto &cells : trace.epochs.epochs)
        writeEpoch(out, cells, header.numNodes);
    writeTriplets(out, trace.packets, trace.flits);
    // A full disk or revoked permissions surface here, not as a
    // silently truncated trace on the next load.
    writer.close();
    MetricsRegistry::global().counter("trace.saves").add();
}

TraceWriter::TraceWriter(std::string path, std::string workload,
                         std::string network, int num_nodes,
                         std::uint64_t messages_per_epoch)
    : path_(std::move(path)), spoolPath_(path_ + ".spool")
{
    fatalIf(num_nodes <= 0, "trace writer needs a positive node count");
    header_.workloadName = std::move(workload);
    header_.networkName = std::move(network);
    header_.numNodes = num_nodes;
    header_.messagesPerEpoch = messages_per_epoch;
    spool_ = std::make_unique<FileWriter>(spoolPath_);
}

TraceWriter::~TraceWriter()
{
    // A writer abandoned before (or part way through) finish() must
    // not leave its spool behind; error_code keeps this noexcept.
    spool_.reset();
    std::error_code ec;
    std::filesystem::remove(spoolPath_, ec);
}

void
TraceWriter::appendEpoch(const std::vector<noc::EpochCell> &cells)
{
    panicIf(finished_, "appendEpoch after finish");
    writeEpoch(spool_->stream(), cells, header_.numNodes);
    ++header_.numEpochs;
}

void
TraceWriter::finish(noc::Tick total_ticks, const CountMatrix &packets,
                    const CountMatrix &flits,
                    const RunManifest &manifest)
{
    TraceSpan span("saveTrace", "io");
    panicIf(finished_, "finish called twice");
    finished_ = true;
    spool_->close();
    spool_.reset();
    header_.totalTicks = total_ticks;
    header_.manifest = manifest;
    if (header_.numEpochs == 0)
        header_.messagesPerEpoch = 0;

    FileWriter writer(path_);
    auto &out = writer.stream();
    writeHeader(out, header_);
    // Streaming an empty buffer would set failbit on out, so an
    // epoch-free spool is skipped rather than copied.
    if (header_.numEpochs > 0) {
        std::ifstream spool(spoolPath_, std::ios::binary);
        if (!spool.is_open())
            fatal("cannot reopen trace spool: " + spoolPath_);
        out << spool.rdbuf();
        if (spool.bad())
            fatal("I/O error reading trace spool: " + spoolPath_);
    }
    writeTriplets(out, packets, flits);
    writer.close();
    std::error_code ec;
    std::filesystem::remove(spoolPath_, ec);
    if (static_cast<bool>(ec))
        fatal("cannot remove trace spool: " + spoolPath_);
    MetricsRegistry::global().counter("trace.saves").add();
}

} // namespace mnoc::sim
