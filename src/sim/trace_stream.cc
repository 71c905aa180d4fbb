#include "sim/trace_stream.hh"

#include <charconv>
#include <filesystem>
#include <sstream>
#include <string_view>
#include <utility>

#include "common/log.hh"
#include "common/metrics.hh"
#include "sim/trace.hh"

namespace mnoc::sim {

namespace {

/** Index file of a sharded trace directory. */
const char *const kIndexFile = "index.mtrace";

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

/** Shard file name for the shard starting at epoch @p first. */
std::string
shardFileName(std::size_t index)
{
    std::ostringstream name;
    name << "epochs-";
    std::string digits = std::to_string(index);
    for (std::size_t i = digits.size(); i < 6; ++i)
        name << '0';
    name << digits << ".mshard";
    return name.str();
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

    /** Next field as a token: one or more bytes above 0x20, so no
     *  blank or control byte (keywords and shard file names). */
    bool word(std::string_view &value)
    {
        if (!separator())
            return false;
        std::size_t len = 0;
        while (len < rest_.size() &&
               static_cast<unsigned char>(rest_[len]) > 0x20)
            ++len;
        if (len == 0)
            return false;
        value = rest_.substr(0, len);
        rest_.remove_prefix(len);
        return true;
    }

    /** Next field is exactly @p expected. */
    bool keyword(std::string_view expected)
    {
        std::string_view token;
        return word(token) && token == expected;
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

/** The "<magic> <version>" header record of a trace, index or
 *  triplet file; fatal unless the version lies in [@p lo, @p hi]. */
int
parseFileHeader(LineScanner &sc, std::string_view magic, int lo, int hi)
{
    if (!sc.next())
        sc.failTruncated("header", "empty trace file");
    FieldCursor f(sc.line());
    int version = 0;
    bool ok = f.keyword(magic) && f.number(version) && f.done();
    if (!ok || version < lo || version > hi)
        sc.fail("header", "unrecognized trace file header: " + sc.line());
    return version;
}

/** The workload, network and dimensions records. */
void
parseIdentity(LineScanner &sc, TraceHeader &header)
{
    if (!sc.next())
        sc.failTruncated("workload", "missing workload name");
    header.workloadName = sc.line();
    if (!sc.next())
        sc.failTruncated("network", "missing network name");
    header.networkName = sc.line();

    if (!sc.next())
        sc.failTruncated("dimensions", "missing trace dimensions");
    FieldCursor f(sc.line());
    bool ok = f.number(header.numNodes) && f.number(header.totalTicks) &&
              f.done();
    if (!ok || header.numNodes <= 0)
        sc.fail("dimensions", "malformed trace dimensions: " + sc.line());
}

/** The "manifest <k>" record and its k entries. */
void
parseManifestBlock(LineScanner &sc, RunManifest &manifest)
{
    if (!sc.next())
        sc.failTruncated("manifest-header", "missing manifest block");
    FieldCursor f(sc.line());
    std::size_t count = 0;
    if (!(f.keyword("manifest") && f.number(count) && f.done()))
        sc.fail("manifest-header",
                "expected 'manifest <n>', got: " + sc.line());
    for (std::size_t i = 0; i < count; ++i) {
        if (!sc.next())
            sc.failTruncated("manifest-entry", "truncated manifest block");
        if (!parseManifestEntry(sc.line(), manifest))
            sc.fail("manifest-entry",
                    "malformed manifest entry: " + sc.line());
    }
}

/** The "epochs <n> <msgs>" record. */
void
parseEpochsHeader(LineScanner &sc, TraceHeader &header)
{
    if (!sc.next())
        sc.failTruncated("epochs-header", "missing epochs block");
    FieldCursor f(sc.line());
    if (!(f.keyword("epochs") && f.number(header.numEpochs) &&
          f.number(header.messagesPerEpoch) && f.done()))
        sc.fail("epochs-header",
                "expected 'epochs <n> <msgs>', got: " + sc.line());
}

} // namespace

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

LineScanner::LineScanner(const std::string &path) : path_(path)
{
    in_.open(path);
    fatalIf(!in_.is_open(), "cannot open trace file: " + path);
}

LineScanner::LineScanner(const std::string &path, std::size_t offset,
                         int lineno)
    : path_(path), lineno_(lineno), lineOffset_(offset),
      offset_(offset)
{
    in_.open(path);
    fatalIf(!in_.is_open(), "cannot open trace file: " + path);
    in_.seekg(static_cast<std::streamoff>(offset));
    fatalIf(in_.fail(), "cannot seek in trace file: " + path);
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

TraceReader::TraceReader(const std::string &path) : path_(path)
{
    if (std::filesystem::is_directory(path))
        openSharded();
    else
        openSingleFile();
    MetricsRegistry::global().counter("trace.stream_opens").add();
}

TraceReader::TraceReader(const Trace &trace) : trace_(&trace)
{
    std::size_t n = trace.flits.rows();
    fatalIf(trace.flits.cols() != n || trace.packets.rows() != n ||
                trace.packets.cols() != n,
            "trace packet and flit matrices must be square and agree");
    header_.version = trace.epochs.empty() ? 2 : 3;
    header_.workloadName = trace.workloadName;
    header_.networkName = trace.networkName;
    header_.numNodes = static_cast<int>(n);
    header_.totalTicks = trace.totalTicks;
    header_.manifest = trace.manifest;
    header_.numEpochs = trace.epochs.epochs.size();
    if (header_.version >= 3)
        header_.messagesPerEpoch = trace.epochs.messagesPerEpoch;
}

TraceReader::~TraceReader() = default;

void
TraceReader::openSingleFile()
{
    scanner_ = std::make_unique<LineScanner>(path_);
    auto &sc = *scanner_;
    header_.version = parseFileHeader(sc, "mnoc-trace", 1, 3);
    parseIdentity(sc, header_);
    if (header_.version >= 2)
        parseManifestBlock(sc, header_.manifest);

    if (header_.version >= 3) {
        parseEpochsHeader(sc, header_);
        // Shard 0 of a single-file trace starts right here.
        epochsOffset_ = sc.lineOffset() + sc.line().size() + 1;
        epochsLineno_ = sc.lineno();
        pending_ = false;
    } else {
        // No epoch block: the next line (if any) is the first
        // triplet; keep it as lookahead for nextMessages().
        pending_ = sc.next();
    }
}

void
TraceReader::openSharded()
{
    std::string index_path = path_ + "/" + kIndexFile;
    fatalIf(!std::filesystem::exists(index_path),
            "not a sharded trace directory (missing " +
                std::string(kIndexFile) + "): " + path_);
    LineScanner sc(index_path);
    parseFileHeader(sc, "mnoc-trace-shards", 1, 1);
    header_.version = kShardedVersion;
    parseIdentity(sc, header_);
    parseManifestBlock(sc, header_.manifest);
    parseEpochsHeader(sc, header_);

    if (!sc.next())
        sc.failTruncated("shards-header", "missing shards block");
    std::size_t num_shards = 0;
    {
        FieldCursor f(sc.line());
        if (!(f.keyword("shards") && f.number(num_shards) && f.done()))
            sc.fail("shards-header",
                    "expected 'shards <n>', got: " + sc.line());
    }
    std::size_t covered = 0;
    for (std::size_t s = 0; s < num_shards; ++s) {
        if (!sc.next())
            sc.failTruncated("shard-entry",
                             "truncated shard list");
        FieldCursor f(sc.line());
        std::string_view file;
        ShardRange range;
        bool ok = f.keyword("shard") && f.word(file) &&
                  f.number(range.firstEpoch) && f.number(range.count) &&
                  f.done();
        if (!ok || range.count == 0)
            sc.fail("shard-entry",
                    "expected 'shard <file> <first> <count>', "
                    "got: " + sc.line());
        if (range.firstEpoch != covered)
            sc.fail("shard-entry",
                    "shard ranges must tile the epochs in order: " +
                        sc.line());
        covered += range.count;
        shardFiles_.push_back(path_ + "/" + std::string(file));
        shardRanges_.push_back(range);
    }
    if (covered != header_.numEpochs)
        sc.fail("shards-header",
                "shard ranges cover " + std::to_string(covered) +
                    " epochs, index declares " +
                    std::to_string(header_.numEpochs));

    if (!sc.next())
        sc.failTruncated("triplets-entry", "missing triplets entry");
    {
        FieldCursor f(sc.line());
        std::string_view file;
        if (!(f.keyword("triplets") && f.word(file) && f.done()))
            sc.fail("triplets-entry",
                    "expected 'triplets <file>', got: " + sc.line());
        tripletFile_ = path_ + "/" + std::string(file);
    }
    fatalIf(sc.bad(), "I/O error reading trace file: " + index_path);
}

void
TraceReader::parseEpochBlock(LineScanner &scanner, int num_nodes,
                             std::vector<noc::EpochCell> &cells)
{
    if (!scanner.next())
        scanner.failTruncated("epoch-header",
                              "truncated epochs block");
    FieldCursor head(scanner.line());
    std::size_t cell_count = 0;
    if (!(head.keyword("epoch") && head.number(cell_count) && head.done()))
        scanner.fail("epoch-header",
                     "expected 'epoch <cells>', got: " +
                         scanner.line());
    cells.clear();
    cells.reserve(cell_count);
    for (std::size_t c = 0; c < cell_count; ++c) {
        if (!scanner.next())
            scanner.failTruncated("epoch-cell",
                                  "truncated epoch cell list");
        FieldCursor f(scanner.line());
        noc::EpochCell cell;
        if (!(f.number(cell.src) && f.number(cell.dst) &&
              f.number(cell.packets) && f.number(cell.flits) && f.done()))
            scanner.fail("epoch-cell",
                         "malformed epoch cell (expected 'src "
                         "dst packets flits'): " + scanner.line());
        if (cell.src >= num_nodes || cell.dst >= num_nodes)
            scanner.fail("epoch-cell",
                         "epoch cell endpoint out of range: " +
                             scanner.line());
        cells.push_back(cell);
    }
}

std::unique_ptr<LineScanner>
TraceReader::openShard(std::size_t shard) const
{
    auto scanner = std::make_unique<LineScanner>(shardFiles_[shard]);
    auto &sc = *scanner;
    if (!sc.next())
        sc.failTruncated("shard-header", "empty shard file");
    FieldCursor f(sc.line());
    int version = 0;
    std::size_t first = 0;
    bool ok = f.keyword("mnoc-shard") && f.number(version) &&
              f.number(first) && f.done();
    if (!ok || version != 1)
        sc.fail("shard-header",
                "unrecognized shard header: " + sc.line());
    if (first != shardRanges_[shard].firstEpoch)
        sc.fail("shard-header",
                "shard declares first epoch " + std::to_string(first) +
                    ", index expects " +
                    std::to_string(shardRanges_[shard].firstEpoch));
    return scanner;
}

bool
TraceReader::advanceEpochShard()
{
    while (cursorShard_ < shardFiles_.size()) {
        if (!shardScanner_) {
            shardScanner_ = openShard(cursorShard_);
            cursorEpoch_ = 0;
        }
        if (cursorEpoch_ < shardRanges_[cursorShard_].count)
            return true;
        fatalIf(shardScanner_->bad(),
                "I/O error reading trace file: " +
                    shardFiles_[cursorShard_]);
        shardScanner_.reset();
        ++cursorShard_;
    }
    return false;
}

bool
TraceReader::nextEpoch(std::vector<noc::EpochCell> &cells)
{
    if (epochsYielded_ >= header_.numEpochs)
        return false;
    if (trace_) {
        cells = trace_->epochs.epochs[epochsYielded_];
    } else if (sharded()) {
        panicIf(!advanceEpochShard(),
                "shard cursor exhausted before declared epochs");
        parseEpochBlock(*shardScanner_, header_.numNodes, cells);
        ++cursorEpoch_;
    } else {
        parseEpochBlock(*scanner_, header_.numNodes, cells);
    }
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
    if (sharded() && !scanner_) {
        scanner_ = std::make_unique<LineScanner>(tripletFile_);
        parseFileHeader(*scanner_, "mnoc-triplets", 1, 1);
        pending_ = scanner_->next();
    } else if (!sharded() && header_.version >= 3 &&
               epochsYielded_ == header_.numEpochs && !pending_ &&
               !tripletsStarted_) {
        // A v3+ single-file trace always carries an epoch block,
        // even a zero-epoch one ("epochs 0 ..."), and openSingleFile
        // leaves no lookahead for it; pull the first triplet line
        // here.  Gating on numEpochs > 0 instead of the version
        // silently dropped the whole triplet section of zero-epoch
        // v3 captures.
        pending_ = scanner_->next();
    }
    tripletsStarted_ = true;
    auto &sc = *scanner_;
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
    if (!pending_)
        fatalIf(sc.bad(),
                "I/O error reading trace file: " + sc.path());
    return batch.size();
}

std::size_t
TraceReader::numShards() const
{
    if (sharded())
        return shardFiles_.size();
    if (trace_)
        return header_.numEpochs;
    return header_.numEpochs > 0 ? 1 : 0;
}

TraceReader::ShardRange
TraceReader::shardRange(std::size_t shard) const
{
    panicIf(shard >= numShards(), "shard index out of range");
    if (sharded())
        return shardRanges_[shard];
    if (trace_)
        return ShardRange{shard, 1};
    return ShardRange{0, header_.numEpochs};
}

void
TraceReader::readShard(
    std::size_t shard,
    const std::function<void(std::size_t epoch,
                             std::vector<noc::EpochCell> &&cells)>
        &sink) const
{
    panicIf(shard >= numShards(), "shard index out of range");
    if (trace_) {
        sink(shard, std::vector<noc::EpochCell>(
                        trace_->epochs.epochs[shard]));
        return;
    }
    ShardRange range = shardRange(shard);
    std::unique_ptr<LineScanner> scanner;
    if (sharded()) {
        scanner = openShard(shard);
    } else {
        scanner = std::make_unique<LineScanner>(
            path_, epochsOffset_, epochsLineno_);
    }
    std::vector<noc::EpochCell> cells;
    for (std::size_t e = 0; e < range.count; ++e) {
        parseEpochBlock(*scanner, header_.numNodes, cells);
        sink(range.firstEpoch + e, std::move(cells));
        cells = {};
    }
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

TraceShardWriter::TraceShardWriter(const std::string &dir,
                                   std::string workload,
                                   std::string network,
                                   int num_nodes,
                                   std::uint64_t messages_per_epoch,
                                   std::size_t epochs_per_shard)
    : dir_(dir), workload_(std::move(workload)),
      network_(std::move(network)), numNodes_(num_nodes),
      messagesPerEpoch_(messages_per_epoch),
      epochsPerShard_(epochs_per_shard)
{
    fatalIf(num_nodes <= 0, "shard writer needs a positive node "
                            "count");
    fatalIf(epochs_per_shard == 0,
            "shard writer needs a positive epochs-per-shard");
    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);
    fatalIf(static_cast<bool>(ec),
            "cannot create trace shard directory: " + dir_);
}

TraceShardWriter::~TraceShardWriter() = default;

void
TraceShardWriter::rollShard()
{
    if (shard_)
        shard_->close();
    std::string file = shardFileName(shardFiles_.size());
    shardFiles_.push_back(file);
    shardFirstEpoch_.push_back(numEpochs_);
    shardCounts_.push_back(0);
    shard_ = std::make_unique<FileWriter>(dir_ + "/" + file);
    shard_->stream() << "mnoc-shard 1 " << numEpochs_ << "\n";
}

void
TraceShardWriter::appendEpoch(
    const std::vector<noc::EpochCell> &cells)
{
    panicIf(finished_, "appendEpoch after finish");
    if (!shard_ || shardCounts_.back() == epochsPerShard_)
        rollShard();
    auto &out = shard_->stream();
    out << "epoch " << cells.size() << "\n";
    for (const noc::EpochCell &cell : cells) {
        fatalIf(cell.src < 0 || cell.src >= numNodes_ ||
                    cell.dst < 0 || cell.dst >= numNodes_,
                "epoch cell endpoint out of range");
        writeCountRecord(out, cell.src, cell.dst, cell.packets, cell.flits);
    }
    ++shardCounts_.back();
    ++numEpochs_;
}

void
TraceShardWriter::finish(noc::Tick total_ticks,
                         const CountMatrix &packets,
                         const CountMatrix &flits,
                         const RunManifest &manifest)
{
    panicIf(finished_, "finish called twice");
    finished_ = true;
    if (shard_) {
        shard_->close();
        shard_.reset();
    }
    auto n = static_cast<std::size_t>(numNodes_);
    fatalIf(packets.rows() != n || packets.cols() != n ||
                flits.rows() != n || flits.cols() != n,
            "message matrix size mismatch");

    const std::string triplet_file = "triplets.mshard";
    {
        FileWriter writer(dir_ + "/" + triplet_file);
        auto &out = writer.stream();
        out << "mnoc-triplets 1\n";
        for (std::size_t s = 0; s < n; ++s) {
            for (std::size_t d = 0; d < n; ++d) {
                if (packets(s, d) == 0 && flits(s, d) == 0)
                    continue;
                writeCountRecord(out, s, d, packets(s, d), flits(s, d));
            }
        }
        writer.close();
    }

    FileWriter writer(dir_ + "/" + kIndexFile);
    auto &out = writer.stream();
    out << "mnoc-trace-shards 1\n";
    out << workload_ << "\n" << network_ << "\n";
    out << numNodes_ << " " << total_ticks << "\n";
    auto lines = manifestLines(manifest);
    out << "manifest " << lines.size() << "\n";
    for (const auto &line : lines)
        out << line << "\n";
    out << "epochs " << numEpochs_ << " " << messagesPerEpoch_
        << "\n";
    out << "shards " << shardFiles_.size() << "\n";
    for (std::size_t s = 0; s < shardFiles_.size(); ++s)
        out << "shard " << shardFiles_[s] << " "
            << shardFirstEpoch_[s] << " " << shardCounts_[s] << "\n";
    out << "triplets " << triplet_file << "\n";
    writer.close();
    MetricsRegistry::global().counter("trace.shard_saves").add();
}

} // namespace mnoc::sim
