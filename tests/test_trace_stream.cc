/**
 * @file
 * Tests of the streaming trace layer (sim/trace_stream.hh): the
 * ledger build must match a serial reference fold cell for cell from
 * both reader sources (in memory, file) at every pool size, the
 * in-memory reader must serve what a reader over the saved file
 * does, the build must reject a non-permutation map and a drained
 * reader, the incremental TraceWriter must emit the same bytes as
 * saveTrace() and leave no spool behind, a truncated final epoch must
 * fail naming the record kind and byte offset, a directory must be
 * named as one, and the recorder's epoch sink must see exactly the
 * epochs the in-memory path accumulates.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <utility>
#include <vector>

#include "common/log.hh"
#include "common/manifest.hh"
#include "common/prng.hh"
#include "common/thread_pool.hh"
#include "core/accrual.hh"
#include "core/builders.hh"
#include "core/energy_ledger.hh"
#include "noc/network.hh"
#include "noc/packet.hh"
#include "sim/trace.hh"
#include "sim/trace_stream.hh"

namespace {

using namespace mnoc;
using namespace mnoc::core;

/** Bit-exact cell-by-cell ledger comparison (no tolerance: the
 *  build promises identity, not closeness). */
void
expectSameLedger(const EnergyLedger &a, const EnergyLedger &b)
{
    ASSERT_EQ(a.numSources(), b.numSources());
    ASSERT_EQ(a.numModes(), b.numModes());
    ASSERT_EQ(a.numEpochs(), b.numEpochs());
    ASSERT_EQ(a.durationSeconds(), b.durationSeconds());
    for (int s = 0; s < a.numSources(); ++s) {
        for (int m = 0; m < a.numModes(); ++m) {
            ASSERT_EQ(a.loss(s, m).injected, b.loss(s, m).injected);
            ASSERT_EQ(a.loss(s, m).delivered, b.loss(s, m).delivered);
            for (std::size_t e = 0; e < a.numEpochs(); ++e) {
                const auto &x = a.cell(s, m, e);
                const auto &y = b.cell(s, m, e);
                ASSERT_EQ(x.flits, y.flits);
                ASSERT_EQ(x.txSeconds, y.txSeconds);
                ASSERT_EQ(x.sourceEnergy, y.sourceEnergy);
                ASSERT_EQ(x.oeEnergy, y.oeEnergy);
                ASSERT_EQ(x.electricalEnergy, y.electricalEnergy);
            }
        }
    }
    auto pa = a.averagePower();
    auto pb = b.averagePower();
    ASSERT_EQ(pa.total(), pb.total());
}

std::vector<int>
identityMapping(int n)
{
    std::vector<int> map(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i)
        map[static_cast<std::size_t>(i)] = i;
    return map;
}

/** Deterministic 16-node epoch-carrying trace: every epoch draws its
 *  cells from its own derived PRNG stream, pre-sorted by (src, dst)
 *  like the capture path seals them. */
sim::Trace
epochTrace(std::size_t num_epochs = 32,
           std::uint64_t msgs_per_epoch = 8)
{
    constexpr int kNodes = 16;
    sim::Trace t;
    t.workloadName = "stream_fixture";
    t.networkName = "mNoC";
    t.totalTicks = 50000;
    t.packets = CountMatrix(kNodes, kNodes, 0);
    t.flits = CountMatrix(kNodes, kNodes, 0);
    t.manifest.seed = 42;
    t.manifest.gitSha = "0000000";
    t.epochs.messagesPerEpoch = msgs_per_epoch;
    for (std::size_t e = 0; e < num_epochs; ++e) {
        Prng rng(deriveSeed(5, e));
        std::map<std::pair<int, int>,
                 std::pair<std::uint64_t, std::uint64_t>> bucket;
        for (std::uint64_t m = 0; m < msgs_per_epoch; ++m) {
            int src = static_cast<int>(rng.below(kNodes));
            int dst = static_cast<int>(rng.below(kNodes - 1));
            if (dst >= src)
                ++dst;
            std::uint64_t flits = 1 + rng.below(5);
            auto &cell = bucket[{src, dst}];
            cell.first += 1;
            cell.second += flits;
        }
        std::vector<noc::EpochCell> cells;
        for (const auto &[key, counts] : bucket) {
            cells.push_back({key.first, key.second, counts.first,
                             counts.second});
            t.packets(key.first, key.second) += counts.first;
            t.flits(key.first, key.second) += counts.second;
        }
        t.epochs.epochs.push_back(std::move(cells));
    }
    return t;
}

std::string
scratchPath(const std::string &stem)
{
    return testing::TempDir() + stem;
}

/** The whole file's bytes, for byte-identity comparisons. */
std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

/**
 * Reference attribution with no reader and no pool in the loop: a
 * serial fold of every epoch cell (every (src, dst) pair for an
 * epoch-free trace) through the accrual plan, then the loss walk.
 */
EnergyLedger
referenceLedger(const MnocPowerModel &model, const MnocDesign &design,
                const sim::Trace &trace)
{
    int n = static_cast<int>(trace.flits.rows());
    std::size_t epochs =
        trace.epochs.empty() ? 1 : trace.epochs.epochs.size();
    EnergyLedger ledger(n, design.topology.numModes, epochs,
                        static_cast<double>(trace.totalTicks) /
                            model.params().net.clockHz);
    AccrualPlan plan(design, model.params(), model.crossbar().params(),
                     n);
    if (trace.epochs.empty()) {
        for (int s = 0; s < n; ++s)
            for (int d = 0; d < n; ++d)
                plan.accrue(ledger, s, d, trace.flits(s, d), 0);
    } else {
        for (std::size_t e = 0; e < epochs; ++e)
            for (const noc::EpochCell &cell : trace.epochs.epochs[e])
                plan.accrue(ledger, cell.src, cell.dst, cell.flits, e);
    }
    model.attachLosses(design, ledger);
    return ledger;
}

/** Build @p trace's ledger from both reader sources -- in memory and
 *  a file -- at pools of 1, 2 and 8, and require each to match the
 *  serial reference bit for bit. */
void
expectEverySourceMatchesReference(const sim::Trace &trace,
                                  Meters waveguide,
                                  const std::string &stem)
{
    int n = static_cast<int>(trace.flits.rows());
    optics::SerpentineLayout layout(n, waveguide);
    optics::DeviceParams params;
    optics::OpticalCrossbar xbar(layout, params);
    MnocPowerModel model(xbar, PowerParams{});
    auto design = model.designUniform(distanceBasedTopology(n, 2));

    std::string file = scratchPath(stem + ".trace");
    sim::saveTrace(file, trace);

    auto reference = referenceLedger(model, design, trace);
    auto mapping = identityMapping(n);
    for (int threads : {1, 2, 8}) {
        ThreadPool pool(threads);
        sim::TraceReader memory(trace);
        sim::TraceReader single(file);
        for (sim::TraceReader *reader : {&memory, &single}) {
            SCOPED_TRACE("pool " + std::to_string(threads) + ", " +
                         (reader == &memory ? "memory" : "file"));
            auto ledger =
                model.buildLedger(design, *reader, &mapping, &pool);
            expectSameLedger(reference, ledger);
            EXPECT_EQ(ledger.messagesPerEpoch(),
                      reader->header().messagesPerEpoch);
        }
    }
}

TEST(TraceStream, LedgerMatchesReferenceOnGoldenFixture)
{
    expectEverySourceMatchesReference(
        sim::loadTrace(std::string(MNOC_TEST_DATA_DIR) +
                       "/golden_trace_256.trace"),
        Meters(0.08), "stream_golden");
}

TEST(TraceStream, EpochLedgerMatchesReferenceAtAnyPoolSize)
{
    expectEverySourceMatchesReference(epochTrace(), Meters(0.05),
                                      "stream_epochs");
}

/** Every epoch @p reader yields, in order. */
std::vector<std::vector<noc::EpochCell>>
drainEpochs(sim::TraceReader &reader)
{
    std::vector<std::vector<noc::EpochCell>> epochs;
    std::vector<noc::EpochCell> cells;
    while (reader.nextEpoch(cells))
        epochs.push_back(cells);
    return epochs;
}

/** Every message @p reader yields, pulled in small batches. */
std::vector<sim::TraceMessage>
drainMessages(sim::TraceReader &reader)
{
    std::vector<sim::TraceMessage> messages;
    std::vector<sim::TraceMessage> batch;
    while (reader.nextMessages(batch, 7) > 0)
        messages.insert(messages.end(), batch.begin(), batch.end());
    return messages;
}

void
expectSameCells(const std::vector<noc::EpochCell> &a,
                const std::vector<noc::EpochCell> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].src, b[i].src);
        EXPECT_EQ(a[i].dst, b[i].dst);
        EXPECT_EQ(a[i].packets, b[i].packets);
        EXPECT_EQ(a[i].flits, b[i].flits);
    }
}

TEST(TraceStream, InMemoryReaderServesWhatTheSavedFileDoes)
{
    auto epoched = epochTrace(10, 6);
    auto plain = epoched;
    plain.epochs = {};
    for (const sim::Trace *trace : {&epoched, &plain}) {
        std::string file = scratchPath("memory_roundtrip.trace");
        sim::saveTrace(file, *trace);
        sim::TraceReader memory(*trace);
        sim::TraceReader saved(file);

        const auto &a = memory.header();
        const auto &b = saved.header();
        EXPECT_EQ(a.workloadName, b.workloadName);
        EXPECT_EQ(a.networkName, b.networkName);
        EXPECT_EQ(a.numNodes, b.numNodes);
        EXPECT_EQ(a.totalTicks, b.totalTicks);
        EXPECT_EQ(manifestJson(a.manifest), manifestJson(b.manifest));
        EXPECT_EQ(a.numEpochs, b.numEpochs);
        EXPECT_EQ(a.messagesPerEpoch, b.messagesPerEpoch);

        auto expected = drainEpochs(saved);
        auto pulled = drainEpochs(memory);
        ASSERT_EQ(pulled.size(), expected.size());
        for (std::size_t e = 0; e < expected.size(); ++e)
            expectSameCells(pulled[e], expected[e]);

        auto want = drainMessages(saved);
        auto got = drainMessages(memory);
        ASSERT_EQ(got.size(), want.size());
        ASSERT_FALSE(want.empty());
        for (std::size_t i = 0; i < want.size(); ++i) {
            EXPECT_EQ(got[i].src, want[i].src);
            EXPECT_EQ(got[i].dst, want[i].dst);
            EXPECT_EQ(got[i].packets, want[i].packets);
            EXPECT_EQ(got[i].flits, want[i].flits);
        }
    }
}

TEST(TraceStream, BuildRejectsANonPermutationMap)
{
    auto trace = epochTrace(4, 6);
    optics::SerpentineLayout layout(16, Meters(0.05));
    optics::DeviceParams params;
    optics::OpticalCrossbar xbar(layout, params);
    MnocPowerModel model(xbar, PowerParams{});
    auto design = model.designUniform(distanceBasedTopology(16, 2));

    // Threads 3 and 5 both land on core 5.
    auto mapping = identityMapping(16);
    mapping[3] = 5;
    sim::TraceReader reader(trace);
    try {
        auto ledger = model.buildLedger(design, reader, &mapping);
        FAIL() << "ledger build accepted a non-permutation map over "
               << ledger.numEpochs() << " epochs";
    } catch (const FatalError &error) {
        std::string what = error.what();
        EXPECT_NE(what.find("core 5 is used twice"), std::string::npos)
            << what;
    }
}

TEST(TraceStream, SecondBuildOnADrainedReaderPanics)
{
    // The build consumes the reader's cursor; building again from the
    // same reader would price an empty trace, so it must panic
    // instead -- from a file and from memory, with and without
    // epochs.
    auto epoched = epochTrace(4, 6);
    auto plain = epoched;
    plain.epochs = {};
    optics::SerpentineLayout layout(16, Meters(0.05));
    optics::DeviceParams params;
    optics::OpticalCrossbar xbar(layout, params);
    MnocPowerModel model(xbar, PowerParams{});
    auto design = model.designUniform(distanceBasedTopology(16, 2));
    std::string file = scratchPath("drained.trace");
    for (const sim::Trace *trace : {&epoched, &plain}) {
        sim::saveTrace(file, *trace);
        sim::TraceReader memory(*trace);
        sim::TraceReader saved(file);
        for (sim::TraceReader *reader : {&memory, &saved}) {
            auto first = model.buildLedger(design, *reader);
            EXPECT_GT(first.totalEnergy(), 0.0);
            EXPECT_THROW(model.buildLedger(design, *reader), PanicError);
        }
    }
}

TEST(TraceStream, TraceWriterMatchesSaveTrace)
{
    // The incremental writer streams epochs through a spool, but its
    // output is saveTrace()'s, byte for byte, for a trace with epochs
    // and for an epoch-free one; the spool is gone afterwards.
    auto epoched = epochTrace(9, 5);
    auto plain = epoched;
    plain.epochs = {};
    for (const sim::Trace *trace : {&epoched, &plain}) {
        SCOPED_TRACE(trace->epochs.empty() ? "epoch-free" : "epochs");
        std::string batch = scratchPath("writer_batch.trace");
        std::string streamed = scratchPath("writer_streamed.trace");
        sim::saveTrace(batch, *trace);
        {
            sim::TraceWriter writer(streamed, trace->workloadName,
                                    trace->networkName, 16,
                                    epoched.epochs.messagesPerEpoch);
            for (const auto &cells : trace->epochs.epochs)
                writer.appendEpoch(cells);
            writer.finish(trace->totalTicks, trace->packets,
                          trace->flits, trace->manifest);
            EXPECT_FALSE(std::filesystem::exists(streamed + ".spool"));
        }
        EXPECT_EQ(slurp(batch), slurp(streamed));
    }
}

TEST(TraceStream, UnfinishedTraceWriterRemovesItsSpool)
{
    std::string path = scratchPath("writer_abandoned.trace");
    std::filesystem::remove(path);
    {
        sim::TraceWriter writer(path, "w", "n", 16, 8);
        writer.appendEpoch({{0, 1, 2, 3}});
        EXPECT_TRUE(std::filesystem::exists(path + ".spool"));
    }
    EXPECT_FALSE(std::filesystem::exists(path + ".spool"));
    EXPECT_FALSE(std::filesystem::exists(path));
}

TEST(TraceStream, TruncatedFinalEpochNamesRecordKindAndByteOffset)
{
    // Cut the file right after the final epoch's header, on a line
    // boundary, so the parser hits end-of-file mid-epoch: the
    // diagnostic must name the file, the epoch-cell record and the
    // exact byte where the missing record would have started (the
    // new file size).
    auto trace = epochTrace(10, 6);
    std::string path = scratchPath("truncated_final.trace");
    sim::saveTrace(path, trace);
    std::string body = slurp(path);
    std::size_t last_epoch = body.rfind("\nepoch ");
    ASSERT_NE(last_epoch, std::string::npos);
    std::string kept = body.substr(0, body.find('\n', last_epoch + 1) + 1);
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out << kept;
    }

    try {
        sim::loadTrace(path); // mnoc-analyze-ok(discarded-result)
        FAIL() << "loadTrace accepted a truncated final epoch";
    } catch (const FatalError &error) {
        std::string what = error.what();
        EXPECT_NE(what.find(path), std::string::npos) << what;
        EXPECT_NE(what.find("epoch-cell record at byte " +
                            std::to_string(kept.size())),
                  std::string::npos)
            << what;
    }
}

TEST(TraceStream, ZeroEpochV3TraceKeepsItsTripletSection)
{
    // Regression: nextMessages() used to gate its triplet lookahead
    // on numEpochs > 0, silently dropping the whole triplet section
    // of a zero-epoch capture.  The fixture declares a window size
    // with no epochs, which saveTrace() never writes.
    std::string path = scratchPath("zero_epoch_v3.trace");
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out << "mnoc-trace 3\n"
            << "zero_epoch_fixture\n"
            << "mNoC\n"
            << "4 1000\n"
            << "manifest 0\n"
            << "epochs 0 64\n"
            << "0 1 3 9\n"
            << "2 3 2 4\n";
    }

    auto loaded = sim::loadTrace(path);
    EXPECT_TRUE(loaded.epochs.empty());
    EXPECT_EQ(loaded.epochs.messagesPerEpoch, 64u);
    EXPECT_EQ(loaded.packets(0, 1), 3u);
    EXPECT_EQ(loaded.flits(0, 1), 9u);
    EXPECT_EQ(loaded.packets(2, 3), 2u);
    EXPECT_EQ(loaded.flits(2, 3), 4u);

    sim::TraceReader reader(path);
    EXPECT_EQ(reader.header().numEpochs, 0u);
    std::vector<noc::EpochCell> cells;
    EXPECT_FALSE(reader.nextEpoch(cells));
    std::vector<sim::TraceMessage> batch;
    std::size_t messages = 0;
    while (reader.nextMessages(batch, 64))
        messages += batch.size();
    EXPECT_EQ(messages, 2u);
}

TEST(TraceStream, DirectoryIsNotATraceFile)
{
    // A directory -- say a sharded capture left by an older build --
    // opens as an empty stream and used to fail as a misleading
    // truncated header; it must be named as a directory.
    std::string dir = scratchPath("not_a_trace_dir");
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    try {
        sim::TraceReader reader(dir);
        FAIL() << "directory accepted as a trace";
    } catch (const FatalError &error) {
        std::string what = error.what();
        EXPECT_NE(what.find("is a directory, not a trace file: " + dir),
                  std::string::npos)
            << what;
    }
}

TEST(TraceStream, EpochSinkSeesExactlyTheSealedEpochs)
{
    constexpr int kNodes = 8;
    constexpr std::uint64_t kMsgsPerEpoch = 4;
    noc::TrafficRecorder plain(kNodes);
    noc::TrafficRecorder sunk(kNodes);
    plain.enableEpochs(kMsgsPerEpoch);
    sunk.enableEpochs(kMsgsPerEpoch);

    std::vector<std::vector<noc::EpochCell>> captured;
    sunk.setEpochSink([&](std::vector<noc::EpochCell> &&cells) {
        captured.push_back(std::move(cells));
    });

    Prng rng(17);
    for (int i = 0; i < 41; ++i) {
        noc::Packet packet;
        packet.src = static_cast<int>(rng.below(kNodes));
        packet.dst = static_cast<int>(rng.below(kNodes - 1));
        if (packet.dst >= packet.src)
            ++packet.dst;
        packet.flits = 1 + static_cast<int>(rng.below(4));
        plain.record(packet);
        sunk.record(packet);
    }

    auto accumulated = plain.takeEpochs();
    auto drained = sunk.takeEpochs();
    // The sink consumed every sealed epoch, so nothing accumulated.
    EXPECT_TRUE(drained.epochs.empty());
    EXPECT_EQ(drained.messagesPerEpoch, kMsgsPerEpoch);
    ASSERT_EQ(captured.size(), accumulated.epochs.size());
    for (std::size_t e = 0; e < captured.size(); ++e) {
        const auto &a = accumulated.epochs[e];
        const auto &b = captured[e];
        ASSERT_EQ(a.size(), b.size());
        for (std::size_t i = 0; i < a.size(); ++i) {
            EXPECT_EQ(a[i].src, b[i].src);
            EXPECT_EQ(a[i].dst, b[i].dst);
            EXPECT_EQ(a[i].packets, b[i].packets);
            EXPECT_EQ(a[i].flits, b[i].flits);
        }
    }
}

} // namespace
