/**
 * @file
 * Tests of the epoch-anchored decision journal (common/journal.hh):
 * the binary format must round-trip (streaming writer included), a
 * zero-event journal must load and render, loadJournal must name the
 * record kind and byte offset on truncation and corruption, the
 * journal bytes of an adaptive run must be bit-identical at any pool
 * size, and the 256-node phase-splice fixture must keep the journal
 * and every `mnocpt explain` render byte-identical to the committed
 * goldens (regenerate with MNOC_REGEN_GOLDEN=1, see below).
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/journal.hh"
#include "common/log.hh"
#include "common/manifest.hh"
#include "common/thread_pool.hh"
#include "core/designer.hh"
#include "core/energy_ledger.hh"
#include "runtime/adaptive_controller.hh"
#include "sim/trace.hh"
#include "sim/trace_stream.hh"

namespace {

using namespace mnoc;

/** Scoped journal enablement: saves the knob, wipes the global
 *  journal, and restores both on exit so tests cannot leak records
 *  into one another. */
struct JournalScope
{
    bool prev;

    JournalScope() : prev(journalEnabled())
    {
        Journal::setEnabled(true);
        Journal::global().reset();
    }

    ~JournalScope()
    {
        Journal::setEnabled(prev);
        Journal::global().reset();
    }
};

std::string
scratchPath(const std::string &stem)
{
    return testing::TempDir() + stem;
}

std::string
fileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.is_open()) << path;
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

void
writeBytes(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out.is_open()) << path;
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size()));
}

void
expectFatalContains(const std::string &path,
                    const std::string &needle)
{
    try {
        auto file = loadJournal(path);
        FAIL() << "loadJournal accepted a malformed journal ("
               << needle << "); " << file.records.size()
               << " records";
    } catch (const FatalError &error) {
        EXPECT_NE(std::string(error.what()).find(needle),
                  std::string::npos)
            << "missing \"" << needle << "\" in: " << error.what();
    }
}

/** A small journal covering every record kind once. */
std::vector<JournalRecord>
sampleRecords()
{
    std::vector<JournalRecord> records;
    for (std::uint32_t k = 1; k <= kJournalKindCount; ++k) {
        JournalRecord rec(static_cast<JournalKind>(k), 10 + k);
        rec.addInt(static_cast<std::int64_t>(k))
            .addInt(-3)
            .addReal(0.5 * k)
            .addReal(-1.25e-9);
        records.push_back(rec);
    }
    return records;
}

TEST(Journal, KindNamesAreStable)
{
    EXPECT_STREQ(journalKindName(JournalKind::PhaseSignature),
                 "phase_signature");
    EXPECT_STREQ(journalKindName(JournalKind::Price), "price");
    EXPECT_STREQ(journalKindName(JournalKind::Reconcile),
                 "reconcile");
    EXPECT_STREQ(journalKindName(JournalKind::Margin), "margin");
}

TEST(Journal, RecordRejectsFieldOverflow)
{
    JournalRecord rec(JournalKind::Price, 1);
    for (std::size_t i = 0; i < JournalRecord::kMaxInts; ++i)
        rec.addInt(static_cast<std::int64_t>(i));
    EXPECT_THROW(rec.addInt(99), PanicError);
    for (std::size_t i = 0; i < JournalRecord::kMaxReals; ++i)
        rec.addReal(static_cast<double>(i));
    EXPECT_THROW(rec.addReal(9.9), PanicError);
}

TEST(Journal, BinaryRoundTripsEveryKind)
{
    JournalScope scope;
    auto &journal = Journal::global();
    journal.setManifest("{\"seed\": 7}");
    for (const JournalRecord &rec : sampleRecords())
        journal.record(rec);

    std::string path = scratchPath("journal_roundtrip.mjrn");
    journal.writeFile(path);
    auto loaded = loadJournal(path);
    EXPECT_EQ(loaded.manifestJson, "{\"seed\": 7}");
    auto expected = sampleRecords();
    ASSERT_EQ(loaded.records.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
        const auto &a = expected[i];
        const auto &b = loaded.records[i];
        EXPECT_EQ(a.kind, b.kind);
        EXPECT_EQ(a.epoch, b.epoch);
        EXPECT_EQ(a.numInts, b.numInts);
        EXPECT_EQ(a.numReals, b.numReals);
        EXPECT_EQ(a.ints, b.ints);
        EXPECT_EQ(a.reals, b.reals);
    }
    std::remove(path.c_str());
}

TEST(Journal, StreamingWriterMatchesStagedJournal)
{
    JournalScope scope;
    auto &journal = Journal::global();
    journal.setManifest("{\"seed\": 11}");
    for (const JournalRecord &rec : sampleRecords())
        journal.record(rec);

    std::string staged = scratchPath("journal_staged.mjrn");
    journal.writeFile(staged);

    std::string streamed = scratchPath("journal_streamed.mjrn");
    JournalWriter writer(streamed, "{\"seed\": 11}");
    for (const JournalRecord &rec : sampleRecords())
        writer.append(rec);
    writer.close();

    EXPECT_EQ(fileBytes(staged), fileBytes(streamed));
    std::remove(staged.c_str());
    std::remove(streamed.c_str());
}

TEST(Journal, ZeroEventJournalLoadsAndRenders)
{
    JournalScope scope;
    Journal::global().setManifest("{\"seed\": 3}");
    std::string path = scratchPath("journal_empty.mjrn");
    Journal::global().writeFile(path);

    auto file = loadJournal(path);
    EXPECT_TRUE(file.records.empty());
    EXPECT_EQ(file.manifestJson, "{\"seed\": 3}");

    auto markdown = renderExplainMarkdown(file);
    EXPECT_NE(markdown.find("records: 0"), std::string::npos)
        << markdown;
    auto csv = renderExplainTimelineCsv(file);
    EXPECT_NE(csv.find("epoch,kind,detail"), std::string::npos);
    auto trace = renderExplainTrace(file);
    EXPECT_NE(trace.find("traceEvents"), std::string::npos);
    auto jsonl = journalToJsonl(file);
    EXPECT_NE(jsonl.find("\"records\": 0"), std::string::npos);
    std::remove(path.c_str());
}

TEST(Journal, LoadNamesTruncationPointAndKind)
{
    JournalScope scope;
    // Empty manifest keeps the header at a known 16 bytes, so the
    // first record starts at byte 16.
    for (const JournalRecord &rec : sampleRecords())
        Journal::global().record(rec);
    std::string full = Journal::global().toBinary();
    std::string path = scratchPath("journal_truncated.mjrn");

    // Mid-magic.
    writeBytes(path, full.substr(0, 5));
    expectFatalContains(path,
                        "truncated journal: missing header magic");
    // Mid-version.
    writeBytes(path, full.substr(0, 10));
    expectFatalContains(path, "missing header version at byte 8");
    // Mid-record: enough survives to name the kind
    // (phase_signature is record 0 in sampleRecords()).
    writeBytes(path, full.substr(0, 16 + 40));
    expectFatalContains(path, "record 0 (phase_signature)");
    writeBytes(path, full.substr(0, 16 + 40));
    expectFatalContains(path, "at byte 16");
    // End marker cut off after the records.
    writeBytes(path,
               full.substr(0, full.size() - 12));
    expectFatalContains(path, "or end marker");
    std::remove(path.c_str());
}

TEST(Journal, LoadNamesCorruptionKindAndOffset)
{
    JournalScope scope;
    for (const JournalRecord &rec : sampleRecords())
        Journal::global().record(rec);
    std::string full = Journal::global().toBinary();
    std::string path = scratchPath("journal_corrupt.mjrn");

    // Bad magic.
    std::string bytes = full;
    bytes[0] = 'X';
    writeBytes(path, bytes);
    expectFatalContains(path, "not a journal file (bad magic");

    // Unsupported version.
    bytes = full;
    bytes[8] = 99;
    writeBytes(path, bytes);
    expectFatalContains(path,
                        "unsupported journal version 99 at byte 8");

    // Unknown record kind at the first record (byte 16).
    bytes = full;
    bytes[16] = 99;
    writeBytes(path, bytes);
    expectFatalContains(path,
                        "unknown journal record kind 99 at byte 16");

    // Field counts out of range: patch record 0's numInts (byte 28).
    bytes = full;
    bytes[16 + 12] = 77;
    writeBytes(path, bytes);
    expectFatalContains(
        path,
        "corrupt phase_signature record: field counts out of range "
        "at byte 16");

    // End marker count mismatch: zero the trailing count.
    bytes = full;
    for (std::size_t i = bytes.size() - 8; i < bytes.size(); ++i)
        bytes[i] = 0;
    writeBytes(path, bytes);
    expectFatalContains(path, "declares 0 records but file holds");

    // Trailing garbage after the end marker.
    bytes = full + "junk";
    writeBytes(path, bytes);
    expectFatalContains(path,
                        "trailing bytes after journal end marker");
    std::remove(path.c_str());
}

// ---------------------------------------------------------------
// Adaptive-run journals: determinism and the golden fixture.
// ---------------------------------------------------------------

constexpr int kFixtureNodes = 256;

/**
 * Deterministic 256-node phase-splice trace with a pinned manifest:
 * a nearest-neighbor phase spliced onto a diameter-haul phase at
 * epoch 24, constant within each phase, so the adaptive controller's
 * decision sequence -- and therefore the journal -- is exactly
 * reproducible (the fixture behind the golden explain renders).
 */
sim::Trace
spliceTrace256()
{
    constexpr std::size_t kNeighborEpochs = 24;
    constexpr std::size_t kLongHaulEpochs = 24;
    sim::Trace t;
    t.workloadName = "splice_fixture_256";
    t.networkName = "mNoC";
    t.totalTicks = 480000;
    t.packets = CountMatrix(kFixtureNodes, kFixtureNodes, 0);
    t.flits = CountMatrix(kFixtureNodes, kFixtureNodes, 0);
    t.manifest.seed = 9;
    t.manifest.gitSha = "0000000";
    t.manifest.configDigest = "feedfacefeedface";
    t.manifest.env.emplace_back("MNOC_THREADS", "4");
    t.epochs.messagesPerEpoch = 2 * kFixtureNodes;
    for (std::size_t e = 0; e < kNeighborEpochs + kLongHaulEpochs;
         ++e) {
        std::vector<noc::EpochCell> cells;
        for (int s = 0; s < kFixtureNodes; ++s) {
            int dst = e < kNeighborEpochs
                          ? (s + 1) % kFixtureNodes
                          : (s + kFixtureNodes / 2) % kFixtureNodes;
            auto flits = static_cast<std::uint64_t>(
                4 + (static_cast<std::size_t>(s) * 7 + e) % 5);
            cells.push_back({s, dst, 2, flits});
            t.packets(s, dst) += 2;
            t.flits(s, dst) += flits;
        }
        t.epochs.epochs.push_back(std::move(cells));
    }
    return t;
}

/** The fixture design/policy pair: a distance-based two-mode design
 *  solved for the neighbor phase, with comm-aware challengers. */
struct SpliceFixture
{
    optics::SerpentineLayout layout{kFixtureNodes, Meters(0.08)};
    optics::DeviceParams params;
    optics::OpticalCrossbar xbar{layout, params};
    core::Designer designer{xbar};

    core::MnocDesign
    design() const
    {
        core::DesignSpec spec;
        spec.numModes = 2;
        spec.assignment = core::Assignment::DistanceBased;
        spec.weights = core::WeightSource::DesignFlow;
        FlowMatrix flow(kFixtureNodes, kFixtureNodes, 0.1);
        for (int i = 0; i < kFixtureNodes; ++i) {
            flow(i, i) = 0.0;
            flow(i, (i + 1) % kFixtureNodes) = 50.0;
        }
        auto topology = designer.buildTopology(spec, flow);
        return designer.buildDesign(spec, topology, flow,
                                    DecibelLoss(2.0));
    }

    runtime::AdaptivePolicy
    policy() const
    {
        runtime::AdaptivePolicy out;
        out.trafficWindow = 8;
        out.phaseChangeThreshold = 0.5;
        out.epochsToSwitch = 2;
        out.maxCandidates = 4;
        out.candidateSpec.numModes = 2;
        out.candidateSpec.assignment = core::Assignment::CommAware;
        out.candidateSpec.weights = core::WeightSource::DesignFlow;
        out.candidateMargin = DecibelLoss(2.0);
        return out;
    }
};

/** Run the full fixture pipeline -- static baseline, adaptive run,
 *  reconciliation -- with the journal on, and return the journal
 *  bytes (stamped with the trace's manifest, same rule as `mnocpt
 *  adapt`). */
std::string
spliceJournalBytes(int threads)
{
    SpliceFixture fx;
    auto design = fx.design();
    auto trace = spliceTrace256();
    std::string file = scratchPath("journal_splice_256.trace");
    sim::saveTrace(file, trace);

    ThreadPool pool(threads);
    sim::TraceReader static_reader(trace);
    auto static_ledger = fx.designer.model().buildLedger(
        design, static_reader, nullptr, &pool);

    Journal::global().reset();
    Journal::global().setManifest(manifestJson(trace.manifest));

    core::EnergyLedger adaptive_ledger(
        kFixtureNodes, 2, static_ledger.numEpochs(),
        static_ledger.durationSeconds());
    sim::TraceReader reader(file);
    auto log = runtime::runAdaptiveController(
        fx.designer, design, fx.policy(), reader, nullptr,
        &adaptive_ledger, &pool);
    auto comparison = runtime::reconcileAdaptive(
        static_ledger, adaptive_ledger, log);
    EXPECT_GT(comparison.staticEnergy, 0.0);
    std::remove(file.c_str());
    return Journal::global().toBinary();
}

TEST(Journal, AdaptiveRunBytesAreBitIdenticalAcrossPoolSizes)
{
    JournalScope scope;
    std::string one = spliceJournalBytes(1);
    EXPECT_GT(one.size(), std::size_t(0));
    EXPECT_EQ(one, spliceJournalBytes(2));
    EXPECT_EQ(one, spliceJournalBytes(8));
}

std::string
goldenDir()
{
    return std::string(MNOC_TEST_DATA_DIR) + "/golden_explain";
}

/** Regenerate the golden fixtures (committed under
 *  tests/data/golden_explain/) by running this binary with
 *  MNOC_REGEN_GOLDEN=1; any diff against the previous goldens is a
 *  deliberate format change. */
TEST(Journal, RegenerateGoldenFixtures)
{
    const char *regen = std::getenv("MNOC_REGEN_GOLDEN");
    if (regen == nullptr || std::string(regen) != "1")
        GTEST_SKIP() << "set MNOC_REGEN_GOLDEN=1 to regenerate";
    JournalScope scope;
    std::filesystem::create_directories(goldenDir());
    std::string bytes = spliceJournalBytes(2);
    writeBytes(goldenDir() + "/splice_256.mjrn", bytes);
    std::string path = goldenDir() + "/splice_256.mjrn";
    auto file = loadJournal(path);
    writeBytes(goldenDir() + "/explain.md",
               renderExplainMarkdown(file));
    writeBytes(goldenDir() + "/timeline.csv",
               renderExplainTimelineCsv(file));
    writeBytes(goldenDir() + "/explain_trace.json",
               renderExplainTrace(file));
    writeBytes(goldenDir() + "/journal.jsonl",
               journalToJsonl(file));
}

TEST(Journal, GoldenJournalStaysByteIdentical)
{
    std::string golden = goldenDir() + "/splice_256.mjrn";
    ASSERT_TRUE(std::filesystem::exists(golden))
        << "missing fixture " << golden;
    JournalScope scope;
    EXPECT_EQ(spliceJournalBytes(2), fileBytes(golden));
}

TEST(Journal, GoldenExplainRendersStayByteIdentical)
{
    std::string golden = goldenDir() + "/splice_256.mjrn";
    ASSERT_TRUE(std::filesystem::exists(golden))
        << "missing fixture " << golden;
    auto file = loadJournal(golden);
    EXPECT_FALSE(file.records.empty());
    EXPECT_EQ(renderExplainMarkdown(file),
              fileBytes(goldenDir() + "/explain.md"));
    EXPECT_EQ(renderExplainTimelineCsv(file),
              fileBytes(goldenDir() + "/timeline.csv"));
    EXPECT_EQ(renderExplainTrace(file),
              fileBytes(goldenDir() + "/explain_trace.json"));
    EXPECT_EQ(journalToJsonl(file),
              fileBytes(goldenDir() + "/journal.jsonl"));
}

} // namespace
