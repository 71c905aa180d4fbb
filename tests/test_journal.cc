/**
 * @file
 * Tests of the epoch-anchored decision journal (common/journal.hh):
 * the binary format must round-trip, a zero-event journal must load
 * and render, loadJournal must name the record kind and byte offset
 * on truncation and corruption, an adaptive run's journal bytes must
 * repeat run over run, the 256-node phase-splice fixture must keep
 * the journal and every `mnocpt explain` render byte-identical to
 * the committed goldens (regenerate with MNOC_REGEN_GOLDEN=1, see
 * below), and the Chrome-trace overlay must profile to no spans.
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
#include "common/trace_span.hh"
#include "core/designer.hh"
#include "core/energy_ledger.hh"
#include "runtime/adaptive_controller.hh"
#include "sim/trace.hh"
#include "sim/trace_stream.hh"
#include "splice_fixture.hh"

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

using test::kFixtureNodes;
using test::SpliceFixture;
using test::spliceTrace256;

/** Run the full fixture pipeline -- static baseline, adaptive run,
 *  reconciliation -- with the journal on, and return the journal
 *  bytes (stamped with the trace's manifest, same rule as `mnocpt
 *  adapt`). */
std::string
spliceJournalBytes()
{
    SpliceFixture fx;
    auto design = fx.design();
    auto trace = spliceTrace256();
    std::string file = scratchPath("journal_splice_256.trace");
    sim::saveTrace(file, trace);

    sim::TraceReader static_reader(trace);
    auto static_ledger =
        fx.designer.model().buildLedger(design, static_reader);

    Journal::global().reset();
    Journal::global().setManifest(manifestJson(trace.manifest));

    core::EnergyLedger adaptive_ledger(
        kFixtureNodes, 2, static_ledger.numEpochs(),
        static_ledger.durationSeconds());
    sim::TraceReader reader(file);
    auto log = runtime::runAdaptiveController(
        fx.designer, design, fx.policy(), reader, nullptr,
        &adaptive_ledger);
    auto comparison = runtime::reconcileAdaptive(
        static_ledger, adaptive_ledger, log);
    EXPECT_GT(comparison.staticEnergy, 0.0);
    std::remove(file.c_str());
    return Journal::global().toBinary();
}

TEST(Journal, AdaptiveRunBytesAreRepeatable)
{
    JournalScope scope;
    std::string one = spliceJournalBytes();
    EXPECT_GT(one.size(), std::size_t(0));
    EXPECT_EQ(one, spliceJournalBytes());
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
    std::string bytes = spliceJournalBytes();
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
    EXPECT_EQ(spliceJournalBytes(), fileBytes(golden));
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

TEST(Journal, ExplainTraceOverlayProfilesToNoSpans)
{
    // The overlay's counter and instant events carry no duration, so
    // `mnocpt profile` must read the whole file and skip them all.
    std::string golden = goldenDir() + "/splice_256.mjrn";
    ASSERT_TRUE(std::filesystem::exists(golden))
        << "missing fixture " << golden;
    std::string overlay = renderExplainTrace(loadJournal(golden));
    ASSERT_NE(overlay.find("\"ph\": \"C\""), std::string::npos);
    ASSERT_NE(overlay.find("\"ph\": \"i\""), std::string::npos);
    EXPECT_TRUE(
        profileSpans(parseSpanJson(overlay, "overlay.json")).empty());
}

TEST(Journal, LoadingADirectoryNamesThePath)
{
    std::string dir = testing::TempDir();
    try {
        auto file = loadJournal(dir);
        FAIL() << "a directory loaded as a journal";
    } catch (const FatalError &error) {
        EXPECT_EQ(std::string(error.what()),
                  "fatal: not a regular file, cannot load it as a "
                  "journal: " +
                      dir);
    }
}

} // namespace
