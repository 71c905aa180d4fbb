/**
 * @file
 * Tests of trace capture, serialization, and mapping: round trips,
 * the strict parser's rejection of corrupt files, write-failure
 * detection, permutation validation, and a golden 256-node fixture
 * pinning the on-disk format (including the manifest block).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>

#include "common/log.hh"
#include "sim/trace.hh"

namespace {

using namespace mnoc;
using namespace mnoc::sim;

Trace
sampleTrace()
{
    Trace t;
    t.workloadName = "sample";
    t.networkName = "mNoC";
    t.totalTicks = 12345;
    t.packets = CountMatrix(4, 4, 0);
    t.flits = CountMatrix(4, 4, 0);
    t.packets(0, 1) = 10;
    t.flits(0, 1) = 30;
    t.packets(2, 3) = 5;
    t.flits(2, 3) = 5;
    return t;
}

/** Write @p body to a temp file named @p stem and return its path. */
std::string
writeFixture(const std::string &stem, const std::string &body)
{
    std::string path = testing::TempDir() + stem;
    std::ofstream out(path);
    out << body;
    return path;
}

/** Expect loadTrace(@p path) to fail with @p needle in the message
 *  and the 1-based @p line in the path:line prefix. */
void
expectLoadFailure(const std::string &path, int line,
                  const std::string &needle)
{
    try {
        loadTrace(path);
        FAIL() << "loadTrace accepted a corrupt file: " << needle;
    } catch (const FatalError &error) {
        std::string what = error.what();
        EXPECT_NE(what.find(path + ":" + std::to_string(line)),
                  std::string::npos)
            << what;
        EXPECT_NE(what.find(needle), std::string::npos) << what;
    }
    std::remove(path.c_str());
}

TEST(Trace, SaveLoadRoundTrip)
{
    std::string path = testing::TempDir() + "mnoc_trace_test.txt";
    Trace original = sampleTrace();
    saveTrace(path, original);
    Trace loaded = loadTrace(path);

    EXPECT_EQ(loaded.workloadName, original.workloadName);
    EXPECT_EQ(loaded.networkName, original.networkName);
    EXPECT_EQ(loaded.totalTicks, original.totalTicks);
    EXPECT_TRUE(loaded.packets == original.packets);
    EXPECT_TRUE(loaded.flits == original.flits);
    std::remove(path.c_str());
}

TEST(Trace, LoadRejectsGarbage)
{
    std::string path = testing::TempDir() + "mnoc_trace_bad.txt";
    {
        std::ofstream out(path);
        out << "not-a-trace 9\n";
    }
    EXPECT_THROW(loadTrace(path), FatalError);
    EXPECT_THROW(loadTrace("/nonexistent/path/x.txt"), FatalError);
    std::remove(path.c_str());
}

TEST(Trace, MapTracePermutesEndpoints)
{
    Trace t = sampleTrace();
    std::vector<int> map = {3, 2, 1, 0};
    Trace mapped = mapTrace(t, map);
    EXPECT_EQ(mapped.packets(3, 2), 10u);
    EXPECT_EQ(mapped.flits(3, 2), 30u);
    EXPECT_EQ(mapped.packets(1, 0), 5u);
    EXPECT_EQ(mapped.packets(0, 1), 0u);
    EXPECT_EQ(mapped.totalTicks, t.totalTicks);
    EXPECT_EQ(mapped.packets.total(), t.packets.total());
}

TEST(Trace, MapTraceIdentityIsNoop)
{
    Trace t = sampleTrace();
    Trace mapped = mapTrace(t, {0, 1, 2, 3});
    EXPECT_TRUE(mapped.packets == t.packets);
    EXPECT_TRUE(mapped.flits == t.flits);
}

TEST(Trace, MapTraceChecksSize)
{
    Trace t = sampleTrace();
    EXPECT_THROW(mapTrace(t, {0, 1}), FatalError);
    EXPECT_THROW(mapTrace(t, {0, 1, 2, 9}), FatalError);
}

TEST(Trace, MapTraceRejectsDuplicateCores)
{
    // Regression: a duplicated target used to silently merge two
    // threads' rows; it must be rejected as a non-permutation.
    Trace t = sampleTrace();
    try {
        mapTrace(t, {0, 1, 2, 2});
        FAIL() << "mapTrace accepted a non-permutation";
    } catch (const FatalError &error) {
        EXPECT_NE(std::string(error.what())
                      .find("not a permutation: core 2"),
                  std::string::npos)
            << error.what();
    }
}

TEST(Trace, ManifestRoundTripsThroughSaveLoad)
{
    Trace t = sampleTrace();
    t.manifest.seed = 99;
    t.manifest.gitSha = "cafe123";
    t.manifest.configDigest = "0123456789abcdef";
    t.manifest.env.emplace_back("MNOC_THREADS", "3");
    t.manifest.env.emplace_back("MNOC_BENCH_DIR", "out dir");

    std::string path = testing::TempDir() + "mnoc_trace_manifest.txt";
    saveTrace(path, t);
    Trace loaded = loadTrace(path);
    EXPECT_EQ(loaded.manifest.seed, 99u);
    EXPECT_EQ(loaded.manifest.gitSha, "cafe123");
    EXPECT_EQ(loaded.manifest.configDigest, "0123456789abcdef");
    EXPECT_EQ(loaded.manifest.env, t.manifest.env);

    // mapTrace must carry the provenance along.
    Trace mapped = mapTrace(loaded, {3, 2, 1, 0});
    EXPECT_EQ(mapped.manifest.seed, 99u);
    EXPECT_EQ(mapped.manifest.gitSha, "cafe123");
    std::remove(path.c_str());
}

TEST(Trace, LoadRejectsVersionsOneAndTwo)
{
    // Version 3 is the only format: the older headers are rejected at
    // byte 0, before any of their records is read.
    expectLoadFailure(
        writeFixture("mnoc_trace_v1.txt",
                     "mnoc-trace 1\nlegacy\nmNoC\n2 100\n0 1 4 8\n"),
        1, "unrecognized trace file header: mnoc-trace 1 [header "
           "record at byte 0]");
    expectLoadFailure(
        writeFixture("mnoc_trace_v2.txt",
                     "mnoc-trace 2\nw\nn\n2 10\nmanifest 0\n0 1 4 8\n"),
        1, "unrecognized trace file header: mnoc-trace 2 [header "
           "record at byte 0]");
}

TEST(Trace, LegacyManifestThreadsEntryIsSkipped)
{
    // Older builds stamped the pool size as a `threads` entry; such a
    // trace still loads, the entry skipped as an unknown key, and is
    // written back without it.
    std::string path = writeFixture(
        "mnoc_trace_threads.txt",
        "mnoc-trace 3\nw\nn\n2 10\nmanifest 2\nseed 5\nthreads 4\n"
        "epochs 0 0\n0 1 4 8\n");
    Trace t = loadTrace(path);
    EXPECT_EQ(t.manifest.seed, 5u);
    EXPECT_EQ(t.flits(0, 1), 8u);
    EXPECT_EQ(manifestJson(t.manifest).find("threads"), std::string::npos);
    saveTrace(path, t);
    std::ifstream in(path);
    std::string body((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    EXPECT_EQ(body.find("threads"), std::string::npos) << body;
    in.close();
    std::remove(path.c_str());
}

TEST(Trace, LoadRejectsTruncatedTriplet)
{
    // Regression: a short read (e.g. a truncated copy) used to parse
    // as clean EOF; it must fail and name the offending line.
    expectLoadFailure(
        writeFixture("mnoc_trace_short.txt",
                     "mnoc-trace 3\nw\nn\n2 10\nmanifest 0\n"
                     "epochs 0 0\n0 1 4 8\n1 0 2\n"),
        8, "malformed trace triplet");
}

TEST(Trace, LoadRejectsNonNumericTriplet)
{
    expectLoadFailure(
        writeFixture("mnoc_trace_alpha.txt",
                     "mnoc-trace 3\nw\nn\n2 10\nmanifest 0\n"
                     "epochs 0 0\n0 one 4 8\n"),
        7, "malformed trace triplet");
}

TEST(Trace, LoadRejectsTrailingGarbageOnTriplet)
{
    expectLoadFailure(
        writeFixture("mnoc_trace_extra.txt",
                     "mnoc-trace 3\nw\nn\n2 10\nmanifest 0\n"
                     "epochs 0 0\n0 1 4 8 junk\n"),
        7, "trailing garbage");
}

TEST(Trace, LoadRejectsOutOfRangeEndpoint)
{
    expectLoadFailure(
        writeFixture("mnoc_trace_range.txt",
                     "mnoc-trace 3\nw\nn\n2 10\nmanifest 0\n"
                     "epochs 0 0\n0 5 4 8\n"),
        7, "out of range");
}

TEST(Trace, LoadRejectsTruncatedManifest)
{
    expectLoadFailure(
        writeFixture("mnoc_trace_mtrunc.txt",
                     "mnoc-trace 3\nw\nn\n2 10\nmanifest 3\n"
                     "seed 1\n"),
        7, "truncated manifest");
}

TEST(Trace, LoadRejectsMalformedManifestSeed)
{
    // The manifest seed entry is a whole-token parse: a prefix number
    // followed by garbage, or an overflow, is a diagnostic naming the
    // entry's byte offset, not a silently truncated value.
    std::string head = "mnoc-trace 3\nw\nn\n2 10\nmanifest 1\n";
    for (const char *entry :
         {"seed 1x\n", "seed 18446744073709551616\n"}) {
        std::string path = writeFixture(
            "mnoc_trace_mbad.txt", head + entry + "epochs 0 0\n0 1 4 8\n");
        try {
            loadTrace(path);
            FAIL() << "loadTrace accepted '" << entry << "'";
        } catch (const FatalError &error) {
            std::string what = error.what();
            EXPECT_NE(what.find("manifest-entry record at byte " +
                                std::to_string(head.size())),
                      std::string::npos)
                << what;
        }
        std::remove(path.c_str());
    }
}

Trace
sampleTraceWithEpochs()
{
    Trace t = sampleTrace();
    t.epochs.messagesPerEpoch = 8;
    t.epochs.epochs.push_back(
        {{0, 1, 6, 18}, {2, 3, 2, 2}});
    t.epochs.epochs.push_back(
        {{0, 1, 4, 12}, {2, 3, 3, 3}});
    return t;
}

TEST(Trace, EpochsRoundTripThroughVersionThree)
{
    std::string path = testing::TempDir() + "mnoc_trace_v3.txt";
    Trace original = sampleTraceWithEpochs();
    saveTrace(path, original);

    // Epoch-carrying traces are written as version 3.
    {
        std::ifstream in(path);
        std::string header;
        std::getline(in, header);
        EXPECT_EQ(header, "mnoc-trace 3");
    }

    Trace loaded = loadTrace(path);
    EXPECT_TRUE(loaded.packets == original.packets);
    EXPECT_TRUE(loaded.flits == original.flits);
    EXPECT_EQ(loaded.epochs.messagesPerEpoch, 8u);
    ASSERT_EQ(loaded.epochs.epochs.size(), 2u);
    ASSERT_EQ(loaded.epochs.epochs[0].size(), 2u);
    EXPECT_EQ(loaded.epochs.epochs[0][0].src, 0);
    EXPECT_EQ(loaded.epochs.epochs[0][0].dst, 1);
    EXPECT_EQ(loaded.epochs.epochs[0][0].packets, 6u);
    EXPECT_EQ(loaded.epochs.epochs[0][0].flits, 18u);
    EXPECT_EQ(loaded.epochs.epochs[1][1].src, 2);
    EXPECT_EQ(loaded.epochs.epochs[1][1].flits, 3u);
    std::remove(path.c_str());
}

TEST(Trace, EpochFreeTraceWritesAnEmptyEpochsBlock)
{
    // A trace captured without MNOC_LEDGER -- or whose epochs all
    // streamed elsewhere, leaving only the window size behind -- is
    // still version 3, with the block declared empty: "epochs 0 0".
    std::string path = testing::TempDir() + "mnoc_trace_noepochs.txt";
    Trace t = sampleTrace();
    t.epochs.messagesPerEpoch = 64;
    saveTrace(path, t);
    std::ifstream in(path);
    std::string body((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    in.close();
    EXPECT_EQ(body.rfind("mnoc-trace 3\n", 0), 0u) << body;
    EXPECT_NE(body.find("\nepochs 0 0\n0 1 10 30\n"), std::string::npos)
        << body;
    Trace loaded = loadTrace(path);
    EXPECT_TRUE(loaded.epochs.empty());
    EXPECT_EQ(loaded.epochs.messagesPerEpoch, 0u);
    EXPECT_TRUE(loaded.flits == t.flits);
    std::remove(path.c_str());
}

TEST(Trace, LoadRejectsMissingEpochsBlock)
{
    expectLoadFailure(
        writeFixture("mnoc_trace_noep.txt",
                     "mnoc-trace 3\nw\nn\n2 10\nmanifest 0\n"
                     "0 1 4 8\n"),
        6, "expected 'epochs <n> <msgs>'");
}

TEST(Trace, LoadRejectsMalformedEpochCell)
{
    expectLoadFailure(
        writeFixture("mnoc_trace_badcell.txt",
                     "mnoc-trace 3\nw\nn\n2 10\nmanifest 0\n"
                     "epochs 1 8\nepoch 1\n0 one 4 8\n"),
        8, "malformed epoch cell");
}

TEST(Trace, LoadRejectsEpochEndpointOutOfRange)
{
    expectLoadFailure(
        writeFixture("mnoc_trace_eprange.txt",
                     "mnoc-trace 3\nw\nn\n2 10\nmanifest 0\n"
                     "epochs 1 8\nepoch 1\n0 5 4 8\n"),
        8, "epoch cell endpoint out of range");
}

TEST(Trace, LoadRejectsTruncatedEpochBlock)
{
    expectLoadFailure(
        writeFixture("mnoc_trace_eptrunc.txt",
                     "mnoc-trace 3\nw\nn\n2 10\nmanifest 0\n"
                     "epochs 2 8\nepoch 1\n0 1 4 8\n"),
        9, "truncated epochs block");
}

TEST(Trace, TruncatedEpochRecordNamesByteOffsetAndKind)
{
    // Regression: a v3 trace cut mid-epoch-record must fail naming
    // the record kind and the byte offset of the damage -- never
    // return a partial trace.  This fixture declares 2 cells but
    // ends after the first, so the file's EOF is the damage point.
    std::string body = "mnoc-trace 3\nw\nn\n2 10\nmanifest 0\n"
                       "epochs 1 8\nepoch 2\n0 1 4 8\n";
    std::string path = writeFixture("mnoc_trace_cut.txt", body);
    try {
        loadTrace(path);
        FAIL() << "loadTrace returned a partial trace";
    } catch (const FatalError &error) {
        std::string what = error.what();
        EXPECT_NE(what.find("truncated epoch cell list"),
                  std::string::npos)
            << what;
        EXPECT_NE(what.find("epoch-cell record at byte " +
                            std::to_string(body.size())),
                  std::string::npos)
            << what;
    }
    std::remove(path.c_str());

    // Cut mid-line instead: the partial record itself is named, at
    // the offset where it starts.
    path = writeFixture("mnoc_trace_cut2.txt", body + "1 0");
    try {
        loadTrace(path);
        FAIL() << "loadTrace returned a partial trace";
    } catch (const FatalError &error) {
        std::string what = error.what();
        EXPECT_NE(what.find("malformed epoch cell"),
                  std::string::npos)
            << what;
        EXPECT_NE(what.find("epoch-cell record at byte " +
                            std::to_string(body.size())),
                  std::string::npos)
            << what;
    }
    std::remove(path.c_str());
}

TEST(Trace, MapTracePermutesAndResortsEpochCells)
{
    Trace t = sampleTraceWithEpochs();
    Trace mapped = mapTrace(t, {3, 2, 1, 0});
    EXPECT_EQ(mapped.epochs.messagesPerEpoch, 8u);
    ASSERT_EQ(mapped.epochs.epochs.size(), 2u);
    // (0,1)->(3,2) and (2,3)->(1,0); cells come back sorted by
    // (src, dst), so the permuted (2,3) cell now leads.
    const auto &cells = mapped.epochs.epochs[0];
    ASSERT_EQ(cells.size(), 2u);
    EXPECT_EQ(cells[0].src, 1);
    EXPECT_EQ(cells[0].dst, 0);
    EXPECT_EQ(cells[0].flits, 2u);
    EXPECT_EQ(cells[1].src, 3);
    EXPECT_EQ(cells[1].dst, 2);
    EXPECT_EQ(cells[1].flits, 18u);
}

TEST(Trace, SaveTraceDetectsFullDisk)
{
    // Regression: saveTrace used to return successfully after writing
    // to a full device, leaving a truncated artifact behind.
    if (!std::filesystem::exists("/dev/full"))
        GTEST_SKIP() << "/dev/full not available";
    try {
        saveTrace("/dev/full", sampleTrace());
        FAIL() << "saveTrace missed the write failure";
    } catch (const FatalError &error) {
        EXPECT_NE(std::string(error.what()).find("disk full"),
                  std::string::npos)
            << error.what();
    }
}

/** Deterministic 256-node trace with a pinned manifest: the fixture
 *  behind the golden-file test (regenerate by saving this trace). */
Trace
golden256Trace()
{
    constexpr int kNodes = 256;
    Trace t;
    t.workloadName = "golden_all_to_some";
    t.networkName = "mNoC";
    t.totalTicks = 987654;
    t.packets = CountMatrix(kNodes, kNodes, 0);
    t.flits = CountMatrix(kNodes, kNodes, 0);
    for (int s = 0; s < kNodes; ++s) {
        for (int d = 0; d < kNodes; ++d) {
            if (s == d || (s * 7 + d * 13) % 11 != 0)
                continue;
            auto packets = static_cast<std::uint64_t>(
                1 + (s * 31 + d) % 17);
            t.packets(s, d) = packets;
            t.flits(s, d) = packets * 4;
        }
    }
    t.manifest.seed = 42;
    t.manifest.gitSha = "0000000";
    t.manifest.configDigest = "feedfacefeedface";
    t.manifest.env.emplace_back("MNOC_THREADS", "4");
    return t;
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

TEST(Trace, GoldenFileStaysByteIdentical)
{
    // The golden fixture pins the on-disk format, manifest block
    // included: any serialization change must be deliberate and come
    // with a regenerated fixture.
    std::string golden =
        std::string(MNOC_TEST_DATA_DIR) + "/golden_trace_256.trace";
    ASSERT_TRUE(std::filesystem::exists(golden))
        << "missing fixture " << golden;
    std::string path = testing::TempDir() + "mnoc_trace_golden.trace";
    saveTrace(path, golden256Trace());
    EXPECT_EQ(fileBytes(path), fileBytes(golden));
    std::remove(path.c_str());
}

TEST(Trace, GoldenFileRoundTripsAndMaps)
{
    std::string golden =
        std::string(MNOC_TEST_DATA_DIR) + "/golden_trace_256.trace";
    ASSERT_TRUE(std::filesystem::exists(golden))
        << "missing fixture " << golden;
    Trace expected = golden256Trace();
    Trace loaded = loadTrace(golden);
    EXPECT_EQ(loaded.workloadName, expected.workloadName);
    EXPECT_EQ(loaded.totalTicks, expected.totalTicks);
    EXPECT_TRUE(loaded.packets == expected.packets);
    EXPECT_TRUE(loaded.flits == expected.flits);
    EXPECT_EQ(loaded.manifest.seed, 42u);
    EXPECT_EQ(loaded.manifest.gitSha, "0000000");
    EXPECT_EQ(loaded.manifest.configDigest, "feedfacefeedface");
    ASSERT_EQ(loaded.manifest.env.size(), 1u);
    EXPECT_EQ(loaded.manifest.env[0].first, "MNOC_THREADS");

    // Reversal is an involution: mapping twice restores the trace.
    int n = static_cast<int>(loaded.packets.rows());
    std::vector<int> reverse(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i)
        reverse[static_cast<std::size_t>(i)] = n - 1 - i;
    Trace mapped = mapTrace(loaded, reverse);
    EXPECT_EQ(mapped.packets.total(), loaded.packets.total());
    EXPECT_FALSE(mapped.packets == loaded.packets);
    Trace restored = mapTrace(mapped, reverse);
    EXPECT_TRUE(restored.packets == loaded.packets);
    EXPECT_TRUE(restored.flits == loaded.flits);
    EXPECT_EQ(restored.manifest.seed, 42u);
}

/** Replace 1-based line @p line of @p body with @p text; returns
 *  the damaged body and stores the line's byte offset. */
std::string
replaceLine(const std::string &body, int line, const std::string &text,
            std::size_t &offset)
{
    offset = 0;
    for (int l = 1; l < line; ++l)
        offset = body.find('\n', offset) + 1;
    std::size_t end = body.find('\n', offset);
    return body.substr(0, offset) + text + body.substr(end);
}

TEST(Trace, LoadRejectsEveryLexicalViolation)
{
    // Regression: the stream-extraction parser accepted signs,
    // fractions, trailing tokens, tabs and doubled spaces (a "-1"
    // packet count wrapped to 2^64 - 1).  Every number is unsigned
    // decimal, fields are one space apart and nothing follows the
    // last field, on every record kind.  Each case damages one line
    // of the 16-node fixture and expects a diagnostic naming that
    // line, its record kind and its byte offset.
    std::string golden = fileBytes(std::string(MNOC_TEST_DATA_DIR) +
                                   "/golden_epoch_16.trace");
    ASSERT_FALSE(golden.empty());
    auto expectRejected = [&](int line, const std::string &kind,
                              const std::string &text) {
        SCOPED_TRACE(text);
        std::size_t offset = 0;
        std::string body = replaceLine(golden, line, text, offset);
        std::string path = writeFixture("mnoc_trace_lexical.txt", body);
        std::string needle = kind + " record at byte " +
                             std::to_string(offset) + "]";
        expectLoadFailure(path, line, needle);
        return offset;
    };
    expectRejected(1, "header", "mnoc-trace 3 x");
    expectRejected(1, "header", "mnoc-trace  3");
    expectRejected(4, "dimensions", "2 10 junk");
    expectRejected(4, "dimensions", "16\t14564");
    expectRejected(4, "dimensions", "-16 14564");
    expectRejected(5, "manifest-header", "manifest 5 x");
    expectRejected(11, "epochs-header", "epochs 1 8 x");
    expectRejected(11, "epochs-header", "epochs 12 200\r");
    expectRejected(12, "epoch-header", "epoch 1 y");
    expectRejected(12, "epoch-header", "epoch  84");
    // The fixture's first epoch cell starts at byte 141, the offset
    // tests/cli_smoke.sh expects `mnocpt report` to name.
    EXPECT_EQ(expectRejected(13, "epoch-cell", "0 1 -1 5"), 141u);
    expectRejected(13, "epoch-cell", "0 1 3 5 junk");
    expectRejected(13, "epoch-cell", "0 1 3 5.9");
    expectRejected(13, "epoch-cell", "+0 1 3 5");
    expectRejected(13, "epoch-cell", "0  1 3 5");
    expectRejected(13, "epoch-cell", "0\t1 3 5");
    expectRejected(13, "epoch-cell", "0 1 3 5 ");
    expectRejected(13, "epoch-cell", "0 1 3 5\r");
    expectRejected(13, "epoch-cell", "0 1 3 18446744073709551616");
    expectRejected(13, "epoch-cell", "0 4294967297 3 5");
    // The last line is a triplet.
    int last =
        static_cast<int>(std::count(golden.begin(), golden.end(), '\n'));
    expectRejected(last, "triplet", "15 14 -2 3");
    expectRejected(last, "triplet", "15 14 29 45 junk");
    expectRejected(last, "triplet", "15  14 29 45");
    expectRejected(last, "triplet", "15\t14 29 45");
    expectRejected(last, "triplet", "+15 14 29 45");
    expectRejected(last, "triplet", "15 14 29 45\r");
}

} // namespace
