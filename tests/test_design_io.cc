/**
 * @file
 * Tests of design serialization, drive tables, and thread-to-core
 * mapping files.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common/log.hh"
#include "common/manifest.hh"
#include "core/builders.hh"
#include "core/design_io.hh"

namespace {

using namespace mnoc;
using namespace mnoc::core;

struct IoFixture
{
    optics::SerpentineLayout layout{12, Meters(0.04)};
    optics::DeviceParams params;
    optics::OpticalCrossbar xbar{layout, params};
    MnocPowerModel model{xbar};

    MnocDesign
    sample() const
    {
        return model.designUniform(distanceBasedTopology(12, 3));
    }

    sim::Trace
    sampleTrace() const
    {
        sim::Trace t;
        t.totalTicks = 5000;
        t.packets = CountMatrix(12, 12, 0);
        t.flits = CountMatrix(12, 12, 0);
        for (int s = 0; s < 12; ++s)
            for (int d = 0; d < 12; ++d)
                if (s != d)
                    t.flits(s, d) = 10 + s + d;
        return t;
    }
};

TEST(DesignIo, RoundTripPreservesEvaluation)
{
    IoFixture f;
    std::string path = testing::TempDir() + "mnoc_design_test.txt";
    MnocDesign original = f.sample();
    saveDesign(path, original);
    MnocDesign loaded = loadDesign(path);

    EXPECT_EQ(loaded.topology.numNodes, 12);
    EXPECT_EQ(loaded.topology.numModes, 3);
    auto trace = f.sampleTrace();
    auto a = f.model.evaluate(original, trace);
    auto b = f.model.evaluate(loaded, trace);
    EXPECT_DOUBLE_EQ(a.total(), b.total());
    EXPECT_DOUBLE_EQ(a.source, b.source);
    std::remove(path.c_str());
}

TEST(DesignIo, RoundTripPreservesSplitters)
{
    IoFixture f;
    std::string path = testing::TempDir() + "mnoc_design_split.txt";
    MnocDesign original = f.sample();
    saveDesign(path, original);
    MnocDesign loaded = loadDesign(path);
    for (int s = 0; s < 12; ++s) {
        for (int d = 0; d < 12; ++d)
            EXPECT_DOUBLE_EQ(
                loaded.sources[s].chain.splitterFraction[d],
                original.sources[s].chain.splitterFraction[d]);
        // Loaded designs evaluate correctly through the chain model.
        auto received = f.xbar.chain(s).evaluate(
            loaded.sources[s].chain, loaded.sources[s].modePower[2]);
        for (int d = 0; d < 12; ++d) {
            if (d == s)
                continue;
            EXPECT_GE(received[d],
                      f.params.pminAtTap().watts() * (1.0 - 1e-9));
        }
    }
    std::remove(path.c_str());
}

TEST(DesignIo, LoadRejectsGarbage)
{
    std::string path = testing::TempDir() + "mnoc_design_bad.txt";
    {
        std::ofstream out(path);
        out << "not-a-design 1\n";
    }
    EXPECT_THROW(loadDesign(path), FatalError);
    EXPECT_THROW(loadDesign("/nonexistent/file.txt"), FatalError);
    std::remove(path.c_str());
}

TEST(DesignIo, LoadRejectsTruncation)
{
    IoFixture f;
    std::string full = testing::TempDir() + "mnoc_design_full.txt";
    saveDesign(full, f.sample());

    std::ifstream in(full);
    std::string content((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
    std::string cut = testing::TempDir() + "mnoc_design_cut.txt";
    {
        std::ofstream out(cut);
        out << content.substr(0, content.size() / 2);
    }
    EXPECT_THROW(loadDesign(cut), FatalError);
    std::remove(full.c_str());
    std::remove(cut.c_str());
}

/**
 * Save the sample design with a resilience block, replace @p from
 * with @p to on its "target 0.5 trials 50 seed 3" line, and expect
 * the load to fail naming that line as "path:line" and @p field.
 */
void
expectResilienceLineRejected(const std::string &from,
                             const std::string &to,
                             const std::string &field)
{
    IoFixture f;
    std::string path = testing::TempDir() + "mnoc_design_resil.txt";
    ResilienceSummary summary;
    summary.yieldTarget = 0.5;
    summary.trials = 50;
    summary.seed = 3;
    summary.finalNumModes = 3;
    saveDesign(path, f.sample(), &summary);
    std::ifstream in(path);
    std::string content((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
    in.close();
    std::size_t line_at = content.find("\ntarget 0.5 trials 50 seed 3\n");
    ASSERT_NE(line_at, std::string::npos);
    content.replace(content.find(from, line_at), from.size(), to);
    std::ofstream(path) << content;
    long line = 2 + std::count(content.begin(),
                               content.begin() + static_cast<long>(line_at),
                               '\n');
    std::string where = path + ":" + std::to_string(line) +
                        ": field '" + field + "'";
    try {
        loadDesignReport(path);
        ADD_FAILURE() << "loaded a resilience block with '" << to
                      << "'";
    } catch (const FatalError &error) {
        EXPECT_NE(std::string(error.what()).find(where),
                  std::string::npos)
            << error.what() << " does not name " << where;
    }
    std::remove(path.c_str());
}

TEST(DesignIo, ResilienceRejectsSignedSeed)
{
    // stoull wraps "-1" to 2^64 - 1; an unsigned field takes no sign.
    expectResilienceLineRejected("seed 3", "seed -1", "seed");
    expectResilienceLineRejected("seed 3", "seed +3", "seed");
}

TEST(DesignIo, ResilienceRejectsTrialsBeyondInt)
{
    // 2^32 + 1 narrowed to int is 1, which passed trials >= 1.
    expectResilienceLineRejected("trials 50", "trials 4294967297",
                                 "trials");
}

TEST(DesignIo, ResilienceRejectsNonFiniteTarget)
{
    // Designer enforces a yield target in [0, 1]; so does the loader.
    expectResilienceLineRejected("target 0.5", "target nan", "target");
    expectResilienceLineRejected("target 0.5", "target 1.5", "target");
}

TEST(DesignIo, ManifestTrailerRoundTrips)
{
    IoFixture f;
    std::string path = testing::TempDir() + "mnoc_design_manifest.txt";
    RunManifest manifest;
    manifest.seed = 77;
    manifest.gitSha = "beef001";
    manifest.configDigest = "0011223344556677";
    manifest.env.emplace_back("MNOC_THREADS", "5");
    saveDesign(path, f.sample(), nullptr, &manifest);

    DesignReport report = loadDesignReport(path);
    ASSERT_TRUE(report.manifest.has_value());
    EXPECT_EQ(report.manifest->seed, 77u);
    EXPECT_EQ(report.manifest->gitSha, "beef001");
    EXPECT_EQ(report.manifest->configDigest, "0011223344556677");
    EXPECT_EQ(report.manifest->env, manifest.env);
    EXPECT_FALSE(report.resilience.has_value());

    // A design without a trailer loads with no manifest.
    std::string bare = testing::TempDir() + "mnoc_design_bare.txt";
    saveDesign(bare, f.sample());
    EXPECT_FALSE(loadDesignReport(bare).manifest.has_value());
    std::remove(path.c_str());
    std::remove(bare.c_str());
}

TEST(DesignIo, ManifestTrailerRejectsMalformedSeed)
{
    // The design trailer shares the trace manifest's whole-token
    // seed parse; a bad value fails naming the field.
    IoFixture f;
    std::string path = testing::TempDir() + "mnoc_design_badman.txt";
    RunManifest manifest;
    manifest.seed = 77;
    saveDesign(path, f.sample(), nullptr, &manifest);
    std::ifstream in(path);
    std::string content((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
    in.close();

    std::string patched = content;
    std::size_t at = patched.find("\nseed 77\n");
    ASSERT_NE(at, std::string::npos);
    patched.replace(at, 9, "\nseed 1x\n");
    {
        std::ofstream out(path);
        out << patched;
    }
    try {
        loadDesignReport(path);
        FAIL() << "loaded a manifest with 'seed 1x'";
    } catch (const FatalError &error) {
        EXPECT_NE(std::string(error.what()).find("manifest seed"),
                  std::string::npos)
            << error.what();
    }
    std::remove(path.c_str());
}

TEST(DesignIo, LegacyManifestThreadsEntryStillLoads)
{
    // Older builds stamped the pool size as a `threads` entry; such
    // a design still loads, the entry skipped as an unknown key.
    IoFixture f;
    std::string path = testing::TempDir() + "mnoc_design_legacy.txt";
    RunManifest manifest;
    manifest.seed = 77;
    saveDesign(path, f.sample(), nullptr, &manifest);
    std::ifstream in(path);
    std::string content((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
    in.close();

    std::size_t count = manifestLines(manifest).size();
    std::string header = "manifest " + std::to_string(count) + "\n";
    std::size_t at = content.find(header);
    ASSERT_NE(at, std::string::npos);
    content.replace(at, header.size(),
                    "manifest " + std::to_string(count + 1) +
                        "\nthreads 4\n");
    {
        std::ofstream out(path);
        out << content;
    }
    DesignReport report = loadDesignReport(path);
    ASSERT_TRUE(report.manifest.has_value());
    EXPECT_EQ(manifestJson(*report.manifest), manifestJson(manifest));
    std::remove(path.c_str());
}

TEST(DesignIo, DriveTableMatchesDesign)
{
    IoFixture f;
    MnocDesign design = f.sample();
    auto table = driveTable(design, 4);
    EXPECT_EQ(table.size(), 11u);
    for (const auto &entry : table) {
        EXPECT_NE(entry.dest, 4);
        EXPECT_EQ(entry.mode,
                  design.topology.local(4).modeOfDest[entry.dest]);
        EXPECT_DOUBLE_EQ(entry.drivePower.watts(),
                         design.sources[4].modePower[entry.mode]
                             .watts());
        EXPECT_GT(entry.drivePower.watts(), 0.0);
    }
    // Drive powers are non-decreasing in mode.
    for (std::size_t i = 0; i + 1 < table.size(); ++i) {
        if (table[i].mode < table[i + 1].mode) {
            EXPECT_LE(table[i].drivePower, table[i + 1].drivePower);
        }
    }
}

/** Write @p text as a mapping file and expect loading it for
 *  @p cores cores to fail with "<path>@p where" in the message. */
void
expectMappingRejected(const std::string &text, int cores,
                      const std::string &where)
{
    std::string path = testing::TempDir() + "mnoc_mapping_bad.map";
    std::ofstream(path) << text;
    try {
        loadMapping(path, cores);
        ADD_FAILURE() << "loaded mapping '" << text << "'";
    } catch (const FatalError &error) {
        EXPECT_NE(std::string(error.what()).find(path + where),
                  std::string::npos)
            << error.what() << " does not name " << path + where;
    }
    std::remove(path.c_str());
}

TEST(DesignIo, MappingLoadsAPermutationOverAnyLines)
{
    std::string path = testing::TempDir() + "mnoc_mapping_ok.map";
    std::ofstream(path) << "2 0\n\n3\n  1\n";
    EXPECT_EQ(loadMapping(path, 4), (std::vector<int>{2, 0, 3, 1}));
    EXPECT_EQ(identityMapping(3), (std::vector<int>{0, 1, 2}));
    std::remove(path.c_str());
}

TEST(DesignIo, MappingRejectsASign)
{
    // stoi would take "+1" and "-1"; a core id takes no sign.
    expectMappingRejected("0 +1 2 3\n", 4,
                          ":1: field 'core': expected an integer, "
                          "got '+1'");
    expectMappingRejected("0 -1 2 3\n", 4,
                          ":1: field 'core': expected an integer, "
                          "got '-1'");
}

TEST(DesignIo, MappingRejectsJunk)
{
    expectMappingRejected("0 1 x 3\n", 4,
                          ":1: field 'core': expected an integer, "
                          "got 'x'");
    expectMappingRejected("0 1 2 3z\n", 4,
                          ":1: field 'core': expected an integer, "
                          "got '3z'");
}

TEST(DesignIo, MappingRejectsWrongCount)
{
    expectMappingRejected("0 1 2\n", 4,
                          ": mapping lists 3 cores, expected 4");
}

TEST(DesignIo, MappingRejectsOutOfRangeCore)
{
    expectMappingRejected("0 1 2 9\n", 4,
                          ":1: field 'core': core 9 is out of range "
                          "for 4 cores");
}

TEST(DesignIo, MappingRejectsDuplicateCore)
{
    expectMappingRejected("0 1\n1 3\n", 4,
                          ":2: field 'core': core 1 is used twice "
                          "(first on line 1)");
}

TEST(DesignIo, MappingErrorNamesTheRealLine)
{
    // Line 5, not the fourth token: blank lines and several ids per
    // line still count as lines.
    expectMappingRejected("0 1\n\n2\n\n3 x\n", 5,
                          ":5: field 'core': expected an integer, "
                          "got 'x'");
}

} // namespace
