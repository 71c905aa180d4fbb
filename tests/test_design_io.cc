/**
 * @file
 * Tests of design serialization, drive tables, and thread-to-core
 * mapping files.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cctype>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "common/log.hh"
#include "common/manifest.hh"
#include "common/prng.hh"
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

/** The bits of @p value, so -0.0 and 0.0 differ and NaN equals
 *  itself. */
std::uint64_t
bitsOf(double value)
{
    return std::bit_cast<std::uint64_t>(value);
}

void
expectBitEqual(const std::vector<double> &a, const std::vector<double> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(bitsOf(a[i]), bitsOf(b[i])) << "entry " << i;
}

/** Every field of two designs, doubles compared bit for bit. */
void
expectSameDesign(const MnocDesign &a, const MnocDesign &b)
{
    ASSERT_EQ(a.topology.numNodes, b.topology.numNodes);
    ASSERT_EQ(a.topology.numModes, b.topology.numModes);
    ASSERT_EQ(a.sources.size(), b.sources.size());
    for (std::size_t s = 0; s < a.sources.size(); ++s) {
        SCOPED_TRACE("source " + std::to_string(s));
        const auto &x = a.sources[s];
        const auto &y = b.sources[s];
        EXPECT_EQ(a.topology.locals[s].modeOfDest,
                  b.topology.locals[s].modeOfDest);
        EXPECT_EQ(x.modeOfDest, y.modeOfDest);
        expectBitEqual(x.alpha, y.alpha);
        ASSERT_EQ(x.modePower.size(), y.modePower.size());
        for (std::size_t m = 0; m < x.modePower.size(); ++m)
            EXPECT_EQ(bitsOf(x.modePower[m].watts()),
                      bitsOf(y.modePower[m].watts()));
        expectBitEqual(x.chain.splitterFraction, y.chain.splitterFraction);
        expectBitEqual(x.chain.targets, y.chain.targets);
        EXPECT_EQ(bitsOf(x.chain.injectedPower.watts()),
                  bitsOf(y.chain.injectedPower.watts()));
        EXPECT_EQ(bitsOf(x.expectedPower.watts()),
                  bitsOf(y.expectedPower.watts()));
    }
}

void
expectSameResilience(const ResilienceSummary &a,
                     const ResilienceSummary &b)
{
    EXPECT_EQ(bitsOf(a.yieldTarget), bitsOf(b.yieldTarget));
    EXPECT_EQ(a.trials, b.trials);
    EXPECT_EQ(a.seed, b.seed);
    EXPECT_EQ(bitsOf(a.spec.splitterSigma), bitsOf(b.spec.splitterSigma));
    EXPECT_EQ(bitsOf(a.spec.couplerSigma.dB()),
              bitsOf(b.spec.couplerSigma.dB()));
    EXPECT_EQ(bitsOf(a.spec.waveguideSigmaPerCm.dB()),
              bitsOf(b.spec.waveguideSigmaPerCm.dB()));
    EXPECT_EQ(bitsOf(a.spec.splitterInsertionSigma.dB()),
              bitsOf(b.spec.splitterInsertionSigma.dB()));
    EXPECT_EQ(bitsOf(a.spec.ledDroopSigma), bitsOf(b.spec.ledDroopSigma));
    EXPECT_EQ(bitsOf(a.spec.miopSigma.dB()), bitsOf(b.spec.miopSigma.dB()));
    EXPECT_EQ(bitsOf(a.finalYield), bitsOf(b.finalYield));
    EXPECT_EQ(bitsOf(a.finalMargin.dB()), bitsOf(b.finalMargin.dB()));
    EXPECT_EQ(a.finalNumModes, b.finalNumModes);
    EXPECT_EQ(a.metTarget, b.metTarget);
    ASSERT_EQ(a.path.size(), b.path.size());
    for (std::size_t i = 0; i < a.path.size(); ++i) {
        EXPECT_EQ(a.path[i].kind, b.path[i].kind);
        EXPECT_EQ(a.path[i].numModes, b.path[i].numModes);
        EXPECT_EQ(a.path[i].collapsedMode, b.path[i].collapsedMode);
        EXPECT_EQ(bitsOf(a.path[i].margin.dB()),
                  bitsOf(b.path[i].margin.dB()));
        EXPECT_EQ(bitsOf(a.path[i].yield), bitsOf(b.path[i].yield));
    }
}

/** A two-step hardening record for the trailer tests. */
ResilienceSummary
sampleResilience()
{
    ResilienceSummary r;
    r.yieldTarget = 0.95;
    r.trials = 50;
    r.seed = 3;
    r.finalYield = 0.96;
    r.finalMargin = DecibelLoss(2.0);
    r.finalNumModes = 2;
    r.metTarget = true;
    DegradationStep margin;
    margin.numModes = 3;
    margin.margin = DecibelLoss(1.5);
    margin.yield = 0.25;
    DegradationStep collapse;
    collapse.kind = DegradationStep::Kind::Collapse;
    collapse.numModes = 2;
    collapse.collapsedMode = 1;
    collapse.margin = DecibelLoss(2.0);
    r.path = {margin, collapse};
    return r;
}

std::string
fileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
}

TEST(DesignIo, EveryPrefixFailsOnItsLineOrLoadsWhatItHolds)
{
    // Cut a saved 16-node design with both trailers at every byte.
    // A cut is a FatalError naming "path:N", N the line the cut falls
    // on -- except where the format cannot see it: the file has no
    // end marker and both trailers are optional, so a cut at the end
    // of a block (the body, the resilience block, the whole file, each
    // with any of its trailing whitespace) loads what precedes it, and
    // a cut inside a block's last token loads that token's prefix
    // when it is still a valid value.
    optics::SerpentineLayout layout{16, Meters(0.04)};
    optics::OpticalCrossbar xbar{layout, optics::DeviceParams{}};
    MnocPowerModel model{xbar};
    MnocDesign original = model.designUniform(distanceBasedTopology(16, 3));
    ResilienceSummary resilience = sampleResilience();
    RunManifest manifest;
    manifest.seed = 77;
    manifest.gitSha = "beef001";
    manifest.configDigest = "0011223344556677";
    manifest.env.emplace_back("MNOC_EPOCH_MSGS", "4096");
    std::string full_path = testing::TempDir() + "mnoc_design_prefix.txt";
    saveDesign(full_path, original, &resilience, &manifest);
    std::string full = fileBytes(full_path);
    std::remove(full_path.c_str());

    auto trimmed = [](const std::string &text) {
        std::size_t end = text.size();
        while (end > 0 && std::isspace(static_cast<unsigned char>(
                              text[end - 1])))
            --end;
        return end;
    };
    const std::size_t body_end = full.find("\nresilience\n");
    const std::size_t resilience_end = full.find("\nmanifest ");
    const std::size_t file_end = trimmed(full);
    ASSERT_NE(body_end, std::string::npos);
    ASSERT_NE(resilience_end, std::string::npos);
    auto isBlockEnd = [&](std::size_t at) {
        return at == body_end || at == resilience_end || at == file_end;
    };

    std::string path = testing::TempDir() + "mnoc_design_cut.txt";
    int block_end_loads = 0;
    int inside_token_loads = 0;
    for (std::size_t length = 0; length < full.size(); ++length) {
        SCOPED_TRACE("prefix of " + std::to_string(length) + " bytes");
        std::string prefix = full.substr(0, length);
        {
            std::ofstream out(path, std::ios::binary);
            out << prefix;
        }
        DesignReport report;
        try {
            report = loadDesignReport(path);
        } catch (const FatalError &error) {
            long line = 1 + std::count(prefix.begin(), prefix.end(), '\n');
            std::string where = path + ":" + std::to_string(line) + ":";
            EXPECT_NE(std::string(error.what()).find(where),
                      std::string::npos)
                << error.what() << " does not name " << where;
            continue;
        }
        std::size_t end = trimmed(prefix);
        if (isBlockEnd(end)) {
            ++block_end_loads;
            expectSameDesign(report.design, original);
            EXPECT_EQ(report.resilience.has_value(), end > body_end);
            if (report.resilience)
                expectSameResilience(*report.resilience, resilience);
            EXPECT_EQ(report.manifest.has_value(), end == file_end);
            if (report.manifest) {
                EXPECT_EQ(manifestJson(*report.manifest),
                          manifestJson(manifest));
            }
        } else {
            // Inside a token that runs on to a block end.
            ++inside_token_loads;
            EXPECT_EQ(end, length);
            std::size_t token_end = full.find_first_of(" \n", length);
            EXPECT_TRUE(isBlockEnd(token_end))
                << "loaded a cut inside the token ending at byte "
                << token_end;
        }
    }
    std::remove(path.c_str());
    // Each block end, and the whole file without its final LF.
    EXPECT_EQ(block_end_loads, 5);
    EXPECT_GT(inside_token_loads, 0);
}

/** Save the sample design, put @p token in place of the first value
 *  of its "splitters" line (a field checked against [0, 1]), and load
 *  it back.  Returns the loaded value, or the error message. */
std::string
loadSplitterToken(const std::string &token, double &value)
{
    IoFixture f;
    std::string path = testing::TempDir() + "mnoc_design_number.txt";
    saveDesign(path, f.sample());
    std::string content = fileBytes(path);
    std::size_t at = content.find("\nsplitters ") + 11;
    std::size_t end = content.find(' ', at);
    content.replace(at, end - at, token);
    std::ofstream(path, std::ios::binary) << content;
    std::string error;
    try {
        value = loadDesign(path).sources[0].chain.splitterFraction[0];
    } catch (const FatalError &failure) {
        error = failure.what();
    }
    std::remove(path.c_str());
    return error;
}

TEST(DesignIo, NumberTokensFollowTheNumberRule)
{
    struct Accepted
    {
        const char *token;
        double value;
    };
    // The forms saveDesign writes ("%.17g"), and subnormals: std::stod
    // threw out_of_range on those, so such a design did not load back.
    const Accepted accepted[] = {
        {"0", 0.0},
        {"-0", -0.0},
        {"1", 1.0},
        {"0.5", 0.5},
        {"0.10000000000000001", 0.1},
        {"1.0000000000000001e-05", 1e-05},
        {"2.2250738585072014e-308", 2.2250738585072014e-308},
        {"1e-320", 1e-320},
        {"4.9406564584124654e-324",
         std::numeric_limits<double>::denorm_min()},
    };
    for (const Accepted &want : accepted) {
        SCOPED_TRACE(want.token);
        double value = -1.0;
        EXPECT_EQ(loadSplitterToken(want.token, value), "");
        EXPECT_EQ(bitsOf(value), bitsOf(want.value));
    }
    struct Rejected
    {
        const char *token;
        const char *why;
    };
    const Rejected rejected[] = {
        // A sign or base std::stod took.
        {"+0.5", "expected a number, got '+0.5'"},
        {"0x1p-3", "expected a number, got '0x1p-3'"},
        {"1.5x", "expected a number, got '1.5x'"},
        {"1e", "expected a number, got '1e'"},
        // Beyond the double range, or underflowing to zero.
        {"1e999", "expected a number, got '1e999'"},
        {"1e-400", "expected a number, got '1e-400'"},
        // Parsed, then refused by the field's range check.
        {"nan", "value out of range"},
        {"inf", "value out of range"},
        {"1.5", "value out of range"},
        {"-1e-320", "value out of range"},
    };
    for (const Rejected &want : rejected) {
        SCOPED_TRACE(want.token);
        double value = -1.0;
        std::string error = loadSplitterToken(want.token, value);
        EXPECT_NE(error.find(":7: field 'splitters': " +
                             std::string(want.why)),
                  std::string::npos)
            << error;
    }
}

TEST(DesignIo, RandomDesignRoundTripsBitForBit)
{
    // Every double field of a 16-node design with a resilience record,
    // drawn at random across the whole exponent range allowed by the
    // field's check, subnormals and both zeros included.
    optics::SerpentineLayout layout{16, Meters(0.04)};
    optics::OpticalCrossbar xbar{layout, optics::DeviceParams{}};
    MnocPowerModel model{xbar};
    const MnocDesign base =
        model.designUniform(distanceBasedTopology(16, 3));
    Prng rng(2026);
    auto draw = [&](double hi) {
        switch (rng.below(8)) {
        case 0:
            return 0.0;
        case 1:
            return -0.0;
        case 2:
            return hi;
        case 3:
            return rng.uniform() * hi;
        case 4: // a subnormal
            return std::bit_cast<double>(rng() & ((1ULL << 52) - 1));
        default:
            // Any non-negative bit pattern within [0, hi].
            for (;;) {
                double v = std::bit_cast<double>(rng() >> 1);
                if (v <= hi)
                    return v;
            }
        }
    };
    std::string path = testing::TempDir() + "mnoc_design_random.txt";
    for (int round = 0; round < 20; ++round) {
        SCOPED_TRACE("round " + std::to_string(round));
        MnocDesign design = base;
        for (auto &source : design.sources) {
            for (double &a : source.alpha)
                a = draw(1.0);
            for (WattPower &p : source.modePower)
                p = WattPower(draw(1e6));
            for (double &frac : source.chain.splitterFraction)
                frac = draw(1.0);
            for (double &t : source.chain.targets)
                t = draw(1e6);
            source.chain.injectedPower = WattPower(draw(1e6));
            source.expectedPower = WattPower(draw(1e6));
        }
        ResilienceSummary r = sampleResilience();
        r.yieldTarget = draw(1.0);
        r.spec.splitterSigma = draw(1e300);
        r.spec.couplerSigma = DecibelLoss(draw(1e300));
        r.spec.waveguideSigmaPerCm = DecibelLoss(draw(1e300));
        r.spec.splitterInsertionSigma = DecibelLoss(draw(1e300));
        r.spec.ledDroopSigma = draw(1e300);
        r.spec.miopSigma = DecibelLoss(draw(1e300));
        r.finalYield = draw(1.0);
        r.finalMargin = DecibelLoss(draw(1e300));
        for (auto &step : r.path) {
            step.margin = DecibelLoss(draw(1e300) - draw(1e300));
            step.yield = draw(1e300) - draw(1e300);
        }
        saveDesign(path, design, &r);
        DesignReport loaded = loadDesignReport(path);
        expectSameDesign(loaded.design, design);
        ASSERT_TRUE(loaded.resilience.has_value());
        expectSameResilience(*loaded.resilience, r);
    }
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
