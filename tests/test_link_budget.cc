/**
 * @file
 * Tests of link-budget validation, the one-walk link-budget kernel,
 * and BER estimation.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <vector>

#include "common/log.hh"
#include "common/prng.hh"
#include "optics/link_budget.hh"

namespace {

using namespace mnoc;
using namespace mnoc::optics;

struct LbFixture
{
    SerpentineLayout layout{16, Meters(0.05)};
    DeviceParams params;
    SplitterChain chain{layout, params, 6};

    MultiModeDesign
    twoModeDesign(std::vector<double> weights = {0.7, 0.3}) const
    {
        std::vector<int> modes(16, 1);
        for (int d = 3; d <= 9; ++d)
            modes[d] = 0;
        AlphaOptimizer opt(chain, modes, weights,
                           params.pminAtTap());
        return opt.optimize();
    }
};

TEST(LinkBudget, BerDecreasesWithReceivedPower)
{
    WattPower pmin(1e-5);
    double high = linkBitErrorRate(WattPower(2e-5), pmin);
    double nominal = linkBitErrorRate(WattPower(1e-5), pmin);
    double low = linkBitErrorRate(WattPower(0.5e-5), pmin);
    EXPECT_LT(high, nominal);
    EXPECT_LT(nominal, low);
    // Design point Q = 7: about 1e-12.
    EXPECT_LT(nominal, 1e-11);
    EXPECT_GT(nominal, 1e-14);
    // No light: coin flip.
    EXPECT_DOUBLE_EQ(linkBitErrorRate(WattPower(0.0), pmin), 0.5);
}

TEST(LinkBudget, BerRejectsBadArguments)
{
    EXPECT_THROW(linkBitErrorRate(WattPower(1e-5), WattPower(0.0)),
                 FatalError);
    EXPECT_THROW(linkBitErrorRate(WattPower(1e-5), WattPower(1e-5), -1.0),
                 FatalError);
}

TEST(LinkBudget, OptimizedDesignValidates)
{
    LbFixture f;
    auto design = f.twoModeDesign();
    auto report = validateDesign(f.chain, design,
                                 f.params.pminAtTap());
    EXPECT_TRUE(report.ok);
    // Reachable links sit at or above pmin.
    EXPECT_GE(report.worstReachableMargin.dB(), -1e-9);
    // Unreachable links sit strictly below pmin.
    EXPECT_LT(report.worstUnreachableLeak.dB(), 0.0);
}

TEST(LinkBudget, ReportsEveryModeDestinationPair)
{
    LbFixture f;
    auto design = f.twoModeDesign();
    auto report = validateDesign(f.chain, design,
                                 f.params.pminAtTap());
    // 15 destinations x 2 modes.
    EXPECT_EQ(report.links.size(), 30u);
    int reachable = 0;
    for (const auto &link : report.links)
        if (link.reachable)
            ++reachable;
    // Mode 0 reaches 6 (indices 3..9 minus the source itself),
    // mode 1 reaches all 15.
    EXPECT_EQ(reachable, 6 + 15);
}

TEST(LinkBudget, ReachableLinksHaveExcellentBer)
{
    LbFixture f;
    auto design = f.twoModeDesign();
    auto report = validateDesign(f.chain, design,
                                 f.params.pminAtTap());
    for (const auto &link : report.links) {
        if (link.reachable) {
            EXPECT_LT(link.bitErrorRate, 1e-10)
                << "mode " << link.mode << " dest " << link.dest;
        }
    }
}

TEST(LinkBudget, StrictGapRequirementCanFail)
{
    // Demanding a 10 dB decision gap between reachable and
    // unreachable levels is more than the optimized alphas provide
    // when the mode split is mild.
    LbFixture f;
    auto design = f.twoModeDesign({0.5, 0.5});
    auto report = validateDesign(f.chain, design,
                                 f.params.pminAtTap(), DecibelLoss(0.0),
                                 DecibelLoss(-10.0));
    // The leak level in mode 1 is alpha-relative; with moderate
    // weights alpha_1 is well above 0.1, so this must fail.
    EXPECT_FALSE(report.ok);
}

TEST(LinkBudget, MarginRequirementCanFail)
{
    LbFixture f;
    auto design = f.twoModeDesign();
    // The exact design hits pmin with zero margin, so demanding +3 dB
    // must fail.
    auto report = validateDesign(f.chain, design,
                                 f.params.pminAtTap(), DecibelLoss(3.0));
    EXPECT_FALSE(report.ok);
}

/** The degradation controller's per-link worst-failing-mode loop
 *  over a full report: the mode of the first link, in (mode, dest)
 *  order, that attains the smallest margin below @p threshold. */
int
perLinkWorstFailingMode(const BudgetReport &report, DecibelLoss threshold)
{
    DecibelLoss worst_fail{1e9};
    int mode = -1;
    for (const auto &link : report.links) {
        if (link.reachable && link.margin < threshold &&
            link.margin < worst_fail) {
            worst_fail = link.margin;
            mode = link.mode;
        }
    }
    return mode;
}

/** The per-mode fold of a received-power vector in destination
 *  order: the reference each kernel ModeBudget must equal bit for
 *  bit. */
ModeBudget
referenceModeBudget(const std::vector<double> &received,
                    const std::vector<int> &mode_of_dest, int source,
                    int mode, WattPower pmin)
{
    double lowest = std::numeric_limits<double>::infinity();
    double loudest = 0.0;
    for (std::size_t dest = 0; dest < received.size(); ++dest) {
        if (static_cast<int>(dest) == source)
            continue;
        if (mode_of_dest[dest] <= mode)
            lowest = std::min(lowest, received[dest]);
        else
            loudest = std::max(loudest, received[dest]);
    }
    ModeBudget out;
    out.worstReceived = WattPower(lowest);
    if (lowest < std::numeric_limits<double>::infinity())
        out.worstMargin = linkMargin(lowest, pmin);
    out.worstLeak = linkMargin(loudest, pmin);
    return out;
}

/** Kernel and reference budgets of one source agree bit for bit:
 *  each mode's ModeBudget, the report's worst margin and leak, the
 *  worst BER, and the worst failing mode at every threshold.  Returns
 *  the reference report. */
BudgetReport
expectKernelMatchesReference(const SplitterChain &chain,
                             const ChainDesign &design,
                             const std::vector<WattPower> &injected,
                             const std::vector<double> &scale,
                             const std::vector<int> &mode_of_dest,
                             WattPower pmin,
                             const std::vector<DecibelLoss> &thresholds,
                             std::vector<ModeBudget> &modes,
                             LinkBudgetScratch &scratch)
{
    int source = chain.source();
    std::vector<std::vector<double>> received;
    for (WattPower power : injected)
        received.push_back(chain.evaluate(design, power, scale));
    auto report =
        validateReceivedPowers(received, mode_of_dest, source, pmin);
    summarizeLinkBudget(chain, design, injected, scale, mode_of_dest, pmin,
                        modes, scratch);
    EXPECT_EQ(modes.size(), injected.size());
    if (modes.size() != injected.size())
        return report;

    DecibelLoss worst{1e9};
    DecibelLoss leak{-1e9};
    WattPower weakest{std::numeric_limits<double>::infinity()};
    for (std::size_t m = 0; m < modes.size(); ++m) {
        ModeBudget expected = referenceModeBudget(
            received[m], mode_of_dest, source, static_cast<int>(m), pmin);
        EXPECT_EQ(modes[m].worstReceived.watts(),
                  expected.worstReceived.watts())
            << "mode " << m;
        EXPECT_EQ(modes[m].worstMargin.dB(), expected.worstMargin.dB())
            << "mode " << m;
        EXPECT_EQ(modes[m].worstLeak.dB(), expected.worstLeak.dB())
            << "mode " << m;
        worst = std::min(worst, modes[m].worstMargin);
        leak = std::max(leak, modes[m].worstLeak);
        weakest = std::min(weakest, modes[m].worstReceived);
    }
    EXPECT_EQ(worst.dB(), report.worstReachableMargin.dB());
    EXPECT_EQ(leak.dB(), report.worstUnreachableLeak.dB());

    // The weakest reachable link carries the worst BER.
    double worst_ber = 0.0;
    for (const auto &link : report.links)
        if (link.reachable)
            worst_ber = std::max(worst_ber, link.bitErrorRate);
    EXPECT_EQ(linkBitErrorRate(weakest, pmin), worst_ber);

    for (DecibelLoss threshold : thresholds)
        EXPECT_EQ(worstFailingMode(modes, threshold),
                  perLinkWorstFailingMode(report, threshold))
            << "threshold " << threshold.dB();
    return report;
}

TEST(LinkBudget, KernelIsBitEqualToEvaluateAndFullReport)
{
    // Seeded random chains (geometry, skewed device parameters,
    // source), splitter designs, ratio scales and injected powers.
    // Palettes of split fractions and mode powers make dark taps,
    // starved arms and tied margins common.  A negative power is no
    // device state, but it is the one input on which evaluate()'s
    // early break changes what later nodes read.
    const std::vector<double> fraction_palette = {0.0, 1.0, 1e-3, 0.5,
                                                  0.999};
    const std::vector<double> scale_palette = {0.0, 1.0, 0.5, 3.0};
    const std::vector<double> power_palette = {0.0, 1e-4, 1e-3, 1e-3,
                                               -1e-4};

    Prng prng(20150314);
    LinkBudgetScratch scratch;
    std::vector<ModeBudget> modes;
    int dark_reachable = 0;
    int unreached_modes = 0;
    int failing_ties = 0;
    int starved_arms = 0;
    for (int trial = 0; trial < 400; ++trial) {
        int n = 2 + static_cast<int>(prng.below(15));
        SerpentineLayout layout{n, Meters(0.02 + 0.2 * prng.uniform())};
        DeviceParams params = DeviceParams{}.perturbed(
            DecibelLoss(prng.uniform() - 0.5),
            DecibelLoss(2.0 * prng.uniform() - 0.5),
            DecibelLoss(0.2 * prng.uniform() - 0.1),
            0.5 + prng.uniform());
        int source =
            static_cast<int>(prng.below(static_cast<std::uint64_t>(n)));
        SplitterChain chain(layout, params, source);
        WattPower pmin = params.pminAtTap();

        ChainDesign design;
        design.source = source;
        design.splitterFraction.resize(static_cast<std::size_t>(n));
        for (double &fraction : design.splitterFraction)
            fraction = prng.uniform() < 0.3
                           ? fraction_palette[prng.below(
                                 fraction_palette.size())]
                           : prng.uniform();

        std::vector<double> scale;
        if (trial % 3 != 0) {
            scale.resize(static_cast<std::size_t>(n));
            for (double &k : scale)
                k = prng.uniform() < 0.3
                        ? scale_palette[prng.below(scale_palette.size())]
                        : 2.0 * prng.uniform();
        }

        int num_modes = 1 + trial % 4;
        // Every third draw leaves mode 0 without a destination.
        int lowest_mode = trial % 3 == 1 && num_modes > 1 ? 1 : 0;
        std::vector<int> mode_of_dest(static_cast<std::size_t>(n));
        for (int &mode : mode_of_dest)
            mode = lowest_mode +
                   static_cast<int>(prng.below(static_cast<std::uint64_t>(
                       num_modes - lowest_mode)));
        std::vector<WattPower> injected;
        for (int m = 0; m < num_modes; ++m)
            injected.emplace_back(
                prng.uniform() < 0.4
                    ? power_palette[prng.below(power_palette.size())]
                    : 1e-3 * (0.1 + 4.0 * prng.uniform()));

        const std::vector<DecibelLoss> thresholds = {
            DecibelLoss(-1e-9), DecibelLoss(-40.0), DecibelLoss(40.0),
            linkMargin(1e-3 * params.splitterInsertion.toTransmission()
                                  .value(),
                       pmin)};
        auto report = expectKernelMatchesReference(
            chain, design, injected, scale, mode_of_dest, pmin, thresholds,
            modes, scratch);
        if (testing::Test::HasFailure()) {
            ADD_FAILURE() << "trial " << trial;
            return;
        }

        // Tally the edge cases this draw reached.
        for (const ModeBudget &budget : modes) {
            unreached_modes += budget.worstMargin.dB() == 1e9;
            dark_reachable += budget.worstMargin.dB() == -1e9;
        }
        int at_worst = 0;
        for (const auto &link : report.links)
            at_worst += link.reachable &&
                        link.margin == report.worstReachableMargin;
        failing_ties += at_worst > 1 &&
                        report.worstReachableMargin < DecibelLoss(-1e-9);
        for (int j = 0; j < n; ++j) {
            auto slot = static_cast<std::size_t>(j);
            bool beyond = j < source ? j > 0 : j > source && j < n - 1;
            starved_arms += beyond && design.splitterFraction[slot] == 1.0 &&
                            (scale.empty() || scale[slot] > 0.0);
        }
    }
    // The draws reached every edge case the kernel must agree on.
    EXPECT_GT(dark_reachable, 0);
    EXPECT_GT(unreached_modes, 0);
    EXPECT_GT(failing_ties, 0);
    EXPECT_GT(starved_arms, 0);
}

TEST(LinkBudget, KernelMatchesReferenceBehindAFractionOneSplitter)
{
    // A fraction-1 splitter mid-arm diverts everything: evaluate()
    // stops the arm there and every node past it reads 0 W, so the
    // broadcast mode, which reaches them, has a dark reachable link.
    LbFixture f;
    auto design = f.twoModeDesign();
    design.chain.splitterFraction[3] = 1.0; // left arm: 5, 4, 3 | 2, 1, 0
    const std::vector<WattPower> &injected = design.modePower;
    std::vector<double> scale(16, 1.25);
    WattPower pmin = f.params.pminAtTap();
    for (const auto &ratio : {std::vector<double>{}, scale}) {
        auto received = f.chain.evaluate(design.chain, injected[1], ratio);
        EXPECT_GT(received[3], 0.0);
        for (int d : {0, 1, 2})
            EXPECT_EQ(received[static_cast<std::size_t>(d)], 0.0);

        std::vector<ModeBudget> modes;
        LinkBudgetScratch scratch;
        expectKernelMatchesReference(f.chain, design.chain, injected, ratio,
                                     design.modeOfDest, pmin,
                                     {DecibelLoss(-1e-9)}, modes, scratch);
        EXPECT_EQ(modes[1].worstMargin.dB(), -1e9);
        EXPECT_EQ(worstFailingMode(modes, DecibelLoss(-1e-9)), 1);
    }
}

TEST(LinkBudget, KernelRejectsBadArguments)
{
    LbFixture f;
    auto design = f.twoModeDesign();
    const std::vector<WattPower> &injected = design.modePower;
    WattPower pmin = f.params.pminAtTap();
    std::vector<ModeBudget> modes;
    LinkBudgetScratch scratch;
    auto summarize = [&](const ChainDesign &chain_design,
                         const std::vector<WattPower> &powers,
                         const std::vector<double> &scale,
                         const std::vector<int> &mode_of_dest,
                         WattPower threshold) {
        summarizeLinkBudget(f.chain, chain_design, powers, scale,
                            mode_of_dest, threshold, modes, scratch);
    };
    EXPECT_NO_THROW(
        summarize(design.chain, injected, {}, design.modeOfDest, pmin));
    EXPECT_THROW(summarize(design.chain, {}, {}, design.modeOfDest, pmin),
                 FatalError);
    EXPECT_THROW(summarize(design.chain, injected, {}, {0, 0}, pmin),
                 FatalError);
    EXPECT_THROW(summarize(design.chain, injected, {}, design.modeOfDest,
                           WattPower(0.0)),
                 FatalError);
    EXPECT_THROW(summarize(design.chain, injected, {1.0, 1.0},
                           design.modeOfDest, pmin),
                 PanicError);
    ChainDesign other = design.chain;
    other.source = 7;
    EXPECT_THROW(summarize(other, injected, {}, design.modeOfDest, pmin),
                 PanicError);
}

} // namespace
