/**
 * @file
 * Tests of link-budget validation, the per-mode summary kernel, and
 * BER estimation.
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

TEST(LinkBudget, SummaryKernelIsBitEqualToFullReport)
{
    constexpr int kNodes = 12;
    const WattPower pmin(1e-5);
    // A small palette of levels makes margins tie within and across
    // modes, and includes dark taps; the rest are continuous draws.
    const std::vector<double> palette = {0.0, 0.5e-5, 1e-5, 1e-5,
                                         2e-5, 4e-5};
    // Thresholds: with the controller's 1e-9 dB slack, exactly at a
    // palette margin (strictness), and far on either side.
    const std::vector<DecibelLoss> thresholds = {
        DecibelLoss(-1e-9), linkMargin(2e-5, pmin),
        linkMargin(2e-5, pmin) - DecibelLoss(1e-9), DecibelLoss(-40.0),
        DecibelLoss(40.0)};

    Prng prng(20150314);
    int dark_reachable = 0;
    int unreached_modes = 0;
    int failing_ties = 0;
    for (int trial = 0; trial < 300; ++trial) {
        int num_modes = 1 + trial % 4;
        // Every third matrix leaves mode 0 without a destination.
        int lowest_mode = trial % 3 == 0 && num_modes > 1 ? 1 : 0;
        std::vector<int> mode_of_dest(kNodes);
        for (int &mode : mode_of_dest)
            mode = lowest_mode +
                   static_cast<int>(prng.below(static_cast<std::uint64_t>(
                       num_modes - lowest_mode)));
        std::vector<std::vector<double>> received(
            static_cast<std::size_t>(num_modes),
            std::vector<double>(kNodes));
        for (auto &row : received)
            for (double &power : row)
                power = prng.uniform() < 0.5
                            ? palette[prng.below(palette.size())]
                            : 1e-5 * (0.2 + 4.0 * prng.uniform());

        for (int source = 0; source < kNodes; ++source) {
            auto report =
                validateReceivedPowers(received, mode_of_dest, source, pmin);
            auto modes =
                summarizeReceivedPowers(received, mode_of_dest, source, pmin);
            ASSERT_EQ(modes.size(), received.size());

            DecibelLoss worst{1e9};
            DecibelLoss leak{-1e9};
            WattPower weakest{std::numeric_limits<double>::infinity()};
            for (const ModeBudget &budget : modes) {
                worst = std::min(worst, budget.worstMargin);
                leak = std::max(leak, budget.worstLeak);
                weakest = std::min(weakest, budget.worstReceived);
                unreached_modes += budget.worstMargin.dB() == 1e9;
                dark_reachable += budget.worstMargin.dB() == -1e9;
            }
            EXPECT_EQ(worst.dB(), report.worstReachableMargin.dB());
            EXPECT_EQ(leak.dB(), report.worstUnreachableLeak.dB());

            // The weakest reachable link carries the worst BER.
            double worst_ber = 0.0;
            int at_worst = 0;
            for (const auto &link : report.links) {
                if (!link.reachable)
                    continue;
                worst_ber = std::max(worst_ber, link.bitErrorRate);
                at_worst += link.margin == worst;
            }
            EXPECT_EQ(linkBitErrorRate(weakest, pmin), worst_ber);

            for (DecibelLoss threshold : thresholds) {
                EXPECT_EQ(worstFailingMode(modes, threshold),
                          perLinkWorstFailingMode(report, threshold))
                    << "trial " << trial << " source " << source
                    << " threshold " << threshold.dB();
            }
            failing_ties += at_worst > 1 && worst < DecibelLoss(-1e-9);
        }
    }
    // The draws reached every edge case the kernel must agree on.
    EXPECT_GT(dark_reachable, 0);
    EXPECT_GT(unreached_modes, 0);
    EXPECT_GT(failing_ties, 0);
}

TEST(LinkBudget, SummaryKernelRejectsBadArguments)
{
    std::vector<std::vector<double>> received = {{1e-5, 1e-5, 1e-5}};
    std::vector<int> modes = {0, 0, 0};
    WattPower pmin(1e-5);
    EXPECT_THROW(summarizeReceivedPowers({}, modes, 0, pmin), FatalError);
    EXPECT_THROW(summarizeReceivedPowers(received, modes, 3, pmin),
                 FatalError);
    EXPECT_THROW(summarizeReceivedPowers(received, {0, 0}, 0, pmin),
                 FatalError);
    EXPECT_THROW(
        summarizeReceivedPowers(received, modes, 0, WattPower(0.0)),
        FatalError);
}

} // namespace
