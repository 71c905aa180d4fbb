/**
 * @file
 * Tests of the Appendix A alpha optimization: mode powers, reachability
 * in every mode, and optimality of the closed-form solution.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/log.hh"
#include "common/prng.hh"
#include "optics/alpha_optimizer.hh"

namespace {

using namespace mnoc;
using namespace mnoc::optics;

struct Fixture
{
    SerpentineLayout layout{16, Meters(0.05)};
    DeviceParams params;
    SplitterChain chain{layout, params, 7};

    std::vector<int>
    twoModeAssignment() const
    {
        // Nearest 6 destinations in mode 0, the rest in mode 1.
        std::vector<int> modes(16, 1);
        for (int d = 4; d <= 10; ++d)
            modes[d] = 0;
        return modes;
    }
};

TEST(AlphaOptimizer, SingleModeIsBroadcast)
{
    Fixture f;
    std::vector<int> modes(16, 0);
    AlphaOptimizer opt(f.chain, modes, {1.0}, f.params.pminAtTap());
    auto design = opt.optimize();
    ASSERT_EQ(design.modePower.size(), 1u);
    EXPECT_DOUBLE_EQ(design.alpha[0], 1.0);
    // Must equal the plain broadcast design power.
    std::vector<double> targets(16, f.params.pminAtTap().watts());
    targets[7] = 0.0;
    EXPECT_NEAR(design.modePower[0].watts(),
                f.chain.design(targets).injectedPower.watts(), 1e-15);
}

TEST(AlphaOptimizer, ModePowersAreOrdered)
{
    Fixture f;
    AlphaOptimizer opt(f.chain, f.twoModeAssignment(), {0.8, 0.2},
                       f.params.pminAtTap());
    auto design = opt.optimize();
    ASSERT_EQ(design.modePower.size(), 2u);
    EXPECT_LT(design.modePower[0], design.modePower[1]);
    EXPECT_LE(design.alpha[1], design.alpha[0]);
    EXPECT_GT(design.alpha[1], 0.0);
}

TEST(AlphaOptimizer, EveryModeReachesItsDestinations)
{
    Fixture f;
    auto modes = f.twoModeAssignment();
    double pmin = f.params.pminAtTap().watts();
    AlphaOptimizer opt(f.chain, modes, {0.7, 0.3}, WattPower(pmin));
    auto design = opt.optimize();

    for (int m = 0; m < 2; ++m) {
        auto received = f.chain.evaluate(design.chain,
                                         design.modePower[m]);
        for (int d = 0; d < 16; ++d) {
            if (d == 7)
                continue;
            if (modes[d] <= m) {
                EXPECT_GE(received[d], pmin * (1.0 - 1e-9))
                    << "mode " << m << " dest " << d;
            } else {
                // Below threshold: treated as noise by the receiver.
                EXPECT_LT(received[d], pmin) << "mode " << m
                                             << " dest " << d;
            }
        }
    }
}

TEST(AlphaOptimizer, ClosedFormMatchesTwoModeAnalyticOptimum)
{
    Fixture f;
    auto modes = f.twoModeAssignment();
    std::vector<double> weights = {0.6, 0.4};
    AlphaOptimizer opt(f.chain, modes, weights,
                       f.params.pminAtTap());
    auto design = opt.optimize();

    double c0 = opt.modeCost(0);
    double c1 = opt.modeCost(1);
    double expected_alpha =
        std::min(1.0, std::sqrt(c0 * weights[1] / (c1 * weights[0])));
    EXPECT_NEAR(design.alpha[1], expected_alpha, 1e-6);
}

TEST(AlphaOptimizer, OptimizeNeverWorseThanGrid)
{
    Fixture f;
    AlphaOptimizer opt(f.chain, f.twoModeAssignment(), {0.9, 0.1},
                       f.params.pminAtTap());
    auto grid = opt.optimizeGrid(0.1);
    auto refined = opt.optimize();
    EXPECT_LE(refined.expectedPower, grid.expectedPower * (1 + 1e-9));
}

TEST(AlphaOptimizer, ExpectedPowerForAgreesWithBuild)
{
    Fixture f;
    AlphaOptimizer opt(f.chain, f.twoModeAssignment(), {0.5, 0.5},
                       f.params.pminAtTap());
    std::vector<double> alpha = {1.0, 0.4};
    EXPECT_NEAR(opt.expectedPowerFor(alpha).watts(),
                opt.build(alpha).expectedPower.watts(), 1e-12);
}

TEST(AlphaOptimizer, SkewedWeightsDeepenTheLowMode)
{
    // The more traffic stays in mode 0, the cheaper mode 0 should get
    // (smaller alpha_1 would RAISE mode-1 power, so alpha_1 shrinks as
    // w_1 shrinks).
    Fixture f;
    auto modes = f.twoModeAssignment();
    double pmin = f.params.pminAtTap().watts();
    auto alpha_for = [&](double w0) {
        AlphaOptimizer opt(f.chain, modes, {w0, 1.0 - w0},
                           WattPower(pmin));
        return opt.optimize().alpha[1];
    };
    EXPECT_LT(alpha_for(0.95), alpha_for(0.5));
    EXPECT_LT(alpha_for(0.5), alpha_for(0.1));
}

TEST(AlphaOptimizer, RejectsMalformedInput)
{
    Fixture f;
    auto modes = f.twoModeAssignment();
    double pmin = f.params.pminAtTap().watts();
    WattPower wpmin(pmin);
    EXPECT_THROW(AlphaOptimizer(f.chain, modes, {}, wpmin), FatalError);
    EXPECT_THROW(AlphaOptimizer(f.chain, modes, {0.0, 0.0}, wpmin),
                 FatalError);
    EXPECT_THROW(AlphaOptimizer(f.chain, modes, {-1.0, 2.0}, wpmin),
                 FatalError);
    std::vector<int> bad_modes(16, 5);
    EXPECT_THROW(AlphaOptimizer(f.chain, bad_modes, {0.5, 0.5}, wpmin),
                 FatalError);

    AlphaOptimizer opt(f.chain, modes, {0.5, 0.5}, wpmin);
    EXPECT_THROW(opt.build({0.5, 0.4}), FatalError);  // alpha0 != 1
    EXPECT_THROW(opt.build({1.0, 1.1}), FatalError);  // increasing
}

TEST(OptimizeAlphaVector, FourModeMonotoneAndOptimalAtBoundary)
{
    std::vector<double> cost = {10.0, 20.0, 40.0, 80.0};
    std::vector<double> weights = {0.70, 0.20, 0.07, 0.03};
    auto sol = optimizeAlphaVector(cost, weights);
    ASSERT_EQ(sol.alpha.size(), 4u);
    EXPECT_DOUBLE_EQ(sol.alpha[0], 1.0);
    for (int m = 1; m < 4; ++m) {
        EXPECT_LE(sol.alpha[m], sol.alpha[m - 1] + 1e-12);
        EXPECT_GT(sol.alpha[m], 0.0);
    }
    // Local optimality: nudging any coordinate must not improve.
    auto objective = [&](const std::vector<double> &a) {
        double c = 0.0, inv = 0.0;
        for (int i = 0; i < 4; ++i) {
            c += cost[i] * a[i];
            inv += weights[i] / a[i];
        }
        return c * inv;
    };
    double base = objective(sol.alpha);
    for (int m = 1; m < 4; ++m) {
        for (double eps : {-1e-4, 1e-4}) {
            auto nudged = sol.alpha;
            nudged[m] += eps;
            // Respect the feasible region, including the default 0.1
            // drive-range floor.
            if (nudged[m] < 0.1 || nudged[m] > nudged[m - 1] ||
                (m + 1 < 4 && nudged[m] < nudged[m + 1]))
                continue;
            EXPECT_GE(objective(nudged), base - 1e-9);
        }
    }
}

TEST(OptimizeAlphaVector, FloorBoundsTheDriveRange)
{
    // Extremely skewed weights want a tiny alpha; the default floor
    // caps the mode-power ratio at 10x (the paper's 0.1 grid minimum).
    std::vector<double> cost = {1.0, 1000.0};
    std::vector<double> weights = {0.999999, 0.000001};
    auto capped = optimizeAlphaVector(cost, weights);
    EXPECT_GE(capped.alpha[1], 0.1 - 1e-12);

    // An explicit wider range goes deeper and can only be cheaper.
    auto wide = optimizeAlphaVector(cost, weights, 1e-6);
    EXPECT_LT(wide.alpha[1], capped.alpha[1]);
    EXPECT_LE(wide.objective, capped.objective + 1e-9);
}

TEST(OptimizeAlphaVector, LargeMAnalyticSeedIsNearOptimal)
{
    // Per-destination-mode shape: costs grow along the order, weights
    // fall off.  The sqrt(w/c) seed must land within a hair of the
    // Cauchy-Schwarz optimum (sum sqrt(w c))^2 (no floor binding).
    int m = 64;
    std::vector<double> cost(m), weights(m);
    double bound = 0.0;
    double wsum = 0.0;
    for (int i = 0; i < m; ++i) {
        cost[i] = 10.0 * std::pow(1.08, i);
        weights[i] = std::pow(0.85, i);
        bound += std::sqrt(weights[i] * cost[i]);
        wsum += weights[i];
    }
    auto sol = optimizeAlphaVector(cost, weights, 1e-6);
    EXPECT_LE(sol.objective, bound * bound / wsum * 1.001);
    for (int i = 1; i < m; ++i)
        EXPECT_LE(sol.alpha[i], sol.alpha[i - 1] + 1e-12);
}

TEST(OptimizeAlphaVector, LargeMZeroWeightTailStaysCheap)
{
    // Trailing zero-weight modes (unused destinations) must sit at the
    // floor instead of inheriting a hot alpha: otherwise their
    // provisioning cost c_i * alpha_i poisons the whole design.
    int m = 40;
    std::vector<double> cost(m, 50.0);
    std::vector<double> weights(m, 0.0);
    weights[0] = 1.0;
    weights[1] = 0.5;
    auto sol = optimizeAlphaVector(cost, weights, 1e-6);
    EXPECT_LT(sol.alpha[m - 1], 1e-3);
    // Objective approaches the two-hot-mode value.
    std::vector<double> two_cost = {50.0, 50.0};
    std::vector<double> two_w = {1.0, 0.5};
    auto two = optimizeAlphaVector(two_cost, two_w, 1e-6);
    EXPECT_LE(sol.objective, two.objective * 1.05);
}

TEST(OptimizeAlphaVector, UniformEverythingStaysBroadcast)
{
    // One mode holding all destinations and all weight: alpha = 1.
    auto sol = optimizeAlphaVector({100.0}, {1.0});
    EXPECT_DOUBLE_EQ(sol.alpha[0], 1.0);
    EXPECT_NEAR(sol.objective, 100.0, 1e-12);
}

/** FNV-1a 64 of a double's bit pattern, folded into @p hash. */
void
fnvAdd(std::uint64_t &hash, double value)
{
    auto word = std::bit_cast<std::uint64_t>(value);
    for (int byte = 0; byte < 8; ++byte) {
        hash ^= (word >> (8 * byte)) & 0xffu;
        hash *= 0x100000001b3ULL;
    }
}

TEST(OptimizeAlphaVector, SeededTableKeepsEveryBit)
{
    // 2 000 seeded instances over M = 2..8, 16 and 64, with zero-cost
    // and zero-weight modes and two drive-range floors: every alpha
    // and objective must keep its bit pattern.  A change of the
    // solver's arithmetic (its association order, a cached term that
    // is not the recomputed double) moves the digest.
    const std::size_t kModes[] = {2, 3, 4, 5, 6, 7, 8, 16, 64};
    Prng rng(20261019);
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (int i = 0; i < 2000; ++i) {
        std::size_t m = kModes[static_cast<std::size_t>(i) % 9];
        std::vector<double> cost(m), weights(m);
        double wsum = 0.0;
        for (std::size_t j = 0; j < m; ++j) {
            cost[j] = rng.chance(0.1) ? 0.0 : 0.01 + 10.0 * rng.uniform();
            weights[j] = rng.chance(0.15) ? 0.0 : rng.uniform();
            wsum += weights[j];
        }
        if (wsum == 0.0)
            weights[m - 1] = 1.0;
        double min_alpha = i % 3 == 0 ? 0.01 : 0.1;
        auto sol = optimizeAlphaVector(cost, weights, min_alpha);
        ASSERT_EQ(sol.alpha.size(), m);
        for (double a : sol.alpha)
            fnvAdd(hash, a);
        fnvAdd(hash, sol.objective);
    }
    EXPECT_EQ(hash, 0xf759ac1dbd1adb86ULL) << std::hex << hash;
}

/** Weight sweeps: the optimizer's output is always feasible. */
class AlphaWeightSweep
    : public testing::TestWithParam<std::tuple<double, double>>
{
};

TEST_P(AlphaWeightSweep, FeasibleAndNoWorseThanBroadcastDesign)
{
    auto [w0, w1] = GetParam();
    Fixture f;
    auto modes = f.twoModeAssignment();
    double pmin = f.params.pminAtTap().watts();
    AlphaOptimizer opt(f.chain, modes, {w0, w1}, WattPower(pmin));
    auto design = opt.optimize();

    // alpha = {1, 1} corresponds to always driving broadcast power;
    // the optimum can only be cheaper in expectation.
    EXPECT_LE(design.expectedPower,
              opt.expectedPowerFor({1.0, 1.0}) * (1 + 1e-12));
    EXPECT_LE(design.alpha[1], 1.0);
    EXPECT_GT(design.alpha[1], 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Weights, AlphaWeightSweep,
    testing::Values(std::make_tuple(0.99, 0.01),
                    std::make_tuple(0.9, 0.1),
                    std::make_tuple(0.66, 0.33),
                    std::make_tuple(0.5, 0.5),
                    std::make_tuple(0.33, 0.66),
                    std::make_tuple(0.1, 0.9)));

} // namespace
