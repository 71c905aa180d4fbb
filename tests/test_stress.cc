/**
 * @file
 * Randomized stress tests: long random request streams over tiny
 * caches exercise every protocol path (evictions, upgrades, owner
 * transfers, collapses) while the directory's internal invariant
 * panics act as the oracle.  A final consistency sweep checks that
 * every cache's view agrees with the directory.
 */

#include <gtest/gtest.h>

#include "common/prng.hh"
#include "noc/mnoc_network.hh"
#include "sim/coherence.hh"

namespace {

using namespace mnoc;
using namespace mnoc::sim;

struct StressRig
{
    static constexpr int n = 8;
    optics::SerpentineLayout layout{n, Meters(0.02)};
    noc::NetworkConfig netConfig;
    noc::MnocNetwork net{layout, netConfig};
    noc::TrafficRecorder recorder{n};
    MemoryParams params;

    StressRig(bool multicast)
    {
        // Tiny caches force constant evictions.
        params.l1 = CacheGeometry{256, 2};
        params.l2 = CacheGeometry{1024, 2};
        params.multicastInvalidations = multicast;
    }
};

/** Drive random traffic; the protocol panics are the test oracle. */
void
stressRun(bool multicast, std::uint64_t seed, int ops)
{
    StressRig rig(multicast);
    CoherenceController coh(StressRig::n, rig.params, rig.net,
                            rig.recorder);
    Prng rng(seed);
    noc::Tick now = 0;
    for (int i = 0; i < ops; ++i) {
        MemOp op;
        int owner = static_cast<int>(rng.below(StressRig::n));
        // Small line space per owner maximizes sharing collisions.
        op.addr = placedAddr(owner, rng.below(24) << lineShift);
        op.write = rng.chance(0.4);
        int core = static_cast<int>(rng.below(StressRig::n));
        now += rng.below(50);
        ASSERT_NO_THROW(coh.access(core, op, now))
            << "op " << i << " seed " << seed;
    }

    // Consistency sweep: every cached line is a registered sharer
    // with a state compatible with the directory's.
    for (int owner = 0; owner < StressRig::n; ++owner) {
        for (std::uint64_t idx = 0; idx < 24; ++idx) {
            std::uint64_t line =
                lineOf(placedAddr(owner, idx << lineShift));
            auto e = coh.directory().find(line);
            for (int core = 0; core < StressRig::n; ++core) {
                auto state = coh.cacheState(core, line);
                if (!state.has_value())
                    continue;
                ASSERT_TRUE(e.has_value());
                EXPECT_TRUE(e->sharers().contains(core))
                    << "core " << core << " caches an unregistered "
                    << "line";
                if (isDirty(*state)) {
                    EXPECT_EQ(e->owner(), core);
                    EXPECT_TRUE(e->state() == DirState::Owned ||
                                e->state() == DirState::Modified);
                }
            }
            if (e && e->state() != DirState::Invalid) {
                // Every registered sharer actually caches the line.
                for (int core : e->sharers().members())
                    EXPECT_TRUE(
                        coh.cacheState(core, line).has_value())
                        << "stale sharer " << core;
            }
        }
    }
}

class CoherenceStress
    : public testing::TestWithParam<std::tuple<bool, int>>
{
};

TEST_P(CoherenceStress, RandomTrafficKeepsInvariants)
{
    auto [multicast, seed] = GetParam();
    stressRun(multicast, static_cast<std::uint64_t>(seed) * 7919 + 1,
              20000);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, CoherenceStress,
    testing::Combine(testing::Bool(), testing::Range(1, 6)),
    [](const auto &suite_info) {
        return std::string(std::get<0>(suite_info.param)
                               ? "multicast"
                               : "unicast") +
               "_seed" +
               std::to_string(std::get<1>(suite_info.param));
    });

TEST(CoherenceStress, WriteOnlyStorm)
{
    StressRig rig(false);
    CoherenceController coh(StressRig::n, rig.params, rig.net,
                            rig.recorder);
    Prng rng(99);
    noc::Tick now = 0;
    for (int i = 0; i < 20000; ++i) {
        MemOp op;
        op.addr = placedAddr(static_cast<int>(rng.below(StressRig::n)),
                             rng.below(8) << lineShift);
        op.write = true;
        now += 10;
        ASSERT_NO_THROW(coh.access(
            static_cast<int>(rng.below(StressRig::n)), op, now));
    }
    // Hot write sharing: ownership must have moved many times.
    EXPECT_GT(coh.stats().cacheToCache, 1000u);
}

TEST(CoherenceStress, ReadOnlyStormNeverInvalidates)
{
    StressRig rig(false);
    // Large caches so nothing ever leaves (no eviction-driven
    // directory changes).
    rig.params.l1 = CacheGeometry{32 * 1024, 4};
    rig.params.l2 = CacheGeometry{512 * 1024, 8};
    CoherenceController coh(StressRig::n, rig.params, rig.net,
                            rig.recorder);
    Prng rng(7);
    noc::Tick now = 0;
    for (int i = 0; i < 10000; ++i) {
        MemOp op;
        op.addr = placedAddr(static_cast<int>(rng.below(StressRig::n)),
                             rng.below(64) << lineShift);
        now += 5;
        coh.access(static_cast<int>(rng.below(StressRig::n)), op, now);
    }
    EXPECT_EQ(coh.stats().invalidations, 0u);
    EXPECT_EQ(coh.stats().writebacks, 0u);
}

} // namespace
