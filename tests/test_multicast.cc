/**
 * @file
 * Tests of the multicast-invalidation extension (paper Section 7):
 * identical protocol outcomes with fewer home-side packets.
 */

#include <gtest/gtest.h>

#include "noc/mnoc_network.hh"
#include "sim/coherence.hh"
#include "sim/simulator.hh"
#include "workloads/synthetic.hh"

namespace {

using namespace mnoc;
using namespace mnoc::sim;

struct McFixture
{
    optics::SerpentineLayout layout{8, Meters(0.02)};
    noc::NetworkConfig netConfig;
    noc::MnocNetwork net{layout, netConfig};
    noc::TrafficRecorder recorder{8};
    MemoryParams params;

    McFixture(bool multicast)
    {
        params.multicastInvalidations = multicast;
    }

    static MemOp
    op(int owner, std::uint64_t line, bool write)
    {
        MemOp m;
        m.addr = placedAddr(owner, line << lineShift);
        m.write = write;
        return m;
    }
};

/** Share one line among many readers, then write it. */
CoherenceStats
shareThenWrite(bool multicast)
{
    McFixture f(multicast);
    CoherenceController coh(8, f.params, f.net, f.recorder);
    for (int reader = 1; reader < 7; ++reader)
        coh.access(reader, McFixture::op(0, 5, false),
                   reader * 1000);
    coh.access(7, McFixture::op(0, 5, true), 100000);
    return coh.stats();
}

TEST(Multicast, SameInvalidationCountFewerPackets)
{
    auto unicast = shareThenWrite(false);
    auto multicast = shareThenWrite(true);

    // Every cached copy is invalidated either way.
    EXPECT_EQ(unicast.invalidations, multicast.invalidations);
    EXPECT_EQ(multicast.multicastInvs, 1u);
    EXPECT_EQ(unicast.multicastInvs, 0u);
    // Multicast collapses the per-sharer invalidation unicasts (6
    // sharers -> 1 packet saves 5).
    EXPECT_EQ(unicast.packetsSent - multicast.packetsSent, 5u);
}

TEST(Multicast, StateOutcomesMatchUnicast)
{
    for (bool multicast : {false, true}) {
        McFixture f(multicast);
        CoherenceController coh(8, f.params, f.net, f.recorder);
        std::uint64_t line =
            lineOf(placedAddr(2, 9ull << lineShift));

        coh.access(1, McFixture::op(2, 9, false), 0);
        coh.access(3, McFixture::op(2, 9, false), 100);
        coh.access(5, McFixture::op(2, 9, false), 200);
        coh.access(3, McFixture::op(2, 9, true), 300);

        auto e = coh.directory().find(line);
        ASSERT_TRUE(e.has_value());
        EXPECT_EQ(e->state(), DirState::Modified);
        EXPECT_EQ(e->owner(), 3);
        EXPECT_FALSE(coh.cacheState(1, line).has_value());
        EXPECT_FALSE(coh.cacheState(5, line).has_value());
        EXPECT_EQ(*coh.cacheState(3, line), LineState::Modified);
    }
}

TEST(Multicast, SingleSharerFallsBackToUnicast)
{
    McFixture f(true);
    CoherenceController coh(8, f.params, f.net, f.recorder);
    coh.access(1, McFixture::op(0, 3, false), 0);
    coh.access(4, McFixture::op(0, 3, true), 1000);
    EXPECT_EQ(coh.stats().multicastInvs, 0u); // one target: unicast
    EXPECT_EQ(coh.stats().invalidations, 1u);
}

TEST(Multicast, UpgradePathAlsoMulticasts)
{
    McFixture f(true);
    CoherenceController coh(8, f.params, f.net, f.recorder);
    for (int reader = 0; reader < 6; ++reader)
        coh.access(reader, McFixture::op(7, 2, false), reader * 500);
    // Reader 0 upgrades: the other five sharers get one multicast.
    coh.access(0, McFixture::op(7, 2, true), 10000);
    EXPECT_EQ(coh.stats().multicastInvs, 1u);
    EXPECT_EQ(coh.stats().upgrades, 1u);
}

TEST(Multicast, EndToEndRunIsFasterOrEqualOnSharingWorkload)
{
    // Hotspot reads + owner writes cause invalidation storms; the
    // multicast run must not be slower and must send fewer packets.
    auto run = [](bool multicast) {
        optics::SerpentineLayout layout{16, Meters(0.05)};
        noc::NetworkConfig net_config;
        noc::MnocNetwork net(layout, net_config);
        sim::SimConfig config;
        config.numCores = 16;
        config.memory.multicastInvalidations = multicast;
        workloads::WorkloadScale scale;
        scale.opsPerThread = 400;
        workloads::HotspotWorkload workload(scale, 2);
        return runSimulation(config, net, workload, 3);
    };
    auto unicast = run(false);
    auto multicast = run(true);
    EXPECT_LE(multicast.coherence.packetsSent,
              unicast.coherence.packetsSent);
    EXPECT_EQ(multicast.coherence.accesses,
              unicast.coherence.accesses);
}

} // namespace
