/**
 * @file
 * Protocol-level tests of the MOSI coherence controller: state
 * transitions, traffic generation, and timing composition.
 */

#include <gtest/gtest.h>

#include "noc/mnoc_network.hh"
#include "sim/coherence.hh"

namespace {

using namespace mnoc;
using namespace mnoc::sim;

struct CohFixture
{
    optics::SerpentineLayout layout{4, Meters(0.01)};
    noc::NetworkConfig netConfig;
    noc::MnocNetwork net{layout, netConfig};
    noc::TrafficRecorder recorder{4};
    MemoryParams params;
    CoherenceController coh{4, params, net, recorder};

    static MemOp
    readOf(int owner, std::uint64_t line)
    {
        MemOp op;
        op.addr = placedAddr(owner, line << lineShift);
        return op;
    }

    static MemOp
    writeOf(int owner, std::uint64_t line)
    {
        MemOp op = readOf(owner, line);
        op.write = true;
        return op;
    }

    std::uint64_t
    lineId(int owner, std::uint64_t line) const
    {
        return lineOf(placedAddr(owner, line << lineShift));
    }
};

TEST(Coherence, ColdReadInstallsShared)
{
    CohFixture f;
    noc::Tick done = f.coh.access(0, CohFixture::readOf(1, 5), 0);
    EXPECT_GT(done, static_cast<noc::Tick>(f.params.memCycles));

    auto state = f.coh.cacheState(0, f.lineId(1, 5));
    ASSERT_TRUE(state.has_value());
    EXPECT_EQ(*state, LineState::Shared);

    auto e = f.coh.directory().find(f.lineId(1, 5));
    ASSERT_TRUE(e.has_value());
    EXPECT_EQ(e->state(), DirState::Shared);
    EXPECT_TRUE(e->sharers().contains(0));
    EXPECT_EQ(f.coh.stats().gets, 1u);
    EXPECT_EQ(f.coh.stats().memoryFetches, 1u);
    // Request to home 1 plus data back: two packets.
    EXPECT_EQ(f.coh.stats().packetsSent, 2u);
    EXPECT_EQ(f.recorder.packets()(0, 1), 1u);
    EXPECT_EQ(f.recorder.packets()(1, 0), 1u);
}

TEST(Coherence, LocalHomeNeedsNoNetwork)
{
    CohFixture f;
    f.coh.access(2, CohFixture::readOf(2, 9), 0);
    EXPECT_EQ(f.coh.stats().packetsSent, 0u);
    EXPECT_EQ(f.recorder.totalPackets(), 0u);
}

TEST(Coherence, SecondReadHitsInCache)
{
    CohFixture f;
    f.coh.access(0, CohFixture::readOf(1, 5), 0);
    auto packets_before = f.coh.stats().packetsSent;
    noc::Tick done = f.coh.access(0, CohFixture::readOf(1, 5), 1000);
    EXPECT_EQ(done, 1000u + f.params.l1Cycles);
    EXPECT_EQ(f.coh.stats().packetsSent, packets_before);
    EXPECT_EQ(f.coh.stats().l1Hits, 1u);
}

TEST(Coherence, WriteMissInstallsModified)
{
    CohFixture f;
    f.coh.access(0, CohFixture::writeOf(1, 5), 0);
    EXPECT_EQ(*f.coh.cacheState(0, f.lineId(1, 5)),
              LineState::Modified);
    auto e = f.coh.directory().find(f.lineId(1, 5));
    EXPECT_EQ(e->state(), DirState::Modified);
    EXPECT_EQ(e->owner(), 0);
    EXPECT_EQ(f.coh.stats().getx, 1u);
}

TEST(Coherence, ReadFromModifiedForwardsAndDowngrades)
{
    CohFixture f;
    f.coh.access(0, CohFixture::writeOf(3, 7), 0);
    auto c2c_before = f.coh.stats().cacheToCache;
    f.coh.access(1, CohFixture::readOf(3, 7), 100);

    EXPECT_EQ(f.coh.stats().cacheToCache, c2c_before + 1);
    EXPECT_EQ(*f.coh.cacheState(0, f.lineId(3, 7)), LineState::Owned);
    EXPECT_EQ(*f.coh.cacheState(1, f.lineId(3, 7)), LineState::Shared);
    auto e = f.coh.directory().find(f.lineId(3, 7));
    EXPECT_EQ(e->state(), DirState::Owned);
    EXPECT_EQ(e->owner(), 0);
    EXPECT_EQ(e->sharers().count(), 2);
    // The data came from the owner, not memory.
    EXPECT_EQ(f.coh.stats().memoryFetches, 1u); // only the initial GETX
}

TEST(Coherence, WriteInvalidatesAllSharers)
{
    CohFixture f;
    f.coh.access(0, CohFixture::readOf(2, 4), 0);
    f.coh.access(1, CohFixture::readOf(2, 4), 50);
    f.coh.access(3, CohFixture::readOf(2, 4), 100);

    auto inv_before = f.coh.stats().invalidations;
    f.coh.access(1, CohFixture::writeOf(2, 4), 200);

    EXPECT_EQ(f.coh.stats().invalidations, inv_before + 2);
    EXPECT_FALSE(f.coh.cacheState(0, f.lineId(2, 4)).has_value());
    EXPECT_FALSE(f.coh.cacheState(3, f.lineId(2, 4)).has_value());
    EXPECT_EQ(*f.coh.cacheState(1, f.lineId(2, 4)),
              LineState::Modified);
    auto e = f.coh.directory().find(f.lineId(2, 4));
    EXPECT_EQ(e->state(), DirState::Modified);
    EXPECT_EQ(e->owner(), 1);
    EXPECT_EQ(e->sharers().count(), 1);
}

TEST(Coherence, UpgradeOnOwnSharedLineCountsUpgrade)
{
    CohFixture f;
    f.coh.access(0, CohFixture::readOf(1, 6), 0);
    f.coh.access(0, CohFixture::writeOf(1, 6), 100);
    EXPECT_EQ(f.coh.stats().upgrades, 1u);
    EXPECT_EQ(f.coh.stats().getx, 0u);
    EXPECT_EQ(*f.coh.cacheState(0, f.lineId(1, 6)),
              LineState::Modified);
}

TEST(Coherence, WriteToModifiedLineElsewhereTransfersOwnership)
{
    CohFixture f;
    f.coh.access(0, CohFixture::writeOf(2, 8), 0);
    f.coh.access(3, CohFixture::writeOf(2, 8), 100);

    EXPECT_FALSE(f.coh.cacheState(0, f.lineId(2, 8)).has_value());
    EXPECT_EQ(*f.coh.cacheState(3, f.lineId(2, 8)),
              LineState::Modified);
    auto e = f.coh.directory().find(f.lineId(2, 8));
    EXPECT_EQ(e->owner(), 3);
    EXPECT_EQ(f.coh.stats().cacheToCache, 1u);
}

TEST(Coherence, DirtyEvictionWritesBack)
{
    // Use a tiny L2 so fills force evictions quickly.
    CohFixture f;
    MemoryParams small = f.params;
    small.l1 = CacheGeometry{256, 2};  // 2 sets x 2 ways
    small.l2 = CacheGeometry{512, 2};  // 4 sets x 2 ways = 8 lines
    noc::TrafficRecorder recorder(4);
    CoherenceController coh(4, small, f.net, recorder);

    // Dirty 16 distinct remote lines: at most 8 fit, so at least 8
    // dirty evictions must have written back.
    for (std::uint64_t i = 0; i < 16; ++i)
        coh.access(0, CohFixture::writeOf(1, i), i * 1000);
    EXPECT_GE(coh.stats().writebacks, 8u);

    // Every written-back line left the directory consistent.
    for (std::uint64_t i = 0; i < 16; ++i) {
        std::uint64_t line =
            lineOf(placedAddr(1, i << lineShift));
        auto e = coh.directory().find(line);
        ASSERT_TRUE(e.has_value());
        if (!coh.cacheState(0, line).has_value())
            EXPECT_EQ(e->state(), DirState::Invalid);
        else
            EXPECT_EQ(e->state(), DirState::Modified);
    }
}

TEST(Coherence, TimingCompositionOrdersLatencies)
{
    CohFixture f;
    // L1 hit < L2 hit < remote miss.
    f.coh.access(0, CohFixture::readOf(1, 3), 0);
    noc::Tick l1 = f.coh.access(0, CohFixture::readOf(1, 3), 1000) -
                   1000;

    // Evict from L1 by touching conflicting lines (L1 128 sets; use
    // big strides) -- simpler: a fresh remote line is a full miss.
    noc::Tick miss = f.coh.access(0, CohFixture::readOf(2, 77), 2000) -
                     2000;
    EXPECT_LT(l1, miss);
    EXPECT_GE(miss, static_cast<noc::Tick>(f.params.memCycles));
}

TEST(Coherence, HomeMapMovesDirectoryTraffic)
{
    CohFixture f;
    // Map thread 1's data onto core 3.
    f.coh.setHomeMap({0, 3, 2, 1});
    f.coh.access(0, CohFixture::readOf(1, 5), 0);
    // The request went to core 3, not core 1.
    EXPECT_EQ(f.recorder.packets()(0, 3), 1u);
    EXPECT_EQ(f.recorder.packets()(0, 1), 0u);
}

TEST(Coherence, StatsAccumulateAcrossAccesses)
{
    CohFixture f;
    for (int i = 0; i < 10; ++i)
        f.coh.access(0, CohFixture::readOf(1, i), i * 500);
    EXPECT_EQ(f.coh.stats().accesses, 10u);
    EXPECT_EQ(f.coh.stats().gets, 10u);
    EXPECT_EQ(f.recorder.packets()(0, 1), 10u);
    // Data packets are 3 flits each.
    EXPECT_EQ(f.recorder.flits()(1, 0), 30u);
}

} // namespace
