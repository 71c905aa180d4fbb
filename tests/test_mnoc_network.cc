/**
 * @file
 * Tests of the SWMR mNoC crossbar latency model, the shared channel
 * contention model, and the traffic recorder's epoch accumulator.
 */

#include <gtest/gtest.h>

#include <map>
#include <utility>
#include <vector>

#include "common/log.hh"
#include "common/prng.hh"
#include "noc/channel.hh"
#include "noc/mnoc_network.hh"

namespace {

using namespace mnoc;
using namespace mnoc::noc;

TEST(Channel, NoDelayWhenIdle)
{
    Channel ch;
    EXPECT_EQ(ch.book(100, 3), 103u);
    EXPECT_LT(ch.utilization(), 0.01);
}

TEST(Channel, QueueingDelayGrowsWithUtilization)
{
    Channel busy;
    // Saturate the window: many flits in a short interval.
    for (int i = 0; i < 600; ++i)
        busy.book(static_cast<Tick>(i), 3);
    Channel idle;
    Tick loaded = busy.book(600, 3);
    Tick unloaded = idle.book(600, 3);
    EXPECT_GT(loaded, unloaded);
    EXPECT_GT(busy.utilization(), 0.2);
}

TEST(Channel, UtilizationIsCapped)
{
    Channel ch;
    for (int i = 0; i < 10000; ++i)
        ch.book(1, 3);
    EXPECT_LE(ch.utilization(), 0.98);
    // Delay stays finite even under overload.
    EXPECT_LT(ch.book(1, 3), 1000u);
}

TEST(Channel, OldLoadAgesOut)
{
    Channel ch;
    for (int i = 0; i < 2000; ++i)
        ch.book(static_cast<Tick>(i), 3);
    double before = ch.utilization();
    ch.book(100000, 1); // two windows later
    EXPECT_LT(ch.utilization(), before);
}

TEST(Channel, ResetClearsState)
{
    Channel ch;
    for (int i = 0; i < 5000; ++i)
        ch.book(static_cast<Tick>(i), 3);
    ch.reset();
    EXPECT_EQ(ch.book(10, 2), 12u);
}

struct NetFixture
{
    optics::SerpentineLayout layout{256,
                                    optics::defaultWaveguideLength};
    NetworkConfig config;
    MnocNetwork net{layout, config};
};

TEST(MnocNetwork, ZeroLoadLatencyInPaperRange)
{
    // Table 2: optical link latency 1-9 cycles at 5 GHz on an 18 cm
    // serpentine.
    NetFixture f;
    EXPECT_EQ(f.net.zeroLoadLatency(0, 1), 1);
    EXPECT_EQ(f.net.zeroLoadLatency(0, 255), 9);
    EXPECT_EQ(f.net.zeroLoadLatency(0, 0), 0);
    for (int d = 1; d < 256; ++d) {
        int lat = f.net.zeroLoadLatency(0, d);
        EXPECT_GE(lat, 1);
        EXPECT_LE(lat, 9);
    }
}

TEST(MnocNetwork, LatencyGrowsWithDistance)
{
    NetFixture f;
    EXPECT_LE(f.net.zeroLoadLatency(100, 110),
              f.net.zeroLoadLatency(100, 200));
    EXPECT_EQ(f.net.zeroLoadLatency(30, 90),
              f.net.zeroLoadLatency(90, 30));
}

TEST(MnocNetwork, DeliverAddsSerializationAndFlight)
{
    NetFixture f;
    Packet pkt = makePacket(0, 255, PacketClass::Data);
    // Idle network: 3 flits of serialization + 9 cycles of flight.
    EXPECT_EQ(f.net.deliver(pkt, 1000), 1000u + 3 + 9);
}

TEST(MnocNetwork, SelfDeliveryIsFree)
{
    NetFixture f;
    Packet pkt = makePacket(5, 5, PacketClass::Control);
    EXPECT_EQ(f.net.deliver(pkt, 42), 42u);
}

TEST(MnocNetwork, SourceChannelCongestionDelaysOwnPackets)
{
    NetFixture f;
    Packet pkt = makePacket(7, 200, PacketClass::Data);
    // Load source 7's waveguide heavily within one window.
    for (int i = 0; i < 800; ++i)
        f.net.deliver(pkt, static_cast<Tick>(i));
    Tick congested = f.net.deliver(pkt, 900);

    f.net.reset();
    Tick fresh = f.net.deliver(pkt, 900);
    EXPECT_GT(congested, fresh);
}

TEST(MnocNetwork, DistinctSourcesDoNotContend)
{
    NetFixture f;
    // Saturate source 3.
    Packet hog = makePacket(3, 100, PacketClass::Data);
    for (int i = 0; i < 800; ++i)
        f.net.deliver(hog, static_cast<Tick>(i));
    // Source 4's delivery is unaffected (dedicated waveguides, one
    // receiver per waveguide at each destination).
    Packet other = makePacket(4, 100, PacketClass::Data);
    Tick t = f.net.deliver(other, 900);
    EXPECT_EQ(t, 900u + 3 + f.net.zeroLoadLatency(4, 100));
}

TEST(MnocNetwork, RejectsOutOfRangeEndpoints)
{
    NetFixture f;
    Packet bad = makePacket(-1, 3, PacketClass::Control);
    EXPECT_THROW(f.net.deliver(bad, 0), PanicError);
    bad = makePacket(0, 256, PacketClass::Control);
    EXPECT_THROW(f.net.deliver(bad, 0), PanicError);
}

TEST(Packet, FlitCountsMatchLineGeometry)
{
    // 64-byte lines over 256-bit flits: 2 payload + 1 header.
    EXPECT_EQ(flitsFor(PacketClass::Data), 3);
    EXPECT_EQ(flitsFor(PacketClass::Control), 1);
}

TEST(NetworkConfig, OpticalCyclesMatchesTableTwo)
{
    NetworkConfig config;
    // 18 cm at 10 cm/ns = 1.8 ns = 9 cycles at 5 GHz.
    EXPECT_EQ(config.opticalCycles(Meters(0.18)), 9);
    // Anything short still costs one cycle (O/E + E/O).
    EXPECT_EQ(config.opticalCycles(Meters(0.0001)), 1);
    EXPECT_EQ(config.opticalCycles(Meters(0.10)), 5);
}

/**
 * The epoch accumulator against the one it replaced, a per-epoch
 * std::map keyed by (src, dst): same windows, same cells, same
 * (src, dst) order.  70 nodes put the touched bitmap's row ends off
 * 64-bit word boundaries.
 */
TEST(TrafficRecorder, EpochsMatchOrderedMapAccumulator)
{
    constexpr int kNodes = 70;
    constexpr std::uint64_t kMsgsPerEpoch = 257;
    TrafficRecorder recorder(kNodes);
    recorder.enableEpochs(kMsgsPerEpoch);

    using Key = std::pair<int, int>;
    std::vector<std::map<Key, std::pair<std::uint64_t, std::uint64_t>>>
        want(1);
    Prng rng(23);
    for (std::uint64_t i = 0; i < 20 * kMsgsPerEpoch + 100; ++i) {
        Packet packet;
        // A hot corner plus uniform traffic: cells repeat in-epoch.
        int span = rng.below(2) ? 5 : kNodes;
        packet.src = static_cast<int>(rng.below(span));
        packet.dst = static_cast<int>(rng.below(span));
        packet.flits = 1 + static_cast<int>(rng.below(5));
        recorder.record(packet);
        auto &cell = want.back()[{packet.src, packet.dst}];
        cell.first += 1;
        cell.second += static_cast<std::uint64_t>(packet.flits);
        if ((i + 1) % kMsgsPerEpoch == 0)
            want.emplace_back();
    }

    EpochTraffic got = recorder.takeEpochs();
    ASSERT_EQ(got.epochs.size(), want.size());
    for (std::size_t e = 0; e < want.size(); ++e) {
        ASSERT_EQ(got.epochs[e].size(), want[e].size()) << "epoch " << e;
        std::size_t i = 0;
        for (const auto &[key, counts] : want[e]) {
            const EpochCell &cell = got.epochs[e][i++];
            EXPECT_EQ(cell.src, key.first);
            EXPECT_EQ(cell.dst, key.second);
            EXPECT_EQ(cell.packets, counts.first);
            EXPECT_EQ(cell.flits, counts.second);
        }
    }
    // The recorder is left empty: a second take has no epochs.
    EXPECT_TRUE(recorder.takeEpochs().empty());
}

} // namespace
