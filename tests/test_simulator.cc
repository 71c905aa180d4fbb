/**
 * @file
 * Tests of the event-driven simulator: determinism, thread mapping,
 * store-buffer overlap, and traffic capture.
 */

#include <gtest/gtest.h>

#include "common/knobs.hh"
#include "common/log.hh"
#include "noc/mnoc_network.hh"
#include "sim/simulator.hh"
#include "workloads/synthetic.hh"

namespace {

using namespace mnoc;
using namespace mnoc::sim;

struct SimFixture
{
    int n = 16;
    optics::SerpentineLayout layout{16, Meters(0.05)};
    noc::NetworkConfig netConfig;
    noc::MnocNetwork net{layout, netConfig};

    SimConfig
    config() const
    {
        SimConfig c;
        c.numCores = n;
        return c;
    }
};

TEST(Simulator, DeterministicAcrossRuns)
{
    SimFixture f;
    workloads::WorkloadScale scale;
    scale.opsPerThread = 200;
    workloads::UniformWorkload w1(scale);
    workloads::UniformWorkload w2(scale);

    auto a = runSimulation(f.config(), f.net, w1, 7);
    auto b = runSimulation(f.config(), f.net, w2, 7);
    EXPECT_EQ(a.totalTicks, b.totalTicks);
    EXPECT_TRUE(a.packets == b.packets);
    EXPECT_TRUE(a.flits == b.flits);
    EXPECT_EQ(a.coherence.packetsSent, b.coherence.packetsSent);
}

TEST(Simulator, SeedChangesTraffic)
{
    SimFixture f;
    workloads::WorkloadScale scale;
    scale.opsPerThread = 200;
    workloads::UniformWorkload w(scale);
    auto a = runSimulation(f.config(), f.net, w, 1);
    auto b = runSimulation(f.config(), f.net, w, 2);
    EXPECT_FALSE(a.packets == b.packets);
}

TEST(Simulator, CapturesEpochsWhenLedgerEnabled)
{
    SimFixture f;
    workloads::WorkloadScale scale;
    scale.opsPerThread = 200;
    workloads::UniformWorkload w1(scale);
    workloads::UniformWorkload w2(scale);

    bool before = ledgerEnabled();
    setLedgerEnabled(true);
    auto a = runSimulation(f.config(), f.net, w1, 7);
    auto b = runSimulation(f.config(), f.net, w2, 7);
    setLedgerEnabled(before);

    ASSERT_FALSE(a.epochs.empty());
    EXPECT_EQ(a.epochs.messagesPerEpoch, ledgerEpochMessages());

    // Epoch cells canonically sorted, and their flits total exactly
    // the traffic matrix: the buckets are a partition, not a sample.
    std::uint64_t epoch_flits = 0;
    for (const auto &cells : a.epochs.epochs) {
        for (std::size_t i = 1; i < cells.size(); ++i) {
            bool ordered =
                cells[i - 1].src < cells[i].src ||
                (cells[i - 1].src == cells[i].src &&
                 cells[i - 1].dst < cells[i].dst);
            EXPECT_TRUE(ordered) << "epoch cells out of order";
        }
        for (const auto &cell : cells)
            epoch_flits += cell.flits;
    }
    std::uint64_t matrix_flits = 0;
    for (int s = 0; s < 16; ++s)
        for (int d = 0; d < 16; ++d)
            matrix_flits += a.flits(s, d);
    EXPECT_EQ(epoch_flits, matrix_flits);

    // Same seed, same epochs: capture is deterministic.
    ASSERT_EQ(a.epochs.epochs.size(), b.epochs.epochs.size());
    for (std::size_t e = 0; e < a.epochs.epochs.size(); ++e) {
        const auto &ca = a.epochs.epochs[e];
        const auto &cb = b.epochs.epochs[e];
        ASSERT_EQ(ca.size(), cb.size()) << "epoch " << e;
        for (std::size_t i = 0; i < ca.size(); ++i) {
            EXPECT_EQ(ca[i].src, cb[i].src);
            EXPECT_EQ(ca[i].dst, cb[i].dst);
            EXPECT_EQ(ca[i].packets, cb[i].packets);
            EXPECT_EQ(ca[i].flits, cb[i].flits);
        }
    }
}

TEST(Simulator, LedgerDisabledCapturesNoEpochs)
{
    SimFixture f;
    workloads::WorkloadScale scale;
    scale.opsPerThread = 50;
    workloads::UniformWorkload w(scale);
    bool before = ledgerEnabled();
    setLedgerEnabled(false);
    auto result = runSimulation(f.config(), f.net, w, 7);
    setLedgerEnabled(before);
    EXPECT_TRUE(result.epochs.empty());
    EXPECT_EQ(result.epochs.messagesPerEpoch, 0u);
}

TEST(Simulator, RunsAllOps)
{
    SimFixture f;
    workloads::WorkloadScale scale;
    scale.opsPerThread = 123;
    workloads::RingWorkload w(scale);
    auto result = runSimulation(f.config(), f.net, w, 1);
    EXPECT_EQ(result.coherence.accesses,
              static_cast<std::uint64_t>(16 * 123));
    EXPECT_GT(result.totalTicks, 0u);
}

TEST(Simulator, RingTrafficIsNeighbourOnly)
{
    SimFixture f;
    workloads::WorkloadScale scale;
    scale.opsPerThread = 400;
    workloads::RingWorkload w(scale);
    auto result = runSimulation(f.config(), f.net, w, 3);

    // Traffic concentrates on (t, t+1) pairs: data flows between the
    // reader and the line owner's home (plus coherence control).
    std::uint64_t neighbour = 0;
    std::uint64_t total = 0;
    for (int s = 0; s < 16; ++s) {
        for (int d = 0; d < 16; ++d) {
            total += result.packets(s, d);
            int gap = std::min((s - d + 16) % 16, (d - s + 16) % 16);
            if (gap <= 1)
                neighbour += result.packets(s, d);
        }
    }
    EXPECT_GT(total, 0u);
    EXPECT_GT(static_cast<double>(neighbour) /
                  static_cast<double>(total),
              0.95);
}

TEST(Simulator, ThreadMappingPermutesTraffic)
{
    SimFixture f;
    workloads::WorkloadScale scale;
    scale.opsPerThread = 300;
    workloads::RingWorkload w(scale);

    auto identity = runSimulation(f.config(), f.net, w, 5);

    // Reverse mapping: thread t runs on core 15 - t; first-touch homes
    // move with the threads, so the traffic matrix is the permuted
    // image of the identity run.
    SimConfig mapped_config = f.config();
    mapped_config.threadToCore.resize(16);
    for (int t = 0; t < 16; ++t)
        mapped_config.threadToCore[t] = 15 - t;
    auto mapped = runSimulation(mapped_config, f.net, w, 5);

    for (int s = 0; s < 16; ++s)
        for (int d = 0; d < 16; ++d)
            EXPECT_EQ(mapped.packets(15 - s, 15 - d),
                      identity.packets(s, d))
                << s << "->" << d;
}

TEST(Simulator, StoreBufferOverlapsStores)
{
    SimFixture f;
    // A write-heavy workload finishes much faster with a store buffer.
    class WriteHeavy : public workloads::GeneratedWorkload
    {
      public:
        WriteHeavy() : GeneratedWorkload({}) {}
        std::string name() const override { return "writes"; }

      protected:
        void
        generate(int n, Prng &rng) override
        {
            for (int t = 0; t < n; ++t) {
                Prng trng(rng() ^ static_cast<std::uint64_t>(t));
                for (int i = 0; i < 300; ++i)
                    write(t, static_cast<int>(trng.below(n)),
                          1000 + trng.below(1u << 16), 0);
            }
        }
    };

    WriteHeavy w1, w2;
    SimConfig blocking = f.config();
    blocking.storeBufferDepth = 0;
    SimConfig overlapped = f.config();
    overlapped.storeBufferDepth = 16;

    auto slow = runSimulation(blocking, f.net, w1, 9);
    auto fast = runSimulation(overlapped, f.net, w2, 9);
    EXPECT_LT(fast.totalTicks, slow.totalTicks / 2);
    // Same traffic either way.
    EXPECT_EQ(slow.coherence.accesses, fast.coherence.accesses);
}

TEST(Simulator, RejectsBadMappings)
{
    SimFixture f;
    workloads::UniformWorkload w;
    SimConfig config = f.config();
    config.threadToCore = {0, 1, 2}; // wrong size
    EXPECT_THROW(runSimulation(config, f.net, w, 1), FatalError);
    config.threadToCore.assign(16, 0); // not a permutation
    EXPECT_THROW(runSimulation(config, f.net, w, 1), FatalError);
}

TEST(Simulator, AveragePacketLatencyIsPlausible)
{
    SimFixture f;
    workloads::WorkloadScale scale;
    scale.opsPerThread = 200;
    workloads::UniformWorkload w(scale);
    auto result = runSimulation(f.config(), f.net, w, 11);
    EXPECT_GT(result.avgPacketLatency, 1.0);
    EXPECT_LT(result.avgPacketLatency, 500.0);
    EXPECT_EQ(result.networkName, "mNoC");
    EXPECT_EQ(result.workloadName, "uniform");
}

} // namespace
