/**
 * @file
 * Simulator goldens: every coherence counter, the run length, and
 * digests of the packet and flit matrices and of the attribution
 * epochs, pinned for four runs.  The values were produced by the
 * simulator before its directory, cache sets and epoch accumulator
 * were rebuilt, so any change to what the simulator computes shows
 * here, in tier 1, not only in the pipeline benchmark's pins.
 *
 * The runs: the phase-splice fixture at 64 cores, radix at 1024 cores
 * (16-word sharer rows, many directory homes), and a tiny-cache
 * geometry that forces L2 evictions, dirty writebacks and
 * Owned->Modified collapses, with multicast invalidations off and on.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/metrics.hh"
#include "noc/mnoc_network.hh"
#include "sim/simulator.hh"
#include "workloads/registry.hh"

namespace {

using namespace mnoc;
using namespace mnoc::sim;

/** Incremental FNV-1a 64 over little-endian 64-bit words. */
struct Fnv
{
    std::uint64_t hash = 0xcbf29ce484222325ULL;

    void
    add(std::uint64_t word)
    {
        for (int byte = 0; byte < 8; ++byte) {
            hash ^= (word >> (8 * byte)) & 0xffu;
            hash *= 0x100000001b3ULL;
        }
    }
};

std::uint64_t
digest(const CountMatrix &m)
{
    Fnv fnv;
    for (std::size_t r = 0; r < m.rows(); ++r)
        for (std::size_t c = 0; c < m.cols(); ++c)
            fnv.add(m(r, c));
    return fnv.hash;
}

std::uint64_t
digest(const noc::EpochTraffic &epochs)
{
    Fnv fnv;
    fnv.add(epochs.epochs.size());
    for (const auto &cells : epochs.epochs) {
        fnv.add(cells.size());
        for (const noc::EpochCell &cell : cells) {
            fnv.add(static_cast<std::uint64_t>(cell.src));
            fnv.add(static_cast<std::uint64_t>(cell.dst));
            fnv.add(cell.packets);
            fnv.add(cell.flits);
        }
    }
    return fnv.hash;
}

/** Everything a golden pins about one run. */
struct Golden
{
    std::vector<std::uint64_t> stats; ///< CoherenceStats, in order
    std::uint64_t totalTicks;
    std::uint64_t packets;
    std::uint64_t flits;
    std::uint64_t epochs;
};

struct RunSpec
{
    std::string benchmark;
    int cores;
    int ops;
    std::uint64_t seed;
    MemoryParams memory;
};

Golden
simulate(const RunSpec &spec)
{
    optics::SerpentineLayout layout(
        spec.cores, optics::defaultWaveguideLength * spec.cores / 256.0);
    noc::NetworkConfig net_config;
    noc::MnocNetwork network(layout, net_config);
    SimConfig config;
    config.numCores = spec.cores;
    config.memory = spec.memory;
    workloads::WorkloadScale scale;
    scale.opsPerThread = spec.ops;
    auto workload = workloads::makeWorkload(spec.benchmark, scale);

    bool ledger = ledgerEnabled();
    setLedgerEnabled(true);
    SimulationResult result =
        runSimulation(config, network, *workload, spec.seed);
    setLedgerEnabled(ledger);

    const CoherenceStats &s = result.coherence;
    return Golden{{s.accesses, s.l1Hits, s.l2Hits, s.gets, s.getx,
                   s.upgrades, s.invalidations, s.multicastInvs,
                   s.cacheToCache, s.writebacks, s.memoryFetches,
                   s.packetsSent, s.packetLatencySum},
                  result.totalTicks, digest(result.packets),
                  digest(result.flits), digest(result.epochs)};
}

void
expectGolden(const Golden &got, const Golden &want)
{
    EXPECT_EQ(got.stats, want.stats);
    EXPECT_EQ(got.totalTicks, want.totalTicks);
    EXPECT_EQ(got.packets, want.packets);
    EXPECT_EQ(got.flits, want.flits);
    // The epoch digest pins the default window of 1024 messages.
    if (ledgerEpochMessages() == 1024) {
        EXPECT_EQ(got.epochs, want.epochs);
    }
}

/**
 * 8 KB L2 and 1 KB L1, two ways each: constant L2 evictions.  The
 * barnes run below writes back 4 541 dirty lines and collapses 77
 * Owned lines to Modified as their last sharer leaves.
 */
MemoryParams
tinyCaches(bool multicast)
{
    MemoryParams memory;
    memory.l1 = CacheGeometry{1024, 2};
    memory.l2 = CacheGeometry{8 * 1024, 2};
    memory.multicastInvalidations = multicast;
    return memory;
}

TEST(SimGolden, SpliceBarnesRadix64)
{
    Golden got = simulate({"splice:barnes+radix", 64, 300, 9, {}});
    expectGolden(got, {{269172, 10078, 8641, 40896, 196184, 13373, 22516,
                        0, 23004, 555, 214076, 429633, 2523229},
                       96073,
                       7228263571239758972ULL,
                       7240992773298930355ULL,
                       7393710169279995915ULL});
}

TEST(SimGolden, Radix1024)
{
    Golden got = simulate({"radix", 1024, 8, 3, {}});
    expectGolden(got, {{110580, 1299, 0, 24462, 83976, 843, 4489,
                        0, 3093, 17, 105345, 188745, 2789628},
                       5426,
                       9579867268992389646ULL,
                       15878044650069080486ULL,
                       17246480320666114268ULL});
}

TEST(SimGolden, TinyCachesUnicastInvalidations)
{
    Golden got = simulate({"barnes", 16, 600, 5, tinyCaches(false)});
    expectGolden(got, {{18048, 2229, 966, 8511, 726, 5616, 953,
                        0, 777, 4541, 8460, 7692, 21170},
                       53917,
                       16407432470277027269ULL,
                       687238259689453119ULL,
                       6205897994482008695ULL});
}

TEST(SimGolden, TinyCachesMulticastInvalidations)
{
    Golden got = simulate({"barnes", 16, 600, 5, tinyCaches(true)});
    expectGolden(got, {{18048, 2229, 966, 8511, 726, 5616, 953,
                        284, 777, 4541, 8460, 7279, 20344},
                       53917,
                       16757607615813309686ULL,
                       10737301282574820520ULL,
                       11182119718563875403ULL});
}

} // namespace
