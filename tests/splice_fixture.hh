/**
 * @file
 * The 256-node phase-splice fixture behind the golden explain
 * renders (tests/data/golden_explain/): a deterministic trace and
 * the design/policy pair the adaptive controller runs it with.
 * Shared by the journal golden tests and the adaptive pricing tests.
 */

#ifndef MNOC_TESTS_SPLICE_FIXTURE_HH
#define MNOC_TESTS_SPLICE_FIXTURE_HH

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/designer.hh"
#include "runtime/adaptive_controller.hh"
#include "sim/trace.hh"

namespace mnoc::test {

constexpr int kFixtureNodes = 256;

/**
 * Deterministic 256-node phase-splice trace with a pinned manifest:
 * a nearest-neighbor phase spliced onto a diameter-haul phase at
 * epoch 24, constant within each phase, so the adaptive controller's
 * decision sequence -- and therefore the journal -- is exactly
 * reproducible (the fixture behind the golden explain renders).
 */
inline sim::Trace
spliceTrace256()
{
    constexpr std::size_t kNeighborEpochs = 24;
    constexpr std::size_t kLongHaulEpochs = 24;
    sim::Trace t;
    t.workloadName = "splice_fixture_256";
    t.networkName = "mNoC";
    t.totalTicks = 480000;
    t.packets = CountMatrix(kFixtureNodes, kFixtureNodes, 0);
    t.flits = CountMatrix(kFixtureNodes, kFixtureNodes, 0);
    t.manifest.seed = 9;
    t.manifest.gitSha = "0000000";
    t.manifest.configDigest = "feedfacefeedface";
    t.manifest.env.emplace_back("MNOC_THREADS", "4");
    t.epochs.messagesPerEpoch = 2 * kFixtureNodes;
    for (std::size_t e = 0; e < kNeighborEpochs + kLongHaulEpochs;
         ++e) {
        std::vector<noc::EpochCell> cells;
        for (int s = 0; s < kFixtureNodes; ++s) {
            int dst = e < kNeighborEpochs
                          ? (s + 1) % kFixtureNodes
                          : (s + kFixtureNodes / 2) % kFixtureNodes;
            auto flits = static_cast<std::uint64_t>(
                4 + (static_cast<std::size_t>(s) * 7 + e) % 5);
            cells.push_back({s, dst, 2, flits});
            t.packets(s, dst) += 2;
            t.flits(s, dst) += flits;
        }
        t.epochs.epochs.push_back(std::move(cells));
    }
    return t;
}

/** The fixture design/policy pair: a distance-based two-mode design
 *  solved for the neighbor phase, with comm-aware challengers. */
struct SpliceFixture
{
    optics::SerpentineLayout layout{kFixtureNodes, Meters(0.08)};
    optics::DeviceParams params;
    optics::OpticalCrossbar xbar{layout, params};
    core::Designer designer{xbar};

    core::MnocDesign
    design() const
    {
        core::DesignSpec spec;
        spec.numModes = 2;
        spec.assignment = core::Assignment::DistanceBased;
        spec.weights = core::WeightSource::DesignFlow;
        FlowMatrix flow(kFixtureNodes, kFixtureNodes, 0.1);
        for (int i = 0; i < kFixtureNodes; ++i) {
            flow(i, i) = 0.0;
            flow(i, (i + 1) % kFixtureNodes) = 50.0;
        }
        auto topology = designer.buildTopology(spec, flow);
        return designer.buildDesign(spec, topology, flow,
                                    DecibelLoss(2.0));
    }

    runtime::AdaptivePolicy
    policy() const
    {
        runtime::AdaptivePolicy out;
        out.trafficWindow = 8;
        out.phaseChangeThreshold = 0.5;
        out.epochsToSwitch = 2;
        out.maxCandidates = 4;
        out.candidateSpec.numModes = 2;
        out.candidateSpec.assignment = core::Assignment::CommAware;
        out.candidateSpec.weights = core::WeightSource::DesignFlow;
        out.candidateMargin = DecibelLoss(2.0);
        return out;
    }
};

} // namespace mnoc::test

#endif // MNOC_TESTS_SPLICE_FIXTURE_HH
