/**
 * @file
 * Tests of the runtime fault-injection engine: deterministic
 * timeline generation and composition, the epoch-boundary
 * degradation controller's rule table (trim, failover/restore,
 * collapse, fatal), hysteresis, and the reconfiguration-cost
 * accounting through the energy ledger.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "common/log.hh"
#include "core/designer.hh"
#include "core/energy_ledger.hh"
#include "faults/variation.hh"
#include "optics/link_budget.hh"
#include "optics/splitter_chain.hh"
#include "runtime/degradation_controller.hh"
#include "runtime/fault_timeline.hh"

namespace {

using namespace mnoc;
using namespace mnoc::runtime;

/** 16-node fixture mirroring tests/test_faults.cc. */
struct RuntimeFixture
{
    static constexpr int kNodes = 16;
    optics::SerpentineLayout layout{kNodes, Meters(0.05)};
    optics::DeviceParams params;
    optics::OpticalCrossbar xbar{layout, params};
    core::Designer designer{xbar};

    core::MnocDesign
    twoModeDesign(DecibelLoss margin) const
    {
        core::DesignSpec spec;
        spec.numModes = 2;
        spec.assignment = core::Assignment::DistanceBased;
        spec.weights = core::WeightSource::DesignFlow;
        FlowMatrix flow(kNodes, kNodes, 0.1);
        for (int i = 0; i < kNodes; ++i) {
            flow(i, i) = 0.0;
            flow(i, (i + 1) % kNodes) = 50.0;
        }
        auto topology = designer.buildTopology(spec, flow);
        return designer.buildDesign(spec, topology, flow, margin);
    }

    faults::DeviceVariation
    identityVariation() const
    {
        Prng prng(1);
        return faults::drawVariation(
            faults::VariationSpec{}.scaled(0.0), params, kNodes,
            prng);
    }
};

/** Spec with every rate zeroed; tests switch on one kind at a time
 *  so the controller's response is attributable. */
FaultTimelineSpec
quietSpec()
{
    FaultTimelineSpec spec;
    spec.thermalDriftRate = 0.0;
    spec.laserDroopRate = 0.0;
    spec.splitterAgingRate = 0.0;
    spec.receiverDriftRate = 0.0;
    spec.deadModeRate = 0.0;
    return spec;
}

TEST(FaultTimeline, GenerationIsSeededAndCanonical)
{
    FaultTimelineSpec spec;
    FaultTimeline a(spec, 16, 4, 40, 7);
    FaultTimeline b(spec, 16, 4, 40, 7);
    ASSERT_EQ(a.events().size(), b.events().size());
    for (std::size_t i = 0; i < a.events().size(); ++i) {
        EXPECT_EQ(a.events()[i].kind, b.events()[i].kind);
        EXPECT_EQ(a.events()[i].startEpoch, b.events()[i].startEpoch);
        EXPECT_EQ(a.events()[i].endEpoch, b.events()[i].endEpoch);
        EXPECT_EQ(a.events()[i].node, b.events()[i].node);
        EXPECT_EQ(a.events()[i].mode, b.events()[i].mode);
        EXPECT_EQ(a.events()[i].magnitude, b.events()[i].magnitude);
    }

    // Expected count: round(rate * epochs) summed over the kinds.
    std::size_t expected = 0;
    for (double rate :
         {spec.thermalDriftRate, spec.laserDroopRate,
          spec.splitterAgingRate, spec.receiverDriftRate,
          spec.deadModeRate})
        expected += static_cast<std::size_t>(
            std::llround(rate * 40.0));
    EXPECT_EQ(a.events().size(), expected);
    EXPECT_GT(expected, 0u);

    // Canonical order and well-formed windows/targets.
    for (std::size_t i = 0; i < a.events().size(); ++i) {
        const FaultEvent &event = a.events()[i];
        if (i > 0) {
            EXPECT_LE(a.events()[i - 1].startEpoch,
                      event.startEpoch);
        }
        EXPECT_LT(event.startEpoch, 40u);
        EXPECT_GT(event.endEpoch, event.startEpoch);
        EXPECT_LE(event.endEpoch, 40u);
        if (event.kind == FaultKind::DeadMode) {
            EXPECT_GE(event.mode, 0);
            EXPECT_LT(event.mode, 3); // broadcast mode never dies
        }
        if (event.kind == FaultKind::ReceiverDrift) {
            EXPECT_EQ(event.node, -1);
        }
    }

    // A different seed draws a different schedule.
    FaultTimeline c(spec, 16, 4, 40, 8);
    bool same = a.events().size() == c.events().size();
    if (same)
        for (std::size_t i = 0; i < a.events().size(); ++i)
            same = same && a.events()[i].startEpoch ==
                               c.events()[i].startEpoch &&
                   a.events()[i].magnitude == c.events()[i].magnitude;
    EXPECT_FALSE(same);

    // Broadcast-only designs get no dead-mode events.
    FaultTimeline solo(spec, 16, 1, 40, 7);
    for (const FaultEvent &event : solo.events())
        EXPECT_NE(event.kind, FaultKind::DeadMode);
}

TEST(FaultTimeline, StateComposesActiveEventsOnly)
{
    auto spec = quietSpec();
    spec.thermalDriftRate = 0.2;
    spec.thermalDriftEpochs = 5;
    FaultTimeline timeline(spec, 16, 2, 30, 11);
    ASSERT_FALSE(timeline.events().empty());

    // activeEvents integrated over epochs equals the sum of window
    // lengths, and the triangular ramp peaks inside each window.
    std::size_t active_epochs = 0;
    for (std::size_t e = 0; e < 30; ++e)
        active_epochs += static_cast<std::size_t>(
            timeline.stateAt(e).activeEvents);
    std::size_t window_sum = 0;
    for (const FaultEvent &event : timeline.events())
        window_sum += event.endEpoch - event.startEpoch;
    EXPECT_EQ(active_epochs, window_sum);

    const FaultEvent &event = timeline.events().front();
    std::size_t mid =
        event.startEpoch + (event.endEpoch - event.startEpoch) / 2;
    auto node = static_cast<std::size_t>(event.node);
    auto at = [&](std::size_t e) {
        return timeline.stateAt(e).thermalSkew[node].dB();
    };
    EXPECT_GT(at(mid), 0.0);
    EXPECT_GE(at(mid), at(event.startEpoch));
    // Outside every window the state is the identity.
    FaultTimeline none(quietSpec(), 16, 2, 4, 3);
    auto idle = none.stateAt(0);
    EXPECT_EQ(idle.activeEvents, 0);
    EXPECT_EQ(idle.receiverSkew.dB(), 0.0);
    for (int s = 0; s < 16; ++s) {
        auto slot = static_cast<std::size_t>(s);
        EXPECT_EQ(idle.thermalSkew[slot].dB(), 0.0);
        EXPECT_EQ(idle.ledScale[slot], 1.0);
        EXPECT_EQ(idle.splitterAgeScale[slot], 1.0);
        EXPECT_EQ(idle.deadModes[slot], 0u);
    }
}

TEST(FaultTimeline, ValidationRejectsNonsense)
{
    FaultTimelineSpec spec;
    EXPECT_THROW(spec.scaled(-1.0), FatalError);
    spec.laserDroopStep = 1.5;
    EXPECT_THROW(spec.validate(), FatalError);
    spec = FaultTimelineSpec{};
    EXPECT_THROW(FaultTimeline(spec, 0, 2, 8, 1), FatalError);
    EXPECT_THROW(FaultTimeline(spec, 16, 0, 8, 1), FatalError);
    EXPECT_THROW(FaultTimeline(spec, 16, 33, 8, 1), FatalError);
    EXPECT_THROW(FaultTimeline(spec, 16, 2, 0, 1), FatalError);
}

TEST(Controller, QuietTimelineFiresNoRules)
{
    RuntimeFixture fx;
    auto design = fx.twoModeDesign(DecibelLoss(0.5));
    auto variation = fx.identityVariation();
    FaultTimeline timeline(quietSpec(), RuntimeFixture::kNodes, 2, 6,
                           1);
    DegradationPolicy policy;
    auto log = runDegradationController(fx.layout, design, variation,
                                        timeline, policy, nullptr);
    ASSERT_EQ(log.epochs.size(), 6u);
    EXPECT_TRUE(log.actions.empty());
    EXPECT_EQ(log.finalNumModes, 2);
    EXPECT_EQ(log.totalReconfigEnergy, 0.0);
    for (const auto &epoch : log.epochs) {
        EXPECT_EQ(epoch.actions, 0);
        EXPECT_EQ(epoch.activeFaults, 0);
        // The designed-in margin survives the identity replay.
        EXPECT_NEAR(epoch.marginBefore.dB(), 0.5, 1e-6);
        EXPECT_EQ(epoch.marginBefore.dB(), epoch.marginAfter.dB());
    }
}

TEST(Controller, TrimsDefendMarginUnderLaserDroop)
{
    RuntimeFixture fx;
    auto design = fx.twoModeDesign(DecibelLoss(0.5));
    auto variation = fx.identityVariation();
    auto spec = quietSpec();
    spec.laserDroopRate = 0.5;  // ~6 droop events over 12 epochs
    spec.laserDroopStep = 0.2;  // ~1 dB of output lost per event
    FaultTimeline timeline(spec, RuntimeFixture::kNodes, 2, 12, 9);
    ASSERT_FALSE(timeline.events().empty());

    DegradationPolicy policy;
    auto log = runDegradationController(fx.layout, design, variation,
                                        timeline, policy, nullptr);
    EXPECT_GT(log.countActions(ActionKind::Trim), 0);
    // Every epoch closes at or above the required margin: the
    // controller's core invariant.
    for (const auto &epoch : log.epochs)
        EXPECT_GE(epoch.marginAfter.dB(),
                  policy.requiredMargin.dB() - 1e-9);
    // Trim actions carry the trim level and the energy model's cost.
    for (const auto &action : log.actions) {
        if (action.kind != ActionKind::Trim)
            continue;
        EXPECT_GT(action.trimAfter.dB(), 0.0);
        EXPECT_LE(action.trimAfter.dB(),
                  policy.maxTrim.dB() + 1e-9);
        EXPECT_NEAR(action.energyCost,
                    policy.trimEnergyPerDb * policy.trimStep.dB(),
                    policy.trimEnergyPerDb * policy.trimStep.dB());
    }
}

TEST(Controller, DeadModeFailoverMatchesTimelineAndRestores)
{
    RuntimeFixture fx;
    auto design = fx.twoModeDesign(DecibelLoss(0.5));
    auto variation = fx.identityVariation();
    auto spec = quietSpec();
    spec.deadModeRate = 0.5;
    spec.deadModeEpochs = 2;
    constexpr std::size_t kEpochs = 10;
    FaultTimeline timeline(spec, RuntimeFixture::kNodes, 2, kEpochs,
                           3);
    ASSERT_FALSE(timeline.events().empty());

    DegradationPolicy policy;
    auto log = runDegradationController(fx.layout, design, variation,
                                        timeline, policy, nullptr);

    // Expected failovers/restores follow from the composed dead-mode
    // masks alone; the controller must book exactly those.
    int expected_failovers = 0;
    int expected_restores = 0;
    std::vector<std::uint32_t> prev(RuntimeFixture::kNodes, 0u);
    for (std::size_t e = 0; e < kEpochs; ++e) {
        auto state = timeline.stateAt(e);
        for (int s = 0; s < RuntimeFixture::kNodes; ++s) {
            auto slot = static_cast<std::size_t>(s);
            std::uint32_t newly = state.deadModes[slot] & ~prev[slot];
            std::uint32_t gone = prev[slot] & ~state.deadModes[slot];
            while (newly != 0u) {
                expected_failovers += static_cast<int>(newly & 1u);
                newly >>= 1u;
            }
            while (gone != 0u) {
                expected_restores += static_cast<int>(gone & 1u);
                gone >>= 1u;
            }
            prev[slot] = state.deadModes[slot];
        }
    }
    EXPECT_GE(expected_failovers, 1);
    EXPECT_EQ(log.countActions(ActionKind::Failover),
              expected_failovers);
    EXPECT_EQ(log.countActions(ActionKind::Restore),
              expected_restores);
    // Failing over to the broadcast mode only ever raises received
    // power, so the margin requirement holds without trims.
    EXPECT_EQ(log.countActions(ActionKind::Trim), 0);
    for (const auto &epoch : log.epochs)
        EXPECT_GE(epoch.marginAfter.dB(), -1e-9);
}

TEST(Controller, CollapsesWorstModeWhenTrimsExhaust)
{
    RuntimeFixture fx;
    auto design = fx.twoModeDesign(DecibelLoss(0.5));
    // Give the broadcast mode 3 dB of extra headroom: once die-wide
    // receiver drift eats the short-reach mode's margin and the trim
    // ceiling, collapsing into broadcast is the rule that saves the
    // epoch.
    for (auto &source : design.sources)
        source.modePower[1] =
            source.modePower[1] * DecibelLoss(3.0).toAttenuation();

    auto variation = fx.identityVariation();
    auto spec = quietSpec();
    spec.receiverDriftRate = 0.25; // 2 permanent events / 8 epochs
    spec.receiverDriftStep = DecibelLoss(0.8);
    FaultTimeline timeline(spec, RuntimeFixture::kNodes, 2, 8, 5);
    ASSERT_EQ(timeline.events().size(), 2u);

    DegradationPolicy policy;
    policy.maxTrim = policy.trimStep; // one trim step, then collapse
    auto log = runDegradationController(fx.layout, design, variation,
                                        timeline, policy, nullptr);
    EXPECT_EQ(log.countActions(ActionKind::Collapse), 1);
    EXPECT_EQ(log.finalNumModes, 1);
    for (const auto &epoch : log.epochs)
        EXPECT_GE(epoch.marginAfter.dB(),
                  policy.requiredMargin.dB() - 1e-9);
    // The mode count the epochs report drops at the collapse epoch.
    int collapse_epoch = -1;
    for (const auto &action : log.actions)
        if (action.kind == ActionKind::Collapse)
            collapse_epoch = static_cast<int>(action.epoch);
    ASSERT_GE(collapse_epoch, 0);
    for (const auto &epoch : log.epochs)
        EXPECT_EQ(epoch.numModes,
                  static_cast<int>(epoch.epoch) < collapse_epoch ? 2
                                                                 : 1);
}

TEST(Controller, FatalsOnlyWhenNoRuleRestoresMargin)
{
    RuntimeFixture fx;
    auto design = fx.twoModeDesign(DecibelLoss(0.5));
    auto variation = fx.identityVariation();
    auto spec = quietSpec();
    // Die-wide sensitivity loss far beyond trim + collapse headroom.
    spec.receiverDriftRate = 1.0;
    spec.receiverDriftStep = DecibelLoss(3.0);
    FaultTimeline timeline(spec, RuntimeFixture::kNodes, 2, 8, 5);

    DegradationPolicy policy;
    policy.maxTrim = DecibelLoss(1.0);
    EXPECT_THROW(runDegradationController(fx.layout, design,
                                          variation, timeline, policy,
                                          nullptr),
                 FatalError);
}

TEST(Controller, HysteresisRelaxesTrimsAfterHealthyStreak)
{
    RuntimeFixture fx;
    auto design = fx.twoModeDesign(DecibelLoss(2.0));
    auto variation = fx.identityVariation();
    auto spec = quietSpec();
    // One early transient thermal excursion, then a long recovery:
    // trims must step in during the ramp and relax afterwards.
    spec.thermalDriftRate = 2.0 / 24.0; // 2 events over 24 epochs
    spec.thermalDriftPeak = DecibelLoss(3.0);
    spec.thermalDriftEpochs = 4;
    FaultTimeline timeline(spec, RuntimeFixture::kNodes, 2, 24, 2);

    DegradationPolicy policy;
    policy.requiredMargin = DecibelLoss(1.0);
    // Healthy threshold strictly below the 2 dB design margin:
    // untouched sources evaluate a hair under it (fp noise), and the
    // streak must still build once the excursion passes.
    policy.restoreHysteresis = DecibelLoss(0.9);
    auto log = runDegradationController(fx.layout, design, variation,
                                        timeline, policy, nullptr);
    EXPECT_GT(log.countActions(ActionKind::Trim), 0);
    EXPECT_GT(log.countActions(ActionKind::Relax), 0);
    // Relaxes only fire after the configured healthy streak.
    for (const auto &action : log.actions) {
        if (action.kind == ActionKind::Relax) {
            EXPECT_GE(action.epoch,
                      static_cast<std::size_t>(
                          policy.healthyEpochsToRelax));
        }
    }
}

TEST(FaultTimeline, ExplicitEventListIsValidatedAndCanonical)
{
    std::vector<FaultEvent> events;
    FaultEvent droop;
    droop.kind = FaultKind::LaserDroop;
    droop.startEpoch = 4;
    droop.endEpoch = 8;
    droop.node = 3;
    droop.magnitude = 0.1;
    FaultEvent dead;
    dead.kind = FaultKind::DeadMode;
    dead.startEpoch = 1;
    dead.endEpoch = 3;
    dead.node = 0;
    dead.mode = 0;
    events.push_back(droop);
    events.push_back(dead);

    FaultTimeline timeline(events, 16, 2, 10);
    ASSERT_EQ(timeline.events().size(), 2u);
    // Re-sorted into canonical (startEpoch, ...) order.
    EXPECT_EQ(timeline.events()[0].kind, FaultKind::DeadMode);
    EXPECT_EQ(timeline.events()[1].kind, FaultKind::LaserDroop);
    EXPECT_EQ(timeline.seed(), 0u);

    // Window outside the run, out-of-range node, and a dead
    // broadcast mode are all rejected.
    auto bad = events;
    bad[0].endEpoch = 11;
    EXPECT_THROW(FaultTimeline(bad, 16, 2, 10), FatalError);
    bad = events;
    bad[0].startEpoch = bad[0].endEpoch;
    EXPECT_THROW(FaultTimeline(bad, 16, 2, 10), FatalError);
    bad = events;
    bad[0].node = 16;
    EXPECT_THROW(FaultTimeline(bad, 16, 2, 10), FatalError);
    bad = events;
    bad[1].mode = 1; // the broadcast mode of a 2-mode design
    EXPECT_THROW(FaultTimeline(bad, 16, 2, 10), FatalError);
}

TEST(Controller, RestoredSourceMustReearnItsRelaxStreak)
{
    // Regression: the relax rule used to build one die-wide healthy
    // streak, so a source whose mode had just failed over and
    // restored could have its trim relaxed immediately afterwards --
    // the broadcast reroute keeps the die-wide margin comfortable,
    // so the global streak never noticed the disruption.  The streak
    // is per-source now, and a liveness change resets it.
    RuntimeFixture fx;
    auto design = fx.twoModeDesign(DecibelLoss(2.0));
    auto variation = fx.identityVariation();

    // A thermal excursion on source 0 forces trims that outlast it,
    // then a dead-mode outage on the same source fails over at epoch
    // 6 and restores at epoch 8, in the middle of what would
    // otherwise be its healthy streak.
    std::vector<FaultEvent> events;
    FaultEvent ramp;
    ramp.kind = FaultKind::ThermalDrift;
    ramp.startEpoch = 1;
    ramp.endEpoch = 5;
    ramp.node = 0;
    ramp.magnitude = 3.0;
    FaultEvent outage;
    outage.kind = FaultKind::DeadMode;
    outage.startEpoch = 6;
    outage.endEpoch = 8;
    outage.node = 0;
    outage.mode = 0;
    events.push_back(ramp);
    events.push_back(outage);
    constexpr std::size_t kEpochs = 16;
    FaultTimeline timeline(events, RuntimeFixture::kNodes, 2,
                           kEpochs);

    DegradationPolicy policy;
    policy.requiredMargin = DecibelLoss(1.0);
    policy.restoreHysteresis = DecibelLoss(0.9);
    auto log = runDegradationController(fx.layout, design, variation,
                                        timeline, policy, nullptr);

    EXPECT_GT(log.countActions(ActionKind::Trim), 0);
    EXPECT_EQ(log.countActions(ActionKind::Failover), 1);
    EXPECT_EQ(log.countActions(ActionKind::Restore), 1);
    ASSERT_GT(log.countActions(ActionKind::Relax), 0);
    // Source 0's relax may fire no earlier than a full healthy
    // streak after its restore at epoch 8; the buggy die-wide streak
    // relaxed at epoch 8 (counting from the excursion's end).
    for (const auto &action : log.actions) {
        if (action.kind != ActionKind::Relax)
            continue;
        ASSERT_EQ(action.source, 0);
        EXPECT_GE(action.epoch,
                  8 + static_cast<std::size_t>(
                          policy.healthyEpochsToRelax) -
                      1);
    }
}

/** Die-wide worst margin of @p design under @p state, from scratch:
 *  a fresh chain per source, dead modes rerouted to the next live
 *  mode, and the full link-budget report.  No trims: the policies
 *  that use it never fire one. */
DecibelLoss
fromScratchWorstMargin(const RuntimeFixture &fx,
                       const core::MnocDesign &design,
                       const faults::DeviceVariation &variation,
                       const RuntimeFaultState &state)
{
    int n = RuntimeFixture::kNodes;
    int num_modes = design.topology.numModes;
    DecibelLoss worst{1e9};
    for (int s = 0; s < n; ++s) {
        auto slot = static_cast<std::size_t>(s);
        auto params = variation.params.perturbed(
            DecibelLoss(0.0), state.thermalSkew[slot], DecibelLoss(0.0),
            state.receiverSkew.toAttenuation().value());
        optics::SplitterChain chain(fx.layout, params, s);
        std::vector<double> scale(static_cast<std::size_t>(n));
        for (std::size_t j = 0; j < scale.size(); ++j)
            scale[j] =
                variation.splitterScale[slot][j] * state.splitterAgeScale[j];
        const auto &source = design.sources[slot];
        double output_scale =
            state.ledScale[slot] * variation.ledOutputScale[slot];
        std::vector<std::vector<double>> received;
        for (int k = 0; k < num_modes; ++k) {
            int drive = k;
            while (drive < num_modes - 1 &&
                   ((state.deadModes[slot] >> drive) & 1u) != 0u)
                ++drive;
            received.push_back(chain.evaluate(
                source.chain,
                source.modePower[static_cast<std::size_t>(drive)] *
                    output_scale,
                scale));
        }
        auto report = optics::validateReceivedPowers(
            received, design.topology.local(s).modeOfDest, s,
            params.pminAtTap());
        worst = std::min(worst, report.worstReachableMargin);
    }
    return worst;
}

TEST(Controller, CarriedHealthMatchesFromScratchBudgets)
{
    // The controller re-evaluates only the sources whose fault
    // inputs changed since the previous epoch, on splitter chains it
    // rebuilds only when a source's thermal skew moves.  Each fault
    // kind starts and ends mid-run in its own window, on a varied
    // die; a missed invalidation, or a chain kept past a skew change,
    // leaves marginBefore stale at a boundary.
    RuntimeFixture fx;
    auto design = fx.twoModeDesign(DecibelLoss(0.5));
    Prng prng(5);
    auto variation = faults::drawVariation(
        faults::VariationSpec{}, fx.params, RuntimeFixture::kNodes, prng);

    // Under-drive one source's mode 0 by 3 dB: its mode-0 links are
    // then the die-wide worst, so its per-source faults -- a mode-0
    // outage included, which reroutes to the stronger mode 1 -- all
    // move the die-wide minimum.
    constexpr int target = 3;
    auto &weak = design.sources[static_cast<std::size_t>(target)];
    weak.modePower[0] = weak.modePower[0] * 0.5;

    auto event = [](FaultKind kind, std::size_t start, std::size_t end,
                    int node, double magnitude) {
        FaultEvent out;
        out.kind = kind;
        out.startEpoch = start;
        out.endEpoch = end;
        out.node = node;
        out.magnitude = magnitude;
        return out;
    };
    std::vector<FaultEvent> events = {
        // A three-epoch thermal ramp peaks at its middle epoch (2).
        event(FaultKind::ThermalDrift, 1, 4, target, 2.0),
        event(FaultKind::LaserDroop, 5, 7, target, 0.4),
        event(FaultKind::SplitterAging, 8, 10, target + 1, -0.6),
        event(FaultKind::ReceiverDrift, 11, 13, -1, 1.5),
        event(FaultKind::DeadMode, 14, 16, target, 0.0),
        // A one-epoch thermal event holds its full magnitude, so two
        // back to back keep the target's skew at 1 dB over epochs
        // 18-19 while the receiver skew alone moves at 19: the
        // target's chain is reused there and only pmin changes.
        event(FaultKind::ThermalDrift, 18, 19, target, 1.0),
        event(FaultKind::ThermalDrift, 19, 20, target, 1.0),
        event(FaultKind::ReceiverDrift, 19, 21, -1, 0.8),
        // A skew that returns to exactly 0 dB at 23 must rebuild the
        // chain built under 1.5 dB at 22.
        event(FaultKind::ThermalDrift, 22, 23, target, 1.5),
    };
    events[4].mode = 0;
    constexpr std::size_t kEpochs = 24;
    FaultTimeline timeline(events, RuntimeFixture::kNodes, 2, kEpochs);
    ASSERT_EQ(timeline.stateAt(18).thermalSkew[target].dB(), 1.0);
    ASSERT_EQ(timeline.stateAt(19).thermalSkew[target].dB(), 1.0);
    ASSERT_EQ(timeline.stateAt(18).receiverSkew.dB(), 0.0);
    ASSERT_NE(timeline.stateAt(19).receiverSkew.dB(), 0.0);
    ASSERT_EQ(timeline.stateAt(22).thermalSkew[target].dB(), 1.5);
    ASSERT_EQ(timeline.stateAt(23).thermalSkew[target].dB(), 0.0);

    DegradationPolicy policy;
    policy.requiredMargin = DecibelLoss(-100.0);
    auto log = runDegradationController(fx.layout, design, variation,
                                        timeline, policy, nullptr);
    EXPECT_EQ(log.countActions(ActionKind::Trim), 0);
    EXPECT_EQ(log.countActions(ActionKind::Relax), 0);
    EXPECT_EQ(log.countActions(ActionKind::Collapse), 0);
    ASSERT_EQ(log.epochs.size(), kEpochs);
    for (std::size_t e = 0; e < kEpochs; ++e) {
        DecibelLoss expected = fromScratchWorstMargin(
            fx, design, variation, timeline.stateAt(e));
        EXPECT_EQ(log.epochs[e].marginBefore.dB(), expected.dB())
            << "epoch " << e;
    }

    // Each fault boundary, one kind at a time, moves the reference,
    // so the comparison above would catch a stale margin at each.
    for (std::size_t e :
         {2, 3, 5, 7, 8, 10, 11, 13, 14, 16, 18, 19, 20, 21, 22, 23}) {
        EXPECT_NE(fromScratchWorstMargin(fx, design, variation,
                                         timeline.stateAt(e))
                      .dB(),
                  fromScratchWorstMargin(fx, design, variation,
                                         timeline.stateAt(e - 1))
                      .dB())
            << "epoch " << e;
    }
}

TEST(Controller, ChargesReconfigurationEnergyIntoLedger)
{
    RuntimeFixture fx;
    auto design = fx.twoModeDesign(DecibelLoss(0.5));
    auto variation = fx.identityVariation();
    auto spec = quietSpec();
    spec.laserDroopRate = 0.5;
    spec.laserDroopStep = 0.2;
    constexpr std::size_t kEpochs = 12;
    FaultTimeline timeline(spec, RuntimeFixture::kNodes, 2, kEpochs,
                           9);

    core::EnergyLedger ledger(RuntimeFixture::kNodes, 2, kEpochs,
                              1.0e-3);
    // Seed a few attribution cells so the conservation check spans
    // both kinds of energy.
    ledger.cell(0, 0, 0).sourceEnergy = 3.0e-9;
    ledger.cell(1, 1, 2).oeEnergy = 2.0e-9;
    ledger.cell(2, 0, 5).electricalEnergy = 1.0e-9;

    DegradationPolicy policy;
    auto log = runDegradationController(fx.layout, design, variation,
                                        timeline, policy, &ledger);
    ASSERT_GT(log.totalReconfigEnergy, 0.0);

    // Per-epoch cells mirror the controller's log exactly, and the
    // ledger total sums cell energy plus reconfiguration energy to
    // within the ledger's 1e-9 conservation tolerance.
    double reconfig = 0.0;
    for (const auto &epoch : log.epochs) {
        EXPECT_EQ(ledger.reconfigEnergy(epoch.epoch),
                  epoch.reconfigEnergy);
        reconfig += epoch.reconfigEnergy;
    }
    EXPECT_EQ(ledger.totalReconfigEnergy(), reconfig);
    EXPECT_EQ(log.totalReconfigEnergy, reconfig);
    double cells = 3.0e-9 + 2.0e-9 + 1.0e-9;
    EXPECT_TRUE(nearlyEqual(ledger.totalEnergy(), cells + reconfig,
                            1e-9));
    EXPECT_TRUE(nearlyEqual(ledger.averagePower().reconfig,
                            reconfig / 1.0e-3, 1e-9));

    // Epoch-count mismatches are rejected up front.
    core::EnergyLedger off_by_one(RuntimeFixture::kNodes, 2,
                                  kEpochs + 1, 1.0e-3);
    EXPECT_THROW(runDegradationController(fx.layout, design,
                                          variation, timeline, policy,
                                          &off_by_one),
                 FatalError);
}

TEST(Controller, PolicyValidationRejectsNonsense)
{
    DegradationPolicy policy;
    policy.trimStep = DecibelLoss(0.0);
    EXPECT_THROW(policy.validate(), FatalError);
    policy = DegradationPolicy{};
    policy.maxTrim = DecibelLoss(0.1);
    EXPECT_THROW(policy.validate(), FatalError);
    policy = DegradationPolicy{};
    policy.healthyEpochsToRelax = 0;
    EXPECT_THROW(policy.validate(), FatalError);
    policy = DegradationPolicy{};
    policy.collapseEnergy = -1.0;
    EXPECT_THROW(policy.validate(), FatalError);
}

} // namespace
