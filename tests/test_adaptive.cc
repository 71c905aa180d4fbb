/**
 * @file
 * Tests of the adaptive runtime (runtime/adaptive_controller.hh) and
 * its phase-detection substrate: the detector must fire once per
 * signature shift and reject bad knobs, the controller must retarget
 * and switch on a synthetic two-phase trace, the whole run --
 * decisions, log, ledger -- must replay bit for bit,
 * the static-vs-adaptive reconciliation identity must hold, the
 * stepper riding the static ledger build must match the two-pass
 * path bit for bit and refuse epochs out of order, an epoch-free
 * trace must be fatal, a full candidate pool must evict its oldest
 * retarget, rule S's flit-histogram prices must match the per-cell
 * fold they replaced and refuse bins tagged for another candidate,
 * and the phase-splice workload feeding the acceptance fixtures must
 * be deterministic per seed.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <regex>
#include <string>
#include <vector>

#include "common/log.hh"
#include "core/accrual.hh"
#include "core/designer.hh"
#include "core/energy_ledger.hh"
#include "runtime/adaptive_controller.hh"
#include "sim/phase_detector.hh"
#include "sim/simulator.hh"
#include "sim/trace.hh"
#include "sim/trace_stream.hh"
#include "splice_fixture.hh"
#include "workloads/registry.hh"

namespace {

using namespace mnoc;
using namespace mnoc::core;

constexpr int kNodes = 16;

/** One epoch of nearest-neighbor ring traffic. */
std::vector<noc::EpochCell>
neighborEpoch()
{
    std::vector<noc::EpochCell> cells;
    for (int s = 0; s < kNodes; ++s)
        cells.push_back({s, (s + 1) % kNodes, 2, 6});
    return cells;
}

/** One epoch of diameter-haul traffic (distance n/2). */
std::vector<noc::EpochCell>
longHaulEpoch()
{
    std::vector<noc::EpochCell> cells;
    for (int s = 0; s < kNodes; ++s)
        cells.push_back({s, (s + kNodes / 2) % kNodes, 2, 6});
    return cells;
}

/** Two-phase trace: @p neighbor epochs of ring traffic followed by
 *  @p long_haul epochs of diameter traffic, constant within each
 *  phase so controller decisions are exactly reproducible. */
sim::Trace
twoPhaseTrace(std::size_t neighbor, std::size_t long_haul)
{
    sim::Trace t;
    t.workloadName = "two_phase_fixture";
    t.networkName = "mNoC";
    t.totalTicks = 40000;
    t.packets = CountMatrix(kNodes, kNodes, 0);
    t.flits = CountMatrix(kNodes, kNodes, 0);
    t.manifest.seed = 7;
    t.manifest.gitSha = "0000000";
    t.epochs.messagesPerEpoch = kNodes * 2;
    for (std::size_t e = 0; e < neighbor + long_haul; ++e) {
        auto cells = e < neighbor ? neighborEpoch() : longHaulEpoch();
        for (const noc::EpochCell &cell : cells) {
            t.packets(cell.src, cell.dst) += cell.packets;
            t.flits(cell.src, cell.dst) += cell.flits;
        }
        t.epochs.epochs.push_back(std::move(cells));
    }
    return t;
}

/** @p phases alternating phases of @p phase_epochs epochs each,
 *  ring traffic first. */
sim::Trace
alternatingTrace(std::size_t phase_epochs, std::size_t phases)
{
    sim::Trace t = twoPhaseTrace(0, 0);
    for (std::size_t e = 0; e < phase_epochs * phases; ++e) {
        auto cells = (e / phase_epochs) % 2 == 0 ? neighborEpoch()
                                                 : longHaulEpoch();
        for (const noc::EpochCell &cell : cells) {
            t.packets(cell.src, cell.dst) += cell.packets;
            t.flits(cell.src, cell.dst) += cell.flits;
        }
        t.epochs.epochs.push_back(std::move(cells));
    }
    return t;
}

std::vector<int>
identityMapping(int n)
{
    std::vector<int> map(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i)
        map[static_cast<std::size_t>(i)] = i;
    return map;
}

/** 16-node two-mode fixture whose static design is solved for the
 *  neighbor phase, so the long-haul phase has adaptation headroom. */
struct AdaptiveFixture
{
    optics::SerpentineLayout layout{kNodes, Meters(0.05)};
    optics::DeviceParams params;
    optics::OpticalCrossbar xbar{layout, params};
    Designer designer{xbar};

    MnocDesign
    design() const
    {
        DesignSpec spec;
        spec.numModes = 2;
        spec.assignment = Assignment::DistanceBased;
        spec.weights = WeightSource::DesignFlow;
        FlowMatrix flow(kNodes, kNodes, 0.1);
        for (int i = 0; i < kNodes; ++i) {
            flow(i, i) = 0.0;
            flow(i, (i + 1) % kNodes) = 50.0;
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
        out.candidateSpec.assignment = Assignment::CommAware;
        out.candidateSpec.weights = WeightSource::DesignFlow;
        out.candidateMargin = DecibelLoss(2.0);
        return out;
    }
};

std::string
scratchPath(const std::string &stem)
{
    return testing::TempDir() + stem;
}

/** Bit-exact cell-by-cell ledger comparison. */
void
expectSameLedger(const EnergyLedger &a, const EnergyLedger &b)
{
    ASSERT_EQ(a.numSources(), b.numSources());
    ASSERT_EQ(a.numModes(), b.numModes());
    ASSERT_EQ(a.numEpochs(), b.numEpochs());
    for (int s = 0; s < a.numSources(); ++s)
        for (int m = 0; m < a.numModes(); ++m)
            for (std::size_t e = 0; e < a.numEpochs(); ++e) {
                const auto &x = a.cell(s, m, e);
                const auto &y = b.cell(s, m, e);
                ASSERT_EQ(x.flits, y.flits);
                ASSERT_EQ(x.txSeconds, y.txSeconds);
                ASSERT_EQ(x.sourceEnergy, y.sourceEnergy);
                ASSERT_EQ(x.oeEnergy, y.oeEnergy);
                ASSERT_EQ(x.electricalEnergy, y.electricalEnergy);
            }
    ASSERT_EQ(a.totalReconfigEnergy(), b.totalReconfigEnergy());
}

/** Bit-exact loss-breakdown and epoch-shape comparison, the parts
 *  of a ledger expectSameLedger() leaves out. */
void
expectSameLosses(const EnergyLedger &a, const EnergyLedger &b)
{
    ASSERT_EQ(a.messagesPerEpoch(), b.messagesPerEpoch());
    ASSERT_EQ(a.durationSeconds(), b.durationSeconds());
    for (int s = 0; s < a.numSources(); ++s)
        for (int m = 0; m < a.numModes(); ++m) {
            const auto &x = a.loss(s, m);
            const auto &y = b.loss(s, m);
            ASSERT_EQ(x.injected, y.injected);
            ASSERT_EQ(x.sourceCoupling, y.sourceCoupling);
            ASSERT_EQ(x.sourceSplit, y.sourceSplit);
            ASSERT_EQ(x.waveguide, y.waveguide);
            ASSERT_EQ(x.tapInsertion, y.tapInsertion);
            ASSERT_EQ(x.receiverCoupling, y.receiverCoupling);
            ASSERT_EQ(x.delivered, y.delivered);
            ASSERT_EQ(x.residual, y.residual);
        }
}

/** Bit-exact adaptive run record comparison. */
void
expectSameLog(const runtime::AdaptiveLog &a, const runtime::AdaptiveLog &b)
{
    EXPECT_EQ(a.numCandidates, b.numCandidates);
    EXPECT_EQ(a.finalDesign, b.finalDesign);
    EXPECT_EQ(a.totalReconfigEnergy, b.totalReconfigEnergy);
    ASSERT_EQ(a.epochs.size(), b.epochs.size());
    for (std::size_t e = 0; e < a.epochs.size(); ++e) {
        EXPECT_EQ(a.epochs[e].activeDesign, b.epochs[e].activeDesign);
        EXPECT_EQ(a.epochs[e].phaseChange, b.epochs[e].phaseChange);
        EXPECT_EQ(a.epochs[e].actions, b.epochs[e].actions);
        EXPECT_EQ(a.epochs[e].staticEnergy, b.epochs[e].staticEnergy);
        EXPECT_EQ(a.epochs[e].adaptiveEnergy, b.epochs[e].adaptiveEnergy);
        EXPECT_EQ(a.epochs[e].reconfigEnergy, b.epochs[e].reconfigEnergy);
    }
    ASSERT_EQ(a.actions.size(), b.actions.size());
    for (std::size_t k = 0; k < a.actions.size(); ++k) {
        EXPECT_EQ(a.actions[k].kind, b.actions[k].kind);
        EXPECT_EQ(a.actions[k].epoch, b.actions[k].epoch);
        EXPECT_EQ(a.actions[k].design, b.actions[k].design);
        EXPECT_EQ(a.actions[k].gain, b.actions[k].gain);
        EXPECT_EQ(a.actions[k].energyCost, b.actions[k].energyCost);
    }
}

TEST(PhaseDetector, CtorRejectsBadKnobs)
{
    EXPECT_THROW(sim::PhaseDetector(1, 4, 0.5), FatalError);
    EXPECT_THROW(sim::PhaseDetector(16, 0, 0.5), FatalError);
    EXPECT_THROW(sim::PhaseDetector(16, 4, 0.0), FatalError);
    EXPECT_THROW(sim::PhaseDetector(16, 4, -0.1), FatalError);
    EXPECT_THROW(sim::PhaseDetector(16, 4, 2.5), FatalError);
}

TEST(PhaseDetector, FiresOncePerSignatureShift)
{
    sim::PhaseDetector detector(kNodes, 4, 0.5);
    auto near = neighborEpoch();
    auto far = longHaulEpoch();

    // Warm-up and steady state: no detections on constant traffic.
    for (int e = 0; e < 10; ++e)
        EXPECT_FALSE(detector.observe(near));

    // The shift fires exactly once; the restarted window then treats
    // the new phase as the reference.
    EXPECT_TRUE(detector.observe(far));
    EXPECT_GT(detector.lastDistance(), 0.5);
    for (int e = 0; e < 10; ++e)
        EXPECT_FALSE(detector.observe(far));

    // Shifting back is a new phase again.
    EXPECT_TRUE(detector.observe(near));
    EXPECT_EQ(detector.epochsObserved(), 22u);
}

TEST(AdaptivePolicy, ValidateRejectsBadKnobs)
{
    AdaptiveFixture fx;
    auto good = fx.policy();
    good.validate();

    auto bad = good;
    bad.phaseChangeThreshold = 0.0;
    EXPECT_THROW(bad.validate(), FatalError);
    bad = good;
    bad.phaseChangeThreshold = 2.5;
    EXPECT_THROW(bad.validate(), FatalError);
    bad = good;
    bad.trafficWindow = 0;
    EXPECT_THROW(bad.validate(), FatalError);
    bad = good;
    bad.switchGainThreshold = 0.0;
    EXPECT_THROW(bad.validate(), FatalError);
    bad = good;
    bad.epochsToSwitch = 0;
    EXPECT_THROW(bad.validate(), FatalError);
    bad = good;
    bad.maxCandidates = 1;
    EXPECT_THROW(bad.validate(), FatalError);
    bad = good;
    bad.switchEnergyPerSource = -1.0;
    EXPECT_THROW(bad.validate(), FatalError);
    bad = good;
    bad.candidateSpec.weights = WeightSource::Uniform;
    EXPECT_THROW(bad.validate(), FatalError);
    bad = good;
    bad.candidateMargin = DecibelLoss(-0.5);
    EXPECT_THROW(bad.validate(), FatalError);
}

TEST(Adaptive, ControllerAdaptsToThePhaseChange)
{
    AdaptiveFixture fx;
    auto design = fx.design();
    auto trace = twoPhaseTrace(32, 32);
    std::string file = scratchPath("adaptive_two_phase.trace");
    sim::saveTrace(file, trace);
    auto mapping = identityMapping(kNodes);

    sim::TraceReader static_reader(trace);
    auto static_ledger = fx.designer.model().buildLedger(
        design, static_reader, &mapping);

    EnergyLedger adaptive_ledger(kNodes, 2,
                                 static_ledger.numEpochs(),
                                 static_ledger.durationSeconds());
    sim::TraceReader reader(file);
    auto log = runtime::runAdaptiveController(
        fx.designer, design, fx.policy(), reader, &mapping,
        &adaptive_ledger);

    ASSERT_EQ(log.epochs.size(), trace.epochs.epochs.size());
    using runtime::AdaptiveActionKind;
    // Exactly one phase change, at the splice epoch.
    EXPECT_EQ(log.countActions(AdaptiveActionKind::PhaseChange), 1);
    for (const auto &action : log.actions)
        if (action.kind == AdaptiveActionKind::PhaseChange) {
            EXPECT_EQ(action.epoch, 32u);
        }
    // A warm-up retarget and a post-change retarget at least.
    EXPECT_GE(log.countActions(AdaptiveActionKind::Retarget), 2);
    // The long-haul phase must win a switch (an earlier comm-aware
    // retarget may also beat the distance-based static design on the
    // neighbor phase itself), and every switch must clear the gain
    // threshold and book its reconfiguration energy.
    ASSERT_GE(log.countActions(AdaptiveActionKind::Switch), 1);
    EXPECT_NE(log.finalDesign, 0);
    double booked = 0.0;
    bool post_splice_switch = false;
    for (const auto &action : log.actions)
        if (action.kind == AdaptiveActionKind::Switch) {
            post_splice_switch |= action.epoch > 32u;
            EXPECT_GT(action.gain,
                      fx.policy().switchGainThreshold);
            EXPECT_EQ(action.energyCost,
                      kNodes * fx.policy().switchEnergyPerSource);
            booked += action.energyCost;
        }
    EXPECT_TRUE(post_splice_switch);
    EXPECT_EQ(log.totalReconfigEnergy, booked);
    EXPECT_EQ(adaptive_ledger.totalReconfigEnergy(), booked);

    // Causality: the epoch of a switch still accrues under the
    // incumbent; the target takes over one epoch later.
    for (const auto &action : log.actions)
        if (action.kind == AdaptiveActionKind::Switch) {
            EXPECT_NE(log.epochs[action.epoch].activeDesign,
                      action.design);
            EXPECT_EQ(log.epochs[action.epoch + 1].activeDesign,
                      action.design);
        }

    // The reconciliation identity must hold (panic inside otherwise)
    // and the adaptive run must beat the static design on this
    // fixture even after reconfiguration charges.
    auto cmp = runtime::reconcileAdaptive(static_ledger,
                                          adaptive_ledger, log);
    EXPECT_EQ(cmp.staticEnergy, static_ledger.totalEnergy());
    EXPECT_EQ(cmp.adaptiveEnergy, adaptive_ledger.totalEnergy());
    EXPECT_EQ(cmp.reconfigEnergy, booked);
    EXPECT_GT(cmp.savings, 0.0);
    EXPECT_GT(cmp.netSavings, 0.0);
    EXPECT_NEAR(cmp.netSavings, cmp.savings - cmp.reconfigEnergy,
                1e-12 * cmp.staticEnergy);

    // A tampered static cell large enough to absorb every other cell
    // in rounding breaks the identity: the expected adaptive total
    // collapses to the booked reconfiguration energy.  The panic must
    // name both totals in significant digits -- run energies are nJ
    // to uJ, which fixed six-decimal formatting prints as 0.000000.
    static_ledger.cell(0, 0, 0).sourceEnergy = 1e12;
    std::string what;
    try {
        runtime::reconcileAdaptive(static_ledger, adaptive_ledger, log);
    } catch (const PanicError &e) {
        what = e.what();
    }
    std::smatch m;
    ASSERT_TRUE(std::regex_search(
        what, m,
        std::regex("adaptive total (\\S+) J, expected (\\S+) J$")))
        << what;
    EXPECT_NEAR(std::stod(m[1].str()), adaptive_ledger.totalEnergy(),
                1e-9 * adaptive_ledger.totalEnergy())
        << what;
    EXPECT_NEAR(std::stod(m[2].str()), booked, 1e-9 * booked) << what;
}

TEST(Adaptive, RunIsRepeatable)
{
    // The controller is serial: a second run over the same trace
    // replays the first bit for bit, so no state (a candidate slot,
    // a recycled window entry) carries from one run into the next.
    AdaptiveFixture fx;
    auto design = fx.design();
    auto trace = twoPhaseTrace(24, 24);
    std::string file = scratchPath("adaptive_repeat.trace");
    sim::saveTrace(file, trace);
    auto mapping = identityMapping(kNodes);

    std::vector<runtime::AdaptiveLog> logs;
    std::vector<EnergyLedger> ledgers;
    for (int run = 0; run < 2; ++run) {
        sim::TraceReader reader(file);
        EnergyLedger ledger(kNodes, 2, trace.epochs.epochs.size(),
                            1.0e-3);
        logs.push_back(runtime::runAdaptiveController(
            fx.designer, design, fx.policy(), reader, &mapping,
            &ledger));
        ledgers.push_back(std::move(ledger));
    }

    for (std::size_t i = 1; i < logs.size(); ++i) {
        expectSameLog(logs[0], logs[i]);
        expectSameLedger(ledgers[0], ledgers[i]);
    }
    // The shared fixture must actually exercise the controller.
    EXPECT_FALSE(logs[0].actions.empty());
}

TEST(Adaptive, StepperOnTheLedgerBuildMatchesTheTwoPassPath)
{
    AdaptiveFixture fx;
    auto design = fx.design();
    auto trace = twoPhaseTrace(24, 24);
    std::string file = scratchPath("adaptive_one_pass.trace");
    sim::saveTrace(file, trace);
    // Thread t runs on core 5t + 3 (mod 16): a permutation that moves
    // every thread and reorders every epoch's cells.
    std::vector<int> mapping(kNodes);
    for (int t = 0; t < kNodes; ++t)
        mapping[static_cast<std::size_t>(t)] = (5 * t + 3) % kNodes;
    const MnocPowerModel &model = fx.designer.model();

    // Reference: the static ledger alone, then the controller over a
    // reader of its own.
    sim::TraceReader static_reader(file);
    auto static_ref = model.buildLedger(design, static_reader, &mapping);
    EnergyLedger adaptive_ref(kNodes, 2, static_ref.numEpochs(),
                              static_ref.durationSeconds());
    sim::TraceReader adaptive_reader(file);
    auto log_ref = runtime::runAdaptiveController(
        fx.designer, design, fx.policy(), adaptive_reader, &mapping,
        &adaptive_ref);

    // One pass: the stepper observes the static ledger build.
    sim::TraceReader reader(file);
    EnergyLedger adaptive(kNodes, 2, static_ref.numEpochs(),
                          static_ref.durationSeconds());
    runtime::AdaptiveController controller(
        fx.designer, design, fx.policy(), reader.header(), &adaptive);
    auto ledger = model.buildLedger(
        design, reader, &mapping,
        [&controller](std::size_t epoch,
                      const std::vector<noc::EpochCell> &cells) {
            controller.observe(epoch, cells);
        });
    auto log = controller.finish();

    expectSameLedger(ledger, static_ref);
    expectSameLosses(ledger, static_ref);
    expectSameLog(log, log_ref);
    expectSameLedger(adaptive, adaptive_ref);
    expectSameLosses(adaptive, adaptive_ref);
    // The fixture must exercise the controller under the mapping.
    EXPECT_FALSE(log.actions.empty());
}

TEST(Adaptive, StepperPanicsOutOfEpochOrder)
{
    AdaptiveFixture fx;
    auto design = fx.design();
    auto trace = twoPhaseTrace(4, 4);
    sim::TraceReader reader(trace);
    const sim::TraceHeader &header = reader.header();
    auto cells = neighborEpoch();

    // A skipped epoch and a repeated one.
    {
        runtime::AdaptiveController controller(fx.designer, design,
                                               fx.policy(), header);
        EXPECT_THROW(controller.observe(1, cells), PanicError);
        controller.observe(0, cells);
        EXPECT_THROW(controller.observe(0, cells), PanicError);
    }
    // finish() before the last epoch, then past the end.
    runtime::AdaptiveController controller(fx.designer, design,
                                           fx.policy(), header);
    for (std::size_t e = 0; e + 1 < header.numEpochs; ++e)
        controller.observe(e, cells);
    EXPECT_THROW(controller.finish(), PanicError);
    controller.observe(header.numEpochs - 1, cells);
    EXPECT_THROW(controller.observe(header.numEpochs, cells), PanicError);
    EXPECT_EQ(controller.finish().epochs.size(), header.numEpochs);
    EXPECT_THROW(controller.finish(), PanicError);
}

TEST(Adaptive, EpochFreeTraceIsFatal)
{
    AdaptiveFixture fx;
    auto design = fx.design();
    auto trace = twoPhaseTrace(4, 4);
    trace.epochs.epochs.clear();
    trace.epochs.messagesPerEpoch = 0;
    std::string file = scratchPath("adaptive_no_epochs.trace");
    sim::saveTrace(file, trace);

    sim::TraceReader reader(file);
    try {
        runtime::runAdaptiveController(fx.designer, design,
                                       fx.policy(), reader);
        FAIL() << "epoch-free trace accepted";
    } catch (const FatalError &error) {
        EXPECT_NE(std::string(error.what())
                      .find("epoch-bucketed trace"),
                  std::string::npos)
            << error.what();
    }
}

TEST(Adaptive, LedgerShapeMismatchIsFatal)
{
    AdaptiveFixture fx;
    auto design = fx.design();
    auto trace = twoPhaseTrace(4, 4);
    std::string file = scratchPath("adaptive_shape.trace");
    sim::saveTrace(file, trace);

    // Wrong epoch count.
    {
        sim::TraceReader reader(file);
        EnergyLedger ledger(kNodes, 2, 3, 1.0e-3);
        EXPECT_THROW(runtime::runAdaptiveController(
                         fx.designer, design, fx.policy(), reader,
                         nullptr, &ledger),
                     FatalError);
    }
    // Wrong mode count.
    {
        sim::TraceReader reader(file);
        EnergyLedger ledger(kNodes, 3, 8, 1.0e-3);
        EXPECT_THROW(runtime::runAdaptiveController(
                         fx.designer, design, fx.policy(), reader,
                         nullptr, &ledger),
                     FatalError);
    }
    // Candidate mode count must match the deployed design.
    {
        sim::TraceReader reader(file);
        auto policy = fx.policy();
        policy.candidateSpec.numModes = 3;
        EXPECT_THROW(runtime::runAdaptiveController(
                         fx.designer, design, policy, reader),
                     FatalError);
    }
}

TEST(Adaptive, FullPoolEvictsTheOldestRetarget)
{
    // A static design plus two retarget slots, phases of six epochs
    // over a four-epoch window: every phase earns a retarget (three
    // epochs after its change), each candidate is replaced after two
    // phases -- before its 4-window expiry -- and no gain can clear a
    // threshold of 1, so nothing switches and every retarget past the
    // second replaces a live inactive slot.
    AdaptiveFixture fx;
    auto design = fx.design();
    auto policy = fx.policy();
    policy.trafficWindow = 4;
    policy.maxCandidates = 3;
    policy.switchGainThreshold = 1.0;
    auto trace = alternatingTrace(6, 8);
    sim::TraceReader reader(trace);
    auto log = runtime::runAdaptiveController(fx.designer, design,
                                              policy, reader);

    using runtime::AdaptiveActionKind;
    EXPECT_EQ(log.countActions(AdaptiveActionKind::Switch), 0);
    EXPECT_EQ(log.countActions(AdaptiveActionKind::PhaseChange), 7);
    std::vector<int> slots;
    std::vector<std::size_t> epochs;
    for (const auto &action : log.actions)
        if (action.kind == AdaptiveActionKind::Retarget) {
            slots.push_back(action.design);
            epochs.push_back(action.epoch);
        }
    EXPECT_EQ(epochs, (std::vector<std::size_t>{3, 9, 15, 21, 27, 33,
                                                39, 45}));
    EXPECT_EQ(slots, (std::vector<int>{1, 2, 1, 2, 1, 2, 1, 2}));
    EXPECT_EQ(log.numCandidates, 3);
}

/**
 * Rule S's window price before the flit histograms, kept as the
 * reference: per-cell quotes folded per source in window order, the
 * per-source sums reduced in source order.
 */
double
perCellWindowPrice(const AccrualPlan &plan,
                   const std::vector<std::vector<noc::EpochCell>> &epochs,
                   std::size_t first, std::size_t last)
{
    std::vector<double> per_source(
        static_cast<std::size_t>(plan.numNodes()), 0.0);
    for (std::size_t w = first; w < last; ++w)
        for (const noc::EpochCell &cell : epochs[w])
            if (cell.flits > 0 && cell.dst != cell.src)
                per_source[static_cast<std::size_t>(cell.src)] +=
                    plan.quote(cell.src, cell.dst, cell.flits);
    double total = 0.0;
    for (double energy : per_source)
        total += energy;
    return total;
}

/** Every epoch of @p reader, in order. */
std::vector<std::vector<noc::EpochCell>>
readEpochs(sim::TraceReader &reader)
{
    std::vector<std::vector<noc::EpochCell>> epochs(
        reader.header().numEpochs);
    for (auto &cells : epochs)
        EXPECT_TRUE(reader.nextEpoch(cells));
    return epochs;
}

/** @p design's plan, built as the controller builds it. */
AccrualPlan
planOf(const Designer &designer, const MnocDesign &design)
{
    const MnocPowerModel &model = designer.model();
    return AccrualPlan(design, model.params(), model.crossbar().params(),
                       design.topology.numNodes);
}

/** A retarget candidate solved for the first @p window epochs. */
MnocDesign
candidateFor(const Designer &designer,
             const runtime::AdaptivePolicy &policy,
             const std::vector<std::vector<noc::EpochCell>> &epochs,
             int n)
{
    FlowMatrix flow(static_cast<std::size_t>(n),
                    static_cast<std::size_t>(n), 0.0);
    for (std::size_t w = 0; w < policy.trafficWindow; ++w)
        for (const noc::EpochCell &cell : epochs[w])
            flow(static_cast<std::size_t>(cell.src),
                 static_cast<std::size_t>(cell.dst)) +=
                static_cast<double>(cell.flits);
    auto topology = designer.buildTopology(policy.candidateSpec, flow);
    return designer.buildDesign(policy.candidateSpec, topology, flow,
                                policy.candidateMargin);
}

/** Every suffix of every trailing @p window of @p epochs priced from
 *  flit histograms must match the per-cell fold to 1e-12 relative. */
void
expectHistogramPricesMatch(
    const AccrualPlan &plan,
    const std::vector<std::vector<noc::EpochCell>> &epochs,
    std::size_t window)
{
    constexpr long long kTag = 5;
    std::vector<runtime::FlitHistogram> bins(epochs.size());
    for (std::size_t e = 0; e < epochs.size(); ++e)
        bins[e].bin(plan, kTag, epochs[e]);
    std::size_t priced = 0;
    for (std::size_t last = 1; last <= epochs.size(); ++last) {
        runtime::FlitHistogram total;
        total.reset(plan, kTag);
        std::size_t oldest = last > window ? last - window : 0;
        for (std::size_t first = last; first-- > oldest;) {
            total += bins[first];
            double want = perCellWindowPrice(plan, epochs, first, last);
            double got = total.price(plan);
            ASSERT_GT(want, 0.0);
            ASSERT_LE(std::abs(got - want), 1e-12 * want)
                << "epochs [" << first << ", " << last << ")";
            ++priced;
        }
    }
    EXPECT_GE(priced, epochs.size());
}

TEST(AdaptivePricing, QuoteModeAtModeOfIsQuoteBitForBit)
{
    AdaptiveFixture fx;
    auto design = fx.design();
    auto trace = twoPhaseTrace(8, 8);
    sim::TraceReader reader(trace);
    auto epochs = readEpochs(reader);
    auto candidate =
        candidateFor(fx.designer, fx.policy(), epochs, kNodes);
    for (const MnocDesign *d : {&design, &candidate}) {
        AccrualPlan plan = planOf(fx.designer, *d);
        for (int s = 0; s < kNodes; ++s) {
            EXPECT_EQ(plan.modeOf(s, s), -1);
            for (int dst = 0; dst < kNodes; ++dst) {
                if (dst == s)
                    continue;
                int mode = plan.modeOf(s, dst);
                ASSERT_EQ(mode, d->topology.local(s).modeOfDest[dst]);
                for (std::uint64_t flits :
                     {std::uint64_t{0}, std::uint64_t{1},
                      std::uint64_t{7}, std::uint64_t{4096},
                      std::uint64_t{1} << 40})
                    ASSERT_EQ(std::bit_cast<std::uint64_t>(
                                  plan.quoteMode(s, mode, flits)),
                              std::bit_cast<std::uint64_t>(
                                  plan.quote(s, dst, flits)))
                        << s << " -> " << dst << ", " << flits
                        << " flits";
            }
        }
    }
}

TEST(AdaptivePricing, HistogramPricesMatchThePerCellFold)
{
    {
        SCOPED_TRACE("golden_epoch_16");
        AdaptiveFixture fx;
        sim::TraceReader reader(std::string(MNOC_TEST_DATA_DIR) +
                                "/golden_epoch_16.trace");
        ASSERT_EQ(reader.header().numNodes, kNodes);
        auto epochs = readEpochs(reader);
        auto policy = fx.policy();
        auto candidate =
            candidateFor(fx.designer, policy, epochs, kNodes);
        expectHistogramPricesMatch(planOf(fx.designer, fx.design()),
                                   epochs, policy.trafficWindow);
        expectHistogramPricesMatch(planOf(fx.designer, candidate),
                                   epochs, policy.trafficWindow);
    }
    {
        SCOPED_TRACE("golden_explain splice");
        test::SpliceFixture fx;
        auto trace = test::spliceTrace256();
        sim::TraceReader reader(trace);
        auto epochs = readEpochs(reader);
        auto policy = fx.policy();
        auto candidate = candidateFor(fx.designer, policy, epochs,
                                      test::kFixtureNodes);
        expectHistogramPricesMatch(planOf(fx.designer, fx.design()),
                                   epochs, policy.trafficWindow);
        expectHistogramPricesMatch(planOf(fx.designer, candidate),
                                   epochs, policy.trafficWindow);
    }
}

TEST(AdaptivePricing, HistogramTaggedForAnotherCandidatePanics)
{
    AdaptiveFixture fx;
    AccrualPlan plan = planOf(fx.designer, fx.design());
    auto cells = neighborEpoch();
    runtime::FlitHistogram stale;
    stale.bin(plan, 3, cells);
    runtime::FlitHistogram total;

    // A slot's new candidate (built at 9) meets its predecessor's
    // bins (built at 3).
    total.reset(plan, 9);
    EXPECT_THROW(total += stale, PanicError);
    // A retired slot's untagged entry.
    runtime::FlitHistogram untagged = stale;
    untagged.untag();
    total.reset(plan, 3);
    EXPECT_THROW(total += untagged, PanicError);
    // The matching tag sums.
    total += stale;
    EXPECT_GT(total.price(plan), 0.0);
}

TEST(Adaptive, PhaseSpliceStreamIsDeterministicPerSeed)
{
    auto a = workloads::makeWorkload("splice:barnes+radix");
    auto b = workloads::makeWorkload("splice:barnes+radix");
    ASSERT_NE(a, nullptr);
    EXPECT_EQ(a->name(), "splice:barnes+radix");
    a->reset(8, 42);
    b->reset(8, 42);
    sim::MemOp opa, opb;
    for (int i = 0; i < 2000; ++i) {
        bool more_a = a->next(i % 8, opa);
        bool more_b = b->next(i % 8, opb);
        ASSERT_EQ(more_a, more_b);
        if (!more_a)
            break;
        EXPECT_EQ(opa.addr, opb.addr);
        EXPECT_EQ(opa.write, opb.write);
    }
}

TEST(Adaptive, MalformedSpliceNamesAreFatal)
{
    EXPECT_THROW(workloads::makeWorkload("splice:barnes"),
                 FatalError);
    EXPECT_THROW(workloads::makeWorkload("splice:barnes+"),
                 FatalError);
    EXPECT_THROW(workloads::makeWorkload("splice:barnes+quicksort"),
                 FatalError);
}

} // namespace
