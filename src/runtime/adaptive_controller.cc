#include "runtime/adaptive_controller.hh"

#include <algorithm>
#include <cmath>
#include <deque>
#include <sstream>
#include <string>
#include <utility>

#include "common/journal.hh"
#include "common/log.hh"
#include "common/metrics.hh"
#include "common/thread_pool.hh"
#include "common/trace_span.hh"
#include "core/accrual.hh"
#include "runtime/hysteresis.hh"
#include "sim/phase_detector.hh"
#include "sim/trace.hh"
#include "sim/trace_stream.hh"

namespace mnoc::runtime {

namespace {

/** Reconciliation slack, matching the ledger's conservation
 *  tolerance. */
constexpr double kRelTol = 1e-9;

/** Per-source view of the trailing traffic window: (dest, flits)
 *  pairs in window order, so per-source pricing folds in a fixed
 *  order whatever the thread count. */
using SourceTraffic =
    std::vector<std::vector<std::pair<int, std::uint64_t>>>;

/**
 * Price one design against the window: per-source partial sums fan
 * out across the pool into disjoint slots and reduce in source
 * order -- bit-identical at any MNOC_THREADS.
 */
double
priceWindow(const core::AccrualPlan &plan,
            const SourceTraffic &traffic, ThreadPool &workers)
{
    auto n = static_cast<long long>(traffic.size());
    std::vector<double> per_source(traffic.size(), 0.0);
    workers.parallelFor(n, [&](long long s_index) {
        auto s = static_cast<std::size_t>(s_index);
        double energy = 0.0;
        for (const auto &[dst, flits] : traffic[s])
            energy += plan.quote(static_cast<int>(s), dst, flits);
        per_source[s] = energy;
    });
    double total = 0.0;
    for (double energy : per_source)
        total += energy;
    return total;
}

/** Serial per-epoch pricing in cell order (the CSV columns). */
double
priceEpoch(const core::AccrualPlan &plan,
           const std::vector<noc::EpochCell> &cells)
{
    double energy = 0.0;
    for (const noc::EpochCell &cell : cells)
        energy += plan.quote(cell.src, cell.dst, cell.flits);
    return energy;
}

} // namespace

void
AdaptivePolicy::validate() const
{
    fatalIf(phaseChangeThreshold <= 0.0 ||
                phaseChangeThreshold > 2.0,
            "phase change threshold must lie in (0, 2]");
    fatalIf(trafficWindow < 1,
            "traffic window must be at least one epoch");
    fatalIf(switchGainThreshold <= 0.0,
            "switch gain threshold must be positive");
    fatalIf(epochsToSwitch < 1,
            "switch streak must be at least one epoch");
    fatalIf(maxCandidates < 2,
            "candidate pool must hold the static design and at "
            "least one retarget");
    fatalIf(switchEnergyPerSource < 0.0,
            "switch energy must be non-negative");
    fatalIf(candidateSpec.weights != core::WeightSource::DesignFlow,
            "candidate spec must use design-flow weighting");
    fatalIf(candidateSpec.numModes < 1,
            "candidate spec needs at least one mode");
    fatalIf(candidateMargin < DecibelLoss(0.0),
            "candidate margin must be non-negative");
}

const char *
adaptiveActionKindName(AdaptiveActionKind kind)
{
    switch (kind) {
    case AdaptiveActionKind::PhaseChange:
        return "phase_change";
    case AdaptiveActionKind::Retarget:
        return "retarget";
    case AdaptiveActionKind::Switch:
        return "switch";
    }
    panic("unhandled adaptive action kind");
}

int
AdaptiveLog::countActions(AdaptiveActionKind kind) const
{
    int count = 0;
    for (const AdaptiveAction &action : actions)
        if (action.kind == kind)
            ++count;
    return count;
}

AdaptiveLog
runAdaptiveController(const core::Designer &designer,
                      const core::MnocDesign &static_design,
                      const AdaptivePolicy &policy,
                      sim::TraceReader &reader,
                      const std::vector<int> *thread_to_core,
                      core::EnergyLedger *adaptive_ledger,
                      ThreadPool *pool)
{
    policy.validate();
    int n = static_design.topology.numNodes;
    const sim::TraceHeader &header = reader.header();
    fatalIf(header.numNodes != n,
            "trace and design disagree on node count");
    fatalIf(header.numEpochs == 0,
            "adaptive controller needs an epoch-bucketed trace "
            "(capture with MNOC_LEDGER=1)");
    fatalIf(policy.candidateSpec.numModes !=
                static_design.topology.numModes,
            "candidate mode count must match the deployed design");
    std::size_t num_epochs = header.numEpochs;
    if (adaptive_ledger != nullptr) {
        fatalIf(adaptive_ledger->numEpochs() != num_epochs,
                "adaptive ledger and trace disagree on epoch count");
        fatalIf(adaptive_ledger->numSources() != n ||
                    adaptive_ledger->numModes() !=
                        static_design.topology.numModes,
                "adaptive ledger and design disagree on shape");
    }

    TraceSpan span("runAdaptiveController", "runtime");
    auto &metrics = MetricsRegistry::global();
    metrics.counter("runtime.adaptive_runs").add();
    Series &active_series = metrics.series("runtime.adaptive_active");
    Series &action_series =
        metrics.series("runtime.adaptive_actions");
    ThreadPool &workers =
        pool != nullptr ? *pool : ThreadPool::global();

    const core::MnocPowerModel &model = designer.model();
    const core::PowerParams &params = model.params();
    const optics::DeviceParams &optics_params =
        model.crossbar().params();

    // Candidate pool: designs plus their pricing plans; member 0 is
    // the deployed static design and is never evicted.  Each entry
    // remembers the epoch whose window built it (-1 for the static
    // design, solved before the run) so rule S can price it
    // out-of-sample.
    std::vector<core::MnocDesign> candidates;
    std::vector<core::AccrualPlan> plans;
    std::vector<long long> built_at;
    // A candidate the controller switched away from is retired: its
    // trailing-window pricing already failed to hold up once, so it
    // may not challenge again (a recurring phase earns a fresh
    // retarget instead), and its slot is first in line for reuse.
    std::vector<char> retired;
    candidates.push_back(static_design);
    plans.emplace_back(static_design, params, optics_params, n);
    built_at.push_back(-1);
    retired.push_back(0);

    sim::PhaseDetector detector(n, policy.trafficWindow,
                                policy.phaseChangeThreshold);
    StreakGate switch_gate(policy.epochsToSwitch);
    int pending_target = -1;
    int active = 0;
    // The warm-up retarget arms here; phase changes re-arm it.
    bool retarget_pending = true;

    // Trailing window of mapped epoch cells (newest last), with the
    // epoch index of each entry alongside for out-of-sample pricing.
    std::deque<std::vector<noc::EpochCell>> window;
    std::deque<std::size_t> window_epochs;

    AdaptiveLog log;
    log.epochs.reserve(num_epochs);

    auto window_flow = [&] {
        FlowMatrix flow(static_cast<std::size_t>(n),
                        static_cast<std::size_t>(n), 0.0);
        for (const auto &cells : window)
            for (const noc::EpochCell &cell : cells)
                flow(static_cast<std::size_t>(cell.src),
                     static_cast<std::size_t>(cell.dst)) +=
                    static_cast<double>(cell.flits);
        return flow;
    };

    // Window traffic restricted to epochs strictly newer than
    // @p newer_than (-1 for the whole window).
    auto window_traffic = [&](long long newer_than) {
        SourceTraffic traffic(static_cast<std::size_t>(n));
        for (std::size_t w = 0; w < window.size(); ++w) {
            if (static_cast<long long>(window_epochs[w]) <=
                newer_than)
                continue;
            for (const noc::EpochCell &cell : window[w])
                if (cell.flits > 0 && cell.dst != cell.src)
                    traffic[static_cast<std::size_t>(cell.src)]
                        .emplace_back(cell.dst, cell.flits);
        }
        return traffic;
    };

    // Build a candidate from the trailing window and place it in the
    // pool: a retired slot first, then a fresh slot while there is
    // room, then the oldest slot that is neither the static design
    // nor active.
    auto retarget = [&](std::size_t epoch) {
        int slot = -1;
        for (std::size_t c = 1; c < candidates.size(); ++c)
            if (retired[c]) {
                slot = static_cast<int>(c);
                break;
            }
        if (slot < 0 && static_cast<int>(candidates.size()) <
                            policy.maxCandidates)
            slot = static_cast<int>(candidates.size());
        if (slot < 0) {
            // Oldest live retarget slot that is not mid-accrual;
            // with a two-entry pool whose retarget slot is active
            // there is nothing to evict, so skip this retarget.
            slot = active == 1 ? 2 : 1;
            if (slot >= static_cast<int>(candidates.size()))
                return;
        }
        FlowMatrix flow = window_flow();
        core::GlobalPowerTopology topo =
            designer.buildTopology(policy.candidateSpec, flow);
        core::MnocDesign design = designer.buildDesign(
            policy.candidateSpec, topo, flow,
            policy.candidateMargin);
        if (slot == static_cast<int>(candidates.size())) {
            candidates.push_back(std::move(design));
            plans.emplace_back(candidates.back(), params,
                               optics_params, n);
            built_at.push_back(static_cast<long long>(epoch));
            retired.push_back(0);
        } else {
            candidates[static_cast<std::size_t>(slot)] =
                std::move(design);
            plans[static_cast<std::size_t>(slot)] =
                core::AccrualPlan(
                    candidates[static_cast<std::size_t>(slot)],
                    params, optics_params, n);
            built_at[static_cast<std::size_t>(slot)] =
                static_cast<long long>(epoch);
            retired[static_cast<std::size_t>(slot)] = 0;
            // The replaced challenger may have been mid-streak.
            if (pending_target == slot) {
                pending_target = -1;
                switch_gate.reset();
            }
        }
        AdaptiveAction action;
        action.kind = AdaptiveActionKind::Retarget;
        action.epoch = epoch;
        action.design = slot;
        log.actions.push_back(action);
        if (journalEnabled()) {
            JournalRecord rec(JournalKind::Retarget, epoch);
            rec.addInt(slot)
                .addInt(static_cast<std::int64_t>(
                    window_epochs.front()))
                .addInt(static_cast<std::int64_t>(
                    window_epochs.back()));
            Journal::global().record(rec);
        }
    };

    std::vector<noc::EpochCell> cells;
    for (std::size_t e = 0; e < num_epochs; ++e) {
        panicIf(!reader.nextEpoch(cells),
                "trace ended before its declared epoch count");
        if (thread_to_core != nullptr)
            cells = sim::mapEpochCells(cells, *thread_to_core);

        std::size_t first_action = log.actions.size();
        AdaptiveEpoch epoch;
        epoch.epoch = e;
        epoch.activeDesign = active;

        // Causality: epoch e ran under the design active entering
        // it; its traffic is only observed now, at the boundary.
        const core::AccrualPlan &active_plan =
            plans[static_cast<std::size_t>(active)];
        if (adaptive_ledger != nullptr)
            for (const noc::EpochCell &cell : cells)
                active_plan.accrue(*adaptive_ledger, cell.src,
                                   cell.dst, cell.flits, e);
        epoch.staticEnergy = priceEpoch(plans[0], cells);
        epoch.adaptiveEnergy = priceEpoch(active_plan, cells);

        window.push_back(cells);
        window_epochs.push_back(e);
        if (window.size() > policy.trafficWindow) {
            window.pop_front();
            window_epochs.pop_front();
        }

        // Rule P: phase detection over the epoch signature.
        bool changed = detector.observe(cells);
        epoch.phaseChange = changed;
        if (changed) {
            AdaptiveAction action;
            action.kind = AdaptiveActionKind::PhaseChange;
            action.epoch = e;
            action.gain = detector.lastDistance();
            log.actions.push_back(action);
            if (journalEnabled()) {
                JournalRecord rec(JournalKind::PhaseChange, e);
                rec.addReal(detector.lastDistance());
                Journal::global().record(rec);
            }
            // The old phase's traffic must not leak into the new
            // phase's retarget flow or pricing window: a candidate
            // built from a straddling window lands in traffic it was
            // not solved for.  Flush down to the change epoch (the
            // new phase's first) and let any mid-streak challenger
            // re-earn its streak against the new traffic.
            window.erase(window.begin(), window.end() - 1);
            window_epochs.erase(window_epochs.begin(),
                                window_epochs.end() - 1);
            pending_target = -1;
            switch_gate.reset();
            retarget_pending = true;
        }

        // Rule R: retarget once the window holds a full window of
        // single-phase traffic -- at warm-up, and again after every
        // phase change once the flushed window has refilled.
        if (retarget_pending &&
            window.size() == policy.trafficWindow) {
            retarget(e);
            retarget_pending = false;
        }

        // Candidate expiry: a retarget is a bet on the phase whose
        // window built it.  One that has not won a switch within a
        // few windows of its build modeled traffic that has since
        // drifted away (pair-level drift is invisible to the
        // distance-histogram phase detector), and betting a
        // reconfiguration on it now would chase noise -- retire it
        // and free its slot.
        long long expiry =
            4 * static_cast<long long>(policy.trafficWindow);
        for (std::size_t c = 1; c < candidates.size(); ++c)
            if (!retired[c] && static_cast<int>(c) != active &&
                static_cast<long long>(e) > built_at[c] + expiry) {
                retired[c] = 1;
                if (journalEnabled()) {
                    JournalRecord rec(JournalKind::Expire, e);
                    rec.addInt(static_cast<std::int64_t>(c))
                        .addInt(built_at[c]);
                    Journal::global().record(rec);
                }
            }

        // Rule S: price every challenger against the trailing
        // window, *out-of-sample*: a retarget candidate is solved to
        // be cheap on the very window that built it, so judging it
        // there would reward overfit to the window's sampling noise.
        // Each challenger is therefore priced only on window epochs
        // newer than both its own and the active design's build
        // flow, with the active design priced on the same suffix.
        // The best unbiased gain must clear the threshold for a full
        // streak before the controller pays for a switch.
        if (candidates.size() > 1) {
            // A one-epoch suffix is too small a sample to bet a
            // reconfiguration on; demand at least a quarter window
            // of out-of-sample evidence.
            std::size_t min_suffix = (policy.trafficWindow + 3) / 4;
            int best = -1;
            double gain = 0.0;
            for (std::size_t c = 0; c < candidates.size(); ++c) {
                if (static_cast<int>(c) == active || retired[c])
                    continue;
                long long barrier = std::max(
                    built_at[c],
                    built_at[static_cast<std::size_t>(active)]);
                std::size_t suffix = 0;
                for (std::size_t epoch_index : window_epochs)
                    if (static_cast<long long>(epoch_index) >
                        barrier)
                        ++suffix;
                if (suffix < min_suffix)
                    continue;
                SourceTraffic traffic = window_traffic(barrier);
                double active_cost = priceWindow(
                    plans[static_cast<std::size_t>(active)],
                    traffic, workers);
                if (active_cost <= 0.0)
                    continue;
                double challenger_cost =
                    priceWindow(plans[c], traffic, workers);
                double c_gain =
                    (active_cost - challenger_cost) / active_cost;
                if (journalEnabled()) {
                    JournalRecord rec(JournalKind::Price, e);
                    rec.addInt(static_cast<std::int64_t>(c))
                        .addInt(static_cast<std::int64_t>(suffix));
                    rec.addReal(active_cost)
                        .addReal(challenger_cost)
                        .addReal(c_gain);
                    Journal::global().record(rec);
                }
                if (best < 0 || c_gain > gain) {
                    best = static_cast<int>(c);
                    gain = c_gain;
                }
            }
            if (best >= 0 && gain > policy.switchGainThreshold) {
                if (best != pending_target) {
                    pending_target = best;
                    switch_gate.reset();
                }
                switch_gate.observe(true);
            } else {
                pending_target = -1;
                switch_gate.reset();
            }
            if (pending_target >= 0 && switch_gate.ready()) {
                double cost = static_cast<double>(n) *
                              policy.switchEnergyPerSource;
                AdaptiveAction action;
                action.kind = AdaptiveActionKind::Switch;
                action.epoch = e;
                action.design = pending_target;
                action.gain = gain;
                action.energyCost = cost;
                log.actions.push_back(action);
                if (adaptive_ledger != nullptr)
                    adaptive_ledger->addReconfigEnergy(e, cost);
                if (journalEnabled()) {
                    JournalRecord rec(JournalKind::Switch, e);
                    rec.addInt(active)
                        .addInt(pending_target)
                        .addInt(switch_gate.streak());
                    rec.addReal(gain).addReal(cost);
                    Journal::global().record(rec);
                }
                if (active != 0) {
                    retired[static_cast<std::size_t>(active)] = 1;
                    if (journalEnabled()) {
                        JournalRecord rec(JournalKind::Retire, e);
                        rec.addInt(active);
                        Journal::global().record(rec);
                    }
                }
                active = pending_target;
                pending_target = -1;
                switch_gate.consume();
            }
        }

        epoch.actions = static_cast<int>(log.actions.size() -
                                         first_action);
        for (std::size_t a = first_action; a < log.actions.size();
             ++a)
            epoch.reconfigEnergy += log.actions[a].energyCost;
        log.epochs.push_back(epoch);
        log.totalReconfigEnergy += epoch.reconfigEnergy;

        active_series.add(
            e, static_cast<std::uint64_t>(epoch.activeDesign));
        if (epoch.actions > 0)
            action_series.add(
                e, static_cast<std::uint64_t>(epoch.actions));
    }

    log.numCandidates = static_cast<int>(candidates.size());
    log.finalDesign = active;

    // The run's losses are attributed under the design it finished
    // with -- the one a deployed die would be driving.
    if (adaptive_ledger != nullptr)
        model.attachLosses(
            candidates[static_cast<std::size_t>(active)],
            *adaptive_ledger, pool);
    return log;
}

AdaptiveComparison
reconcileAdaptive(const core::EnergyLedger &static_ledger,
                  const core::EnergyLedger &adaptive_ledger,
                  const AdaptiveLog &log)
{
    panicIf(static_ledger.numEpochs() !=
                    adaptive_ledger.numEpochs() ||
                static_ledger.numSources() !=
                    adaptive_ledger.numSources(),
            "static and adaptive ledgers cover different runs");
    panicIf(log.epochs.size() != adaptive_ledger.numEpochs(),
            "adaptive log and ledger disagree on epoch count");

    AdaptiveComparison out;
    out.staticEnergy = static_ledger.totalEnergy();
    out.adaptiveEnergy = adaptive_ledger.totalEnergy();
    out.reconfigEnergy = adaptive_ledger.totalReconfigEnergy();
    for (std::size_t e = 0; e < static_ledger.numEpochs(); ++e) {
        double static_cell = static_ledger.epochAttributedEnergy(e);
        double adaptive_cell =
            adaptive_ledger.epochAttributedEnergy(e);
        out.savings += static_cell - adaptive_cell;
        if (journalEnabled()) {
            // Residual between what the ledger attributed to the
            // epoch and what the controller's pricing log recorded
            // for it -- should sit at rounding noise; the journal
            // makes any drift auditable per epoch.
            JournalRecord rec(JournalKind::Reconcile, e);
            rec.addReal(adaptive_cell)
                .addReal(log.epochs[e].adaptiveEnergy)
                .addReal(adaptive_cell -
                         log.epochs[e].adaptiveEnergy);
            Journal::global().record(rec);
        }
    }
    out.netSavings = out.staticEnergy - out.adaptiveEnergy;

    // Conservation: the adaptive run may move joules between modes
    // and epochs, never lose them.  Cell sums regroup across the
    // two totals, hence the relative tolerance.
    double expected = out.staticEnergy -
                      static_ledger.totalReconfigEnergy() -
                      out.savings + out.reconfigEnergy;
    double scale = std::max({std::abs(expected),
                             std::abs(out.adaptiveEnergy), 1e-30});
    if (std::abs(out.adaptiveEnergy - expected) / scale > kRelTol) {
        // Run energies are nJ to uJ, below std::to_string's six fixed
        // decimals; print 10 significant digits as CsvWriter does.
        std::ostringstream msg;
        msg.precision(10);
        msg << "static-vs-adaptive ledgers do not reconcile: "
               "adaptive total "
            << out.adaptiveEnergy << " J, expected " << expected << " J";
        panic(msg.str());
    }
    return out;
}

} // namespace mnoc::runtime
