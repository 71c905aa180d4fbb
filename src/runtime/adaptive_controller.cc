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
#include "common/trace_span.hh"
#include "sim/trace.hh"
#include "sim/trace_stream.hh"

namespace mnoc::runtime {

namespace {

/** Reconciliation slack, matching the ledger's conservation
 *  tolerance. */
constexpr double kRelTol = 1e-9;

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

/** @p policy, once it has passed validate(): the stepper's members
 *  are sized from it, so it is checked before any of them. */
const AdaptivePolicy &
validated(const AdaptivePolicy &policy)
{
    policy.validate();
    return policy;
}

} // namespace

void
FlitHistogram::reset(const core::AccrualPlan &plan, long long built_at)
{
    builtAt_ = built_at;
    numModes_ = plan.numModes();
    flits_.assign(static_cast<std::size_t>(plan.numNodes()) *
                      static_cast<std::size_t>(numModes_),
                  0);
}

void
FlitHistogram::bin(const core::AccrualPlan &plan, long long built_at,
                   const std::vector<noc::EpochCell> &cells)
{
    reset(plan, built_at);
    auto modes = static_cast<std::size_t>(numModes_);
    for (const noc::EpochCell &cell : cells) {
        if (cell.dst == cell.src)
            continue;
        flits_[static_cast<std::size_t>(cell.src) * modes +
               static_cast<std::size_t>(plan.modeOf(cell.src,
                                                    cell.dst))] +=
            cell.flits;
    }
}

FlitHistogram &
FlitHistogram::operator+=(const FlitHistogram &other)
{
    panicIf(builtAt_ == kUntagged || other.builtAt_ != builtAt_,
            "flit histogram priced for a candidate it was not "
            "binned for");
    for (std::size_t i = 0; i < flits_.size(); ++i)
        flits_[i] += other.flits_[i];
    return *this;
}

double
FlitHistogram::price(const core::AccrualPlan &plan) const
{
    panicIf(numModes_ != plan.numModes() ||
                flits_.size() !=
                    static_cast<std::size_t>(plan.numNodes()) *
                        static_cast<std::size_t>(numModes_),
            "flit histogram and accrual plan disagree on shape");
    double total = 0.0;
    auto modes = static_cast<std::size_t>(numModes_);
    for (int s = 0; s < plan.numNodes(); ++s) {
        const std::uint64_t *row =
            flits_.data() + static_cast<std::size_t>(s) * modes;
        double energy = 0.0;
        for (int m = 0; m < numModes_; ++m)
            energy += plan.quoteMode(s, m, row[m]);
        total += energy;
    }
    return total;
}

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

AdaptiveController::AdaptiveController(
    const core::Designer &designer, const core::MnocDesign &static_design,
    const AdaptivePolicy &policy, const sim::TraceHeader &header,
    core::EnergyLedger *adaptive_ledger)
    : designer_(designer), policy_(validated(policy)),
      ledger_(adaptive_ledger),
      numNodes_(static_design.topology.numNodes),
      numEpochs_(header.numEpochs),
      detector_(numNodes_, policy_.trafficWindow,
                policy_.phaseChangeThreshold),
      switchGate_(policy_.epochsToSwitch)
{
    int n = numNodes_;
    fatalIf(header.numNodes != n,
            "trace and design disagree on node count");
    fatalIf(numEpochs_ == 0,
            "adaptive controller needs an epoch-bucketed trace "
            "(capture with MNOC_LEDGER=1)");
    fatalIf(policy_.candidateSpec.numModes !=
                static_design.topology.numModes,
            "candidate mode count must match the deployed design");
    if (ledger_ != nullptr) {
        fatalIf(ledger_->numEpochs() != numEpochs_,
                "adaptive ledger and trace disagree on epoch count");
        fatalIf(ledger_->numSources() != n ||
                    ledger_->numModes() !=
                        static_design.topology.numModes,
                "adaptive ledger and design disagree on shape");
    }

    auto &metrics = MetricsRegistry::global();
    metrics.counter("runtime.adaptive_runs").add();
    activeSeries_ = &metrics.series("runtime.adaptive_active");
    actionSeries_ = &metrics.series("runtime.adaptive_actions");

    const core::MnocPowerModel &model = designer_.model();
    candidates_.push_back(static_design);
    plans_.emplace_back(static_design, model.params(),
                        model.crossbar().params(), n);
    builtAt_.push_back(-1);
    retired_.push_back(0);
    log_.epochs.reserve(numEpochs_);
}

// Build a candidate from the trailing window and place it in the
// pool: a retired slot first, then a fresh slot while there is room,
// then the oldest (smallest build epoch) slot that is neither the
// static design nor active.
void
AdaptiveController::retarget(std::size_t epoch)
{
    int slot = -1;
    for (std::size_t c = 1; c < candidates_.size(); ++c)
        if (retired_[c]) {
            slot = static_cast<int>(c);
            break;
        }
    if (slot < 0 &&
        static_cast<int>(candidates_.size()) < policy_.maxCandidates)
        slot = static_cast<int>(candidates_.size());
    if (slot < 0) {
        // Oldest live retarget slot that is not mid-accrual; with a
        // two-entry pool whose retarget slot is active there is
        // nothing to evict, so skip this retarget.
        for (std::size_t c = 1; c < candidates_.size(); ++c)
            if (static_cast<int>(c) != active_ &&
                (slot < 0 ||
                 builtAt_[c] < builtAt_[static_cast<std::size_t>(slot)]))
                slot = static_cast<int>(c);
        if (slot < 0)
            return;
    }
    const core::MnocPowerModel &model = designer_.model();
    FlowMatrix flow(static_cast<std::size_t>(numNodes_),
                    static_cast<std::size_t>(numNodes_), 0.0);
    for (const WindowEntry &entry : window_)
        for (const noc::EpochCell &cell : entry.cells)
            flow(static_cast<std::size_t>(cell.src),
                 static_cast<std::size_t>(cell.dst)) +=
                static_cast<double>(cell.flits);
    core::GlobalPowerTopology topo =
        designer_.buildTopology(policy_.candidateSpec, flow);
    core::MnocDesign design = designer_.buildDesign(
        policy_.candidateSpec, topo, flow, policy_.candidateMargin);
    auto index = static_cast<std::size_t>(slot);
    if (index == candidates_.size()) {
        candidates_.push_back(std::move(design));
        plans_.emplace_back(candidates_.back(), model.params(),
                            model.crossbar().params(), numNodes_);
        builtAt_.push_back(static_cast<long long>(epoch));
        retired_.push_back(0);
    } else {
        candidates_[index] = std::move(design);
        plans_[index] =
            core::AccrualPlan(candidates_[index], model.params(),
                              model.crossbar().params(), numNodes_);
        builtAt_[index] = static_cast<long long>(epoch);
        retired_[index] = 0;
        // The replaced challenger may have been mid-streak.
        if (pendingTarget_ == slot) {
            pendingTarget_ = -1;
            switchGate_.reset();
        }
    }
    AdaptiveAction action;
    action.kind = AdaptiveActionKind::Retarget;
    action.epoch = epoch;
    action.design = slot;
    log_.actions.push_back(action);
    if (journalEnabled()) {
        JournalRecord rec(JournalKind::Retarget, epoch);
        rec.addInt(slot)
            .addInt(static_cast<std::int64_t>(window_.front().epoch))
            .addInt(static_cast<std::int64_t>(window_.back().epoch));
        Journal::global().record(rec);
    }
}

void
AdaptiveController::observe(std::size_t e,
                            const std::vector<noc::EpochCell> &cells)
{
    panicIf(finished_ || e != nextEpoch_ || e >= numEpochs_,
            "adaptive controller stepped out of epoch order");
    ++nextEpoch_;
    TraceSpan span("AdaptiveController::observe", "runtime");

    std::size_t first_action = log_.actions.size();
    AdaptiveEpoch epoch;
    epoch.epoch = e;
    epoch.activeDesign = active_;

    // Causality: epoch e ran under the design active entering it;
    // its traffic is only observed now, at the boundary.
    const core::AccrualPlan &active_plan =
        plans_[static_cast<std::size_t>(active_)];
    if (ledger_ != nullptr)
        for (const noc::EpochCell &cell : cells)
            active_plan.accrue(*ledger_, cell.src, cell.dst, cell.flits,
                               e);
    epoch.staticEnergy = priceEpoch(plans_[0], cells);
    epoch.adaptiveEnergy = priceEpoch(active_plan, cells);

    // Push the epoch, binned for every live candidate; a full
    // window hands its oldest entry's buffers to the newest.
    WindowEntry entry;
    if (window_.size() == policy_.trafficWindow) {
        entry = std::move(window_.front());
        window_.pop_front();
    }
    entry.epoch = e;
    entry.cells = cells;
    entry.bins.resize(static_cast<std::size_t>(policy_.maxCandidates));
    for (std::size_t c = 0; c < entry.bins.size(); ++c) {
        if (c < candidates_.size() && !retired_[c])
            entry.bins[c].bin(plans_[c], builtAt_[c], cells);
        else
            entry.bins[c].untag();
    }
    window_.push_back(std::move(entry));

    // Rule P: phase detection over the epoch signature.
    bool changed = detector_.observe(cells);
    epoch.phaseChange = changed;
    if (changed) {
        AdaptiveAction action;
        action.kind = AdaptiveActionKind::PhaseChange;
        action.epoch = e;
        action.gain = detector_.lastDistance();
        log_.actions.push_back(action);
        if (journalEnabled()) {
            JournalRecord rec(JournalKind::PhaseChange, e);
            rec.addReal(detector_.lastDistance());
            Journal::global().record(rec);
        }
        // The old phase's traffic must not leak into the new phase's
        // retarget flow or pricing window: a candidate built from a
        // straddling window lands in traffic it was not solved for.
        // Flush down to the change epoch (the new phase's first) and
        // let any mid-streak challenger re-earn its streak against
        // the new traffic.
        window_.erase(window_.begin(), window_.end() - 1);
        pendingTarget_ = -1;
        switchGate_.reset();
        retargetPending_ = true;
    }

    // Rule R: retarget once the window holds a full window of
    // single-phase traffic -- at warm-up, and again after every phase
    // change once the flushed window has refilled.
    if (retargetPending_ && window_.size() == policy_.trafficWindow) {
        retarget(e);
        retargetPending_ = false;
    }

    // Candidate expiry: a retarget is a bet on the phase whose window
    // built it.  One that has not won a switch within a few windows
    // of its build modeled traffic that has since drifted away
    // (pair-level drift is invisible to the distance-histogram phase
    // detector), and betting a reconfiguration on it now would chase
    // noise -- retire it and free its slot.
    long long expiry = 4 * static_cast<long long>(policy_.trafficWindow);
    for (std::size_t c = 1; c < candidates_.size(); ++c)
        if (!retired_[c] && static_cast<int>(c) != active_ &&
            static_cast<long long>(e) > builtAt_[c] + expiry) {
            retired_[c] = 1;
            if (journalEnabled()) {
                JournalRecord rec(JournalKind::Expire, e);
                rec.addInt(static_cast<std::int64_t>(c))
                    .addInt(builtAt_[c]);
                Journal::global().record(rec);
            }
        }

    // Rule S: price every challenger against the trailing window,
    // *out-of-sample*: a retarget candidate is solved to be cheap on
    // the very window that built it, so judging it there would reward
    // overfit to the window's sampling noise.  Each challenger is
    // therefore priced only on window epochs newer than both its own
    // and the active design's build flow, with the active design
    // priced on the same suffix.  The best unbiased gain must clear
    // the threshold for a full streak before the controller pays for
    // a switch.
    if (candidates_.size() > 1) {
        // A one-epoch suffix is too small a sample to bet a
        // reconfiguration on; demand at least a quarter window of
        // out-of-sample evidence.
        std::size_t min_suffix = (policy_.trafficWindow + 3) / 4;
        int best = -1;
        double gain = 0.0;
        for (std::size_t c = 0; c < candidates_.size(); ++c) {
            if (static_cast<int>(c) == active_ || retired_[c])
                continue;
            long long barrier = std::max(
                builtAt_[c], builtAt_[static_cast<std::size_t>(active_)]);
            std::size_t suffix = 0;
            for (const WindowEntry &held : window_)
                if (static_cast<long long>(held.epoch) > barrier)
                    ++suffix;
            if (suffix < min_suffix)
                continue;
            double active_cost =
                priceSuffix(static_cast<std::size_t>(active_), suffix);
            if (active_cost <= 0.0)
                continue;
            double challenger_cost = priceSuffix(c, suffix);
            double c_gain = (active_cost - challenger_cost) / active_cost;
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
        if (best >= 0 && gain > policy_.switchGainThreshold) {
            if (best != pendingTarget_) {
                pendingTarget_ = best;
                switchGate_.reset();
            }
            switchGate_.observe(true);
        } else {
            pendingTarget_ = -1;
            switchGate_.reset();
        }
        if (pendingTarget_ >= 0 && switchGate_.ready()) {
            double cost = static_cast<double>(numNodes_) *
                          policy_.switchEnergyPerSource;
            AdaptiveAction action;
            action.kind = AdaptiveActionKind::Switch;
            action.epoch = e;
            action.design = pendingTarget_;
            action.gain = gain;
            action.energyCost = cost;
            log_.actions.push_back(action);
            if (ledger_ != nullptr)
                ledger_->addReconfigEnergy(e, cost);
            if (journalEnabled()) {
                JournalRecord rec(JournalKind::Switch, e);
                rec.addInt(active_)
                    .addInt(pendingTarget_)
                    .addInt(switchGate_.streak());
                rec.addReal(gain).addReal(cost);
                Journal::global().record(rec);
            }
            if (active_ != 0) {
                retired_[static_cast<std::size_t>(active_)] = 1;
                if (journalEnabled()) {
                    JournalRecord rec(JournalKind::Retire, e);
                    rec.addInt(active_);
                    Journal::global().record(rec);
                }
            }
            active_ = pendingTarget_;
            pendingTarget_ = -1;
            switchGate_.consume();
        }
    }

    epoch.actions = static_cast<int>(log_.actions.size() - first_action);
    for (std::size_t a = first_action; a < log_.actions.size(); ++a)
        epoch.reconfigEnergy += log_.actions[a].energyCost;
    log_.epochs.push_back(epoch);
    log_.totalReconfigEnergy += epoch.reconfigEnergy;

    activeSeries_->add(e, static_cast<std::uint64_t>(epoch.activeDesign));
    if (epoch.actions > 0)
        actionSeries_->add(e, static_cast<std::uint64_t>(epoch.actions));
}

// The window's epochs ascend, so the suffix is its tail; each entry
// was binned for the slot's current candidate when it was pushed
// (the tag check in += guards that).
double
AdaptiveController::priceSuffix(std::size_t slot,
                                std::size_t suffix) const
{
    const core::AccrualPlan &plan = plans_[slot];
    FlitHistogram total;
    total.reset(plan, builtAt_[slot]);
    for (std::size_t w = window_.size() - suffix; w < window_.size(); ++w)
        total += window_[w].bins[slot];
    return total.price(plan);
}

AdaptiveLog
AdaptiveController::finish()
{
    panicIf(finished_ || nextEpoch_ != numEpochs_,
            "adaptive controller finished before the trace's last epoch");
    finished_ = true;
    log_.numCandidates = static_cast<int>(candidates_.size());
    log_.finalDesign = active_;

    // The run's losses are attributed under the design it finished
    // with -- the one a deployed die would be driving.
    if (ledger_ != nullptr)
        designer_.model().attachLosses(
            candidates_[static_cast<std::size_t>(active_)], *ledger_);
    return std::move(log_);
}

AdaptiveLog
runAdaptiveController(const core::Designer &designer,
                      const core::MnocDesign &static_design,
                      const AdaptivePolicy &policy,
                      sim::TraceReader &reader,
                      const std::vector<int> *thread_to_core,
                      core::EnergyLedger *adaptive_ledger)
{
    const sim::TraceHeader &header = reader.header();
    AdaptiveController controller(designer, static_design, policy,
                                  header, adaptive_ledger);
    TraceSpan span("runAdaptiveController", "runtime");
    std::vector<noc::EpochCell> cells;
    for (std::size_t e = 0; e < header.numEpochs; ++e) {
        panicIf(!reader.nextEpoch(cells),
                "trace ended before its declared epoch count");
        if (thread_to_core != nullptr)
            sim::mapEpochCells(cells, *thread_to_core);
        controller.observe(e, cells);
    }
    return controller.finish();
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
