#include "runtime/degradation_controller.hh"

#include <algorithm>
#include <cmath>
#include <optional>
#include <string>
#include <utility>

#include "common/journal.hh"
#include "common/log.hh"
#include "common/metrics.hh"
#include "common/trace_span.hh"
#include "core/power_topology.hh"
#include "optics/link_budget.hh"
#include "optics/splitter_chain.hh"
#include "runtime/hysteresis.hh"

namespace mnoc::runtime {

namespace {

/** Comparison slack for margin thresholds, in dB; matches the
 *  ledger's conservation tolerance. */
constexpr DecibelLoss kEps{1e-9};

/** One source's health under the current fault state and controller
 *  settings. */
struct SourceHealth
{
    DecibelLoss worstMargin{1e9};
    /** Current-space mode of the source's worst failing link, or -1
     *  when every reachable link clears the requirement. */
    int worstFailingMode = -1;
};

/** Smallest usable original drive mode >= @p orig_mode for a source
 *  whose dead-mode bitmask is @p dead; the broadcast mode is never
 *  dead (the timeline guarantees it), so the walk terminates. */
int
resolveDriveMode(int orig_mode, std::uint32_t dead, int num_modes)
{
    int mode = orig_mode;
    while (mode < num_modes - 1 &&
           ((dead >> static_cast<unsigned>(mode)) & 1u) != 0u)
        ++mode;
    return mode;
}

} // namespace

void
DegradationPolicy::validate() const
{
    fatalIf(trimStep <= DecibelLoss(0.0),
            "trim step must be positive");
    fatalIf(maxTrim < trimStep, "trim ceiling must cover one step");
    fatalIf(restoreHysteresis < DecibelLoss(0.0),
            "restore hysteresis must be non-negative");
    fatalIf(healthyEpochsToRelax < 1,
            "relax streak must be at least one epoch");
    fatalIf(trimEnergyPerDb < 0.0 || failoverEnergy < 0.0 ||
                collapseEnergy < 0.0,
            "reconfiguration costs must be non-negative");
}

const char *
actionKindName(ActionKind kind)
{
    switch (kind) {
    case ActionKind::Trim:
        return "trim";
    case ActionKind::Relax:
        return "relax";
    case ActionKind::Failover:
        return "failover";
    case ActionKind::Restore:
        return "restore";
    case ActionKind::Collapse:
        return "collapse";
    }
    panic("unhandled action kind");
}

int
DegradationLog::countActions(ActionKind kind) const
{
    int count = 0;
    for (const DegradationAction &action : actions)
        if (action.kind == kind)
            ++count;
    return count;
}

DegradationLog
runDegradationController(const optics::SerpentineLayout &layout,
                         const core::MnocDesign &design,
                         const faults::DeviceVariation &variation,
                         const FaultTimeline &timeline,
                         const DegradationPolicy &policy,
                         core::EnergyLedger *ledger)
{
    policy.validate();
    int n = design.topology.numNodes;
    int orig_modes = design.topology.numModes;
    fatalIf(layout.numNodes() != n,
            "layout and design disagree on node count");
    fatalIf(timeline.numNodes() != n,
            "fault timeline and design disagree on node count");
    fatalIf(timeline.numModes() != orig_modes,
            "fault timeline and design disagree on mode count");
    fatalIf(static_cast<int>(variation.splitterScale.size()) != n ||
                static_cast<int>(variation.ledOutputScale.size()) !=
                    n,
            "device variation does not cover every source");
    std::size_t num_epochs = timeline.numEpochs();
    fatalIf(ledger != nullptr && ledger->numEpochs() != num_epochs,
            "fault timeline and ledger disagree on epoch count");

    TraceSpan span("runDegradationController", "runtime");
    auto &metrics = MetricsRegistry::global();
    metrics.counter("runtime.controller_runs").add();
    Series &margin_series = metrics.series("runtime.margin");
    Series &action_series = metrics.series("runtime.actions");

    // Mutable controller state.  modeOrigin maps a current-space
    // mode index to the original design mode whose drive power it
    // uses; runtime collapses erase entries, mirroring
    // collapseMode()'s renumbering.
    core::GlobalPowerTopology topo = design.topology;
    std::vector<int> mode_origin(
        static_cast<std::size_t>(orig_modes));
    for (int m = 0; m < orig_modes; ++m)
        mode_origin[static_cast<std::size_t>(m)] = m;
    std::vector<DecibelLoss> trims(static_cast<std::size_t>(n),
                                   DecibelLoss(0.0));
    // The fault state of the epoch being run; the loop exchanges it
    // for the previous epoch's.  No mode is dead before epoch 0.
    RuntimeFaultState state;
    state.deadModes.assign(static_cast<std::size_t>(n), 0u);
    // One hysteresis gate per source: a relax must be re-earned by
    // *that* source after any of its own unhealthy epochs or
    // dead-mode liveness changes.  A single die-wide counter here
    // let a just-restored source be relaxed on the next epoch (the
    // failover's broadcast reroute keeps the die-wide margin
    // comfortable, so the shared streak never reset).
    std::vector<StreakGate> relax_gates(
        static_cast<std::size_t>(n),
        StreakGate(policy.healthyEpochsToRelax));

    std::vector<SourceHealth> health(static_cast<std::size_t>(n));

    // Each source keeps its chain across evaluations.  Of the epoch's
    // fault state only the source's thermal skew (its coupler loss)
    // reaches the chain; the receiver skew reaches pmin alone, which
    // every evaluation recomputes.  So a chain is rebuilt only when
    // the source's thermal skew differs from the one it was built
    // with.
    std::vector<std::optional<optics::SplitterChain>> chains(
        static_cast<std::size_t>(n));
    std::vector<DecibelLoss> chain_skew(static_cast<std::size_t>(n));
    // Scratch of the serial evaluations: once warm, an evaluation
    // allocates nothing.
    std::vector<double> scale(static_cast<std::size_t>(n));
    std::vector<WattPower> injected;
    injected.reserve(static_cast<std::size_t>(orig_modes));
    std::vector<optics::ModeBudget> modes;
    optics::LinkBudgetScratch scratch;
    Counter &chain_builds = metrics.counter("runtime.chain_builds");
    Counter &evaluations = metrics.counter("runtime.source_evaluations");

    // Worst-case budget of one source under the epoch's fault state:
    // its chain under the runtime thermal skew, every current mode's
    // injected power, and one walk of the link-budget kernel.  Pure
    // function of (state, topo, mode_origin, trims).
    auto evaluate_source = [&](int s) {
        auto slot = static_cast<std::size_t>(s);
        evaluations.add();
        double receiver_scale =
            state.receiverSkew.toAttenuation().value();
        auto params = variation.params.perturbed(
            DecibelLoss(0.0), state.thermalSkew[slot],
            DecibelLoss(0.0), receiver_scale);
        WattPower pmin = params.pminAtTap();
        std::optional<optics::SplitterChain> &chain = chains[slot];
        if (!chain || chain_skew[slot] != state.thermalSkew[slot]) {
            chain.emplace(layout, params, s);
            chain_skew[slot] = state.thermalSkew[slot];
            chain_builds.add();
        }

        for (int j = 0; j < n; ++j)
            scale[static_cast<std::size_t>(j)] =
                variation.splitterScale[slot]
                                       [static_cast<std::size_t>(j)] *
                state.splitterAgeScale[static_cast<std::size_t>(j)];

        const auto &source = design.sources[slot];
        double output_scale =
            state.ledScale[slot] * variation.ledOutputScale[slot];
        injected.clear();
        for (int k = 0; k < topo.numModes; ++k) {
            int drive = resolveDriveMode(
                mode_origin[static_cast<std::size_t>(k)],
                state.deadModes[slot], orig_modes);
            injected.push_back(
                source.modePower[static_cast<std::size_t>(drive)] *
                trims[slot].toAttenuation() * output_scale);
        }

        optics::summarizeLinkBudget(*chain, source.chain, injected, scale,
                                    topo.local(s).modeOfDest, pmin, modes,
                                    scratch);
        SourceHealth out;
        for (const optics::ModeBudget &budget : modes)
            out.worstMargin =
                std::min(out.worstMargin, budget.worstMargin);
        out.worstFailingMode = optics::worstFailingMode(
            modes, policy.requiredMargin - kEps);
        health[slot] = out;
    };

    auto evaluate_all = [&] {
        for (int s = 0; s < n; ++s)
            evaluate_source(s);
    };
    auto evaluate_subset = [&](const std::vector<int> &dirty) {
        for (int s : dirty)
            evaluate_source(s);
    };

    // Reductions in source order.
    auto worst_margin = [&] {
        DecibelLoss worst{1e9};
        for (const SourceHealth &h : health)
            worst = std::min(worst, h.worstMargin);
        return worst;
    };
    auto worst_source = [&] {
        int arg = 0;
        for (int s = 1; s < n; ++s)
            if (health[static_cast<std::size_t>(s)].worstMargin <
                health[static_cast<std::size_t>(arg)].worstMargin)
                arg = s;
        return arg;
    };
    auto worst_failing_mode = [&] {
        DecibelLoss worst{1e9};
        int mode = -1;
        for (const SourceHealth &h : health) {
            if (h.worstFailingMode >= 0 && h.worstMargin < worst) {
                worst = h.worstMargin;
                mode = h.worstFailingMode;
            }
        }
        return mode;
    };

    DegradationLog log;
    log.epochs.reserve(num_epochs);

    // Rule-loop termination bound: every iteration either trims at
    // least one source (bounded by the per-source ceiling) or
    // collapses a mode (bounded by the mode count); anything more
    // is a controller bug, caught by the guard's panic.
    long long guard_budget =
        static_cast<long long>(n) *
            (static_cast<long long>(std::ceil(
                 policy.maxTrim.dB() / policy.trimStep.dB())) +
             2) +
        orig_modes + 8;

    for (std::size_t e = 0; e < num_epochs; ++e) {
        RuntimeFaultState prev =
            std::exchange(state, timeline.stateAt(e));
        timeline.journalFirings(e);
        std::size_t first_action = log.actions.size();

        auto record = [&](ActionKind kind, int source, int mode,
                          DecibelLoss trim_after, double cost) {
            DegradationAction action;
            action.kind = kind;
            action.epoch = e;
            action.source = source;
            action.mode = mode;
            action.trimAfter = trim_after;
            action.energyCost = cost;
            log.actions.push_back(action);
            if (journalEnabled()) {
                JournalKind jkind = JournalKind::Trim;
                switch (kind) {
                case ActionKind::Trim:
                    jkind = JournalKind::Trim;
                    break;
                case ActionKind::Relax:
                    jkind = JournalKind::Relax;
                    break;
                case ActionKind::Failover:
                    jkind = JournalKind::Failover;
                    break;
                case ActionKind::Restore:
                    jkind = JournalKind::Restore;
                    break;
                case ActionKind::Collapse:
                    jkind = JournalKind::Collapse;
                    break;
                }
                JournalRecord rec(jkind, e);
                int streak =
                    source >= 0
                        ? relax_gates[static_cast<std::size_t>(
                                          source)]
                              .streak()
                        : 0;
                rec.addInt(source).addInt(mode).addInt(streak);
                rec.addReal(trim_after.dB()).addReal(cost);
                Journal::global().record(rec);
            }
        };

        // Rule 1: dead-mode failover, and restore on recovery.  The
        // reroute itself is state-driven inside evaluate_source();
        // here the controller books the reprogramming cost when a
        // mode's liveness changes.
        for (int s = 0; s < n; ++s) {
            auto slot = static_cast<std::size_t>(s);
            std::uint32_t newly =
                state.deadModes[slot] & ~prev.deadModes[slot];
            std::uint32_t recovered =
                prev.deadModes[slot] & ~state.deadModes[slot];
            for (int m = 0; m < orig_modes; ++m) {
                auto bit = 1u << static_cast<unsigned>(m);
                if ((newly & bit) != 0u)
                    record(ActionKind::Failover, s, m, trims[slot],
                           policy.failoverEnergy);
                if ((recovered & bit) != 0u)
                    record(ActionKind::Restore, s, m, trims[slot],
                           policy.failoverEnergy);
            }
            // A liveness change reroutes the source's traffic, so
            // its relax streak restarts from zero: a restored mode
            // must re-earn the full trip count before any trim on
            // that source is relaxed.
            if ((newly | recovered) != 0u)
                relax_gates[slot].reset();
        }

        // health[] carries over from the previous epoch, where it
        // matched (state, topo, trims) when the epoch closed; only
        // the sources whose fault inputs moved since are stale.  The
        // receiver skew and the splitter aging reach every source's
        // budget, so a change in either re-evaluates the whole die
        // (as a collapse already did when it fired).
        if (e == 0 || state.receiverSkew != prev.receiverSkew ||
            state.splitterAgeScale != prev.splitterAgeScale) {
            evaluate_all();
        } else {
            std::vector<int> dirty;
            for (int s = 0; s < n; ++s) {
                auto slot = static_cast<std::size_t>(s);
                if (state.thermalSkew[slot] != prev.thermalSkew[slot] ||
                    state.ledScale[slot] != prev.ledScale[slot] ||
                    state.deadModes[slot] != prev.deadModes[slot])
                    dirty.push_back(s);
            }
            evaluate_subset(dirty);
        }
        DecibelLoss before = worst_margin();

        // Hysteresis: relax one trim step on a source only after a
        // streak of epochs where that source held comfortable
        // headroom, so a marginal die does not chatter between trim
        // and relax.  Per-source gates: one source's trouble (or a
        // failover/restore on it) never rides on another source's
        // healthy streak.
        {
            std::vector<int> dirty;
            for (int s = 0; s < n; ++s) {
                auto slot = static_cast<std::size_t>(s);
                relax_gates[slot].observe(
                    health[slot].worstMargin >=
                    policy.requiredMargin +
                        policy.restoreHysteresis);
                if (!relax_gates[slot].ready() ||
                    trims[slot] <= DecibelLoss(0.0))
                    continue;
                DecibelLoss step =
                    std::min(trims[slot], policy.trimStep);
                trims[slot] -= step;
                record(ActionKind::Relax, s, -1, trims[slot],
                       policy.trimEnergyPerDb * step.dB());
                relax_gates[slot].consume();
                dirty.push_back(s);
            }
            if (!dirty.empty())
                evaluate_subset(dirty);
        }

        // Rules 2-4: defend the margin requirement before the epoch
        // closes -- trim, then collapse, then fatal.
        long long guard = guard_budget;
        DecibelLoss now = worst_margin();
        while (now < policy.requiredMargin - kEps) {
            std::vector<int> dirty;
            for (int s = 0; s < n; ++s) {
                auto slot = static_cast<std::size_t>(s);
                if (health[slot].worstMargin >=
                        policy.requiredMargin - kEps ||
                    trims[slot] >= policy.maxTrim - kEps)
                    continue;
                DecibelLoss step = std::min(
                    policy.trimStep, policy.maxTrim - trims[slot]);
                trims[slot] += step;
                record(ActionKind::Trim, s, -1, trims[slot],
                       policy.trimEnergyPerDb * step.dB());
                dirty.push_back(s);
            }
            if (!dirty.empty()) {
                evaluate_subset(dirty);
            } else {
                int mode = worst_failing_mode();
                if (topo.numModes > 1 && mode >= 0 &&
                    mode < topo.numModes - 1) {
                    topo = core::collapseMode(topo, mode);
                    mode_origin.erase(
                        mode_origin.begin() + mode);
                    record(ActionKind::Collapse, -1, mode,
                           DecibelLoss(0.0),
                           policy.collapseEnergy);
                    evaluate_all();
                } else {
                    int s = worst_source();
                    fatal(
                        "degradation controller cannot restore " +
                        std::to_string(
                            policy.requiredMargin.dB()) +
                        " dB margin at epoch " + std::to_string(e) +
                        ": worst margin " +
                        std::to_string(
                            health[static_cast<std::size_t>(s)]
                                .worstMargin.dB()) +
                        " dB at source " + std::to_string(s) +
                        " with trims and mode collapses exhausted");
                }
            }
            now = worst_margin();
            panicIf(--guard <= 0,
                    "degradation rule loop failed to terminate");
        }

        // The ledger-style invariant of this subsystem: an epoch
        // never closes below the required worst-case margin --
        // the rule loop either restored it or fataled above.
        panicIf(now < policy.requiredMargin - kEps,
                "degradation controller left an epoch with a "
                "margin below requirement");

        EpochDegradation epoch;
        epoch.epoch = e;
        epoch.marginBefore = before;
        epoch.marginAfter = now;
        epoch.activeFaults = state.activeEvents;
        epoch.actions = static_cast<int>(log.actions.size() -
                                         first_action);
        epoch.numModes = topo.numModes;
        for (std::size_t a = first_action; a < log.actions.size();
             ++a)
            epoch.reconfigEnergy += log.actions[a].energyCost;
        log.epochs.push_back(epoch);
        log.totalReconfigEnergy += epoch.reconfigEnergy;
        if (ledger != nullptr)
            ledger->addReconfigEnergy(e, epoch.reconfigEnergy);
        if (journalEnabled()) {
            JournalRecord rec(JournalKind::Margin, e);
            rec.addInt(epoch.activeFaults)
                .addInt(epoch.actions)
                .addInt(epoch.numModes);
            rec.addReal(before.dB())
                .addReal(now.dB())
                .addReal(epoch.reconfigEnergy);
            Journal::global().record(rec);
        }

        // Deterministic epoch series: worst-case margin after the
        // rules ran (non-negative by the invariant above), in
        // milli-dB, and the epoch's action count.
        margin_series.add(
            e, static_cast<std::uint64_t>(std::llround(
                   std::max(0.0, now.dB()) * 1000.0)));
        if (epoch.actions > 0)
            action_series.add(
                e, static_cast<std::uint64_t>(epoch.actions));
    }

    log.finalNumModes = topo.numModes;
    return log;
}

} // namespace mnoc::runtime
