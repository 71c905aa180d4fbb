/**
 * @file
 * Epoch-boundary graceful-degradation controller.
 *
 * At every ledger epoch boundary the controller brings each
 * source's worst-case link margin up to date under the epoch's
 * composed fault state -- re-evaluating, through the one-walk
 * link-budget kernel (optics/link_budget.hh), only the sources whose
 * fault inputs changed since the previous epoch, on splitter chains
 * it rebuilds only when a source's thermal skew moves -- then
 * applies a rule table until the run-time margin requirement holds
 * again:
 *
 *   1. fail over dead drive modes to their parent (the next-higher
 *      mode: mode sets are nested, so the parent's power superset
 *      covers the dead mode's destinations);
 *   2. re-trim failing sources' drive power upward in fixed steps,
 *      up to a per-source trim ceiling;
 *   3. collapse the worst-failing mode into its parent (the PR 1
 *      graceful mode-collapse path, applied at run time);
 *   4. fatal -- only when no rule can restore the required margin.
 *
 * Hysteresis keeps the controller from chattering: trims relax one
 * step only after a streak of healthy epochs with margin headroom
 * above the restore threshold.  Every action is charged through a
 * reconfiguration-cost model into the energy ledger, so degraded
 * runs still account for every joule (the ledger's conservation
 * self-checks extend over the reconfiguration cells).
 *
 * Determinism: the controller is serial.  Sources are evaluated and
 * reduced in source order and the rules fire over that reduction, so
 * a faulted run uses no thread pool and is bit-identical at any
 * MNOC_THREADS (DESIGN.md §9).  A reused chain is the chain a fresh
 * build would give, since its one varying input, the thermal skew,
 * is its key; test_runtime checks every epoch's margin against
 * from-scratch budgets.
 */

#ifndef MNOC_RUNTIME_DEGRADATION_CONTROLLER_HH
#define MNOC_RUNTIME_DEGRADATION_CONTROLLER_HH

#include <cstdint>
#include <vector>

#include "common/units.hh"
#include "core/energy_ledger.hh"
#include "core/power_model.hh"
#include "faults/variation.hh"
#include "runtime/fault_timeline.hh"

namespace mnoc::runtime {

/** Rule-table constants and the reconfiguration-cost model. */
struct DegradationPolicy
{
    /** Worst-case margin the controller defends at every epoch. */
    DecibelLoss requiredMargin{0.0};
    /** Drive-power boost applied per trim action. */
    DecibelLoss trimStep{0.5};
    /** Ceiling on a source's accumulated trim. */
    DecibelLoss maxTrim{6.0};
    /** Headroom above requiredMargin a healthy streak must show
     *  before a trim relaxes (keep it above trimStep, or relax and
     *  re-trim can chatter). */
    DecibelLoss restoreHysteresis{1.0};
    /** Healthy epochs in a row before one relax step fires. */
    int healthyEpochsToRelax = 4;
    /** Energy to reprogram one source's drive point, per dB of trim
     *  change, in joules (LED driver DAC rewrite + settle). */
    double trimEnergyPerDb = 2.0e-9;
    /** Energy to reroute one (source, mode) onto its spare, in
     *  joules (address-filter table rewrite at the receivers). */
    double failoverEnergy = 5.0e-9;
    /** Energy to collapse a mode die-wide, in joules (every
     *  source's mode table rewritten). */
    double collapseEnergy = 2.0e-8;

    /** Fatal on nonsensical constants. */
    void validate() const;
};

/** What a single controller action did. */
enum class ActionKind
{
    Trim,     ///< raised one source's drive power by one step
    Relax,    ///< lowered one source's trim after a healthy streak
    Failover, ///< rerouted a dead (source, mode) onto its parent
    Restore,  ///< dead mode recovered; reroute undone
    Collapse, ///< merged a mode into its parent die-wide
};

/** Stable lower-case name used in CSVs and logs. */
const char *actionKindName(ActionKind kind);

/** One rule firing, with its charged reconfiguration energy. */
struct DegradationAction
{
    ActionKind kind = ActionKind::Trim;
    std::size_t epoch = 0;
    /** Acting source (-1 for die-wide collapses). */
    int source = -1;
    /** Affected mode (Failover/Restore/Collapse; -1 otherwise). */
    int mode = -1;
    /** Trim level in effect after the action (Trim/Relax). */
    DecibelLoss trimAfter{0.0};
    /** Energy charged to the ledger for this action, in joules. */
    double energyCost = 0.0;
};

/** Controller outcome for one epoch. */
struct EpochDegradation
{
    std::size_t epoch = 0;
    /** Worst-case margin when the epoch opened (faults applied,
     *  rules not yet fired). */
    DecibelLoss marginBefore{0.0};
    /** Worst-case margin after the rule table ran; never below the
     *  policy's requiredMargin (panic-checked). */
    DecibelLoss marginAfter{0.0};
    /** Fault events active during the epoch. */
    int activeFaults = 0;
    /** Actions fired this epoch. */
    int actions = 0;
    /** Mode count in effect after the epoch. */
    int numModes = 0;
    /** Reconfiguration energy charged this epoch, in joules. */
    double reconfigEnergy = 0.0;
};

/** Full controller trajectory over a run. */
struct DegradationLog
{
    std::vector<EpochDegradation> epochs;
    /** Every action, in firing order. */
    std::vector<DegradationAction> actions;
    /** Mode count left when the run ended. */
    int finalNumModes = 0;
    /** Sum of every action's charged energy, in joules. */
    double totalReconfigEnergy = 0.0;

    int countActions(ActionKind kind) const;
};

/**
 * Run the controller over every epoch of @p ledger.
 *
 * @param layout Serpentine geometry shared by all waveguides.
 * @param design The deployed design (topology + splitter designs).
 * @param variation As-fabricated device state the fault timeline
 *        degrades from (identity draw for a nominal die).
 * @param timeline Fault schedule; must cover the ledger's epochs.
 * @param policy Rule-table constants and reconfiguration costs.
 * @param ledger Ledger to charge reconfiguration energy into; may
 *        be null to run the controller without cost attribution.
 *
 * @throws FatalError when no rule can restore the required margin.
 * @throws PanicError if the rule loop would leave an epoch with a
 *         margin below requirement (a controller bug, not an input
 *         error -- the loop must act or fatal instead).
 */
DegradationLog runDegradationController(
    const optics::SerpentineLayout &layout,
    const core::MnocDesign &design,
    const faults::DeviceVariation &variation,
    const FaultTimeline &timeline, const DegradationPolicy &policy,
    core::EnergyLedger *ledger);

} // namespace mnoc::runtime

#endif // MNOC_RUNTIME_DEGRADATION_CONTROLLER_HH
