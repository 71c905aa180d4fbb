/**
 * @file
 * Traffic-driven epoch-boundary mode re-selection (the PROTEUS-style
 * adaptive runtime; see PAPERS.md and docs/runtime-faults.md).
 *
 * The paper's §3.2.2 drive tables are designed once, against a whole
 * run's average traffic.  A phase-changing workload (barnes-style
 * neighbor exchange spliced into radix-style all-to-all) pays for
 * that averaging twice: during each phase the deployed mode sets are
 * matched to traffic the phase is not sending.  The splitter chains
 * are fabricated, but the per-mode drive tables, receiver address
 * filters and evanescent tap biases are runtime-programmable (the
 * fault-driven DegradationController already rewrites them), so the
 * runtime may *re-select the active design*: re-partition
 * destinations into mode sets and re-solve the drive table for the
 * traffic it is actually observing, paying a reconfiguration-energy
 * charge per switch.
 *
 * The controller runs at epoch boundaries over the per-(source,
 * mode, epoch) traffic the simulator already captures:
 *
 *  - rule P (phase): a sim::PhaseDetector watches the epoch traffic
 *    signature; a phase change flushes the trailing window down to
 *    the change epoch (old-phase traffic must not leak into the new
 *    phase's flow or pricing) and arms rule R;
 *  - rule R (retarget): once the window holds a full window of
 *    single-phase traffic -- at warm-up, and after each phase change
 *    when the flushed window has refilled -- build a candidate
 *    design from it via the designer (comm-aware assignment +
 *    design-flow splitter weighting), joining a bounded candidate
 *    pool whose member 0 is the deployed static design;
 *  - rule S (switch): every epoch, challengers are priced against
 *    the trailing window with the shared AccrualPlan::quote() --
 *    out-of-sample, on window epochs newer than both the
 *    challenger's and the active design's build flow, since a
 *    candidate is trivially cheap on the window that built it; when
 *    a challenger undercuts the active design by the gain threshold
 *    for a full hysteresis streak (runtime/hysteresis.hh), the
 *    controller switches to it *from the next epoch* and charges
 *    numNodes * switchEnergyPerSource joules of reconfiguration
 *    energy into the ledger's reconfig cells.
 *
 * Causality: epoch e's traffic is observed at the *end* of epoch e,
 * so epoch e always accrues under the design that was active
 * entering it; a switch decided at e takes effect at e+1.
 *
 * Composition with the fault runtime: the two controllers book into
 * the same per-epoch reconfig cells (addReconfigEnergy is additive),
 * and the adaptive controller touches only drive tables, never the
 * fault controller's trims -- run adaptive first, degradation after,
 * against whichever design ended up active.
 *
 * Driving: AdaptiveController is a stepper fed one epoch at a time.
 * The replay verbs attach it to the static ledger build as its epoch
 * observer (MnocPowerModel::buildLedger), so one pass over the trace
 * serves both ledgers; runAdaptiveController() drives it from a
 * reader of its own.
 *
 * Determinism: epochs are stepped sequentially; candidate pricing
 * fans per-source partial sums across the pool into disjoint slots
 * and reduces them in source order, so the whole run -- decisions,
 * ledger, log -- is bit-identical at any MNOC_THREADS.
 */

#ifndef MNOC_RUNTIME_ADAPTIVE_CONTROLLER_HH
#define MNOC_RUNTIME_ADAPTIVE_CONTROLLER_HH

#include <cstdint>
#include <deque>
#include <vector>

#include "core/accrual.hh"
#include "core/designer.hh"
#include "core/energy_ledger.hh"
#include "runtime/hysteresis.hh"
#include "sim/phase_detector.hh"

namespace mnoc {
class Series;
class ThreadPool;
namespace sim {
class TraceReader;
struct TraceHeader;
} // namespace sim
} // namespace mnoc

namespace mnoc::runtime {

/** Rule-table knobs of the adaptive controller. */
struct AdaptivePolicy
{
    /** L1 epoch-signature distance declaring a phase change, in
     *  (0, 2] (sim/phase_detector.hh). */
    double phaseChangeThreshold = 0.25;
    /** Trailing epochs used as the phase reference, the retarget
     *  design flow, and the candidate pricing window (the
     *  MNOC_ADAPT_WINDOW knob). */
    std::size_t trafficWindow = 32;
    /** Relative out-of-sample energy gain a challenger must show
     *  over the active design before the switch streak advances. */
    double switchGainThreshold = 0.02;
    /** Consecutive epochs the same challenger must keep winning
     *  before the controller switches (hysteresis). */
    int epochsToSwitch = 2;
    /** Candidate-pool bound, deployed static design included; when
     *  full, the oldest inactive retarget is replaced. */
    int maxCandidates = 8;
    /** Reconfiguration energy per source charged on a switch (tap
     *  re-bias + drive-table and filter rewrite), in joules. */
    double switchEnergyPerSource = 2.0e-10;
    /** How retarget candidates are built: mode count and assignment
     *  of the runtime re-partition.  Weighting must be DesignFlow
     *  (candidates are solved for the observed window traffic), and
     *  the mode count must match the deployed design's. */
    core::DesignSpec candidateSpec;
    /** Design margin of retarget candidates; pass the deployed
     *  design's margin so the comparison prices like against like. */
    DecibelLoss candidateMargin{0.0};

    /** Fatal on out-of-range knobs. */
    void validate() const;
};

/** What the controller did at one epoch boundary. */
enum class AdaptiveActionKind
{
    /** The phase detector declared a new traffic phase. */
    PhaseChange,
    /** A candidate design was built from the trailing window. */
    Retarget,
    /** The active design changed (takes effect next epoch). */
    Switch,
};

/** Stable lower-case name used in CSVs and logs. */
const char *adaptiveActionKindName(AdaptiveActionKind kind);

/** One recorded controller action. */
struct AdaptiveAction
{
    AdaptiveActionKind kind = AdaptiveActionKind::PhaseChange;
    std::size_t epoch = 0;
    /** Candidate index involved: the new candidate's slot for
     *  Retarget, the switch target for Switch, -1 for PhaseChange. */
    int design = -1;
    /** Signature distance (PhaseChange) or relative energy gain of
     *  the target over the incumbent (Switch); 0 for Retarget. */
    double gain = 0.0;
    /** Reconfiguration energy booked for the action, in joules. */
    double energyCost = 0.0;
};

/** Per-epoch controller record. */
struct AdaptiveEpoch
{
    std::size_t epoch = 0;
    /** Candidate accruing this epoch (active *entering* it). */
    int activeDesign = 0;
    bool phaseChange = false;
    int actions = 0;
    /** Epoch traffic priced under the static design, in joules. */
    double staticEnergy = 0.0;
    /** Epoch traffic priced under the active design, in joules. */
    double adaptiveEnergy = 0.0;
    /** Reconfiguration energy booked at this boundary, in joules. */
    double reconfigEnergy = 0.0;
};

/** Complete adaptive run record. */
struct AdaptiveLog
{
    std::vector<AdaptiveEpoch> epochs;
    std::vector<AdaptiveAction> actions;
    /** Candidates built over the run, static design included. */
    int numCandidates = 1;
    /** Candidate active when the run ended. */
    int finalDesign = 0;
    double totalReconfigEnergy = 0.0;

    int countActions(AdaptiveActionKind kind) const;
};

/**
 * Static-vs-adaptive ledger reconciliation (see
 * reconcileAdaptive()).  Energies in joules.
 */
struct AdaptiveComparison
{
    /** Static ledger total, reconfiguration included. */
    double staticEnergy = 0.0;
    /** Adaptive ledger total, reconfiguration included. */
    double adaptiveEnergy = 0.0;
    /** Sum over epochs of (static - adaptive) attributed cell
     *  energy; positive when adaptation saved energy before
     *  reconfiguration charges. */
    double savings = 0.0;
    /** Adaptive reconfiguration charges. */
    double reconfigEnergy = 0.0;
    /** staticEnergy - adaptiveEnergy: positive when the adaptive
     *  run beat the static design net of reconfiguration. */
    double netSavings = 0.0;
};

/**
 * The adaptive controller as an epoch stepper: construct it for a
 * trace, feed it every epoch's mapped cells in order with observe(),
 * then call finish() once for the run record.
 */
class AdaptiveController
{
  public:
    /**
     * @param designer Designer owning the crossbar and power model
     *        the deployed design was built with; retargets and
     *        pricing use its model.  Must outlive the controller.
     * @param static_design The deployed design (candidate 0; also the
     *        pricing baseline for the per-epoch staticEnergy column).
     * @param policy Rule-table knobs (validated).
     * @param header Header of the trace to be stepped; fatal if it
     *        disagrees with the design or has no epoch buckets.
     * @param adaptive_ledger Optional ledger receiving the adaptive
     *        attribution: each epoch accrues under the design active
     *        entering it, switches charge reconfig cells, and
     *        finish() attaches the final active design's loss
     *        breakdowns.  Must match the trace's dimensions and the
     *        candidate mode count, and outlive the controller.
     * @param pool Worker pool for candidate pricing and loss
     *        attachment (the global pool when null); must outlive
     *        the controller.
     */
    AdaptiveController(const core::Designer &designer,
                       const core::MnocDesign &static_design,
                       const AdaptivePolicy &policy,
                       const sim::TraceHeader &header,
                       core::EnergyLedger *adaptive_ledger = nullptr,
                       ThreadPool *pool = nullptr);

    // Steps one run into one ledger; an epoch observer holds its
    // address.
    AdaptiveController(const AdaptiveController &) = delete;
    AdaptiveController &operator=(const AdaptiveController &) = delete;

    /**
     * Step over epoch @p epoch at its closing boundary: accrue it
     * under the active design, then apply rules P, R and S, candidate
     * expiry and the epoch's journal records and metric series.
     * @p cells are the epoch's cells in core coordinates.  Epochs
     * must arrive as 0, 1, 2, ...; anything else is a panic.
     */
    void observe(std::size_t epoch,
                 const std::vector<noc::EpochCell> &cells);

    /**
     * Close the run after its last epoch: attach the final active
     * design's losses to the adaptive ledger and return the record.
     * A panic before the last epoch or on a second call.
     */
    AdaptiveLog finish();

  private:
    /** Rule R: build a candidate from the window and place it. */
    void retarget(std::size_t epoch);

    const core::Designer &designer_;
    AdaptivePolicy policy_;
    core::EnergyLedger *ledger_;
    ThreadPool *pool_;
    ThreadPool &workers_;
    int numNodes_;
    std::size_t numEpochs_;
    std::size_t nextEpoch_ = 0;
    bool finished_ = false;
    Series *activeSeries_ = nullptr;
    Series *actionSeries_ = nullptr;

    // Candidate pool: designs plus their pricing plans; member 0 is
    // the deployed static design and is never evicted.  Each entry
    // remembers the epoch whose window built it (-1 for the static
    // design, solved before the run) so rule S can price it
    // out-of-sample.
    std::vector<core::MnocDesign> candidates_;
    std::vector<core::AccrualPlan> plans_;
    std::vector<long long> builtAt_;
    // A candidate the controller switched away from is retired: its
    // trailing-window pricing already failed to hold up once, so it
    // may not challenge again (a recurring phase earns a fresh
    // retarget instead), and its slot is first in line for reuse.
    std::vector<char> retired_;

    sim::PhaseDetector detector_;
    StreakGate switchGate_;
    int pendingTarget_ = -1;
    int active_ = 0;
    // The warm-up retarget arms here; phase changes re-arm it.
    bool retargetPending_ = true;

    // Trailing window of mapped epoch cells (newest last), with the
    // epoch index of each entry alongside for out-of-sample pricing.
    std::deque<std::vector<noc::EpochCell>> window_;
    std::deque<std::size_t> windowEpochs_;

    AdaptiveLog log_;
};

/**
 * Run the adaptive controller over an epoch-bucketed trace read from
 * @p reader: an AdaptiveController fed every epoch in order.
 *
 * @param reader Epoch source; fatal if the trace has no epoch
 *        buckets.  The reader is consumed (epochs are pulled once,
 *        in order).
 * @param thread_to_core Optional thread-to-core permutation applied
 *        to every epoch cell before it is stepped.
 *
 * The other parameters are AdaptiveController's.
 */
AdaptiveLog runAdaptiveController(
    const core::Designer &designer,
    const core::MnocDesign &static_design,
    const AdaptivePolicy &policy, sim::TraceReader &reader,
    const std::vector<int> *thread_to_core = nullptr,
    core::EnergyLedger *adaptive_ledger = nullptr,
    ThreadPool *pool = nullptr);

/**
 * Reconcile a static and an adaptive ledger built over the same
 * trace: savings is the per-epoch attributed-energy difference, and
 * the identity
 *
 *   adaptiveEnergy = staticEnergy - savings + reconfigEnergy
 *                    - staticReconfigEnergy
 *
 * must hold to 1e-9 relative tolerance (panic otherwise) -- the
 * adaptive run may move joules between modes and epochs, but it can
 * never lose any.
 */
AdaptiveComparison reconcileAdaptive(
    const core::EnergyLedger &static_ledger,
    const core::EnergyLedger &adaptive_ledger,
    const AdaptiveLog &log);

} // namespace mnoc::runtime

#endif // MNOC_RUNTIME_ADAPTIVE_CONTROLLER_HH
