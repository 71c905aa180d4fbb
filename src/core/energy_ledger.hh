/**
 * @file
 * Energy-attribution ledger: every message of a traced run accrues
 * its optical, O/E, and electrical energy to a (source, mode, epoch)
 * cell, where epochs are fixed message-count windows captured by the
 * simulator (MNOC_EPOCH_MSGS).  The ledger also carries a per-
 * (source, mode) optical loss breakdown from the splitter-chain walk
 * -- laser-side coupling, splitter insertion, waveguide propagation,
 * receiver coupling, delivered signal, residual -- whose buckets sum
 * to the injected power by photon conservation (self-checked with a
 * panic).  `mnocpt report` and the Figure 10 bench read their
 * numbers from here, so the printed tables and the power model can
 * never drift apart.
 *
 * Determinism: the ledger is a pure function of (design, trace).
 * The build is serial: it accrues epochs in epoch order and walks
 * the loss chains in source order, so its CSV/JSON renderings are
 * byte-identical at any MNOC_THREADS and whichever source (file or
 * in-memory trace) the reader serves.
 *
 * Layout and fold order: cells are stored epoch-major, one block of
 * numSources * numModes cells per epoch at source * numModes + mode,
 * so one epoch's accruals land in one contiguous block.  A block is
 * allocated on the epoch's first mutable cell() access; an epoch that
 * was never accrued holds no block and reads as zero through the
 * const cell().  That is exact in every fold: a zero cell adds +0.0,
 * and no accumulator holds -0.0.  The adaptive controller's ledger
 * relies on it to store only the epochs run under a retarget.  Blocks
 * are separate allocations, so the ledger never holds two copies of
 * its cells while it grows.  Every fold fixes its own
 * order, independent of the storage order: a per-epoch fold
 * (epochAttributedEnergy, sourceEpochPower, the ledger.epoch_flits
 * series, the report's epochs.csv) runs in (source, mode) order
 * within its epoch, a per-(source, mode) fold runs in epoch order,
 * and the two whole-ledger folds, averagePower() and totalEnergy(),
 * run in (source, mode, epoch) order.  A new fold states its order
 * the same way; a change of layout then moves no bit.
 */

#ifndef MNOC_CORE_ENERGY_LEDGER_HH
#define MNOC_CORE_ENERGY_LEDGER_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "core/power_model.hh"
#include "optics/splitter_chain.hh"

namespace mnoc::core {

/** Energy accrued by one (source, mode, epoch) attribution cell. */
struct LedgerCell
{
    /** Flits the source sent in this mode during the epoch. */
    std::uint64_t flits = 0;
    /** Time the source's QD LED spent lit for those flits. */
    double txSeconds = 0.0;
    /** QD LED electrical drive energy, in joules. */
    double sourceEnergy = 0.0;
    /** O/E receiver energy across the mode's listeners, in joules. */
    double oeEnergy = 0.0;
    /** Injection/ejection buffer energy, in joules. */
    double electricalEnergy = 0.0;

    double
    totalEnergy() const
    {
        return sourceEnergy + oeEnergy + electricalEnergy;
    }
};

/**
 * (source, mode, epoch) energy attribution for one evaluated
 * trace, plus the per-(source, mode) optical loss breakdown at that
 * mode's injected power.  Traces captured without MNOC_LEDGER have
 * no epoch buckets; the ledger then holds a single epoch covering
 * the whole run, so every consumer works on both kinds of trace.
 */
class EnergyLedger
{
  public:
    EnergyLedger(int num_sources, int num_modes,
                 std::size_t num_epochs, double duration_seconds);

    int numSources() const { return numSources_; }
    int numModes() const { return numModes_; }
    std::size_t numEpochs() const { return numEpochs_; }
    /** Wall-clock span of the traced run, in seconds. */
    double durationSeconds() const { return duration_; }
    /** Messages per epoch window (0 for the single synthetic epoch
     *  of an epoch-free trace). */
    std::uint64_t messagesPerEpoch() const { return epochMsgs_; }

    /** The cell, allocating its epoch's block on first access. */
    LedgerCell &cell(int source, int mode, std::size_t epoch);
    /** The cell; all zero when its epoch holds no block. */
    const LedgerCell &cell(int source, int mode,
                           std::size_t epoch) const;

    /** Whether @p epoch's block has been allocated. */
    bool holdsEpoch(std::size_t epoch) const;

    /** Number of epochs whose block has been allocated. */
    std::size_t heldEpochs() const;

    /** Optical loss breakdown for @p source transmitting in
     *  @p mode, computed at that mode's injected power. */
    const optics::ChainLossBreakdown &loss(int source,
                                           int mode) const;

    /**
     * Charge @p joules of reconfiguration energy (drive re-trims,
     * mode failovers and collapses booked by the degradation
     * controller) to @p epoch.  Reconfiguration cells sit beside
     * the per-(source, mode) cells so degraded runs still account
     * for every joule: totalEnergy() and averagePower() include
     * them.
     */
    void addReconfigEnergy(std::size_t epoch, double joules);

    /** Reconfiguration energy charged to @p epoch, in joules. */
    double reconfigEnergy(std::size_t epoch) const;

    /** Total reconfiguration energy across every epoch. */
    double totalReconfigEnergy() const;

    /** Average power over the traced interval; the ledger-sourced
     *  equivalent of MnocPowerModel::evaluate().  Folds the cells in
     *  (source, mode, epoch) order. */
    PowerBreakdown averagePower() const;

    /** Total attributed energy across every cell, in joules, folded
     *  in (source, mode, epoch) order. */
    double totalEnergy() const;

    /** Attributed (non-reconfig) cell energy of one epoch, summed in
     *  (source, mode) order -- the per-epoch term of the
     *  static-vs-adaptive reconciliation and of the journal's
     *  reconcile records. */
    double epochAttributedEnergy(std::size_t epoch) const;

    /** (epoch, source) matrix of average source power per epoch, in
     *  watts -- the `mnocpt report` heatmap. */
    FlowMatrix sourceEpochPower() const;

  private:
    friend class MnocPowerModel;

    /** Slot of a (source, mode) cell within its epoch's block;
     *  panics on any index out of range. */
    std::size_t index(int source, int mode, std::size_t epoch) const;

    int numSources_;
    int numModes_;
    std::size_t numEpochs_;
    double duration_;
    std::uint64_t epochMsgs_ = 0;
    /** One block per epoch, indexed [source * numModes + mode];
     *  null until the epoch is first accrued. */
    std::vector<std::unique_ptr<LedgerCell[]>> blocks_;
    /** Indexed [source * numModes + mode]. */
    std::vector<optics::ChainLossBreakdown> losses_;
    /** Per-epoch reconfiguration-cost cells, in joules. */
    std::vector<double> reconfig_;
};

} // namespace mnoc::core

#endif // MNOC_CORE_ENERGY_LEDGER_HH
