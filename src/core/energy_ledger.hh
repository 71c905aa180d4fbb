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
 * Determinism: the ledger is a pure function of (design, trace) and
 * contains no order-dependent folds.  The build accrues epochs in
 * epoch order, and the loss walks it fans across the thread pool
 * write disjoint slots, so its CSV/JSON renderings are
 * byte-identical at any MNOC_THREADS and whichever source (file or
 * in-memory trace) the reader serves.
 */

#ifndef MNOC_CORE_ENERGY_LEDGER_HH
#define MNOC_CORE_ENERGY_LEDGER_HH

#include <cstdint>
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
 * Dense (source, mode, epoch) energy attribution for one evaluated
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

    LedgerCell &cell(int source, int mode, std::size_t epoch);
    const LedgerCell &cell(int source, int mode,
                           std::size_t epoch) const;

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
     *  equivalent of MnocPowerModel::evaluate(). */
    PowerBreakdown averagePower() const;

    /** Total attributed energy across every cell, in joules. */
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

    std::size_t index(int source, int mode, std::size_t epoch) const;

    int numSources_;
    int numModes_;
    std::size_t numEpochs_;
    double duration_;
    std::uint64_t epochMsgs_ = 0;
    std::vector<LedgerCell> cells_;
    /** Indexed [source * numModes + mode]. */
    std::vector<optics::ChainLossBreakdown> losses_;
    /** Per-epoch reconfiguration-cost cells, in joules. */
    std::vector<double> reconfig_;
};

} // namespace mnoc::core

#endif // MNOC_CORE_ENERGY_LEDGER_HH
