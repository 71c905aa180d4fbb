/**
 * @file
 * mNoC power model: turns a captured trace plus a power topology and
 * its splitter designs into the paper's power breakdown (QD LED source
 * power, O/E conversion power, electrical buffer power).
 *
 * The O/E model follows Section 2.2 / Figure 2: per-receiver O/E power
 * decreases linearly with the photodetector mIOP (a low mIOP needs a
 * high-gain photoreceiver).  The default coefficients are calibrated so
 * that at 10 uW mIOP the QD LED source is ~80% of total broadcast
 * power, and O/E dominates at 1 uW, reproducing Figure 2's crossover;
 * the calibration is recorded in EXPERIMENTS.md.
 */

#ifndef MNOC_CORE_POWER_MODEL_HH
#define MNOC_CORE_POWER_MODEL_HH

#include <cstddef>
#include <functional>
#include <vector>

#include "core/power_topology.hh"
#include "noc/config.hh"
#include "optics/crossbar.hh"
#include "sim/trace.hh"

namespace mnoc {
namespace sim {
class TraceReader;
} // namespace sim
} // namespace mnoc

namespace mnoc::core {

class EnergyLedger;

/** Receives one epoch's mapped cells during a ledger build: the
 *  epoch index, then its cells in core coordinates. */
using EpochObserver =
    std::function<void(std::size_t, const std::vector<noc::EpochCell> &)>;

/** Electrical-side power parameters. */
struct PowerParams
{
    noc::NetworkConfig net;
    /** Per-receiver O/E power at zero mIOP. */
    WattPower oeBase{1.0e-3};
    /** O/E power reduction per watt of mIOP (dimensionless W/W). */
    double oeSlopePerWatt = 61.0;
    /** O/E power floor per receiver. */
    WattPower oeMin{0.05e-3};
    /** Buffer energy per flit per endpoint, in joules. */
    double bufferEnergyPerFlit = 5.0e-12;

    /** Per-receiver O/E power for a photodetector with @p miop. */
    WattPower
    oePowerPerReceiver(WattPower miop) const
    {
        WattPower p = oeBase - oeSlopePerWatt * miop;
        return p > oeMin ? p : oeMin;
    }
};

/** Power decomposition in watts (the Figure 10 categories). */
struct PowerBreakdown
{
    double source = 0.0;      ///< QD LED (or laser-modulator) drive
    double oe = 0.0;          ///< O/E + E/O conversion
    double electrical = 0.0;  ///< buffers, links, routers
    double ringHeating = 0.0; ///< rNoC ring thermal trimming
    double laser = 0.0;       ///< rNoC external laser
    double reconfig = 0.0;    ///< runtime reconfiguration actions

    double
    total() const
    {
        return source + oe + electrical + ringHeating + laser +
               reconfig;
    }
};

/** A fully designed mNoC: topology plus per-source splitter designs. */
struct MnocDesign
{
    GlobalPowerTopology topology;
    /** One multi-mode design per source. */
    std::vector<optics::MultiModeDesign> sources;

    /** Injected optical power used by @p source to reach @p dest. */
    WattPower powerFor(int source, int dest) const;
};

/**
 * Computes mNoC power from traces.  The splitter designs are produced
 * once per (topology, design-time weighting) pair and then evaluated
 * against any number of traces.
 */
class MnocPowerModel
{
  public:
    MnocPowerModel(const optics::OpticalCrossbar &crossbar,
                   const PowerParams &params = {});

    /**
     * Design splitters for @p topology with per-source mode weights
     * derived from @p design_flow (flits between cores at design time).
     * Sources with no design traffic fall back to uniform
     * per-destination weights.
     *
     * @param design_margin Extra margin designed into every tap
     *        target: splitters are solved for pmin inflated by this
     *        many dB, so every reachable link clears the nominal
     *        threshold with at least this margin.  The hardening loop
     *        raises it to buy yield under device variation.
     */
    MnocDesign designFor(const GlobalPowerTopology &topology,
                         const FlowMatrix &design_flow,
                         DecibelLoss design_margin = DecibelLoss(0.0))
        const;

    /** Design with uniform per-destination weights (the U designs). */
    MnocDesign designUniform(const GlobalPowerTopology &topology,
                             DecibelLoss design_margin =
                                 DecibelLoss(0.0)) const;

    /**
     * Design with fixed per-mode traffic fractions shared by every
     * source (e.g. {0.66, 0.33}; Section 5.6's weighting sweep).
     */
    MnocDesign designWithFractions(
        const GlobalPowerTopology &topology,
        const std::vector<double> &mode_fractions,
        DecibelLoss design_margin = DecibelLoss(0.0)) const;

    /**
     * Average power over the traced interval: the ledger build over
     * an in-memory reader, averaged, so the summary and the per-cell
     * attribution can never disagree.
     */
    PowerBreakdown evaluate(const MnocDesign &design,
                            const sim::Trace &trace) const;

    /**
     * The ledger build: attribute every message pulled from
     * @p reader -- a trace file or an in-memory Trace -- to a
     * (source, mode, epoch) energy cell, one epoch at a time in
     * epoch order, and compute per-(source, mode) optical loss
     * breakdowns (core/energy_ledger.hh).  Traces without epoch
     * buckets get a single epoch spanning the run.
     * @p thread_to_core, when given, must be a permutation (fatal
     * otherwise); every message is re-expressed in core coordinates
     * under it.  The build is serial, so the result is
     * bit-identical at any thread count, and peak memory stays one
     * epoch.  The build consumes @p reader's cursor; a reader that
     * has already been read from is a panic.
     *
     * @p observe, when set, is called on the calling thread with
     * each epoch's mapped cells right after they are accrued, in
     * epoch order, so a per-epoch consumer (the adaptive controller)
     * rides this pass instead of reading the trace again.  An
     * epoch-free trace has no epoch buckets and is never observed.
     */
    EnergyLedger buildLedger(
        const MnocDesign &design, sim::TraceReader &reader,
        const std::vector<int> *thread_to_core = nullptr,
        const EpochObserver &observe = {}) const;

    /**
     * Fill @p ledger's per-(source, mode) loss breakdowns from
     * @p design's splitter chains, one chain walk per source in
     * source order.  The ledger build calls this itself; the
     * adaptive controller calls it to re-attribute losses under the
     * design it finished the run with.
     */
    void attachLosses(const MnocDesign &design,
                      EnergyLedger &ledger) const;

    const optics::OpticalCrossbar &crossbar() const { return crossbar_; }
    const PowerParams &params() const { return params_; }

  private:
    MnocDesign designWithWeights(
        const GlobalPowerTopology &topology,
        const std::vector<std::vector<double>> &weights,
        DecibelLoss design_margin) const;

    /** Bump the ledger build counter and the per-epoch flit series;
     *  nothing, not even the cell walk, while metrics are off. */
    void recordLedgerMetrics(const EnergyLedger &ledger) const;

    const optics::OpticalCrossbar &crossbar_;
    PowerParams params_;
};

} // namespace mnoc::core

#endif // MNOC_CORE_POWER_MODEL_HH
