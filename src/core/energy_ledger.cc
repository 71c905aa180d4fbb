#include "core/energy_ledger.hh"

#include "common/log.hh"
#include "common/metrics.hh"
#include "common/trace_span.hh"
#include "core/accrual.hh"
#include "sim/trace_stream.hh"

namespace mnoc::core {

EnergyLedger::EnergyLedger(int num_sources, int num_modes,
                           std::size_t num_epochs,
                           double duration_seconds)
    : numSources_(num_sources), numModes_(num_modes),
      numEpochs_(num_epochs), duration_(duration_seconds)
{
    panicIf(num_sources < 1 || num_modes < 1 || num_epochs < 1,
            "ledger dimensions must be positive");
    panicIf(duration_seconds <= 0.0,
            "ledger duration must be positive");
    blocks_.resize(num_epochs);
    losses_.resize(static_cast<std::size_t>(num_sources) *
                   static_cast<std::size_t>(num_modes));
    reconfig_.resize(num_epochs, 0.0);
}

void
EnergyLedger::addReconfigEnergy(std::size_t epoch, double joules)
{
    panicIf(epoch >= numEpochs_, "ledger epoch out of range");
    panicIf(joules < 0.0, "reconfiguration energy must be "
                          "non-negative");
    reconfig_[epoch] += joules;
}

double
EnergyLedger::reconfigEnergy(std::size_t epoch) const
{
    panicIf(epoch >= numEpochs_, "ledger epoch out of range");
    return reconfig_[epoch];
}

double
EnergyLedger::totalReconfigEnergy() const
{
    double total = 0.0;
    for (double joules : reconfig_)
        total += joules;
    return total;
}

std::size_t
EnergyLedger::index(int source, int mode, std::size_t epoch) const
{
    panicIf(source < 0 || source >= numSources_,
            "ledger source out of range");
    panicIf(mode < 0 || mode >= numModes_,
            "ledger mode out of range");
    panicIf(epoch >= numEpochs_, "ledger epoch out of range");
    return static_cast<std::size_t>(source) *
               static_cast<std::size_t>(numModes_) +
           static_cast<std::size_t>(mode);
}

LedgerCell &
EnergyLedger::cell(int source, int mode, std::size_t epoch)
{
    std::size_t slot = index(source, mode, epoch);
    std::unique_ptr<LedgerCell[]> &block = blocks_[epoch];
    if (!block)
        block = std::make_unique<LedgerCell[]>(
            static_cast<std::size_t>(numSources_) *
            static_cast<std::size_t>(numModes_));
    return block[slot];
}

const LedgerCell &
EnergyLedger::cell(int source, int mode, std::size_t epoch) const
{
    static const LedgerCell kUnaccrued;
    std::size_t slot = index(source, mode, epoch);
    const std::unique_ptr<LedgerCell[]> &block = blocks_[epoch];
    return block ? block[slot] : kUnaccrued;
}

bool
EnergyLedger::holdsEpoch(std::size_t epoch) const
{
    panicIf(epoch >= numEpochs_, "ledger epoch out of range");
    return blocks_[epoch] != nullptr;
}

std::size_t
EnergyLedger::heldEpochs() const
{
    std::size_t held = 0;
    for (const auto &block : blocks_)
        held += block ? 1 : 0;
    return held;
}

const optics::ChainLossBreakdown &
EnergyLedger::loss(int source, int mode) const
{
    panicIf(source < 0 || source >= numSources_,
            "ledger source out of range");
    panicIf(mode < 0 || mode >= numModes_,
            "ledger mode out of range");
    return losses_[static_cast<std::size_t>(source) *
                       static_cast<std::size_t>(numModes_) +
                   static_cast<std::size_t>(mode)];
}

PowerBreakdown
EnergyLedger::averagePower() const
{
    // A whole-ledger fold keeps the (source, mode, epoch) order of
    // the class docs, not the storage order.
    double source_energy = 0.0;
    double oe_energy = 0.0;
    double electrical_energy = 0.0;
    for (int s = 0; s < numSources_; ++s) {
        for (int m = 0; m < numModes_; ++m) {
            for (std::size_t e = 0; e < numEpochs_; ++e) {
                const LedgerCell &c = cell(s, m, e);
                source_energy += c.sourceEnergy;
                oe_energy += c.oeEnergy;
                electrical_energy += c.electricalEnergy;
            }
        }
    }
    PowerBreakdown out;
    out.source = source_energy / duration_;
    out.oe = oe_energy / duration_;
    out.electrical = electrical_energy / duration_;
    out.reconfig = totalReconfigEnergy() / duration_;
    return out;
}

double
EnergyLedger::totalEnergy() const
{
    // (source, mode, epoch) order, as averagePower().
    double total = 0.0;
    for (int s = 0; s < numSources_; ++s)
        for (int m = 0; m < numModes_; ++m)
            for (std::size_t e = 0; e < numEpochs_; ++e)
                total += cell(s, m, e).totalEnergy();
    return total + totalReconfigEnergy();
}

double
EnergyLedger::epochAttributedEnergy(std::size_t epoch) const
{
    double total = 0.0;
    for (int s = 0; s < numSources_; ++s)
        for (int m = 0; m < numModes_; ++m)
            total += cell(s, m, epoch).totalEnergy();
    return total;
}

FlowMatrix
EnergyLedger::sourceEpochPower() const
{
    // Rendered as watts assuming equal-time windows: attributed
    // energy over the mean window duration.  Epochs are message
    // windows, so this is the natural normalization for comparing
    // sources within one row of the heatmap.
    double window = duration_ / static_cast<double>(numEpochs_);
    FlowMatrix out(numEpochs_, numSources_, 0.0);
    for (std::size_t e = 0; e < numEpochs_; ++e) {
        for (int s = 0; s < numSources_; ++s) {
            double energy = 0.0;
            for (int m = 0; m < numModes_; ++m)
                energy += cell(s, m, e).totalEnergy();
            out(e, s) = energy / window;
        }
    }
    return out;
}

void
MnocPowerModel::attachLosses(const MnocDesign &design,
                             EnergyLedger &ledger) const
{
    // Per-(source, mode) optical loss attribution at that mode's
    // injected power.  lossBreakdown() self-checks that the buckets
    // sum to the injected power (photon conservation).
    int n = crossbar_.numNodes();
    int num_modes = design.topology.numModes;
    for (int s = 0; s < n; ++s) {
        const auto &source = design.sources[s];
        for (int m = 0; m < num_modes; ++m) {
            std::size_t slot =
                static_cast<std::size_t>(s) *
                    static_cast<std::size_t>(num_modes) +
                static_cast<std::size_t>(m);
            ledger.losses_[slot] = crossbar_.chain(s).lossBreakdown(
                source.chain, source.modePower[m]);
        }
    }
}

void
MnocPowerModel::recordLedgerMetrics(const EnergyLedger &ledger) const
{
    // The per-epoch walk reads every cell; skip it when nothing
    // records.
    if (!metricsEnabled())
        return;
    auto &metrics = MetricsRegistry::global();
    metrics.counter("ledger.builds").add();
    Series &epoch_flits = metrics.series("ledger.epoch_flits");
    for (std::size_t e = 0; e < ledger.numEpochs(); ++e) {
        std::uint64_t flits = 0;
        for (int s = 0; s < ledger.numSources(); ++s)
            for (int m = 0; m < ledger.numModes(); ++m)
                flits += ledger.cell(s, m, e).flits;
        epoch_flits.add(e, flits);
    }
}

EnergyLedger
MnocPowerModel::buildLedger(const MnocDesign &design,
                            sim::TraceReader &reader,
                            const std::vector<int> *thread_to_core,
                            const EpochObserver &observe) const
{
    TraceSpan span("buildLedger", "power");
    // The build consumes the reader's cursor: on a drained reader it
    // would silently price nothing.
    if (reader.consumed())
        panic("buildLedger needs an unread trace reader: " + reader.path());
    int n = crossbar_.numNodes();
    const sim::TraceHeader &header = reader.header();
    fatalIf(header.numNodes != n, "trace size mismatch");
    fatalIf(header.totalTicks == 0, "trace has zero duration");
    if (thread_to_core)
        sim::checkCoreMapping(*thread_to_core, n);

    double duration = static_cast<double>(header.totalTicks) /
                      params_.net.clockHz;
    // An epoch-free trace (MNOC_LEDGER was off at capture) attributes
    // the whole run to a single epoch, so every consumer handles both
    // trace kinds uniformly.
    std::size_t num_epochs =
        header.numEpochs == 0 ? 1 : header.numEpochs;
    EnergyLedger ledger(n, design.topology.numModes, num_epochs,
                        duration);
    ledger.epochMsgs_ = header.messagesPerEpoch;

    AccrualPlan plan(design, params_, crossbar_.params(), n);
    std::vector<noc::EpochCell> cells;
    for (std::size_t epoch = 0; reader.nextEpoch(cells); ++epoch) {
        if (thread_to_core)
            sim::mapEpochCells(cells, *thread_to_core);
        for (const noc::EpochCell &cell : cells)
            plan.accrue(ledger, cell.src, cell.dst, cell.flits, epoch);
        if (observe)
            observe(epoch, cells);
    }
    if (header.numEpochs == 0) {
        // Epoch-free trace: fold the streamed messages into a dense
        // (mapped) flit matrix first, then accrue in (src, dst)
        // order.  Integer folds are exact in any order, so the
        // accrual's association order is fixed whatever source or
        // batch size the reader serves.
        CountMatrix flits(static_cast<std::size_t>(n),
                          static_cast<std::size_t>(n), 0);
        std::vector<sim::TraceMessage> batch;
        while (reader.nextMessages(batch, sim::kMessageBatch) > 0) {
            for (const sim::TraceMessage &msg : batch) {
                int src = msg.src;
                int dst = msg.dst;
                if (thread_to_core) {
                    src = (*thread_to_core)[static_cast<std::size_t>(
                        src)];
                    dst = (*thread_to_core)[static_cast<std::size_t>(
                        dst)];
                }
                flits(static_cast<std::size_t>(src),
                      static_cast<std::size_t>(dst)) += msg.flits;
            }
        }
        for (int s = 0; s < n; ++s)
            for (int d = 0; d < n; ++d)
                plan.accrue(ledger, s, d,
                            flits(static_cast<std::size_t>(s),
                                  static_cast<std::size_t>(d)),
                            0);
    }

    attachLosses(design, ledger);
    recordLedgerMetrics(ledger);
    return ledger;
}

} // namespace mnoc::core
