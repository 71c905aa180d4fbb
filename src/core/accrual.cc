#include "core/accrual.hh"

namespace mnoc::core {

AccrualPlan::AccrualPlan(const MnocDesign &design,
                         const PowerParams &params,
                         const optics::DeviceParams &optics_params,
                         int n)
    : n_(n), numModes_(design.topology.numModes),
      flitTime_(1.0 / params.net.clockHz),
      oneToZeroRatio_(optics_params.oneToZeroRatio),
      qdLedEfficiency_(optics_params.qdLedEfficiency),
      oePerReceiver_(
          params.oePowerPerReceiver(optics_params.photodetectorMiop)
              .watts()),
      bufferEnergyPerFlit_(params.bufferEnergyPerFlit)
{
    auto sn = static_cast<std::size_t>(n);
    auto sm = static_cast<std::size_t>(numModes_);
    modeOf_.assign(sn * sn, -1);
    reach_.assign(sn * sm, 0);
    modePowerW_.assign(sn * sm, 0.0);
    for (int s = 0; s < n; ++s) {
        const auto &local = design.topology.local(s);
        auto row = static_cast<std::size_t>(s) * sn;
        for (int d = 0; d < n; ++d) {
            if (d == s)
                continue;
            modeOf_[row + static_cast<std::size_t>(d)] =
                local.modeOfDest[d];
        }
        auto slot = static_cast<std::size_t>(s) * sm;
        for (int m = 0; m < numModes_; ++m) {
            reach_[slot + static_cast<std::size_t>(m)] =
                local.reachableCount(m);
            modePowerW_[slot + static_cast<std::size_t>(m)] =
                design.sources[s].modePower[m].watts();
        }
    }
}

void
AccrualPlan::accrue(EnergyLedger &ledger, int src, int dst,
                    std::uint64_t flit_count,
                    std::size_t epoch) const
{
    if (flit_count == 0 || dst == src)
        return;
    int mode = modeOf(src, dst);
    auto slot = static_cast<std::size_t>(src) *
                    static_cast<std::size_t>(numModes_) +
                static_cast<std::size_t>(mode);
    auto flits = static_cast<double>(flit_count);
    double tx_time = flits * flitTime_;
    LedgerCell &cell = ledger.cell(src, mode, epoch);
    cell.flits += flit_count;
    cell.txSeconds += tx_time;
    // QD LED electrical drive, derated by the 1-to-0 ratio.
    cell.sourceEnergy += tx_time * modePowerW_[slot] *
        oneToZeroRatio_ / qdLedEfficiency_;
    // Every receiver reachable in this mode sees the light and
    // burns O/E power for the packet duration.
    cell.oeEnergy += tx_time * reach_[slot] * oePerReceiver_;
    // Injection + ejection buffers.
    cell.electricalEnergy += flits * 2.0 * bufferEnergyPerFlit_;
}

double
AccrualPlan::quote(int src, int dst,
                   std::uint64_t flit_count) const
{
    if (dst == src)
        return 0.0;
    return quoteMode(src, modeOf(src, dst), flit_count);
}

double
AccrualPlan::quoteMode(int src, int mode,
                       std::uint64_t flit_count) const
{
    if (flit_count == 0)
        return 0.0;
    auto slot = static_cast<std::size_t>(src) *
                    static_cast<std::size_t>(numModes_) +
                static_cast<std::size_t>(mode);
    auto flits = static_cast<double>(flit_count);
    double tx_time = flits * flitTime_;
    double source_energy = tx_time * modePowerW_[slot] *
        oneToZeroRatio_ / qdLedEfficiency_;
    double oe_energy = tx_time * reach_[slot] * oePerReceiver_;
    double electrical_energy =
        flits * 2.0 * bufferEnergyPerFlit_;
    return source_energy + oe_energy + electrical_energy;
}

} // namespace mnoc::core
