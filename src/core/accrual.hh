/**
 * @file
 * The per-message energy-accrual plan shared by every ledger build
 * and by the adaptive controller's candidate evaluation.
 *
 * An AccrualPlan gathers one design's accrual inputs into SoA tables
 * -- flat per-(source, dest) mode ids, per-(source, mode) drive
 * watts and receiver populations -- so the hot loop reads contiguous
 * arrays instead of chasing topology/design pointers per message.
 * The stored doubles are the very values the source expressions
 * produce and the arithmetic keeps its association order, so accrued
 * energies are bit-identical to a naive per-message walk.
 *
 * Two consumers:
 *  - accrue() charges a message into an EnergyLedger cell (the one
 *    ledger build, MnocPowerModel::buildLedger, whatever source its
 *    reader serves, and the adaptive controller's epoch-by-epoch
 *    attribution);
 *  - quote() prices the same message without a ledger, which is how
 *    the adaptive controller scores candidate designs against a
 *    traffic window before deciding whether switching pays.
 */

#ifndef MNOC_CORE_ACCRUAL_HH
#define MNOC_CORE_ACCRUAL_HH

#include <cstdint>
#include <vector>

#include "core/energy_ledger.hh"
#include "core/power_model.hh"
#include "optics/device_params.hh"

namespace mnoc::core {

/** Precomputed SoA accrual tables for one design (see file docs). */
class AccrualPlan
{
  public:
    AccrualPlan(const MnocDesign &design, const PowerParams &params,
                const optics::DeviceParams &optics_params, int n);

    /** Charge @p flit_count flits from @p src to @p dst into the
     *  (src, mode, epoch) cell of @p ledger.  Self-messages and
     *  zero counts accrue nothing. */
    void accrue(EnergyLedger &ledger, int src, int dst,
                std::uint64_t flit_count, std::size_t epoch) const;

    /** Energy in joules the same message would accrue -- source +
     *  O/E + electrical buckets, identical expressions and
     *  association order to accrue() -- without touching a ledger. */
    double quote(int src, int dst, std::uint64_t flit_count) const;

    int numModes() const { return numModes_; }

  private:
    int n_;
    int numModes_;
    double flitTime_;
    double oneToZeroRatio_;
    double qdLedEfficiency_;
    double oePerReceiver_;
    double bufferEnergyPerFlit_;
    std::vector<int> modeOf_;
    std::vector<int> reach_;
    std::vector<double> modePowerW_;
};

} // namespace mnoc::core

#endif // MNOC_CORE_ACCRUAL_HH
