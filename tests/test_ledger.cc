/**
 * @file
 * Tests of the energy-attribution ledger (core/energy_ledger.hh):
 * loss-breakdown power conservation, agreement with the power model,
 * epoch bucketing, the synthetic epoch for epoch-free traces, lazy
 * epoch blocks, and the metrics trail the build leaves behind.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>

#include "common/log.hh"
#include "common/metrics.hh"
#include "core/builders.hh"
#include "core/energy_ledger.hh"
#include "sim/trace_stream.hh"

namespace {

using namespace mnoc;
using namespace mnoc::core;

struct LedgerFixture
{
    optics::SerpentineLayout layout{16, Meters(0.05)};
    optics::DeviceParams params;
    optics::OpticalCrossbar xbar{layout, params};
    PowerParams power;
    MnocPowerModel model{xbar, power};

    sim::Trace
    uniformTrace(std::uint64_t flits_per_pair = 100,
                 noc::Tick ticks = 100000) const
    {
        sim::Trace t;
        t.workloadName = "synthetic";
        t.networkName = "mNoC";
        t.totalTicks = ticks;
        t.packets = CountMatrix(16, 16, 0);
        t.flits = CountMatrix(16, 16, 0);
        for (int s = 0; s < 16; ++s)
            for (int d = 0; d < 16; ++d)
                if (s != d) {
                    t.packets(s, d) = flits_per_pair / 3;
                    t.flits(s, d) = flits_per_pair;
                }
        return t;
    }

    /** The ledger build over an in-memory reader of @p trace. */
    EnergyLedger
    ledger(const MnocDesign &design, const sim::Trace &trace) const
    {
        sim::TraceReader reader(trace);
        return model.buildLedger(design, reader);
    }
};

TEST(EnergyLedger, LossBreakdownConservesInjectedPower)
{
    LedgerFixture f;
    auto design = f.model.designUniform(
        distanceBasedTopology(16, 4));
    for (int s : {0, 7, 15}) {
        const auto &source = design.sources[s];
        for (std::size_t m = 0; m < source.modePower.size(); ++m) {
            auto loss = f.xbar.chain(s).lossBreakdown(
                source.chain, source.modePower[m]);
            EXPECT_GT(loss.injected, 0.0);
            EXPECT_GT(loss.delivered, 0.0);
            EXPECT_GE(loss.sourceCoupling, 0.0);
            EXPECT_GE(loss.sourceSplit, 0.0);
            EXPECT_GE(loss.waveguide, 0.0);
            EXPECT_GE(loss.tapInsertion, 0.0);
            EXPECT_GE(loss.receiverCoupling, 0.0);
            EXPECT_GE(loss.residual, 0.0);
            EXPECT_NEAR(loss.accountedFor(), loss.injected,
                        1e-12 * loss.injected);
        }
    }
}

TEST(EnergyLedger, AveragePowerMatchesEvaluate)
{
    LedgerFixture f;
    auto design = f.model.designUniform(
        GlobalPowerTopology::singleMode(16));
    auto trace = f.uniformTrace();
    auto direct = f.model.evaluate(design, trace);
    auto ledger = f.ledger(design, trace);
    auto averaged = ledger.averagePower();
    EXPECT_DOUBLE_EQ(averaged.source, direct.source);
    EXPECT_DOUBLE_EQ(averaged.oe, direct.oe);
    EXPECT_DOUBLE_EQ(averaged.electrical, direct.electrical);
    // Energy over duration is power: the two views agree.
    EXPECT_NEAR(ledger.totalEnergy(),
                averaged.total() * ledger.durationSeconds(),
                1e-9 * ledger.totalEnergy());
}

TEST(EnergyLedger, EpochFreeTraceGetsOneSyntheticEpoch)
{
    LedgerFixture f;
    auto design = f.model.designUniform(
        GlobalPowerTopology::singleMode(16));
    auto ledger = f.ledger(design, f.uniformTrace());
    EXPECT_EQ(ledger.numEpochs(), 1u);
    EXPECT_EQ(ledger.messagesPerEpoch(), 0u);
    EXPECT_EQ(ledger.numSources(), 16);
    EXPECT_EQ(ledger.numModes(), 1);
    std::uint64_t flits = 0;
    for (int s = 0; s < 16; ++s)
        flits += ledger.cell(s, 0, 0).flits;
    // 16 sources x 15 destinations x 100 flits.
    EXPECT_EQ(flits, 16u * 15u * 100u);
}

TEST(EnergyLedger, EpochedAttributionMatchesAggregate)
{
    LedgerFixture f;
    auto design = f.model.designUniform(
        distanceBasedTopology(16, 2));
    auto plain = f.uniformTrace();

    // The same traffic split across two epoch windows: total energy
    // and average power must not change, only the bucketing.
    sim::Trace epoched = plain;
    epoched.epochs.messagesPerEpoch = 512;
    std::vector<noc::EpochCell> first, second;
    for (int s = 0; s < 16; ++s) {
        for (int d = 0; d < 16; ++d) {
            if (s == d)
                continue;
            first.push_back({s, d, 20, 60});
            second.push_back({s, d, 13, 40});
        }
    }
    epoched.epochs.epochs = {first, second};

    auto base = f.ledger(design, plain);
    auto split = f.ledger(design, epoched);
    ASSERT_EQ(split.numEpochs(), 2u);
    EXPECT_EQ(split.messagesPerEpoch(), 512u);
    EXPECT_NEAR(split.totalEnergy(), base.totalEnergy(),
                1e-12 * base.totalEnergy());
    auto base_power = base.averagePower();
    auto split_power = split.averagePower();
    EXPECT_NEAR(split_power.total(), base_power.total(),
                1e-12 * base_power.total());

    // Per-epoch flit shares land in their own cells.
    std::uint64_t first_flits = 0, second_flits = 0;
    for (int s = 0; s < 16; ++s) {
        for (int m = 0; m < split.numModes(); ++m) {
            first_flits += split.cell(s, m, 0).flits;
            second_flits += split.cell(s, m, 1).flits;
        }
    }
    EXPECT_EQ(first_flits, 16u * 15u * 60u);
    EXPECT_EQ(second_flits, 16u * 15u * 40u);
}

TEST(EnergyLedger, SourceEpochPowerCoversAttributedEnergy)
{
    LedgerFixture f;
    auto design = f.model.designUniform(
        GlobalPowerTopology::singleMode(16));
    auto ledger = f.ledger(design, f.uniformTrace());
    FlowMatrix heat = ledger.sourceEpochPower();
    ASSERT_EQ(heat.rows(), ledger.numEpochs());
    ASSERT_EQ(heat.cols(), 16u);
    double window = ledger.durationSeconds() /
                    static_cast<double>(ledger.numEpochs());
    EXPECT_NEAR(heat.total() * window, ledger.totalEnergy(),
                1e-9 * ledger.totalEnergy());
}

TEST(EnergyLedger, IndexValidationPanics)
{
    LedgerFixture f;
    auto design = f.model.designUniform(
        GlobalPowerTopology::singleMode(16));
    auto ledger = f.ledger(design, f.uniformTrace());
    EXPECT_THROW(ledger.cell(-1, 0, 0), PanicError);
    EXPECT_THROW(ledger.cell(16, 0, 0), PanicError);
    EXPECT_THROW(ledger.cell(0, 1, 0), PanicError);
    EXPECT_THROW(ledger.cell(0, 0, 1), PanicError);
    EXPECT_THROW(ledger.loss(0, 1), PanicError);
    EXPECT_THROW(EnergyLedger(0, 1, 1, 1.0), PanicError);
    EXPECT_THROW(EnergyLedger(1, 1, 1, 0.0), PanicError);
}

TEST(EnergyLedger, UnaccruedEpochReadsAsZeroAndHoldsNoBlock)
{
    EnergyLedger ledger(4, 2, 3, 1.0e-3);
    const EnergyLedger &view = ledger;
    EXPECT_EQ(ledger.heldEpochs(), 0u);

    // Reads through the const cell() allocate nothing.
    const LedgerCell &unaccrued = view.cell(3, 1, 1);
    EXPECT_EQ(unaccrued.flits, 0u);
    EXPECT_EQ(unaccrued.totalEnergy(), 0.0);
    EXPECT_EQ(view.totalEnergy(), 0.0);
    EXPECT_FALSE(std::signbit(view.epochAttributedEnergy(1)));
    EXPECT_EQ(ledger.heldEpochs(), 0u);

    // The first mutable access allocates its epoch's block alone.
    ledger.cell(2, 1, 2).sourceEnergy = 5e-9;
    EXPECT_FALSE(ledger.holdsEpoch(0));
    EXPECT_FALSE(ledger.holdsEpoch(1));
    EXPECT_TRUE(ledger.holdsEpoch(2));
    EXPECT_EQ(ledger.heldEpochs(), 1u);
    EXPECT_EQ(view.cell(0, 0, 2).sourceEnergy, 0.0);
    EXPECT_EQ(view.epochAttributedEnergy(2), 5e-9);
    EXPECT_EQ(view.totalEnergy(), 5e-9);
    EXPECT_THROW(ledger.holdsEpoch(3), PanicError);

    // Reconfiguration cells sit beside the blocks.
    ledger.addReconfigEnergy(0, 1e-9);
    EXPECT_FALSE(ledger.holdsEpoch(0));
}

TEST(EnergyLedger, BuildLeavesMetricsTrail)
{
    MetricsRegistry::setEnabled(true);
    MetricsRegistry::global().reset();
    LedgerFixture f;
    auto design = f.model.designUniform(
        GlobalPowerTopology::singleMode(16));
    f.ledger(design, f.uniformTrace());
    auto &metrics = MetricsRegistry::global();
    EXPECT_EQ(metrics.counter("ledger.builds").value(), 1u);
    auto flits = metrics.series("ledger.epoch_flits").values();
    ASSERT_EQ(flits.size(), 1u);
    EXPECT_EQ(flits[0], 16u * 15u * 100u);
    MetricsRegistry::global().reset();
    MetricsRegistry::setEnabled(false);
}

TEST(EnergyLedger, FoldsKeepTheirOrderOnGoldenEpochTrace)
{
    // Cells are stored epoch-major; every fold keeps the order the
    // class docs give it.  Test-local folds in those orders must
    // reproduce the ledger's bit for bit.
    MetricsRegistry::setEnabled(true);
    MetricsRegistry::global().reset();
    LedgerFixture f;
    auto design = f.model.designUniform(distanceBasedTopology(16, 4));
    sim::TraceReader reader(std::string(MNOC_TEST_DATA_DIR) +
                            "/golden_epoch_16.trace");
    auto ledger = f.model.buildLedger(design, reader);
    ASSERT_GT(ledger.numEpochs(), 1u);
    ledger.addReconfigEnergy(1, 3e-9);
    ledger.addReconfigEnergy(ledger.numEpochs() - 1, 7e-9);
    int sources = ledger.numSources();
    int modes = ledger.numModes();

    // Whole ledger: one accumulator, (source, mode, epoch) order.
    double source_energy = 0.0;
    double oe_energy = 0.0;
    double electrical_energy = 0.0;
    double total = 0.0;
    for (int s = 0; s < sources; ++s) {
        for (int m = 0; m < modes; ++m) {
            for (std::size_t e = 0; e < ledger.numEpochs(); ++e) {
                const LedgerCell &cell = ledger.cell(s, m, e);
                source_energy += cell.sourceEnergy;
                oe_energy += cell.oeEnergy;
                electrical_energy += cell.electricalEnergy;
                total += cell.totalEnergy();
            }
        }
    }
    auto power = ledger.averagePower();
    double duration = ledger.durationSeconds();
    EXPECT_EQ(power.source, source_energy / duration);
    EXPECT_EQ(power.oe, oe_energy / duration);
    EXPECT_EQ(power.electrical, electrical_energy / duration);
    EXPECT_EQ(power.reconfig, ledger.totalReconfigEnergy() / duration);
    EXPECT_EQ(ledger.totalEnergy(), total + ledger.totalReconfigEnergy());

    // Per epoch: (source, mode) order within the epoch.
    auto heatmap = ledger.sourceEpochPower();
    auto flits =
        MetricsRegistry::global().series("ledger.epoch_flits").values();
    ASSERT_EQ(flits.size(), ledger.numEpochs());
    double window = duration / static_cast<double>(ledger.numEpochs());
    for (std::size_t e = 0; e < ledger.numEpochs(); ++e) {
        double attributed = 0.0;
        std::uint64_t epoch_flits = 0;
        for (int s = 0; s < sources; ++s) {
            double source_total = 0.0;
            for (int m = 0; m < modes; ++m) {
                const LedgerCell &cell = ledger.cell(s, m, e);
                attributed += cell.totalEnergy();
                source_total += cell.totalEnergy();
                epoch_flits += cell.flits;
            }
            EXPECT_EQ(heatmap(e, static_cast<std::size_t>(s)),
                      source_total / window)
                << "epoch " << e << " source " << s;
        }
        EXPECT_EQ(ledger.epochAttributedEnergy(e), attributed)
            << "epoch " << e;
        EXPECT_EQ(flits[e], epoch_flits) << "epoch " << e;
    }
    MetricsRegistry::global().reset();
    MetricsRegistry::setEnabled(false);
}

} // namespace
