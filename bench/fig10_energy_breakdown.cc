/**
 * @file
 * Figure 10: total NoC energy relative to rNoC for the four designs --
 * rNoC, base mNoC (1M), clustered mNoC, and the best power-topology
 * mNoC (4M_T_G_S12) -- broken into ring heating, source power,
 * O/E + E/O, and electrical link/router energy.  Energy couples each
 * design's power with its own network's runtime.
 */

#include <iostream>
#include <vector>

#include "common/csv.hh"
#include "common/stats.hh"
#include "common/table.hh"
#include "core/energy_ledger.hh"
#include "harness.hh"
#include "sim/trace_stream.hh"

using namespace mnoc;

int
main()
{
    bench::Harness harness;
    bench::printHeader("Total NoC energy relative to rNoC",
                       "Figure 10");

    const auto &designer = harness.designer();
    int n = harness.numCores();
    auto identity = harness.identityMapping();
    FlowMatrix uniform(n, n, 1.0);

    core::RnocPowerModel rnoc_model{core::RnocParams{}};
    core::CmnocPowerModel cmnoc_model;

    core::DesignSpec base_spec; // 1M
    auto base_design = designer.buildDesign(
        base_spec, designer.buildTopology(base_spec, uniform), uniform);

    std::cerr << "[fig10] building 4M_T_G_S12...\n";
    FlowMatrix s12 = harness.sampledCoreFlow(harness.benchmarks());
    core::DesignSpec pt_spec;
    pt_spec.numModes = 4;
    pt_spec.mapping = core::MappingMethod::Taboo;
    pt_spec.assignment = core::Assignment::CommAware;
    pt_spec.weights = core::WeightSource::DesignFlow;
    pt_spec.sampleTag = "12";
    auto pt_design = designer.buildDesign(
        pt_spec, designer.buildTopology(pt_spec, s12), s12);

    // Accumulate per-category energy (J) across the suite.
    struct Energy
    {
        double ring = 0.0, source = 0.0, oe = 0.0, electrical = 0.0;
        double
        total() const
        {
            return ring + source + oe + electrical;
        }
    };
    Energy rnoc, mnoc, cmnoc, pt;
    double clock = harness.powerParams().net.clockHz;

    auto add = [&](Energy &acc, const core::PowerBreakdown &power,
                   noc::Tick ticks) {
        double seconds = static_cast<double>(ticks) / clock;
        acc.ring += (power.ringHeating + power.laser) * seconds;
        acc.source += power.source * seconds;
        acc.oe += power.oe * seconds;
        acc.electrical += power.electrical * seconds;
    };

    // mNoC rows read their power from the energy-attribution ledger
    // (core/energy_ledger.hh), so this figure and `mnocpt report`
    // can never disagree about the same design + trace.  The
    // delivered-fraction tally below rides along from the ledger's
    // loss walk.
    double optical_injected_j = 0.0;
    double optical_delivered_j = 0.0;
    auto ledgerPower = [&](const core::MnocDesign &design,
                           const sim::Trace &trace,
                           const std::vector<int> &map) {
        sim::TraceReader reader(trace);
        auto ledger = designer.model().buildLedger(design, reader, &map);
        for (int s = 0; s < ledger.numSources(); ++s) {
            for (int m = 0; m < ledger.numModes(); ++m) {
                double tx = 0.0;
                for (std::size_t e = 0; e < ledger.numEpochs(); ++e)
                    tx += ledger.cell(s, m, e).txSeconds;
                const auto &loss = ledger.loss(s, m);
                optical_injected_j += tx * loss.injected;
                optical_delivered_j += tx * loss.delivered;
            }
        }
        return ledger.averagePower();
    };

    for (const auto &name : harness.benchmarks()) {
        const auto &mnoc_trace = harness.trace(name, "mnoc");
        const auto &rnoc_trace = harness.trace(name, "rnoc");
        const auto &taboo = harness.mapping(name);

        add(rnoc, rnoc_model.evaluate(rnoc_trace),
            rnoc_trace.totalTicks);
        add(cmnoc, cmnoc_model.evaluate(rnoc_trace),
            rnoc_trace.totalTicks);
        add(mnoc, ledgerPower(base_design, mnoc_trace, identity),
            mnoc_trace.totalTicks);
        add(pt, ledgerPower(pt_design, mnoc_trace, taboo),
            mnoc_trace.totalTicks);
    }

    double norm = rnoc.total();
    TextTable table;
    table.addRow({"design", "ring+laser", "source", "O/E&E/O",
                  "elink+router", "total"});
    CsvWriter csv(harness.outPath("fig10_energy_breakdown.csv"));
    csv.writeRow({"design", "ring_laser", "source", "oe",
                  "elink_router", "total"});
    auto row = [&](const std::string &label, const Energy &e) {
        table.addRow({label, TextTable::num(e.ring / norm, 3),
                      TextTable::num(e.source / norm, 3),
                      TextTable::num(e.oe / norm, 3),
                      TextTable::num(e.electrical / norm, 3),
                      TextTable::num(e.total() / norm, 3)});
        csv.cell(label)
            .cell(e.ring / norm)
            .cell(e.source / norm)
            .cell(e.oe / norm)
            .cell(e.electrical / norm)
            .cell(e.total() / norm);
        csv.endRow();
    };
    row("rNoC", rnoc);
    row("mNoC (1M)", mnoc);
    row("c_mNoC", cmnoc);
    row("PT_mNoC (4M_T_G_S12)", pt);
    table.print(std::cout);

    if (optical_injected_j > 0.0)
        std::cout << "\nledger optical accounting: "
                  << TextTable::num(100.0 * optical_delivered_j /
                                        optical_injected_j, 2)
                  << "% of injected optical energy reaches "
                     "photodetectors\n";

    std::cout << "\nPaper anchors: base mNoC ~0.57 of rNoC energy, "
                 "c_mNoC ~0.21,\nPT_mNoC ~0.28 (72% reduction); rNoC is "
                 "dominated by ring heating.\n";
    return 0;
}
