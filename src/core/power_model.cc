#include "core/power_model.hh"

#include "common/log.hh"
#include "common/units.hh"
#include "core/energy_ledger.hh"
#include "optics/alpha_optimizer.hh"
#include "sim/trace_stream.hh"

namespace mnoc::core {

WattPower
MnocDesign::powerFor(int source, int dest) const
{
    const auto &local = topology.local(source);
    int mode = local.modeOfDest[dest];
    fatalIf(mode < 0, "a source does not transmit to itself");
    return sources[source].modePower[mode];
}

MnocPowerModel::MnocPowerModel(const optics::OpticalCrossbar &crossbar,
                               const PowerParams &params)
    : crossbar_(crossbar), params_(params)
{
    fatalIf(params_.oeBase < WattPower(0.0) ||
                params_.oeMin < WattPower(0.0),
            "O/E power coefficients must be non-negative");
    fatalIf(params_.bufferEnergyPerFlit < 0.0,
            "buffer energy must be non-negative");
}

MnocDesign
MnocPowerModel::designWithWeights(
    const GlobalPowerTopology &topology,
    const std::vector<std::vector<double>> &weights,
    DecibelLoss design_margin) const
{
    topology.validate();
    int n = crossbar_.numNodes();
    fatalIf(topology.numNodes != n, "topology size mismatch");
    fatalIf(design_margin < DecibelLoss(0.0),
            "design margin must be non-negative");

    MnocDesign design;
    design.topology = topology;
    design.sources.reserve(n);
    // Inflating the design-time pmin by the margin makes every
    // reachable link clear the true threshold by that many dB.
    WattPower pmin = crossbar_.params().pminAtTap() *
                     design_margin.toAttenuation();
    for (int s = 0; s < n; ++s) {
        optics::AlphaOptimizer optimizer(crossbar_.chain(s),
                                         topology.local(s).modeOfDest,
                                         weights[s], pmin);
        design.sources.push_back(optimizer.optimize());
    }
    return design;
}

MnocDesign
MnocPowerModel::designFor(const GlobalPowerTopology &topology,
                          const FlowMatrix &design_flow,
                          DecibelLoss design_margin) const
{
    int n = crossbar_.numNodes();
    fatalIf(static_cast<int>(design_flow.rows()) != n ||
            static_cast<int>(design_flow.cols()) != n,
            "design flow matrix size mismatch");

    std::vector<std::vector<double>> weights(n);
    for (int s = 0; s < n; ++s) {
        const auto &local = topology.local(s);
        std::vector<double> w(topology.numModes, 0.0);
        double total = 0.0;
        for (int d = 0; d < n; ++d) {
            if (d == s)
                continue;
            w[local.modeOfDest[d]] += design_flow(s, d);
            total += design_flow(s, d);
        }
        if (total <= 0.0) {
            // No design traffic: weight modes by destination count.
            for (int d = 0; d < n; ++d)
                if (d != s)
                    w[local.modeOfDest[d]] += 1.0;
        }
        weights[s] = std::move(w);
    }
    return designWithWeights(topology, weights, design_margin);
}

MnocDesign
MnocPowerModel::designUniform(const GlobalPowerTopology &topology,
                              DecibelLoss design_margin) const
{
    FlowMatrix uniform(crossbar_.numNodes(), crossbar_.numNodes(), 1.0);
    return designFor(topology, uniform, design_margin);
}

MnocDesign
MnocPowerModel::designWithFractions(
    const GlobalPowerTopology &topology,
    const std::vector<double> &mode_fractions,
    DecibelLoss design_margin) const
{
    fatalIf(static_cast<int>(mode_fractions.size()) !=
                topology.numModes,
            "one fraction per mode required");
    std::vector<std::vector<double>> weights(
        crossbar_.numNodes(), mode_fractions);
    return designWithWeights(topology, weights, design_margin);
}

PowerBreakdown
MnocPowerModel::evaluate(const MnocDesign &design,
                         const sim::Trace &trace) const
{
    sim::TraceReader reader(trace);
    return buildLedger(design, reader).averagePower();
}

} // namespace mnoc::core
