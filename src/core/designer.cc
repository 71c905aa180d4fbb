#include "core/designer.hh"

#include <algorithm>
#include <utility>

#include "common/log.hh"
#include "core/energy_ledger.hh"
#include "optics/link_budget.hh"
#include "sim/trace_stream.hh"

namespace mnoc::core {

std::string
DesignSpec::label() const
{
    std::string out = std::to_string(numModes) + "M";
    if (mapping != MappingMethod::Identity)
        out += "_T";
    if (numModes > 1) {
        switch (assignment) {
          case Assignment::DistanceBased:
            out += "_N";
            break;
          case Assignment::CommAware:
            out += "_G";
            break;
          case Assignment::Clustered:
            out += "_C";
            break;
        }
        switch (weights) {
          case WeightSource::Uniform:
            out += "_U";
            break;
          case WeightSource::Fractions:
            out += "_W";
            break;
          case WeightSource::DesignFlow:
            out += "_S" + sampleTag;
            break;
        }
    }
    return out;
}

Designer::Designer(const optics::OpticalCrossbar &crossbar,
                   const PowerParams &params)
    : crossbar_(crossbar), model_(crossbar, params)
{
}

MappingResult
Designer::map(const FlowMatrix &thread_flow, MappingMethod method,
              const MappingParams &params) const
{
    return mapThreads(crossbar_, thread_flow, method, params);
}

GlobalPowerTopology
Designer::buildTopology(const DesignSpec &spec,
                        const FlowMatrix &core_design_flow) const
{
    int n = crossbar_.numNodes();
    fatalIf(spec.numModes < 1, "need at least one mode");
    if (spec.numModes == 1)
        return GlobalPowerTopology::singleMode(n);

    switch (spec.assignment) {
      case Assignment::DistanceBased:
        return distanceBasedTopology(n, spec.numModes);
      case Assignment::Clustered:
        fatalIf(spec.numModes != 2,
                "the clustered mapping is a two-mode design");
        return clusteredTopology(n, 4);
      case Assignment::CommAware: {
        CommAwareConfig config;
        config.numModes = spec.numModes;
        return commAwareTopology(crossbar_, core_design_flow, config);
      }
    }
    panic("unreachable assignment kind");
}

MnocDesign
Designer::buildDesign(const DesignSpec &spec,
                      const GlobalPowerTopology &topology,
                      const FlowMatrix &core_design_flow,
                      DecibelLoss design_margin) const
{
    switch (spec.weights) {
      case WeightSource::Uniform:
        return model_.designUniform(topology, design_margin);
      case WeightSource::Fractions:
        return model_.designWithFractions(topology, spec.fractions,
                                          design_margin);
      case WeightSource::DesignFlow:
        return model_.designFor(topology, core_design_flow,
                                design_margin);
    }
    panic("unreachable weight source");
}

namespace {

/** Does @p design hold its budgets at the *unperturbed* parameters? */
bool
nominallyValid(const optics::OpticalCrossbar &crossbar,
               const MnocDesign &design,
               const faults::YieldCriteria &criteria)
{
    WattPower pmin = crossbar.params().pminAtTap();
    for (int s = 0; s < crossbar.numNodes(); ++s) {
        auto report = optics::validateDesign(
            crossbar.chain(s), design.sources[s], pmin,
            criteria.requiredMargin, criteria.maxLeak);
        if (!report.ok)
            return false;
    }
    return true;
}

/**
 * The mode whose links failed most often across the draws, clamped so
 * it can be merged upward (the broadcast mode itself cannot collapse).
 */
int
worstFailingMode(const faults::YieldReport &report, int num_modes)
{
    int worst = 0;
    long long worst_count = -1;
    for (int m = 0; m < num_modes; ++m) {
        long long count = report.marginFailuresByMode[m] +
                          report.leakFailuresByMode[m];
        if (count > worst_count) {
            worst_count = count;
            worst = m;
        }
    }
    return std::min(worst, num_modes - 2);
}

} // namespace

ResilientDesign
Designer::buildResilientDesign(const DesignSpec &spec,
                               const GlobalPowerTopology &topology,
                               const FlowMatrix &core_design_flow,
                               const ResilienceParams &resilience) const
{
    resilience.variation.validate();
    fatalIf(resilience.yieldTarget < 0.0 || resilience.yieldTarget > 1.0,
            "yield target must lie in [0, 1]");
    fatalIf(resilience.trials < 1, "need at least one yield trial");
    fatalIf(resilience.marginStep <= DecibelLoss(0.0),
            "margin step must be positive");
    fatalIf(resilience.maxMargin < DecibelLoss(0.0),
            "max margin must be non-negative");
    fatalIf(resilience.criteria.requiredMargin > resilience.maxMargin,
            "required link margin exceeds the hardenable maximum");

    DesignSpec working = spec;
    GlobalPowerTopology topo = topology;
    DecibelLoss base_margin =
        std::max(DecibelLoss(0.0), resilience.criteria.requiredMargin);

    ResilientDesign out;
    auto &summary = out.summary;
    summary.yieldTarget = resilience.yieldTarget;
    summary.trials = resilience.trials;
    summary.seed = resilience.seed;
    summary.spec = resilience.variation;

    auto analyze = [&](const MnocDesign &design) {
        return faults::analyzeYield(
            crossbar_.layout(), crossbar_.params(), design.sources,
            resilience.variation, resilience.trials, resilience.seed,
            resilience.criteria);
    };

    // Best nominally-valid candidate seen, by yield then by margin.
    double best_yield = -1.0;
    DecibelLoss best_margin;

    while (true) {
        working.numModes = topo.numModes;
        DecibelLoss margin = base_margin;
        faults::YieldReport last_report;
        while (true) {
            auto design = buildDesign(working, topo, core_design_flow,
                                      margin);
            auto report = analyze(design);

            DegradationStep step;
            step.kind = DegradationStep::Kind::Margin;
            step.numModes = topo.numModes;
            step.margin = margin;
            step.yield = report.yield;
            summary.path.push_back(step);

            bool valid =
                nominallyValid(crossbar_, design, resilience.criteria);
            // ">=": among equal yields prefer the later candidate --
            // more margin and a more conservative (further degraded)
            // mode set -- so a hopeless target ends at broadcast.
            if (valid && report.yield >= best_yield) {
                best_yield = report.yield;
                best_margin = margin;
                out.design = std::move(design);
                out.yield = report;
                summary.finalNumModes = topo.numModes;
            }
            if (valid && report.yield >= resilience.yieldTarget) {
                summary.metTarget = true;
                summary.finalYield = report.yield;
                summary.finalMargin = margin;
                return out;
            }
            last_report = std::move(report);
            if (margin >= resilience.maxMargin - DecibelLoss(1e-9))
                break;
            margin = std::min(margin + resilience.marginStep,
                              resilience.maxMargin);
        }

        if (topo.numModes == 1)
            break;

        // Margin is exhausted: degrade by merging the worst-failing
        // mode into the next-higher-power one and sweep margin again.
        int worst = worstFailingMode(last_report, topo.numModes);
        DegradationStep step;
        step.kind = DegradationStep::Kind::Collapse;
        step.numModes = topo.numModes - 1;
        step.collapsedMode = worst;
        step.margin = base_margin;
        summary.path.push_back(step);
        topo = collapseMode(topo, worst);
        if (working.weights == WeightSource::Fractions &&
            !working.fractions.empty()) {
            working.fractions[worst + 1] += working.fractions[worst];
            working.fractions.erase(working.fractions.begin() + worst);
        }
    }

    if (best_yield < 0.0) {
        // Nothing evaluated was even nominally valid (an extreme leak
        // constraint): fall back to broadcast at maximum margin, which
        // has no unreachable links and so always holds its budgets.
        GlobalPowerTopology broadcast =
            GlobalPowerTopology::singleMode(crossbar_.numNodes());
        working.numModes = 1;
        if (working.weights == WeightSource::Fractions)
            working.fractions = {1.0};
        auto design = buildDesign(working, broadcast, core_design_flow,
                                  resilience.maxMargin);
        auto report = analyze(design);
        DegradationStep step;
        step.kind = DegradationStep::Kind::Margin;
        step.numModes = 1;
        step.margin = resilience.maxMargin;
        step.yield = report.yield;
        summary.path.push_back(step);
        panicIf(!nominallyValid(crossbar_, design, resilience.criteria),
                "broadcast fallback violates its nominal budget");
        best_yield = report.yield;
        best_margin = resilience.maxMargin;
        out.design = std::move(design);
        out.yield = std::move(report);
        summary.finalNumModes = 1;
    }

    summary.metTarget = best_yield >= resilience.yieldTarget;
    summary.finalYield = best_yield;
    summary.finalMargin = best_margin;
    return out;
}

PowerBreakdown
Designer::evaluate(const MnocDesign &design,
                   const sim::Trace &thread_trace,
                   const std::vector<int> &thread_to_core) const
{
    sim::TraceReader reader(thread_trace);
    return model_.buildLedger(design, reader, &thread_to_core)
        .averagePower();
}

} // namespace mnoc::core
