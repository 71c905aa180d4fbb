/**
 * @file
 * perfbench_trace -- the traced, in-process pass of the pipeline
 * benchmark.
 *
 * Runs one workload's setup and pass through the same library calls
 * the `mnocpt` verbs make, wrapping each call in a TraceSpan from this
 * file (the library's own spans nest inside them).  Span categories
 * tell the three kinds of call apart:
 *
 *   setup  producing the workload's inputs (simulate, replay design)
 *   pass   the calls the timed verbs make, in verb order
 *   probe  extra layer measurements no timed verb makes: reader
 *          drain, link-budget validation, and on replay_adaptive the
 *          design-time layers (QAP map, hardening loop, yield)
 *
 * Writes the spans as Chrome trace-event JSON (readable by `mnocpt
 * profile`) and a flat JSON of counts and quality figures; prints the
 * profileSpans() self-time table.  perfbench/run.py drives it.
 *
 * Usage:
 *   perfbench_trace --workload replay_faulted|replay_adaptive --seed N
 *                   --dir DIR
 */

#include <cstdint>
#include <filesystem>
#include <iomanip>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "common/io.hh"
#include "common/log.hh"
#include "common/matrix.hh"
#include "common/metrics.hh"
#include "common/prng.hh"
#include "common/trace_span.hh"
#include "core/design_io.hh"
#include "core/designer.hh"
#include "core/energy_ledger.hh"
#include "faults/variation.hh"
#include "faults/yield.hh"
#include "noc/mnoc_network.hh"
#include "optics/link_budget.hh"
#include "runtime/adaptive_controller.hh"
#include "runtime/degradation_controller.hh"
#include "runtime/fault_timeline.hh"
#include "sim/simulator.hh"
#include "sim/trace.hh"
#include "sim/trace_stream.hh"
#include "workloads/registry.hh"

using namespace mnoc;

namespace {

constexpr int kCores = 256;
constexpr int kOps = 300;
constexpr int kModes = 4;
constexpr int kMapIterations = 2000;
constexpr int kTrials = 50;
constexpr double kYieldTarget = 0.95;

/** Same crossbar sizing as the mnocpt Context. */
struct Context
{
    Context()
        : layout(kCores, optics::defaultWaveguideLength * kCores / 256.0),
          crossbar(layout, optics::DeviceParams{}), designer(crossbar)
    {
    }

    optics::SerpentineLayout layout;
    optics::OpticalCrossbar crossbar;
    core::Designer designer;
};

core::DesignSpec
commSpec()
{
    core::DesignSpec spec;
    spec.numModes = kModes;
    spec.assignment = core::Assignment::CommAware;
    spec.weights = core::WeightSource::DesignFlow;
    return spec;
}

/** Counts and quality figures, written as one flat JSON object. */
class Figures
{
  public:
    void set(const std::string &name, double value)
    {
        values_[name] = value;
    }

    void
    write(const std::string &path) const
    {
        FileWriter out(path);
        out.stream() << std::setprecision(17) << "{";
        const char *sep = "";
        for (const auto &[name, value] : values_) {
            out.stream() << sep << "\"" << name << "\": " << value;
            sep = ", ";
        }
        out.stream() << "}\n";
        out.close();
    }

  private:
    std::map<std::string, double> values_;
};

/** `mnocpt simulate`: run the fixture and save its trace. */
void
simulate(const Context &ctx, std::uint64_t seed, const std::string &path,
         Figures &figures)
{
    noc::NetworkConfig net_config;
    noc::MnocNetwork network(ctx.layout, net_config);
    sim::SimConfig config;
    config.numCores = kCores;
    workloads::WorkloadScale scale;
    scale.opsPerThread = kOps;
    auto workload = workloads::makeWorkload("splice:barnes+radix", scale);
    sim::SimulationResult result;
    {
        TraceSpan span("sim.run", "setup");
        result = sim::runSimulation(config, network, *workload, seed);
    }
    auto trace = sim::toTrace(result);
    {
        TraceSpan span("sim.save_trace", "setup");
        sim::saveTrace(path, trace);
    }
    figures.set("sim.trace_bytes",
                static_cast<double>(std::filesystem::file_size(path)));
    figures.set("sim.cycles", static_cast<double>(result.totalTicks));
    figures.set("sim.packets",
                static_cast<double>(result.coherence.packetsSent));
}

/** `mnocpt design` without a map: the replay workloads' input. */
void
designReplayInput(const Context &ctx, const std::string &trace_path,
                  const std::string &design_path)
{
    sim::Trace trace;
    {
        TraceSpan span("sim.load_trace", "setup");
        trace = sim::loadTrace(trace_path);
    }
    FlowMatrix flow = toFlowMatrix(trace.flits);
    auto spec = commSpec();
    core::GlobalPowerTopology topology;
    {
        TraceSpan span("core.build_topology", "setup");
        topology = ctx.designer.buildTopology(spec, flow);
    }
    core::MnocDesign design;
    {
        TraceSpan span("core.build_design", "setup");
        design = ctx.designer.buildDesign(spec, topology, flow);
    }
    TraceSpan span("core.save_design", "setup");
    core::saveDesign(design_path, design);
}

/** `mnocpt map --iterations 2000`, as a probe. */
std::vector<int>
mapProbe(const Context &ctx, const std::string &trace_path,
         Figures &figures)
{
    sim::Trace trace;
    {
        TraceSpan span("sim.load_trace", "probe");
        trace = sim::loadTrace(trace_path);
    }
    core::MappingParams params;
    params.tabooIterations = kMapIterations;
    TraceSpan span("core.map", "probe");
    auto result = ctx.designer.map(toFlowMatrix(trace.flits),
                                   core::MappingMethod::Taboo, params);
    figures.set("qap.cost", result.qapCost);
    figures.set("qap.cost_ratio", result.qapCost / result.identityCost);
    return result.threadToCore;
}

/** `mnocpt design --map ... --modes 4 --assign comm --yield-target 0.95
 *  --trials 50`, as a probe. */
void
hardenProbe(const Context &ctx, const std::string &trace_path,
            const std::vector<int> &mapping, const std::string &out,
            Figures &figures)
{
    sim::Trace trace;
    {
        TraceSpan span("sim.load_trace", "probe");
        trace = sim::loadTrace(trace_path);
    }
    FlowMatrix flow = toFlowMatrix(sim::mapTrace(trace, mapping).flits);
    auto spec = commSpec();
    core::GlobalPowerTopology topology;
    {
        TraceSpan span("core.build_topology", "probe");
        topology = ctx.designer.buildTopology(spec, flow);
    }
    core::ResilienceParams resilience;
    resilience.trials = kTrials;
    resilience.yieldTarget = kYieldTarget;
    core::ResilientDesign hardened;
    {
        TraceSpan span("core.resilient_design", "probe");
        hardened = ctx.designer.buildResilientDesign(spec, topology, flow,
                                                     resilience);
    }
    {
        TraceSpan span("core.save_design", "probe");
        core::saveDesign(out, hardened.design, &hardened.summary);
    }
    int margin_steps = 0;
    for (const auto &step : hardened.summary.path)
        margin_steps += step.kind == core::DegradationStep::Kind::Margin;
    figures.set("core.margin_steps", margin_steps);
    figures.set("core.hardened_yield", hardened.summary.finalYield);
    figures.set("core.hardened_margin_db",
                hardened.summary.finalMargin.dB());
    figures.set("core.hardened_modes", hardened.summary.finalNumModes);
}

core::MnocDesign
loadDesign(const std::string &path, const char *category)
{
    TraceSpan span("core.load_design", category);
    return core::loadDesign(path);
}

/** `mnocpt budget`: validate every source's link budget. */
void
validateProbe(const Context &ctx, const core::MnocDesign &design,
              Figures &figures)
{
    WattPower pmin = ctx.crossbar.params().pminAtTap();
    double worst_margin = 1e9;
    TraceSpan span("optics.validate_design", "probe");
    for (int s = 0; s < kCores; ++s) {
        auto report = optics::validateDesign(ctx.crossbar.chain(s),
                                             design.sources[s], pmin);
        worst_margin =
            std::min(worst_margin, report.worstReachableMargin.dB());
    }
    figures.set("optics.worst_margin_db", worst_margin);
}

/** Open a reader and pull every epoch without accruing. */
void
drainProbe(const std::string &trace_path, Figures &figures)
{
    TraceSpan span("sim.reader_drain", "probe");
    sim::TraceReader reader(trace_path);
    std::vector<noc::EpochCell> cells;
    std::size_t epochs = 0, total_cells = 0;
    while (reader.nextEpoch(cells)) {
        ++epochs;
        total_cells += cells.size();
    }
    figures.set("sim.epochs", static_cast<double>(epochs));
    figures.set("sim.epoch_cells", static_cast<double>(total_cells));
}

core::EnergyLedger
buildLedger(const Context &ctx, const core::MnocDesign &design,
            const std::string &trace_path, const std::vector<int> &mapping,
            Figures &figures)
{
    sim::TraceReader reader(trace_path);
    sim::checkCoreMapping(mapping, reader.header().numNodes);
    TraceSpan span("core.build_ledger", "pass");
    auto ledger = ctx.designer.model().buildLedger(design, reader, &mapping);
    double cells = static_cast<double>(ledger.numSources()) *
                   ledger.numModes() *
                   static_cast<double>(ledger.numEpochs());
    figures.set("core.ledger_cells", cells);
    return ledger;
}

/** The design-time layers no timed verb calls: QAP map, hardening
 *  loop and Monte Carlo yield of the hardened design. */
void
designProbes(const Context &ctx, const std::string &dir, Figures &figures)
{
    auto mapping = mapProbe(ctx, dir + "/s.trace", figures);
    hardenProbe(ctx, dir + "/s.trace", mapping, dir + "/h.design", figures);
    auto hardened = loadDesign(dir + "/h.design", "probe");
    faults::YieldReport report;
    {
        TraceSpan span("faults.analyze_yield", "probe");
        report = faults::analyzeYield(
            ctx.layout, ctx.crossbar.params(), hardened.sources,
            faults::VariationSpec{}, kTrials, 1);
    }
    figures.set("faults.yield", report.yield);
}

/** `MNOC_FAULTS=1 mnocpt report`, without the rendering. */
void
replayFaulted(const Context &ctx, const std::string &dir, Figures &figures)
{
    std::string trace_path = dir + "/s.trace";
    std::vector<int> mapping(kCores);
    for (int i = 0; i < kCores; ++i)
        mapping[i] = i;
    TraceSpan pass("pass", "total");
    auto design = loadDesign(dir + "/r.design", "pass");
    auto ledger = buildLedger(ctx, design, trace_path, mapping, figures);
    runtime::FaultTimeline timeline(runtime::FaultTimelineSpec{}, kCores,
                                    design.topology.numModes,
                                    ledger.numEpochs(), faultSeed());
    Prng prng(1);
    auto variation = faults::drawVariation(
        faults::VariationSpec{}.scaled(0.0), ctx.crossbar.params(), kCores,
        prng);
    runtime::DegradationLog log;
    {
        TraceSpan span("runtime.degradation", "pass");
        log = runtime::runDegradationController(
            ctx.layout, design, variation, timeline,
            runtime::DegradationPolicy{}, &ledger);
    }
    using runtime::ActionKind;
    figures.set("runtime.degradation_epochs",
                static_cast<double>(log.epochs.size()));
    figures.set("runtime.fault_events",
                static_cast<double>(timeline.events().size()));
    figures.set("runtime.trims", log.countActions(ActionKind::Trim));
    figures.set("runtime.relaxes", log.countActions(ActionKind::Relax));
    figures.set("runtime.failovers",
                log.countActions(ActionKind::Failover));
    figures.set("runtime.restores", log.countActions(ActionKind::Restore));
    figures.set("runtime.collapses",
                log.countActions(ActionKind::Collapse));
    figures.set("report.total_power_w", ledger.averagePower().total());
}

/** `mnocpt report` then `mnocpt adapt`, without the rendering. */
void
replayAdaptive(const Context &ctx, const std::string &dir,
               Figures &figures)
{
    std::string trace_path = dir + "/s.trace";
    std::vector<int> mapping(kCores);
    for (int i = 0; i < kCores; ++i)
        mapping[i] = i;
    TraceSpan pass("pass", "total");
    {
        auto design = loadDesign(dir + "/r.design", "pass");
        auto ledger = buildLedger(ctx, design, trace_path, mapping,
                                  figures);
        figures.set("report.total_power_w", ledger.averagePower().total());
    }
    auto design = loadDesign(dir + "/r.design", "pass");
    auto static_ledger =
        buildLedger(ctx, design, trace_path, mapping, figures);
    runtime::AdaptivePolicy policy;
    policy.trafficWindow = static_cast<std::size_t>(adaptWindow());
    policy.candidateSpec = commSpec();
    policy.candidateSpec.numModes = design.topology.numModes;
    sim::TraceReader reader(trace_path);
    core::EnergyLedger adaptive_ledger(kCores, design.topology.numModes,
                                       static_ledger.numEpochs(),
                                       static_ledger.durationSeconds());
    runtime::AdaptiveLog log;
    {
        TraceSpan span("runtime.adaptive", "pass");
        log = runtime::runAdaptiveController(ctx.designer, design, policy,
                                             reader, &mapping,
                                             &adaptive_ledger);
    }
    runtime::AdaptiveComparison comparison;
    {
        TraceSpan span("runtime.reconcile", "pass");
        comparison = runtime::reconcileAdaptive(static_ledger,
                                                adaptive_ledger, log);
    }
    using runtime::AdaptiveActionKind;
    figures.set("runtime.retargets",
                log.countActions(AdaptiveActionKind::Retarget));
    figures.set("runtime.candidates_built", log.numCandidates);
    figures.set("adapt.net_savings_j", comparison.netSavings);
}

int
run(int argc, char **argv)
{
    std::map<std::string, std::string> args;
    for (int i = 1; i + 1 < argc; i += 2)
        args[argv[i]] = argv[i + 1];
    fatalIf(argc % 2 != 1 || !args.count("--workload") ||
                !args.count("--seed") || !args.count("--dir"),
            "usage: perfbench_trace --workload W --seed N --dir DIR");
    const std::string workload = args["--workload"];
    const std::string dir = args["--dir"];
    const auto seed =
        static_cast<std::uint64_t>(std::stoull(args["--seed"]));
    fatalIf(workload != "replay_faulted" && workload != "replay_adaptive",
            "unknown workload: " + workload);
    fatalIf(!ledgerEnabled(), "perfbench_trace needs MNOC_LEDGER=1");
    std::filesystem::create_directories(dir);

    SpanRecorder::setEnabled(true);
    SpanRecorder::global().reset();
    Context ctx;
    Figures figures;
    simulate(ctx, seed, dir + "/s.trace", figures);
    designReplayInput(ctx, dir + "/s.trace", dir + "/r.design");
    if (workload == "replay_faulted") {
        replayFaulted(ctx, dir, figures);
        validateProbe(ctx, loadDesign(dir + "/r.design", "probe"), figures);
    } else {
        replayAdaptive(ctx, dir, figures);
        designProbes(ctx, dir, figures);
    }
    drainProbe(dir + "/s.trace", figures);
    SpanRecorder::setEnabled(false);

    const auto &recorder = SpanRecorder::global();
    recorder.writeJson(dir + "/spans.json");
    figures.write(dir + "/figures.json");

    auto rows = profileSpans(recorder.events());
    std::cout << std::left << std::setw(28) << "span" << std::right
              << std::setw(7) << "calls" << std::setw(16)
              << "inclusive (ms)" << std::setw(16) << "self (ms)" << "\n";
    for (const auto &row : rows)
        std::cout << std::left << std::setw(28) << row.name << std::right
                  << std::setw(7) << row.calls << std::setw(16)
                  << std::fixed << std::setprecision(3)
                  << static_cast<double>(row.inclusiveUs) / 1000.0
                  << std::setw(16)
                  << static_cast<double>(row.exclusiveUs) / 1000.0
                  << "\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return run(argc, argv);
    } catch (const std::exception &error) {
        std::cerr << "perfbench_trace: " << error.what() << "\n";
        return 1;
    }
}
