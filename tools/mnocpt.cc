/**
 * @file
 * mnocpt — command-line front end to the mNoC power-topology library.
 *
 * Subcommands:
 *   simulate  run a SPLASH kernel, write a trace file; sealed epochs
 *             stream to a spool beside it as the run executes
 *             (bounded capture memory; see docs/streaming.md)
 *   map       compute a taboo thread mapping from a trace
 *   design    build a power topology + splitter design from a trace
 *             (optionally hardened to a Monte Carlo yield target)
 *   evaluate  report the power of a design over a trace
 *   budget    validate a design's link budgets / BER
 *   yield     Monte Carlo yield / margin distributions under device
 *             variation
 *   faults    replay a trace's epochs under a seeded runtime fault
 *             timeline with the graceful-degradation controller;
 *             write the fault event log and the per-epoch
 *             reliability (margin/action/energy) time series
 *   adapt     replay a trace's epochs under the traffic-driven
 *             adaptive controller (phase detection, retargeting,
 *             hysteretic switching); print the static-vs-adaptive
 *             energy comparison and write the per-epoch adaptive
 *             series and action log
 *   report    render a design + trace into the energy-attribution
 *             report: markdown summary, per-(source, mode) and
 *             per-epoch CSV tables, and a source-power heatmap, all
 *             stamped with the trace's embedded manifest
 *   explain   render a decision journal (MNOC_JOURNAL output) into a
 *             per-epoch timeline: markdown narrative, timeline CSV,
 *             a Chrome-trace counter/instant overlay, and optional
 *             JSONL
 *   profile   aggregate a span trace (MNOC_TRACE_SPANS output) into
 *             an inclusive/exclusive hotspot table
 *   stats     print a trace's embedded run manifest and the metrics
 *             the command collected (set MNOC_METRICS=1 to collect
 *             in any command; see README "Environment knobs")
 *
 * The replay verbs (evaluate, faults, adapt, report) live in the
 * runtime library (runtime/replay.hh); here they only turn --options
 * into structs and print what the library returns.  Each makes one
 * pass over the trace through the streaming reader: the static
 * ledger build, with the adaptive controller stepping inside it as
 * its epoch observer, then the degradation controller over the
 * finished ledger.  The pass is serial, so they run in bounded
 * memory on radix-1024 and radix-4096 captures and write the same
 * bytes at any MNOC_THREADS (only map, design --yield-target and
 * yield fan out across the pool), and report's MNOC_FAULTS/MNOC_ADAPT
 * sections are the very fault and adaptive runs of `faults` and
 * `adapt`.
 *
 * Examples (README.md has the full verb reference):
 *   mnocpt simulate --benchmark water_s --cores 64 --out ws.trace
 *   mnocpt map --trace ws.trace --out ws.map
 *   mnocpt design --trace ws.trace --map ws.map --modes 4 \
 *                 --assign comm --out ws.design
 *   mnocpt report --design ws.design --trace ws.trace --map ws.map \
 *                 --dir report_out
 */

#include <array>
#include <cctype>
#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/csv.hh"
#include "common/io.hh"
#include "common/journal.hh"
#include "common/log.hh"
#include "common/manifest.hh"
#include "common/metrics.hh"
#include "common/table.hh"
#include "common/trace_span.hh"
#include "core/design_io.hh"
#include "core/designer.hh"
#include "faults/variation.hh"
#include "faults/yield.hh"
#include "noc/mnoc_network.hh"
#include "optics/link_budget.hh"
#include "runtime/replay.hh"
#include "sim/simulator.hh"
#include "sim/trace_stream.hh"
#include "workloads/registry.hh"

using namespace mnoc;
using runtime::Context;

namespace {

/** Minimal --key value argument parser. */
class Args
{
  public:
    Args(int argc, char **argv)
    {
        for (int i = 2; i < argc; ++i) {
            std::string key = argv[i];
            if (key.size() < 3 || key.substr(0, 2) != "--")
                fatal("expected --option, got: " + key);
            if (i + 1 >= argc)
                fatal("missing value for " + key);
            bool fresh = values_.emplace(key.substr(2), argv[++i]).second;
            if (!fresh)
                fatal("option " + key + " given more than once");
        }
    }

    /** Required option: fatal when absent. */
    std::string
    get(const std::string &key) const
    {
        auto it = values_.find(key);
        if (it == values_.end())
            fatal("missing required option --" + key);
        return it->second;
    }

    /** Optional option with a fallback value. */
    std::string
    get(const std::string &key, const std::string &fallback) const
    {
        auto it = values_.find(key);
        return it == values_.end() ? fallback : it->second;
    }

    bool has(const std::string &key) const
    {
        return values_.count(key) > 0;
    }

    int
    getInt(const std::string &key, int fallback) const
    {
        auto it = values_.find(key);
        if (it == values_.end())
            return fallback;
        errno = 0;
        char *end = nullptr;
        long value = std::strtol(it->second.c_str(), &end, 10);
        if (errno != 0 || end == it->second.c_str() || *end != '\0' ||
            value < INT_MIN || value > INT_MAX)
            fatal("option --" + key + " needs an integer, got: " + it->second);
        return static_cast<int>(value);
    }

    /** Non-negative integer option: a count or a window. */
    int
    getCount(const std::string &key, int fallback) const
    {
        int value = getInt(key, fallback);
        if (value < 0)
            fatal("option --" + key + " must be non-negative, got: " +
                  std::to_string(value));
        return value;
    }

    /** Unsigned 64-bit option (a seed): digits only, full range. */
    std::uint64_t
    getU64(const std::string &key, std::uint64_t fallback) const
    {
        if (!has(key))
            return fallback;
        std::string text = get(key);
        errno = 0;
        char *end = nullptr;
        unsigned long long value = std::strtoull(text.c_str(), &end, 10);
        // strtoull accepts a sign (and wraps "-1"); a seed is digits.
        if (!std::isdigit(static_cast<unsigned char>(text[0])) || errno != 0 ||
            *end != '\0')
            fatal("option --" + key +
                  " needs an unsigned 64-bit integer, got: " + text);
        return static_cast<std::uint64_t>(value);
    }

    double
    getDouble(const std::string &key, double fallback) const
    {
        auto it = values_.find(key);
        if (it == values_.end())
            return fallback;
        errno = 0;
        char *end = nullptr;
        double value = std::strtod(it->second.c_str(), &end);
        if (errno != 0 || end == it->second.c_str() || *end != '\0' ||
            !std::isfinite(value))
            fatal("option --" + key + " needs a number, got: " + it->second);
        return value;
    }

  private:
    std::map<std::string, std::string> values_;
};

/** Largest crossbar radix the scale-out analysis supports. */
constexpr int kMaxRadix = 4096;

/**
 * Validate @p cores as a crossbar radix.  The paper's design point is
 * radix 256; 1024 and 4096 are scale-out points, accepted after the
 * worst-case-loss check that crossbar-topology comparisons use (e.g.
 * "Optical Crossbars on Chip"): the geometric loss of the longest
 * source-to-tap path must still leave the worst-case unicast a finite
 * injected-power requirement, which is printed so the scaling cost is
 * explicit (EXPERIMENTS.md tabulates the three radixes).
 */
void
checkRadix(const Context &ctx, int cores)
{
    fatalIf(cores < 2, "need at least 2 cores");
    if (cores > kMaxRadix)
        fatal("radix " + std::to_string(cores) +
              " exceeds the supported scale-out maximum " +
              std::to_string(kMaxRadix));
    if (cores <= 256)
        return;
    // Worst case: an end-of-serpentine source driving the far end.
    auto atten = ctx.crossbar.chain(0).tapAttenuation(cores - 1);
    double loss_db = ratioToDb(atten.value());
    WattPower worst = ctx.crossbar.params().pminAtTap() * atten;
    std::cout << "radix " << cores << " scale-out: worst-case chain "
              << "loss " << TextTable::num(loss_db, 2)
              << " dB; worst-case unicast needs "
              << TextTable::num(worst.watts() * 1e3, 3)
              << " mW injected\n";
}

int
cmdSimulate(const Args &args)
{
    std::string benchmark = args.get("benchmark");
    int cores = args.getCount("cores", 64);
    std::string out = args.get("out");

    Context ctx(cores);
    checkRadix(ctx, cores);
    noc::NetworkConfig net_config;
    noc::MnocNetwork network(ctx.layout, net_config);
    sim::SimConfig config;
    config.numCores = cores;
    workloads::WorkloadScale scale;
    scale.opsPerThread = args.getCount("ops", 4000);
    auto workload = workloads::makeWorkload(benchmark, scale);

    // Sealed epochs stream out of the run into the writer's spool, so
    // capture memory stays bounded however long the run is; the
    // trace file (header with the final tick count and manifest,
    // epochs, triplets) is written once the run completes.
    sim::TraceWriter writer(out, workload->name(), network.name(), cores,
                            ledgerEnabled() ? ledgerEpochMessages() : 0);
    config.epochSink = [&writer](std::vector<noc::EpochCell> &&cells) {
        writer.appendEpoch(cells);
    };

    auto result = sim::runSimulation(config, network, *workload,
                                     args.getU64("seed", 1));
    sim::CoherenceStats stats = result.coherence;
    auto trace = sim::toTrace(std::move(result));
    writer.finish(trace.totalTicks, trace.packets, trace.flits,
                  trace.manifest);
    std::cout << benchmark << ": " << stats.accesses << " ops, "
              << stats.packetsSent << " packets, " << trace.totalTicks
              << " cycles -> " << out << "\n";
    return 0;
}

int
cmdMap(const Args &args)
{
    auto trace = sim::loadTrace(args.get("trace"));
    int cores = static_cast<int>(trace.flits.rows());
    Context ctx(cores);

    core::MappingParams params;
    params.tabooIterations = args.getCount("iterations", 20000);
    auto result = ctx.designer.map(toFlowMatrix(trace.flits),
                                   core::MappingMethod::Taboo, params);

    FileWriter out(args.get("out"));
    for (int core : result.threadToCore)
        out.stream() << core << "\n";
    out.close();
    std::cout << "QAP cost " << result.identityCost << " -> "
              << result.qapCost << " ("
              << 100.0 * (1.0 - result.qapCost / result.identityCost)
              << "% better), written to " << args.get("out") << "\n";
    return 0;
}

/**
 * Variation/yield options shared by `design --yield-target` and
 * `yield`: --trials, --vseed, --vtol (sigma scale factor),
 * --margin-step, --max-margin, --link-margin, --leak-gap.
 */
core::ResilienceParams
resilienceOptions(const Args &args)
{
    core::ResilienceParams out;
    out.variation =
        faults::VariationSpec{}.scaled(args.getDouble("vtol", 1.0));
    out.trials = args.getCount("trials", 200);
    out.seed = args.getU64("vseed", 1);
    out.marginStep = DecibelLoss(args.getDouble("margin-step", 0.5));
    out.maxMargin = DecibelLoss(args.getDouble("max-margin", 6.0));
    out.criteria.requiredMargin =
        DecibelLoss(args.getDouble("link-margin", 0.0));
    if (args.has("leak-gap"))
        out.criteria.maxLeak =
            DecibelLoss(args.getDouble("leak-gap", 0.0));
    return out;
}

void
printDegradationPath(const core::ResilienceSummary &summary)
{
    if (summary.path.empty())
        return;
    std::cout << "degradation path:\n";
    for (const auto &step : summary.path) {
        if (step.kind == core::DegradationStep::Kind::Margin) {
            std::cout << "  " << step.numModes << " modes @ "
                      << TextTable::num(step.margin.dB(), 2)
                      << " dB margin -> yield "
                      << TextTable::num(step.yield, 4) << "\n";
        } else {
            std::cout << "  collapse mode " << step.collapsedMode
                      << " into mode " << step.collapsedMode + 1
                      << " -> " << step.numModes << " modes\n";
        }
    }
}

int
cmdYield(const Args &args)
{
    auto loaded = core::loadDesignReport(args.get("design"));
    const auto &design = loaded.design;
    int cores = design.topology.numNodes;
    Context ctx(cores);

    core::ResilienceParams options = resilienceOptions(args);
    options.seed = args.getU64("seed", options.seed);
    auto report = faults::analyzeYield(
        ctx.layout, ctx.crossbar.params(), design.sources,
        options.variation, options.trials, options.seed,
        options.criteria);

    TextTable table;
    table.addRow({"metric", "value"});
    table.addRow({"yield", TextTable::num(report.yield, 4)});
    table.addRow({"trials", std::to_string(report.trials)});
    table.addRow({"seed", std::to_string(report.seed)});
    table.addRow({"worst margin mean (dB)",
                  TextTable::num(report.marginMean.dB(), 3)});
    table.addRow({"worst margin p5 (dB)",
                  TextTable::num(report.marginP5.dB(), 3)});
    table.addRow({"worst margin min (dB)",
                  TextTable::num(report.marginMin.dB(), 3)});
    auto sci = [](double value) {
        std::ostringstream os;
        os << std::scientific << std::setprecision(2) << value;
        return os.str();
    };
    table.addRow({"worst BER mean", sci(report.berWorstMean)});
    table.addRow({"worst BER max", sci(report.berWorstMax)});
    table.print(std::cout);

    for (std::size_t m = 0; m < report.marginFailuresByMode.size(); ++m)
        if (report.marginFailuresByMode[m] > 0 ||
            report.leakFailuresByMode[m] > 0)
            std::cout << "mode " << m << ": "
                      << report.marginFailuresByMode[m]
                      << " margin failures, "
                      << report.leakFailuresByMode[m]
                      << " leak failures\n";

    if (loaded.resilience) {
        const auto &summary = *loaded.resilience;
        std::cout << "hardened design: yield "
                  << TextTable::num(summary.finalYield, 4) << " vs "
                  << "target "
                  << TextTable::num(summary.yieldTarget, 4) << " ("
                  << (summary.metTarget ? "met" : "MISSED") << ")\n";
        printDegradationPath(summary);
    }

    if (args.has("csv")) {
        CsvWriter csv(args.get("csv"));
        csv.writeRow({"draw", "pass", "worst_margin_db",
                      "worst_leak_db", "worst_ber", "margin_failures",
                      "leak_failures"});
        for (std::size_t i = 0; i < report.draws.size(); ++i) {
            const auto &draw = report.draws[i];
            csv.cell(static_cast<long long>(i))
                .cell(static_cast<long long>(draw.pass ? 1 : 0))
                .cell(draw.worstMargin.dB())
                .cell(draw.worstLeak.dB())
                .cell(draw.worstBitErrorRate)
                .cell(static_cast<long long>(draw.marginFailures))
                .cell(static_cast<long long>(draw.leakFailures));
            csv.endRow();
        }
        std::cout << "per-draw results written to " << args.get("csv")
                  << "\n";
    }
    return 0;
}

int
cmdDesign(const Args &args)
{
    auto trace = sim::loadTrace(args.get("trace"));
    int cores = static_cast<int>(trace.flits.rows());
    Context ctx(cores);
    checkRadix(ctx, cores);

    auto mapping = args.has("map")
                       ? core::loadMapping(args.get("map"), cores)
                       : core::identityMapping(cores);
    sim::Trace mapped = sim::mapTrace(trace, mapping);
    FlowMatrix flow = toFlowMatrix(mapped.flits);

    core::DesignSpec spec;
    spec.numModes = args.getCount("modes", 2);
    std::string assign = args.get("assign", "distance");
    if (assign == "comm") {
        spec.assignment = core::Assignment::CommAware;
        spec.weights = core::WeightSource::DesignFlow;
    } else if (assign == "distance") {
        spec.assignment = core::Assignment::DistanceBased;
        spec.weights = core::WeightSource::DesignFlow;
    } else if (assign == "clustered") {
        spec.assignment = core::Assignment::Clustered;
        spec.weights = core::WeightSource::Uniform;
    } else {
        fatal("unknown --assign (use comm/distance/clustered)");
    }

    auto topology = ctx.designer.buildTopology(spec, flow);
    // Provenance trailer: who built this design, from what knobs.
    RunManifest manifest = currentManifest(
        trace.manifest.seed,
        hexDigest(fnv1a64(spec.label() + "|" +
                          std::to_string(cores))));
    if (args.has("yield-target")) {
        core::ResilienceParams resilience = resilienceOptions(args);
        resilience.yieldTarget = args.getDouble("yield-target", 0.95);
        auto hardened = ctx.designer.buildResilientDesign(
            spec, topology, flow, resilience);
        core::saveDesign(args.get("out"), hardened.design,
                         &hardened.summary, &manifest);
        const auto &summary = hardened.summary;
        std::cout << "design " << spec.label() << " for " << cores
                  << " cores hardened to yield "
                  << TextTable::num(summary.finalYield, 4) << " ("
                  << (summary.metTarget ? "met" : "MISSED")
                  << " target "
                  << TextTable::num(summary.yieldTarget, 4) << ") at "
                  << TextTable::num(summary.finalMargin.dB(), 2)
                  << " dB margin, " << summary.finalNumModes
                  << " modes, written to " << args.get("out") << "\n";
        printDegradationPath(summary);
        return 0;
    }
    auto design = ctx.designer.buildDesign(spec, topology, flow);
    core::saveDesign(args.get("out"), design, nullptr, &manifest);
    std::cout << "design " << spec.label() << " for " << cores
              << " cores written to " << args.get("out") << "\n";
    return 0;
}

/** The --design, --trace, --map, --dir and --prefix of a replay
 *  verb. */
runtime::ReplayFiles
replayFiles(const Args &args)
{
    runtime::ReplayFiles files;
    files.design = args.get("design");
    files.trace = args.get("trace");
    files.map = args.get("map", files.map);
    files.dir = args.get("dir", files.dir);
    files.prefix = args.get("prefix", files.prefix);
    return files;
}

int
cmdEvaluate(const Args &args)
{
    runtime::Replay replay(replayFiles(args));
    auto breakdown =
        runtime::runReplay(replay, std::nullopt, std::nullopt)
            .ledger.averagePower();

    TextTable table;
    table.addRow({"component", "power (W)"});
    table.addRow({"QD LED source", TextTable::num(breakdown.source, 3)});
    table.addRow({"O/E conversion", TextTable::num(breakdown.oe, 3)});
    table.addRow({"electrical", TextTable::num(breakdown.electrical, 3)});
    table.addRow({"total", TextTable::num(breakdown.total(), 3)});
    table.print(std::cout);
    return 0;
}

int
cmdBudget(const Args &args)
{
    auto design = core::loadDesign(args.get("design"));
    int cores = design.topology.numNodes;
    Context ctx(cores);
    WattPower pmin = ctx.crossbar.params().pminAtTap();

    double worst_margin = 1e9;
    double worst_leak = -1e9;
    bool all_ok = true;
    for (int s = 0; s < cores; ++s) {
        auto report = optics::validateDesign(ctx.crossbar.chain(s),
                                             design.sources[s], pmin);
        worst_margin = std::min(worst_margin,
                                report.worstReachableMargin.dB());
        worst_leak = std::max(worst_leak,
                              report.worstUnreachableLeak.dB());
        all_ok = all_ok && report.ok;
    }
    std::cout << "link budget: "
              << (all_ok ? "OK" : "VIOLATED") << "\n"
              << "  worst reachable margin: "
              << TextTable::num(worst_margin, 3) << " dB\n"
              << "  worst sub-threshold leak: "
              << TextTable::num(worst_leak, 3) << " dB\n";
    return all_ok ? 0 : 1;
}

int
cmdFaults(const Args &args)
{
    runtime::Replay replay(replayFiles(args));
    runtime::FaultOptions options;
    options.seed =
        args.has("seed") ? args.getU64("seed", 1) : faultSeed();
    options.scale = args.getDouble("fault-scale", options.scale);
    options.vtol = args.getDouble("vtol", options.vtol);
    options.vseed = args.getU64("vseed", options.vseed);
    options.linkMargin = DecibelLoss(args.getDouble("link-margin", 0.0));

    auto run = runtime::runReplay(replay, options, std::nullopt);
    runtime::printSummary(std::cout, runtime::faultSummary(*run.faults));
    auto written = runtime::writeFaultArtifacts(replay, run);
    std::cout << "fault log written to " << written[0]
              << ", reliability series to " << written[1] << "\n";
    return 0;
}

int
cmdAdapt(const Args &args)
{
    runtime::Replay replay(replayFiles(args));
    runtime::AdaptivePolicy policy = runtime::adaptivePolicy(replay.design);
    policy.phaseChangeThreshold = args.getDouble(
        "phase-threshold", policy.phaseChangeThreshold);
    if (args.has("window"))
        policy.trafficWindow =
            static_cast<std::size_t>(args.getCount("window", 4));
    policy.switchGainThreshold =
        args.getDouble("gain-threshold", policy.switchGainThreshold);
    policy.epochsToSwitch =
        args.getCount("switch-epochs", policy.epochsToSwitch);
    policy.maxCandidates =
        args.getCount("max-candidates", policy.maxCandidates);
    policy.switchEnergyPerSource = args.getDouble(
        "switch-energy", policy.switchEnergyPerSource);
    policy.candidateMargin =
        DecibelLoss(args.getDouble("margin", 0.0));

    auto run = runtime::runReplay(replay, std::nullopt, policy);
    runtime::printSummary(std::cout,
                          runtime::adaptiveSummary(*run.adaptive));
    auto written = runtime::writeAdaptiveArtifacts(replay, run);
    std::cout << "adaptive series written to " << written[0]
              << ", action log to " << written[1] << "\n";
    return 0;
}

int
cmdReport(const Args &args)
{
    runtime::Replay replay(replayFiles(args));
    // MNOC_FAULTS=1 adds the `faults` run with its defaults (its
    // reconfiguration energy is in the report's power numbers), and
    // MNOC_ADAPT=1 the `adapt` run with its defaults.  Both are off
    // by default, which keeps the static report byte-identical.
    std::optional<runtime::FaultOptions> faults;
    if (faultsEnabled())
        faults = runtime::FaultOptions{faultSeed()};
    std::optional<runtime::AdaptivePolicy> adaptive;
    if (adaptEnabled())
        adaptive = runtime::adaptivePolicy(replay.design);

    auto written = runtime::writeReport(
        replay, runtime::runReplay(replay, faults, adaptive));
    std::cout << "report written to " << written[0] << " (+ ";
    for (std::size_t i = 1; i < written.size(); ++i)
        std::cout << (i > 1 ? ", " : "")
                  << std::filesystem::path(written[i]).filename().string();
    std::cout << ")\n";
    return 0;
}

int
cmdProfile(const Args &args)
{
    std::string path = args.get("spans");
    std::ifstream in(path);
    if (!in.is_open())
        fatal("cannot open span file: " + path);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    if (in.bad())
        fatal("I/O error reading span file: " + path);

    auto events = parseSpanJson(buffer.str(), path);
    auto rows = profileSpans(std::move(events));

    int top = args.getCount("top", 0);
    std::size_t limit = rows.size();
    if (top > 0 && static_cast<std::size_t>(top) < limit)
        limit = static_cast<std::size_t>(top);

    TextTable table;
    table.addRow({"span", "calls", "inclusive (ms)",
                  "exclusive (ms)"});
    for (std::size_t i = 0; i < limit; ++i) {
        const auto &row = rows[i];
        table.addRow(
            {row.name, std::to_string(row.calls),
             TextTable::num(
                 static_cast<double>(row.inclusiveUs) / 1000.0, 3),
             TextTable::num(
                 static_cast<double>(row.exclusiveUs) / 1000.0, 3)});
    }
    table.print(std::cout);
    if (limit < rows.size())
        std::cout << "(" << rows.size() - limit
                  << " more spans; raise --top)\n";

    if (args.has("csv")) {
        CsvWriter csv(args.get("csv"));
        csv.writeRow(
            {"span", "calls", "inclusive_us", "exclusive_us"});
        for (const auto &row : rows) {
            csv.cell(row.name)
                .cell(static_cast<long long>(row.calls))
                .cell(static_cast<long long>(row.inclusiveUs))
                .cell(static_cast<long long>(row.exclusiveUs));
            csv.endRow();
        }
        csv.close();
        std::cout << "profile written to " << args.get("csv") << "\n";
    }
    return 0;
}

int
cmdExplain(const Args &args)
{
    std::string journal_path = args.get("journal");
    JournalFile journal = loadJournal(journal_path);

    std::string dir = args.get("dir", ".");
    std::filesystem::create_directories(dir);
    std::string prefix = args.get("prefix", "mnoc_");
    std::string base = dir + "/" + prefix;

    std::string md_path = base + "explain.md";
    {
        FileWriter writer(md_path);
        writer.stream() << renderExplainMarkdown(journal);
        writer.close();
    }
    std::string csv_path = base + "timeline.csv";
    {
        FileWriter writer(csv_path);
        writer.stream() << renderExplainTimelineCsv(journal);
        writer.close();
    }
    // Counter/instant overlay for chrome://tracing; composes with a
    // MNOC_TRACE_SPANS capture of the same run (profile skips the
    // non-"X" phases).
    std::string trace_path = base + "explain_trace.json";
    {
        FileWriter writer(trace_path);
        writer.stream() << renderExplainTrace(journal);
        writer.close();
    }
    if (args.has("jsonl")) {
        FileWriter writer(args.get("jsonl"));
        writer.stream() << journalToJsonl(journal);
        writer.close();
    }

    std::array<std::size_t, kJournalKindCount + 1> counts{};
    for (const JournalRecord &rec : journal.records)
        ++counts[static_cast<std::uint32_t>(rec.kind)];
    TextTable table;
    table.addRow({"kind", "records"});
    for (std::uint32_t k = 1; k <= kJournalKindCount; ++k)
        if (counts[k] > 0)
            table.addRow(
                {journalKindName(static_cast<JournalKind>(k)),
                 std::to_string(counts[k])});
    table.addRow({"total", std::to_string(journal.records.size())});
    table.print(std::cout);

    std::cout << "decision timeline written to " << md_path << ", "
              << csv_path << ", " << trace_path;
    if (args.has("jsonl"))
        std::cout << ", " << args.get("jsonl");
    std::cout << "\n";
    return 0;
}

int
cmdStats(const Args &args)
{
    // Force collection on so the work below is always counted, even
    // without MNOC_METRICS in the environment.
    MetricsRegistry::setEnabled(true);
    if (args.has("trace")) {
        // Header-only streamed open: the manifest and dimensions sit
        // ahead of the bulk data, so stats never reads the epochs or
        // triplets of an arbitrarily large trace.
        sim::TraceReader reader(args.get("trace"));
        const sim::TraceHeader &header = reader.header();
        std::cout << "trace " << args.get("trace") << ": "
                  << header.workloadName << " on "
                  << header.networkName << ", " << header.numNodes
                  << " nodes, " << header.totalTicks << " cycles\n";
        if (header.numEpochs > 0)
            std::cout << "epochs: " << header.numEpochs << " ("
                      << header.messagesPerEpoch
                      << " messages each)\n";
        std::cout << "manifest: " << manifestJson(header.manifest)
                  << "\n";
    }
    auto &metrics = MetricsRegistry::global();
    metrics.printText(std::cout);
    // Warnings swallowed by MNOC_LOG_LEVEL still leave a trail here.
    std::cout << "log.suppressed_warnings " << suppressedWarningCount()
              << "\n";
    if (args.has("json")) {
        metrics.writeJson(args.get("json"));
        std::cout << "metrics written to " << args.get("json") << "\n";
    }
    return 0;
}

void
usage()
{
    std::cerr
        << "usage: mnocpt "
           "<simulate|map|design|evaluate|budget|yield|faults|adapt|"
           "report|explain|profile|stats> "
           "[--option value ...]\n"
           "  simulate --benchmark NAME [--cores N] [--ops N] "
           "[--seed N] --out FILE\n"
           "  map      --trace FILE [--iterations N] --out FILE\n"
           "  design   --trace FILE [--map FILE] [--modes N] "
           "[--assign comm|distance|clustered]\n"
           "           [--yield-target Y [--trials N] [--vseed N] "
           "[--vtol F] [--margin-step DB]\n"
           "           [--max-margin DB] [--link-margin DB] "
           "[--leak-gap DB]] --out FILE\n"
           "  evaluate --design FILE --trace FILE [--map FILE]\n"
           "  budget   --design FILE\n"
           "  yield    --design FILE [--trials N] [--seed N] "
           "[--vtol F] [--link-margin DB]\n"
           "           [--leak-gap DB] [--csv FILE]\n"
           "  faults   --design FILE --trace FILE [--map FILE] "
           "[--seed N] [--fault-scale F]\n"
           "           [--vtol F] [--vseed N] [--link-margin DB] "
           "[--dir DIR] [--prefix P]\n"
           "  adapt    --design FILE --trace FILE [--map FILE] "
           "[--window N] [--phase-threshold F]\n"
           "           [--gain-threshold F] [--switch-epochs N] "
           "[--max-candidates N]\n"
           "           [--switch-energy J] [--margin DB] "
           "[--dir DIR] [--prefix P]\n"
           "  report   --design FILE --trace FILE [--map FILE] "
           "[--dir DIR] [--prefix P]\n"
           "  explain  --journal FILE [--dir DIR] [--prefix P] "
           "[--jsonl FILE]\n"
           "  profile  --spans FILE [--top N] [--csv FILE]\n"
           "  stats    [--trace FILE] [--json FILE]\n";
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        usage();
        return 2;
    }
    std::string command = argv[1];
    try {
        Args args(argc, argv);
        if (command == "simulate")
            return cmdSimulate(args);
        if (command == "map")
            return cmdMap(args);
        if (command == "design")
            return cmdDesign(args);
        if (command == "evaluate")
            return cmdEvaluate(args);
        if (command == "budget")
            return cmdBudget(args);
        if (command == "yield")
            return cmdYield(args);
        if (command == "faults")
            return cmdFaults(args);
        if (command == "adapt")
            return cmdAdapt(args);
        if (command == "report")
            return cmdReport(args);
        if (command == "explain")
            return cmdExplain(args);
        if (command == "profile")
            return cmdProfile(args);
        if (command == "stats")
            return cmdStats(args);
        std::cerr << "mnocpt: unknown command '" << command
                  << "'\n";
        usage();
        return 2;
    } catch (const std::exception &error) {
        std::cerr << "mnocpt: " << error.what() << "\n";
        return 1;
    }
}
