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
 *   evaluate  report the power of a design over a trace, streamed
 *             batch by batch (the trace is never materialized)
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
 * The report/faults/stats/evaluate verbs pull the trace through the
 * streaming reader (sim/trace_stream.hh), so they run in bounded
 * memory on radix-1024 and radix-4096 captures, bit-identical at any
 * MNOC_THREADS pool size.  The replay verbs (evaluate, faults, adapt,
 * report) share one setup, and report's MNOC_FAULTS/MNOC_ADAPT sections run
 * the very fault and adaptive replays of `faults` and `adapt`.
 *
 * Examples:
 *   mnocpt simulate --benchmark water_s --cores 64 --out ws.trace
 *   mnocpt simulate --benchmark radix --cores 1024 --out rx.trace
 *   mnocpt map --trace ws.trace --out ws.map
 *   mnocpt design --trace ws.trace --map ws.map --modes 4 \
 *                 --assign comm --out ws.design
 *   mnocpt design --trace ws.trace --modes 4 --assign comm \
 *                 --yield-target 0.95 --out ws.design
 *   mnocpt evaluate --design ws.design --trace ws.trace --map ws.map
 *   mnocpt budget --design ws.design
 *   mnocpt yield --design ws.design --trials 500 --seed 7 \
 *                --csv ws_yield.csv
 *   mnocpt faults --design ws.design --trace ws.trace --seed 7 \
 *                 --dir faults_out
 *   mnocpt adapt --design ws.design --trace ws.trace --dir adapt_out
 *   mnocpt explain --journal mnoc_journal.mjrn --dir explain_out
 *   mnocpt report --design ws.design --trace ws.trace --map ws.map \
 *                 --dir report_out
 *   mnocpt profile --spans mnoc_spans.json --top 20
 *   mnocpt stats --trace ws.trace --json ws_metrics.json
 */

#include <array>
#include <cctype>
#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
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
#include "common/pgm.hh"
#include "common/prng.hh"
#include "common/table.hh"
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
#include "sim/trace_stream.hh"
#include "workloads/registry.hh"

using namespace mnoc;

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

/** Shared context sized for @p cores. */
struct Context
{
    explicit Context(int cores)
        : layout(cores,
                 optics::defaultWaveguideLength * cores / 256.0),
          crossbar(layout, optics::DeviceParams{}),
          designer(crossbar)
    {
    }

    optics::SerpentineLayout layout;
    optics::OpticalCrossbar crossbar;
    core::Designer designer;
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

std::vector<int>
loadMapping(const std::string &path, int cores)
{
    std::ifstream in(path);
    if (!in.is_open())
        fatal("cannot open mapping file: " + path);
    std::vector<int> map;
    std::string text;
    for (int line = 1; std::getline(in, text); ++line) {
        std::istringstream fields(text);
        std::string token;
        while (fields >> token) {
            std::size_t used = 0;
            int core = 0;
            // A core id is unsigned; stoi would take "+0" or "-1".
            if (token[0] != '+' && token[0] != '-') {
                try {
                    core = std::stoi(token, &used);
                } catch (const std::exception &) {
                    used = 0;
                }
            }
            if (used != token.size())
                fatal(path + ":" + std::to_string(line) +
                      ": field 'core': expected an integer, got '" +
                      token + "'");
            map.push_back(core);
        }
    }
    if (static_cast<int>(map.size()) != cores)
        fatal(path + ": mapping lists " + std::to_string(map.size()) +
              " cores, expected " + std::to_string(cores));
    return map;
}

std::vector<int>
identity(int cores)
{
    std::vector<int> map(cores);
    for (int i = 0; i < cores; ++i)
        map[i] = i;
    return map;
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
                       ? loadMapping(args.get("map"), cores)
                       : identity(cores);
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

/**
 * The setup of the trace-replay verbs (evaluate, faults, adapt,
 * report): --design, --map (or identity), a reader on --trace, and
 * the --dir/--prefix output base.  Artifacts and the journal header
 * are stamped with the *trace's* manifest, not this invocation's, so
 * re-rendering a stored trace is byte-stable at any pool size.
 */
struct Replay
{
    explicit Replay(const Args &args)
        : design(core::loadDesign(args.get("design"))),
          cores(design.topology.numNodes), ctx(cores),
          mapping(args.has("map") ? loadMapping(args.get("map"), cores)
                                  : identity(cores)),
          tracePath(args.get("trace")), reader(tracePath),
          header(reader.header()), stamp(manifestJson(header.manifest)),
          dir(args.get("dir", ".")), prefix(args.get("prefix", "mnoc_"))
    {
        if (journalEnabled())
            Journal::global().setManifest(stamp);
    }

    /** The deployed design's ledger: one pass over the trace. */
    core::EnergyLedger
    staticLedger()
    {
        return ctx.designer.model().buildLedger(design, reader, &mapping);
    }

    /** Create --dir and return "<dir>/<prefix>", the artifacts' base. */
    std::string
    outputBase() const
    {
        std::filesystem::create_directories(dir);
        return dir + "/" + prefix;
    }

    core::MnocDesign design;
    int cores;
    Context ctx;
    std::vector<int> mapping;
    std::string tracePath;
    sim::TraceReader reader;
    const sim::TraceHeader &header;
    std::string stamp;
    std::string dir;
    std::string prefix;
};

int
cmdEvaluate(const Args &args)
{
    Replay replay(args);
    auto breakdown = replay.staticLedger().averagePower();

    TextTable table;
    table.addRow({"component", "power (W)"});
    table.addRow({"QD LED source", TextTable::num(breakdown.source, 3)});
    table.addRow({"O/E conversion", TextTable::num(breakdown.oe, 3)});
    table.addRow({"electrical", TextTable::num(breakdown.electrical,
                                               3)});
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

/** Deterministic scientific rendering for report numbers. */
std::string
sci(double value)
{
    std::ostringstream os;
    os << std::scientific << std::setprecision(6) << value;
    return os.str();
}

/** The `faults` flags --seed, --fault-scale, --vtol (sigma scale of
 *  the as-fabricated draw; 0 is a nominal die), --vseed and
 *  --link-margin.  Their defaults, with the seed from
 *  MNOC_FAULT_SEED, are what the MNOC_FAULTS=1 report runs. */
struct FaultOptions
{
    std::uint64_t seed = 1;
    double scale = 1.0;
    double vtol = 0.0;
    std::uint64_t vseed = 1;
    DecibelLoss linkMargin{0.0};
};

/** A fault replay's seeded schedule and the controller's record. */
struct FaultReplay
{
    runtime::FaultTimeline timeline;
    runtime::DegradationLog log;
};

/** Replay the trace's epochs under a seeded runtime fault timeline
 *  with the graceful-degradation controller, charging its
 *  reconfiguration energy into @p ledger. */
FaultReplay
replayFaults(const Replay &replay, core::EnergyLedger &ledger,
             const FaultOptions &options)
{
    runtime::FaultTimeline timeline(
        runtime::FaultTimelineSpec{}.scaled(options.scale), replay.cores,
        replay.design.topology.numModes, ledger.numEpochs(),
        options.seed);
    Prng prng(options.vseed);
    auto variation = faults::drawVariation(
        faults::VariationSpec{}.scaled(options.vtol),
        replay.ctx.crossbar.params(), replay.cores, prng);
    runtime::DegradationPolicy policy;
    policy.requiredMargin = options.linkMargin;
    auto log = runtime::runDegradationController(
        replay.ctx.layout, replay.design, variation, timeline, policy,
        &ledger);
    return {std::move(timeline), std::move(log)};
}

/** Per-epoch reliability time series: margins around the rule table,
 *  actions fired, surviving mode count, and the epoch's energy
 *  including the charged reconfiguration cells. */
void
writeReliabilityCsv(const std::string &path, const std::string &stamp,
                    const core::EnergyLedger &ledger,
                    const runtime::DegradationLog &log)
{
    CsvWriter csv(path);
    csv.writeRow({"# " + stamp});
    csv.writeRow({"epoch", "active_faults", "margin_before_db",
                  "margin_after_db", "actions", "num_modes",
                  "reconfig_energy_j", "total_energy_j"});
    for (const auto &epoch : log.epochs) {
        double window = ledger.reconfigEnergy(epoch.epoch) +
                        ledger.epochAttributedEnergy(epoch.epoch);
        csv.cell(static_cast<long long>(epoch.epoch))
            .cell(static_cast<long long>(epoch.activeFaults))
            .cell(epoch.marginBefore.dB())
            .cell(epoch.marginAfter.dB())
            .cell(static_cast<long long>(epoch.actions))
            .cell(static_cast<long long>(epoch.numModes))
            .cell(epoch.reconfigEnergy)
            .cell(window);
        csv.endRow();
    }
    csv.close();
}

int
cmdFaults(const Args &args)
{
    Replay replay(args);
    FaultOptions options;
    options.seed =
        args.has("seed") ? args.getU64("seed", 1) : faultSeed();
    options.scale = args.getDouble("fault-scale", options.scale);
    options.vtol = args.getDouble("vtol", options.vtol);
    options.vseed = args.getU64("vseed", options.vseed);
    options.linkMargin = DecibelLoss(args.getDouble("link-margin", 0.0));

    auto ledger = replay.staticLedger();
    auto [timeline, log] = replayFaults(replay, ledger, options);

    double worst_before = 1e9, worst_after = 1e9;
    for (const auto &epoch : log.epochs) {
        worst_before = std::min(worst_before,
                                epoch.marginBefore.dB());
        worst_after = std::min(worst_after, epoch.marginAfter.dB());
    }

    using runtime::ActionKind;
    TextTable table;
    table.addRow({"metric", "value"});
    table.addRow({"epochs", std::to_string(log.epochs.size())});
    table.addRow(
        {"fault events", std::to_string(timeline.events().size())});
    table.addRow({"fault seed", std::to_string(options.seed)});
    table.addRow({"trims", std::to_string(log.countActions(
                               ActionKind::Trim))});
    table.addRow({"relaxes", std::to_string(log.countActions(
                                 ActionKind::Relax))});
    table.addRow({"failovers", std::to_string(log.countActions(
                                   ActionKind::Failover))});
    table.addRow({"restores", std::to_string(log.countActions(
                                  ActionKind::Restore))});
    table.addRow({"collapses", std::to_string(log.countActions(
                                   ActionKind::Collapse))});
    table.addRow({"final modes",
                  std::to_string(log.finalNumModes)});
    table.addRow({"worst margin before (dB)",
                  TextTable::num(worst_before, 3)});
    table.addRow({"worst margin after (dB)",
                  TextTable::num(worst_after, 3)});
    table.addRow({"reconfig energy (J)",
                  sci(log.totalReconfigEnergy)});
    table.print(std::cout);

    std::string base = replay.outputBase();
    std::string events_csv = base + "fault_events.csv";
    {
        CsvWriter csv(events_csv);
        csv.writeRow({"# " + replay.stamp});
        csv.writeRow({"kind", "start_epoch", "end_epoch", "node",
                      "mode", "magnitude"});
        for (const auto &event : timeline.events()) {
            csv.cell(faultKindName(event.kind))
                .cell(static_cast<long long>(event.startEpoch))
                .cell(static_cast<long long>(event.endEpoch))
                .cell(static_cast<long long>(event.node))
                .cell(static_cast<long long>(event.mode))
                .cell(event.magnitude);
            csv.endRow();
        }
        csv.close();
    }

    std::string reliability_csv = base + "reliability.csv";
    writeReliabilityCsv(reliability_csv, replay.stamp, ledger, log);

    std::cout << "fault log written to " << events_csv
              << ", reliability series to " << reliability_csv
              << "\n";
    return 0;
}

/** Rule-table knobs shared by `adapt` and the MNOC_ADAPT report
 *  section: struct defaults, the pricing/phase window from
 *  MNOC_ADAPT_WINDOW, and retarget candidates re-partitioned
 *  comm-aware with design-flow weighting at the deployed design's
 *  mode count. */
runtime::AdaptivePolicy
adaptivePolicy(const core::MnocDesign &design)
{
    runtime::AdaptivePolicy policy;
    policy.trafficWindow = static_cast<std::size_t>(adaptWindow());
    policy.candidateSpec.numModes = design.topology.numModes;
    policy.candidateSpec.assignment = core::Assignment::CommAware;
    policy.candidateSpec.weights = core::WeightSource::DesignFlow;
    return policy;
}

/** An adaptive replay's run record and its reconciliation. */
struct AdaptiveReplay
{
    runtime::AdaptiveLog log;
    runtime::AdaptiveComparison comparison;
};

/** Replay the trace's epochs again, under the traffic-driven adaptive
 *  controller with @p policy, accruing into a ledger of its own, and
 *  reconcile that against @p static_ledger. */
AdaptiveReplay
replayAdaptive(const Replay &replay, const core::EnergyLedger &static_ledger,
               const runtime::AdaptivePolicy &policy)
{
    sim::TraceReader reader(replay.tracePath);
    core::EnergyLedger adaptive_ledger(
        replay.cores, replay.design.topology.numModes,
        static_ledger.numEpochs(), static_ledger.durationSeconds());
    AdaptiveReplay out;
    out.log = runtime::runAdaptiveController(
        replay.ctx.designer, replay.design, policy, reader,
        &replay.mapping, &adaptive_ledger);
    out.comparison = runtime::reconcileAdaptive(
        static_ledger, adaptive_ledger, out.log);
    return out;
}

/** Per-epoch adaptive time series: active candidate, actions fired,
 *  and the epoch priced under the static vs the active design. */
void
writeAdaptiveCsv(const std::string &path, const std::string &stamp,
                 const runtime::AdaptiveLog &log)
{
    CsvWriter csv(path);
    csv.writeRow({"# " + stamp});
    csv.writeRow({"epoch", "active_design", "phase_change",
                  "actions", "static_energy_j", "adaptive_energy_j",
                  "reconfig_energy_j"});
    for (const auto &epoch : log.epochs) {
        csv.cell(static_cast<long long>(epoch.epoch))
            .cell(static_cast<long long>(epoch.activeDesign))
            .cell(static_cast<long long>(epoch.phaseChange ? 1 : 0))
            .cell(static_cast<long long>(epoch.actions))
            .cell(epoch.staticEnergy)
            .cell(epoch.adaptiveEnergy)
            .cell(epoch.reconfigEnergy);
        csv.endRow();
    }
    csv.close();
}

int
cmdAdapt(const Args &args)
{
    Replay replay(args);
    runtime::AdaptivePolicy policy = adaptivePolicy(replay.design);
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

    // Pass 1 -- static baseline: the deployed design accrues the
    // whole trace, exactly as `report` would attribute it.  Pass 2 --
    // the adaptive run.
    auto static_ledger = replay.staticLedger();
    auto [log, comparison] =
        replayAdaptive(replay, static_ledger, policy);

    using runtime::AdaptiveActionKind;
    TextTable table;
    table.addRow({"metric", "value"});
    table.addRow({"epochs", std::to_string(log.epochs.size())});
    table.addRow({"traffic window",
                  std::to_string(policy.trafficWindow)});
    table.addRow({"phase changes",
                  std::to_string(log.countActions(
                      AdaptiveActionKind::PhaseChange))});
    table.addRow({"retargets",
                  std::to_string(log.countActions(
                      AdaptiveActionKind::Retarget))});
    table.addRow({"switches",
                  std::to_string(log.countActions(
                      AdaptiveActionKind::Switch))});
    table.addRow({"candidates built",
                  std::to_string(log.numCandidates)});
    table.addRow({"final design",
                  log.finalDesign == 0
                      ? std::string("0 (static)")
                      : std::to_string(log.finalDesign) +
                            " (retarget)"});
    table.addRow({"static energy (J)",
                  sci(comparison.staticEnergy)});
    table.addRow({"adaptive energy (J)",
                  sci(comparison.adaptiveEnergy)});
    table.addRow({"savings before reconfig (J)",
                  sci(comparison.savings)});
    table.addRow({"reconfig energy (J)",
                  sci(comparison.reconfigEnergy)});
    table.addRow({"net savings (J)", sci(comparison.netSavings)});
    if (comparison.staticEnergy > 0.0)
        table.addRow({"net savings (%)",
                      TextTable::num(100.0 * comparison.netSavings /
                                         comparison.staticEnergy,
                                     3)});
    table.print(std::cout);

    std::string base = replay.outputBase();
    std::string adaptive_csv = base + "adaptive.csv";
    writeAdaptiveCsv(adaptive_csv, replay.stamp, log);

    std::string actions_csv = base + "adaptive_actions.csv";
    {
        CsvWriter csv(actions_csv);
        csv.writeRow({"# " + replay.stamp});
        csv.writeRow(
            {"epoch", "kind", "design", "gain", "energy_cost_j"});
        for (const auto &action : log.actions) {
            csv.cell(static_cast<long long>(action.epoch))
                .cell(runtime::adaptiveActionKindName(action.kind))
                .cell(static_cast<long long>(action.design))
                .cell(action.gain)
                .cell(action.energyCost);
            csv.endRow();
        }
        csv.close();
    }

    std::cout << "adaptive series written to " << adaptive_csv
              << ", action log to " << actions_csv << "\n";
    return 0;
}

int
cmdReport(const Args &args)
{
    Replay replay(args);
    auto ledger = replay.staticLedger();

    // MNOC_FAULTS=1 runs the `faults` replay with its defaults before
    // the averages are taken, so the report's power numbers include
    // the charged reconfiguration energy.  Off by default: the
    // unfaulted report stays byte-identical.
    std::optional<FaultReplay> fault_run;
    if (faultsEnabled())
        fault_run = replayFaults(replay, ledger, FaultOptions{faultSeed()});
    auto power = ledger.averagePower();

    // MNOC_ADAPT=1 runs the `adapt` replay with its defaults and adds
    // a static-vs-adaptive comparison section.  Off by default: the
    // static report stays byte-identical.
    std::optional<AdaptiveReplay> adapt_run;
    if (adaptEnabled())
        adapt_run = replayAdaptive(replay, ledger,
                                   adaptivePolicy(replay.design));

    std::string base = replay.outputBase();
    const std::string &prefix = replay.prefix;
    const std::string &stamp = replay.stamp;
    const sim::TraceHeader &trace_header = replay.header;
    int cores = replay.cores;
    int modes = ledger.numModes();
    std::size_t num_epochs = ledger.numEpochs();

    // Per-(source, mode) totals across epochs, and the
    // time-weighted optical-loss energy attribution.
    std::vector<core::LedgerCell> totals(
        static_cast<std::size_t>(cores) *
        static_cast<std::size_t>(modes));
    optics::ChainLossBreakdown optical; // joules, not watts, here
    for (int s = 0; s < cores; ++s) {
        for (int m = 0; m < modes; ++m) {
            auto &total =
                totals[static_cast<std::size_t>(s) *
                           static_cast<std::size_t>(modes) +
                       static_cast<std::size_t>(m)];
            for (std::size_t e = 0; e < num_epochs; ++e) {
                const auto &cell = ledger.cell(s, m, e);
                total.flits += cell.flits;
                total.txSeconds += cell.txSeconds;
                total.sourceEnergy += cell.sourceEnergy;
                total.oeEnergy += cell.oeEnergy;
                total.electricalEnergy += cell.electricalEnergy;
            }
            const auto &loss = ledger.loss(s, m);
            double tx = total.txSeconds;
            optical.injected += tx * loss.injected;
            optical.sourceCoupling += tx * loss.sourceCoupling;
            optical.sourceSplit += tx * loss.sourceSplit;
            optical.waveguide += tx * loss.waveguide;
            optical.tapInsertion += tx * loss.tapInsertion;
            optical.receiverCoupling += tx * loss.receiverCoupling;
            optical.delivered += tx * loss.delivered;
            optical.residual += tx * loss.residual;
        }
    }

    // Per-(source, mode) attribution table.
    std::string power_csv = base + "power.csv";
    {
        CsvWriter csv(power_csv);
        csv.writeRow({"# " + stamp});
        csv.writeRow({"source", "mode", "flits", "tx_seconds",
                      "source_energy_j", "oe_energy_j",
                      "electrical_energy_j", "injected_w",
                      "source_coupling_w", "source_split_w",
                      "waveguide_w", "tap_insertion_w",
                      "receiver_coupling_w", "delivered_w",
                      "residual_w"});
        for (int s = 0; s < cores; ++s) {
            for (int m = 0; m < modes; ++m) {
                const auto &total =
                    totals[static_cast<std::size_t>(s) *
                               static_cast<std::size_t>(modes) +
                           static_cast<std::size_t>(m)];
                if (total.flits == 0)
                    continue;
                const auto &loss = ledger.loss(s, m);
                csv.cell(static_cast<long long>(s))
                    .cell(static_cast<long long>(m))
                    .cell(static_cast<long long>(total.flits))
                    .cell(total.txSeconds)
                    .cell(total.sourceEnergy)
                    .cell(total.oeEnergy)
                    .cell(total.electricalEnergy)
                    .cell(loss.injected)
                    .cell(loss.sourceCoupling)
                    .cell(loss.sourceSplit)
                    .cell(loss.waveguide)
                    .cell(loss.tapInsertion)
                    .cell(loss.receiverCoupling)
                    .cell(loss.delivered)
                    .cell(loss.residual);
                csv.endRow();
            }
        }
        csv.close();
    }

    // Per-epoch time series.
    std::string epochs_csv = base + "epochs.csv";
    {
        CsvWriter csv(epochs_csv);
        csv.writeRow({"# " + stamp});
        csv.writeRow({"epoch", "flits", "tx_seconds",
                      "source_energy_j", "oe_energy_j",
                      "electrical_energy_j", "total_energy_j"});
        for (std::size_t e = 0; e < num_epochs; ++e) {
            core::LedgerCell window;
            for (int s = 0; s < cores; ++s) {
                for (int m = 0; m < modes; ++m) {
                    const auto &cell = ledger.cell(s, m, e);
                    window.flits += cell.flits;
                    window.txSeconds += cell.txSeconds;
                    window.sourceEnergy += cell.sourceEnergy;
                    window.oeEnergy += cell.oeEnergy;
                    window.electricalEnergy += cell.electricalEnergy;
                }
            }
            csv.cell(static_cast<long long>(e))
                .cell(static_cast<long long>(window.flits))
                .cell(window.txSeconds)
                .cell(window.sourceEnergy)
                .cell(window.oeEnergy)
                .cell(window.electricalEnergy)
                .cell(window.totalEnergy());
            csv.endRow();
        }
        csv.close();
    }

    // (epoch, source) power heatmap.
    std::string pgm = base + "source_power.pgm";
    writePgmHeatmap(pgm, ledger.sourceEpochPower(), true, stamp);

    // Per-epoch reliability time series (faulted runs only).
    std::string reliability_csv = base + "reliability.csv";
    if (fault_run)
        writeReliabilityCsv(reliability_csv, stamp, ledger,
                            fault_run->log);

    // Per-epoch adaptive time series (MNOC_ADAPT=1 runs only).
    std::string adaptive_csv = base + "adaptive.csv";
    if (adapt_run)
        writeAdaptiveCsv(adaptive_csv, stamp, adapt_run->log);

    // Markdown summary.
    std::string report_md = base + "report.md";
    {
        FileWriter writer(report_md);
        auto &out = writer.stream();
        out << "# mNoC energy-attribution report\n\n";
        out << "- workload: " << trace_header.workloadName << "\n";
        out << "- network: " << trace_header.networkName << "\n";
        out << "- nodes: " << cores << ", modes: " << modes << "\n";
        out << "- cycles: " << trace_header.totalTicks
            << ", duration: "
            << sci(ledger.durationSeconds()) << " s\n";
        out << "- epochs: " << num_epochs;
        if (ledger.messagesPerEpoch() > 0)
            out << " (" << ledger.messagesPerEpoch()
                << " messages each)";
        else
            out << " (whole run; trace carries no epoch buckets)";
        out << "\n";
        out << "- trace manifest: `" << stamp << "`\n\n";

        out << "## Average power (W)\n\n";
        out << "| component | power (W) |\n";
        out << "|---|---|\n";
        out << "| QD LED source | " << sci(power.source) << " |\n";
        out << "| O/E conversion | " << sci(power.oe) << " |\n";
        out << "| electrical | " << sci(power.electrical) << " |\n";
        if (fault_run)
            out << "| reconfiguration | " << sci(power.reconfig)
                << " |\n";
        out << "| total | " << sci(power.total()) << " |\n\n";

        out << "## Optical energy attribution (J)\n\n";
        out << "Time-weighted splitter-chain walk; buckets sum to "
               "the injected optical energy (self-checked by the "
               "ledger).\n\n";
        out << "| bucket | energy (J) |\n";
        out << "|---|---|\n";
        out << "| injected | " << sci(optical.injected) << " |\n";
        out << "| source coupling | " << sci(optical.sourceCoupling)
            << " |\n";
        out << "| source split | " << sci(optical.sourceSplit)
            << " |\n";
        out << "| waveguide | " << sci(optical.waveguide) << " |\n";
        out << "| tap insertion | " << sci(optical.tapInsertion)
            << " |\n";
        out << "| receiver coupling | "
            << sci(optical.receiverCoupling) << " |\n";
        out << "| delivered | " << sci(optical.delivered) << " |\n";
        out << "| residual | " << sci(optical.residual) << " |\n\n";

        if (fault_run) {
            using runtime::ActionKind;
            const auto &deg_log = fault_run->log;
            double worst_after = 1e9;
            for (const auto &epoch : deg_log.epochs)
                worst_after = std::min(worst_after,
                                       epoch.marginAfter.dB());
            out << "## Reliability (MNOC_FAULTS=1)\n\n";
            out << "Epochs replayed under the runtime fault "
                   "timeline (seed "
                << fault_run->timeline.seed()
                << ") with the graceful-degradation controller.\n\n";
            out << "| metric | value |\n";
            out << "|---|---|\n";
            out << "| fault events | "
                << fault_run->timeline.events().size() << " |\n";
            out << "| trims | "
                << deg_log.countActions(ActionKind::Trim) << " |\n";
            out << "| relaxes | "
                << deg_log.countActions(ActionKind::Relax) << " |\n";
            out << "| failovers | "
                << deg_log.countActions(ActionKind::Failover)
                << " |\n";
            out << "| restores | "
                << deg_log.countActions(ActionKind::Restore)
                << " |\n";
            out << "| collapses | "
                << deg_log.countActions(ActionKind::Collapse)
                << " |\n";
            out << "| final modes | " << deg_log.finalNumModes
                << " |\n";
            out << "| worst post-action margin (dB) | "
                << TextTable::num(worst_after, 3) << " |\n";
            out << "| reconfiguration energy (J) | "
                << sci(deg_log.totalReconfigEnergy) << " |\n\n";
        }

        if (adapt_run) {
            using runtime::AdaptiveActionKind;
            const auto &[adapt_log, adapt_cmp] = *adapt_run;
            out << "## Adaptive runtime (MNOC_ADAPT=1)\n\n";
            out << "Epochs replayed under the traffic-driven "
                   "mode-re-selection controller ("
                << adapt_log.epochs.size()
                << " epochs, MNOC_ADAPT_WINDOW=" << adaptWindow()
                << "); candidates re-partition the deployed mode "
                   "count against the trailing traffic window.\n\n";
            out << "| metric | value |\n";
            out << "|---|---|\n";
            out << "| phase changes | "
                << adapt_log.countActions(
                       AdaptiveActionKind::PhaseChange)
                << " |\n";
            out << "| retargets | "
                << adapt_log.countActions(
                       AdaptiveActionKind::Retarget)
                << " |\n";
            out << "| switches | "
                << adapt_log.countActions(AdaptiveActionKind::Switch)
                << " |\n";
            out << "| candidates built | " << adapt_log.numCandidates
                << " |\n";
            out << "| final design | " << adapt_log.finalDesign
                << (adapt_log.finalDesign == 0 ? " (static)"
                                               : " (retarget)")
                << " |\n";
            out << "| static energy (J) | "
                << sci(adapt_cmp.staticEnergy) << " |\n";
            out << "| adaptive energy (J) | "
                << sci(adapt_cmp.adaptiveEnergy) << " |\n";
            out << "| savings before reconfig (J) | "
                << sci(adapt_cmp.savings) << " |\n";
            out << "| reconfiguration energy (J) | "
                << sci(adapt_cmp.reconfigEnergy) << " |\n";
            out << "| net savings (J) | " << sci(adapt_cmp.netSavings)
                << " |\n";
            if (adapt_cmp.staticEnergy > 0.0)
                out << "| net savings (%) | "
                    << TextTable::num(100.0 * adapt_cmp.netSavings /
                                          adapt_cmp.staticEnergy,
                                      3)
                    << " |\n";
            out << "\n";
        }

        out << "## Artifacts\n\n";
        out << "- per-(source, mode) attribution: " << prefix
            << "power.csv\n";
        out << "- per-epoch time series: " << prefix
            << "epochs.csv\n";
        out << "- (epoch, source) power heatmap: " << prefix
            << "source_power.pgm\n";
        if (fault_run)
            out << "- per-epoch reliability series: " << prefix
                << "reliability.csv\n";
        if (adapt_run)
            out << "- per-epoch adaptive series: " << prefix
                << "adaptive.csv\n";
        writer.close();
    }

    std::cout << "report written to " << report_md << " (+ "
              << prefix << "power.csv, " << prefix << "epochs.csv, "
              << prefix << "source_power.pgm";
    if (fault_run)
        std::cout << ", " << prefix << "reliability.csv";
    if (adapt_run)
        std::cout << ", " << prefix << "adaptive.csv";
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
