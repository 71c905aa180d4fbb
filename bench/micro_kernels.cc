/**
 * @file
 * google-benchmark microbenchmarks of the library's inner kernels:
 * splitter-chain design, alpha optimization, QAP delta evaluation,
 * channel booking, cache lookups, directory entries, the
 * disabled-path cost of the metrics/span instrumentation (must stay a
 * branch, not a syscall), a passing bounds check (must stay a
 * branch, not an allocation), the trace reader's record parse, the
 * design loader, and the adaptive-controller run with the decision
 * journal off and on.
 */

#include <benchmark/benchmark.h>

#include <filesystem>
#include <vector>

#include "common/journal.hh"
#include "common/log.hh"
#include "common/matrix.hh"
#include "common/metrics.hh"
#include "common/prng.hh"
#include "common/trace_span.hh"
#include "core/builders.hh"
#include "core/design_io.hh"
#include "core/designer.hh"
#include "core/power_model.hh"
#include "faults/variation.hh"
#include "noc/channel.hh"
#include "optics/alpha_optimizer.hh"
#include "optics/crossbar.hh"
#include "qap/qap.hh"
#include "runtime/adaptive_controller.hh"
#include "runtime/degradation_controller.hh"
#include "runtime/fault_timeline.hh"
#include "sim/cache.hh"
#include "sim/directory.hh"
#include "sim/memop.hh"
#include "sim/trace.hh"
#include "sim/trace_stream.hh"

using namespace mnoc;

namespace {

void
BM_SplitterChainDesign(benchmark::State &state)
{
    int n = static_cast<int>(state.range(0));
    optics::SerpentineLayout layout{n, Meters(0.18)};
    optics::DeviceParams params;
    optics::SplitterChain chain(layout, params, n / 2);
    std::vector<double> targets(n, params.pminAtTap().watts());
    targets[n / 2] = 0.0;
    for (auto _ : state) {
        auto design = chain.design(targets);
        benchmark::DoNotOptimize(design.injectedPower);
    }
}
BENCHMARK(BM_SplitterChainDesign)->Arg(64)->Arg(256)->Arg(1024);

void
BM_AlphaOptimize(benchmark::State &state)
{
    int n = 256;
    optics::SerpentineLayout layout{n, Meters(0.18)};
    optics::DeviceParams params;
    optics::SplitterChain chain(layout, params, n / 2);
    std::vector<int> modes(n, 0);
    int m = static_cast<int>(state.range(0));
    for (int d = 0; d < n; ++d)
        modes[d] = (std::abs(d - n / 2) * m) / n;
    std::vector<double> weights(m, 1.0 / m);
    optics::AlphaOptimizer optimizer(chain, modes, weights,
                                     params.pminAtTap());
    for (auto _ : state) {
        auto design = optimizer.optimize();
        benchmark::DoNotOptimize(design.expectedPower);
    }
}
BENCHMARK(BM_AlphaOptimize)->Arg(2)->Arg(4);

void
BM_QapSwapDelta(benchmark::State &state)
{
    int n = static_cast<int>(state.range(0));
    Prng rng(1);
    FlowMatrix flow(n, n, 0.0);
    FlowMatrix dist(n, n, 0.0);
    for (int i = 0; i < n; ++i)
        for (int j = i + 1; j < n; ++j) {
            flow(i, j) = flow(j, i) = rng.uniform();
            dist(i, j) = dist(j, i) = rng.uniform();
        }
    qap::QapInstance inst(flow, dist);
    auto perm = inst.identity();
    int u = 0;
    for (auto _ : state) {
        int v = (u + 7) % n;
        if (v == u)
            v = (v + 1) % n;
        benchmark::DoNotOptimize(inst.swapDelta(perm, u, v));
        u = (u + 1) % n;
    }
}
BENCHMARK(BM_QapSwapDelta)->Arg(64)->Arg(256);

void
BM_ChannelBook(benchmark::State &state)
{
    noc::Channel channel;
    noc::Tick t = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(channel.book(t, 3));
        t += 2;
    }
}
BENCHMARK(BM_ChannelBook);

/** Cache::lookup at the L1 (32 KB, 4-way) and L2 (512 KB, 8-way)
 *  geometries of MemoryParams; the args are KB and ways. */
void
BM_CacheLookup(benchmark::State &state)
{
    sim::Cache cache(sim::CacheGeometry{
        static_cast<std::uint32_t>(state.range(0)) * 1024,
        static_cast<std::uint32_t>(state.range(1))});
    Prng rng(2);
    for (int i = 0; i < 400; ++i)
        cache.insert(rng.below(1 << 16), sim::LineState::Shared);
    std::uint64_t line = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(cache.lookup(line));
        line = (line + 97) % (1 << 16);
    }
}
BENCHMARK(BM_CacheLookup)->Args({32, 4})->Args({512, 8});

/** Directory::entry creating 1 M lines spread over 256 homes, then
 *  entry() on each again, as the simulator's misses and upgrades do;
 *  one iteration is both passes. */
void
BM_DirectoryEntry(benchmark::State &state)
{
    constexpr int kCores = 256;
    constexpr std::uint64_t kLines = 1 << 20;
    std::vector<std::uint64_t> lines(kLines);
    for (std::uint64_t i = 0; i < kLines; ++i)
        lines[i] = sim::lineOf(sim::placedAddr(
            static_cast<int>(i % kCores), (i / kCores) << sim::lineShift));
    for (auto _ : state) {
        sim::Directory dir(kCores);
        for (std::uint64_t line : lines)
            dir.entry(line).sharers().add(static_cast<int>(line % 7));
        for (std::uint64_t line : lines)
            benchmark::DoNotOptimize(dir.entry(line).state());
        benchmark::DoNotOptimize(dir.numEntries());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(2 * kLines));
}
BENCHMARK(BM_DirectoryEntry)->Unit(benchmark::kMillisecond);

/** Counter::add with collection off: the before/after check of the
 *  "off = zero overhead" contract (one relaxed load + branch). */
void
BM_MetricsCounterOff(benchmark::State &state)
{
    MetricsRegistry::setEnabled(false);
    Counter &counter =
        MetricsRegistry::global().counter("bench.off_counter");
    for (auto _ : state)
        counter.add();
    benchmark::DoNotOptimize(counter.value());
}
BENCHMARK(BM_MetricsCounterOff);

void
BM_MetricsCounterOn(benchmark::State &state)
{
    MetricsRegistry::setEnabled(true);
    Counter &counter =
        MetricsRegistry::global().counter("bench.on_counter");
    for (auto _ : state)
        counter.add();
    benchmark::DoNotOptimize(counter.value());
    MetricsRegistry::setEnabled(false);
}
BENCHMARK(BM_MetricsCounterOn);

void
BM_HistogramObserveOn(benchmark::State &state)
{
    MetricsRegistry::setEnabled(true);
    Histogram &hist = MetricsRegistry::global().histogram(
        "bench.on_histogram", {1.0, 10.0, 100.0});
    double value = 0.0;
    for (auto _ : state) {
        hist.observe(value);
        value = value < 200.0 ? value + 1.0 : 0.0;
    }
    benchmark::DoNotOptimize(hist.totalCount());
    MetricsRegistry::setEnabled(false);
}
BENCHMARK(BM_HistogramObserveOn);

/** TraceSpan construction/destruction with recording off. */
void
BM_TraceSpanOff(benchmark::State &state)
{
    SpanRecorder::setEnabled(false);
    for (auto _ : state) {
        TraceSpan span("bench.span", "bench");
        benchmark::DoNotOptimize(&span);
    }
}
BENCHMARK(BM_TraceSpanOff);

/** One passing panicIf with a literal past the small-string buffer
 *  plus one in-range Matrix::operator(): the per-call cost of the
 *  bounds checks on the ledger and splitter-chain paths. */
void
BM_CheckPass(benchmark::State &state)
{
    FlowMatrix m(16, 16, 1.0);
    std::size_t r = 3;
    std::size_t c = 5;
    for (auto _ : state) {
        // Opaque indices, so neither check folds away.
        benchmark::DoNotOptimize(r);
        benchmark::DoNotOptimize(c);
        panicIf(r >= m.rows(), "micro-kernel row ran past its matrix");
        benchmark::DoNotOptimize(m(r, c));
    }
}
BENCHMARK(BM_CheckPass);

/** Composing one epoch's fault state from a dense event list: the
 *  per-epoch fixed cost the degradation controller pays before any
 *  link budgets are evaluated. */
void
BM_FaultTimelineStateAt(benchmark::State &state)
{
    constexpr std::size_t kEpochs = 64;
    runtime::FaultTimeline timeline(
        runtime::FaultTimelineSpec{}.scaled(4.0), 256, 4, kEpochs,
        7);
    std::size_t epoch = 0;
    for (auto _ : state) {
        auto fault_state = timeline.stateAt(epoch % kEpochs);
        benchmark::DoNotOptimize(fault_state.activeEvents);
        ++epoch;
    }
}
BENCHMARK(BM_FaultTimelineStateAt);

/** Full controller run over a faulted window: per-source link-budget
 *  re-evaluation plus the rule table. */
void
BM_DegradationController(benchmark::State &state)
{
    int n = static_cast<int>(state.range(0));
    optics::SerpentineLayout layout{n, Meters(0.18)};
    optics::OpticalCrossbar crossbar(layout,
                                     optics::DeviceParams{});
    core::Designer designer(crossbar);
    core::DesignSpec spec;
    spec.numModes = 2;
    spec.assignment = core::Assignment::Clustered;
    spec.weights = core::WeightSource::Uniform;
    FlowMatrix flow(n, n, 1.0);
    auto topology = designer.buildTopology(spec, flow);
    auto design = designer.buildDesign(spec, topology, flow);

    Prng prng(1);
    auto variation = faults::drawVariation(
        faults::VariationSpec{}.scaled(0.0), crossbar.params(), n,
        prng);
    runtime::FaultTimeline timeline(runtime::FaultTimelineSpec{}, n,
                                    spec.numModes, 8, 7);
    runtime::DegradationPolicy policy;
    for (auto _ : state) {
        auto log = runtime::runDegradationController(
            layout, design, variation, timeline, policy, nullptr);
        benchmark::DoNotOptimize(log.finalNumModes);
    }
}
BENCHMARK(BM_DegradationController)->Arg(64);

/** Write a 256-node, 64-epoch trace (4096 messages an epoch, the
 *  pipeline benchmark's epoch size) under the temp dir; its path. */
std::string
writeDrainTrace()
{
    constexpr int kNodes = 256;
    constexpr std::size_t kEpochs = 64;
    constexpr std::uint64_t kMessages = 4096;
    sim::Trace trace;
    trace.workloadName = "micro_drain";
    trace.networkName = "mNoC";
    trace.totalTicks = 1000000;
    trace.packets = CountMatrix(kNodes, kNodes, 0);
    trace.flits = CountMatrix(kNodes, kNodes, 0);
    trace.epochs.messagesPerEpoch = kMessages;
    Prng rng(9);
    CountMatrix packets(kNodes, kNodes, 0);
    CountMatrix flits(kNodes, kNodes, 0);
    for (std::size_t e = 0; e < kEpochs; ++e) {
        packets.fill(0);
        flits.fill(0);
        for (std::uint64_t m = 0; m < kMessages; ++m) {
            auto src = static_cast<std::size_t>(rng.below(kNodes));
            auto dst = static_cast<std::size_t>(rng.below(kNodes));
            packets(src, dst) += 1;
            flits(src, dst) += 1 + rng.below(5);
        }
        // Row-major walk: cells come out sorted by (src, dst).
        std::vector<noc::EpochCell> cells;
        for (int s = 0; s < kNodes; ++s) {
            for (int d = 0; d < kNodes; ++d) {
                if (packets(s, d) == 0)
                    continue;
                cells.push_back({s, d, packets(s, d), flits(s, d)});
                trace.packets(s, d) += packets(s, d);
                trace.flits(s, d) += flits(s, d);
            }
        }
        trace.epochs.epochs.push_back(std::move(cells));
    }
    auto path = std::filesystem::temp_directory_path() /
                "mnoc_micro_drain.trace";
    sim::saveTrace(path.string(), trace);
    return path.string();
}

/** The drain kernel's trace file, written once and removed at exit. */
struct DrainTrace
{
    DrainTrace() = default;
    ~DrainTrace()
    {
        std::error_code ignored; // a leftover temp file is harmless
        std::filesystem::remove(path, ignored);
    }
    DrainTrace(const DrainTrace &) = delete;
    DrainTrace &operator=(const DrainTrace &) = delete;

    std::string path = writeDrainTrace();
};

/** Stream every epoch cell and triplet of a saved trace through
 *  TraceReader: the record parse each replay pass pays per line. */
void
BM_TraceReaderDrain(benchmark::State &state)
{
    static const DrainTrace fixture;
    std::vector<noc::EpochCell> cells;
    std::vector<sim::TraceMessage> batch;
    std::size_t records = 0;
    for (auto _ : state) {
        sim::TraceReader reader(fixture.path);
        while (reader.nextEpoch(cells))
            records += cells.size();
        while (reader.nextMessages(batch, sim::kMessageBatch) > 0)
            records += batch.size();
        benchmark::DoNotOptimize(records);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(records));
}
BENCHMARK(BM_TraceReaderDrain)->Unit(benchmark::kMillisecond);

/** A saved distance-based, 4-mode uniform design of @p node_count
 *  nodes under the temp dir, written once and removed at exit. */
struct DesignFile
{
    explicit DesignFile(int node_count) : nodes(node_count)
    {
        optics::SerpentineLayout layout{node_count, Meters(0.18)};
        optics::OpticalCrossbar crossbar{layout, optics::DeviceParams{}};
        core::MnocPowerModel model{crossbar};
        auto topology = core::distanceBasedTopology(node_count, 4);
        core::saveDesign(path, model.designUniform(topology));
    }
    ~DesignFile()
    {
        std::error_code ignored; // a leftover temp file is harmless
        std::filesystem::remove(path, ignored);
    }
    DesignFile(const DesignFile &) = delete;
    DesignFile &operator=(const DesignFile &) = delete;

    int nodes;
    std::string path = (std::filesystem::temp_directory_path() /
                        "mnoc_micro_load.design")
                           .string();
};

/** Load a saved design: the read and parse every replay verb pays
 *  before its first epoch. */
void
BM_LoadDesign(benchmark::State &state)
{
    static const DesignFile fixture(static_cast<int>(state.range(0)));
    if (fixture.nodes != state.range(0)) {
        state.SkipWithError("the design file is written for one size");
        return;
    }
    for (auto _ : state) {
        core::MnocDesign design = core::loadDesign(fixture.path);
        benchmark::DoNotOptimize(design.sources.data());
    }
}
BENCHMARK(BM_LoadDesign)->Arg(256)->Unit(benchmark::kMillisecond);

/** The adaptive-controller run of BM_AdaptiveRunJournal: a 64-node
 *  distance-based static design, and a 256-epoch trace whose first
 *  half is neighbor-heavy and second half uniform, each epoch drawn
 *  from its own derived stream so the trace is the same run over
 *  run.  The trace stays in memory; the reader serves it from there. */
struct AdaptiveRunFixture
{
    static constexpr int kNodes = 64;
    static constexpr std::size_t kEpochs = 256;

    AdaptiveRunFixture()
    {
        core::DesignSpec spec;
        spec.numModes = 2;
        spec.assignment = core::Assignment::DistanceBased;
        spec.weights = core::WeightSource::Uniform;
        FlowMatrix flow(kNodes, kNodes, 1.0);
        for (int i = 0; i < kNodes; ++i)
            flow(i, i) = 0.0;
        auto topology = designer.buildTopology(spec, flow);
        design = designer.buildDesign(spec, topology, flow,
                                      DecibelLoss(1.5));

        policy.candidateSpec.numModes = 2;
        policy.candidateSpec.assignment = core::Assignment::CommAware;
        policy.candidateSpec.weights = core::WeightSource::DesignFlow;
        policy.candidateMargin = DecibelLoss(1.5);

        constexpr std::uint64_t kMessages = 128;
        trace.workloadName = "micro_adaptive";
        trace.networkName = "mNoC";
        trace.totalTicks = 1000000;
        trace.packets = CountMatrix(kNodes, kNodes, 0);
        trace.flits = CountMatrix(kNodes, kNodes, 0);
        trace.epochs.messagesPerEpoch = kMessages;
        CountMatrix packets(kNodes, kNodes, 0);
        CountMatrix flits(kNodes, kNodes, 0);
        for (std::size_t e = 0; e < kEpochs; ++e) {
            Prng rng(deriveSeed(37, e));
            packets.fill(0);
            flits.fill(0);
            for (std::uint64_t m = 0; m < kMessages; ++m) {
                auto src = rng.below(kNodes);
                std::uint64_t dst;
                if (e < kEpochs / 2) {
                    dst = (src + 1 + rng.below(3)) % kNodes;
                } else {
                    dst = rng.below(kNodes - 1);
                    if (dst >= src)
                        ++dst;
                }
                packets(src, dst) += 1;
                flits(src, dst) += 1 + rng.below(8);
            }
            // Row-major walk: cells come out sorted by (src, dst).
            std::vector<noc::EpochCell> cells;
            for (int src = 0; src < kNodes; ++src) {
                for (int dst = 0; dst < kNodes; ++dst) {
                    if (packets(src, dst) == 0)
                        continue;
                    cells.push_back({src, dst, packets(src, dst),
                                     flits(src, dst)});
                    trace.packets(src, dst) += packets(src, dst);
                    trace.flits(src, dst) += flits(src, dst);
                }
            }
            trace.epochs.epochs.push_back(std::move(cells));
        }
    }

    optics::SerpentineLayout layout{kNodes, Meters(0.08)};
    optics::OpticalCrossbar crossbar{layout, optics::DeviceParams{}};
    core::Designer designer{crossbar};
    core::MnocDesign design;
    runtime::AdaptivePolicy policy;
    sim::Trace trace;
};

/** The adaptive-controller run with the decision journal off (/0)
 *  or recording (/1): the /1 - /0 difference over the fixture's 256
 *  epochs is the journal's enabled cost per epoch, and /0 pins that
 *  the disabled path records nothing (each emission point costs one
 *  relaxed atomic load).  The journal is emptied before every run,
 *  and its enabled state restored afterwards. */
void
BM_AdaptiveRunJournal(benchmark::State &state)
{
    static const AdaptiveRunFixture fixture;
    constexpr int kNodes = AdaptiveRunFixture::kNodes;
    bool record = state.range(0) != 0;
    bool was_enabled = journalEnabled();
    Journal::setEnabled(record);
    std::size_t records = 0;
    for (auto _ : state) {
        Journal::global().reset();
        sim::TraceReader reader(fixture.trace);
        core::EnergyLedger ledger(kNodes, 2, AdaptiveRunFixture::kEpochs,
                                  1.0e-3);
        auto log = runtime::runAdaptiveController(
            fixture.designer, fixture.design, fixture.policy, reader,
            nullptr, &ledger);
        benchmark::DoNotOptimize(log.finalDesign);
        records = Journal::global().size();
    }
    Journal::global().reset();
    Journal::setEnabled(was_enabled);
    state.counters["records"] = static_cast<double>(records);
    if (!record && records != 0)
        state.SkipWithError("the disabled journal recorded events");
}
BENCHMARK(BM_AdaptiveRunJournal)
    ->Arg(0)
    ->Arg(1)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
