/**
 * @file
 * Serial-vs-parallel smoke benchmark of the deterministic parallel
 * execution layer (DESIGN.md §9): times the Monte Carlo yield
 * analysis, the QAP multi-start taboo search, the SPLASH suite
 * simulation, and the energy-ledger build over a trace file on a
 * pool of one and on the configured pool, verifies the parallel
 * results are bit-identical to the serial ones, and writes
 * BENCH_parallel.json (schema in bench/bench_json.hh) so the perf
 * trajectory accumulates run over run.  The ledger
 * record's workItems is the epoch-cell (message) count, so
 * messages/sec for either side is workItems / *Seconds.  The
 * journal_overhead record pins the decision journal's cost contract:
 * disabled-path overhead ~0 and an enabled-path cost per epoch, with
 * bit-identical journal bytes across pool sizes.
 *
 * Scale knobs: MNOC_THREADS sets the parallel pool; the suite
 * section honors MNOC_BENCH_CORES / MNOC_BENCH_OPS but defaults to a
 * smoke-sized 64 cores x 500 ops when they are unset (unlike the
 * figure binaries, which default to the paper scale).
 */

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <map>
#include <utility>

#include "bench_json.hh"
#include "common/journal.hh"
#include "common/knobs.hh"
#include "common/manifest.hh"
#include "common/prng.hh"
#include "common/thread_pool.hh"
#include "core/designer.hh"
#include "core/energy_ledger.hh"
#include "faults/yield.hh"
#include "harness.hh"
#include "qap/multi_start.hh"
#include "runtime/adaptive_controller.hh"
#include "sim/trace.hh"
#include "sim/trace_stream.hh"

using namespace mnoc;

namespace {

double
seconds(std::chrono::steady_clock::time_point begin,
        std::chrono::steady_clock::time_point end)
{
    return std::chrono::duration<double>(end - begin).count();
}

/** Bit-exact comparison of two yield reports (every draw included). */
bool
sameReport(const faults::YieldReport &a, const faults::YieldReport &b)
{
    if (a.yield != b.yield || a.trials != b.trials ||
        a.marginMean.dB() != b.marginMean.dB() ||
        a.marginMin.dB() != b.marginMin.dB() ||
        a.marginP5.dB() != b.marginP5.dB() ||
        a.berWorstMean != b.berWorstMean ||
        a.berWorstMax != b.berWorstMax ||
        a.marginFailuresByMode != b.marginFailuresByMode ||
        a.leakFailuresByMode != b.leakFailuresByMode ||
        a.draws.size() != b.draws.size())
        return false;
    for (std::size_t i = 0; i < a.draws.size(); ++i) {
        if (a.draws[i].pass != b.draws[i].pass ||
            a.draws[i].worstMargin.dB() !=
                b.draws[i].worstMargin.dB() ||
            a.draws[i].worstLeak.dB() != b.draws[i].worstLeak.dB() ||
            a.draws[i].worstBitErrorRate !=
                b.draws[i].worstBitErrorRate ||
            a.draws[i].marginFailures != b.draws[i].marginFailures ||
            a.draws[i].leakFailures != b.draws[i].leakFailures)
            return false;
    }
    return true;
}

bench::ParallelRecord
benchYield(ThreadPool &serial, ThreadPool &parallel)
{
    using Clock = std::chrono::steady_clock;
    constexpr int kNodes = 64;
    constexpr int kTrials = 600;

    optics::SerpentineLayout layout(kNodes, Meters(0.08));
    optics::DeviceParams params;
    optics::OpticalCrossbar xbar(layout, params);
    core::Designer designer(xbar);

    core::DesignSpec spec;
    spec.numModes = 2;
    spec.assignment = core::Assignment::DistanceBased;
    spec.weights = core::WeightSource::Uniform;
    FlowMatrix flow(kNodes, kNodes, 1.0);
    for (int i = 0; i < kNodes; ++i)
        flow(i, i) = 0.0;
    auto topology = designer.buildTopology(spec, flow);
    auto design =
        designer.buildDesign(spec, topology, flow, DecibelLoss(1.5));

    faults::VariationSpec variation;
    faults::YieldCriteria criteria;

    auto t0 = Clock::now();
    auto serial_report =
        faults::analyzeYield(layout, params, design.sources,
                             variation, kTrials, 7, criteria,
                             &serial);
    auto t1 = Clock::now();
    auto parallel_report =
        faults::analyzeYield(layout, params, design.sources,
                             variation, kTrials, 7, criteria,
                             &parallel);
    auto t2 = Clock::now();

    bench::ParallelRecord record;
    record.name = "yield_monte_carlo";
    record.workItems = kTrials;
    record.serialSeconds = seconds(t0, t1);
    record.parallelSeconds = seconds(t1, t2);
    record.bitIdentical = sameReport(serial_report, parallel_report);
    return record;
}

bench::ParallelRecord
benchQapMultiStart(ThreadPool &serial, ThreadPool &parallel)
{
    using Clock = std::chrono::steady_clock;
    constexpr int kSize = 48;
    constexpr int kRestarts = 8;

    Prng rng(11);
    FlowMatrix flow(kSize, kSize, 0.0);
    FlowMatrix dist(kSize, kSize, 0.0);
    for (int i = 0; i < kSize; ++i) {
        for (int j = i + 1; j < kSize; ++j) {
            flow(i, j) = flow(j, i) = rng.uniform() * 10.0;
            dist(i, j) = dist(j, i) = rng.uniform() * 5.0;
        }
    }
    qap::QapInstance instance(std::move(flow), std::move(dist));
    qap::TabooParams params;
    params.iterations = 20000;

    auto t0 = Clock::now();
    auto serial_result = qap::multiStartTaboo(
        instance, instance.identity(), params, kRestarts, &serial);
    auto t1 = Clock::now();
    auto parallel_result = qap::multiStartTaboo(
        instance, instance.identity(), params, kRestarts, &parallel);
    auto t2 = Clock::now();

    bench::ParallelRecord record;
    record.name = "qap_multi_start_taboo";
    record.workItems = kRestarts;
    record.serialSeconds = seconds(t0, t1);
    record.parallelSeconds = seconds(t1, t2);
    record.bitIdentical =
        serial_result.perm == parallel_result.perm &&
        serial_result.cost == parallel_result.cost;
    return record;
}

bench::ParallelRecord
benchSuite(ThreadPool &serial, ThreadPool &parallel,
           const std::string &scratch)
{
    using Clock = std::chrono::steady_clock;

    // Fresh cache directories so both runs really simulate.
    std::string serial_dir = scratch + "/serial";
    std::string parallel_dir = scratch + "/parallel";

    setenv("MNOC_BENCH_DIR", serial_dir.c_str(), 1);
    bench::Harness serial_harness;
    auto t0 = Clock::now();
    serial_harness.simulateSuite("mnoc", &serial);
    auto t1 = Clock::now();

    setenv("MNOC_BENCH_DIR", parallel_dir.c_str(), 1);
    bench::Harness parallel_harness;
    auto t2 = Clock::now();
    parallel_harness.simulateSuite("mnoc", &parallel);
    auto t3 = Clock::now();

    bool identical = true;
    for (const auto &name : serial_harness.benchmarks()) {
        const auto &a = serial_harness.trace(name);
        const auto &b = parallel_harness.trace(name);
        identical = identical && a.flits == b.flits &&
                    a.packets == b.packets &&
                    a.totalTicks == b.totalTicks;
    }

    bench::ParallelRecord record;
    record.name = "splash_suite_simulation";
    record.workItems = static_cast<long long>(
        serial_harness.benchmarks().size());
    record.serialSeconds = seconds(t0, t1);
    record.parallelSeconds = seconds(t2, t3);
    record.bitIdentical = identical;
    return record;
}

/** Bit-exact comparison of two energy ledgers, cell by cell. */
bool
sameLedger(const core::EnergyLedger &a, const core::EnergyLedger &b)
{
    if (a.numSources() != b.numSources() ||
        a.numModes() != b.numModes() ||
        a.numEpochs() != b.numEpochs() ||
        a.durationSeconds() != b.durationSeconds() ||
        a.messagesPerEpoch() != b.messagesPerEpoch())
        return false;
    for (int s = 0; s < a.numSources(); ++s) {
        for (int m = 0; m < a.numModes(); ++m) {
            for (std::size_t e = 0; e < a.numEpochs(); ++e) {
                const auto &x = a.cell(s, m, e);
                const auto &y = b.cell(s, m, e);
                if (x.flits != y.flits ||
                    x.txSeconds != y.txSeconds ||
                    x.sourceEnergy != y.sourceEnergy ||
                    x.oeEnergy != y.oeEnergy ||
                    x.electricalEnergy != y.electricalEnergy)
                    return false;
            }
        }
    }
    return true;
}

/**
 * The ledger section: build one deterministic epoch-carrying trace,
 * save it, then time the ledger build streamed from the file on the
 * serial pool and on the parallel pool.  Epochs accrue in order on
 * the calling thread; the loss walks fan across the pool, so the two
 * ledgers must be bit-identical.  workItems is the total epoch-cell
 * count, so messages/sec falls out of the record directly.
 */
bench::ParallelRecord
benchLedgerBuild(ThreadPool &serial, ThreadPool &parallel,
                    const std::string &scratch)
{
    using Clock = std::chrono::steady_clock;
    constexpr int kNodes = 64;
    constexpr std::size_t kEpochs = 4096;
    constexpr std::uint64_t kMsgsPerEpoch = 128;
    constexpr std::uint64_t kSeed = 23;

    optics::SerpentineLayout layout(kNodes, Meters(0.08));
    optics::DeviceParams params;
    optics::OpticalCrossbar xbar(layout, params);
    core::Designer designer(xbar);

    core::DesignSpec spec;
    spec.numModes = 2;
    spec.assignment = core::Assignment::DistanceBased;
    spec.weights = core::WeightSource::Uniform;
    FlowMatrix flow(kNodes, kNodes, 1.0);
    for (int i = 0; i < kNodes; ++i)
        flow(i, i) = 0.0;
    auto topology = designer.buildTopology(spec, flow);
    auto design =
        designer.buildDesign(spec, topology, flow, DecibelLoss(1.5));

    // Deterministic synthetic traffic: every epoch draws its messages
    // from its own derived PRNG stream, merged and sorted into the
    // canonical (src, dst) cell order the capture path produces.
    sim::Trace trace;
    trace.workloadName = "bench_stream";
    trace.networkName = "mnoc";
    trace.totalTicks = 1000000;
    trace.packets = CountMatrix(kNodes, kNodes, 0);
    trace.flits = CountMatrix(kNodes, kNodes, 0);
    trace.manifest = currentManifest();
    trace.epochs.messagesPerEpoch = kMsgsPerEpoch;
    trace.epochs.epochs.reserve(kEpochs);
    long long total_cells = 0;
    for (std::size_t e = 0; e < kEpochs; ++e) {
        Prng rng(deriveSeed(kSeed, e));
        std::map<std::pair<int, int>,
                 std::pair<std::uint64_t, std::uint64_t>> bucket;
        for (std::uint64_t m = 0; m < kMsgsPerEpoch; ++m) {
            int src = static_cast<int>(rng.below(kNodes));
            int dst = static_cast<int>(rng.below(kNodes - 1));
            if (dst >= src)
                ++dst;
            std::uint64_t flits = 1 + rng.below(8);
            auto &cell = bucket[{src, dst}];
            cell.first += 1;
            cell.second += flits;
        }
        std::vector<noc::EpochCell> cells;
        cells.reserve(bucket.size());
        for (const auto &[key, counts] : bucket) {
            cells.push_back({key.first, key.second, counts.first,
                             counts.second});
            trace.packets(key.first, key.second) += counts.first;
            trace.flits(key.first, key.second) += counts.second;
        }
        total_cells += static_cast<long long>(cells.size());
        trace.epochs.epochs.push_back(std::move(cells));
    }

    std::string file = scratch + "/ledger.trace";
    sim::saveTrace(file, trace);

    auto t0 = Clock::now();
    sim::TraceReader serial_reader(file);
    auto serial_ledger = designer.model().buildLedger(
        design, serial_reader, nullptr, &serial);
    auto t1 = Clock::now();

    auto t2 = Clock::now();
    sim::TraceReader parallel_reader(file);
    auto parallel_ledger = designer.model().buildLedger(
        design, parallel_reader, nullptr, &parallel);
    auto t3 = Clock::now();

    bench::ParallelRecord record;
    record.name = "ledger_build";
    record.workItems = total_cells;
    record.serialSeconds = seconds(t0, t1);
    record.parallelSeconds = seconds(t2, t3);
    record.bitIdentical = sameLedger(serial_ledger, parallel_ledger);
    double cells = static_cast<double>(total_cells);
    std::cout << "  ledger build: "
              << static_cast<long long>(
                     cells / record.serialSeconds)
              << " msgs/s serial, "
              << static_cast<long long>(
                     cells / record.parallelSeconds)
              << " msgs/s parallel\n";
    return record;
}

/**
 * Deterministic two-phase synthetic trace for the journal section:
 * a neighbor-heavy first half and a uniform second
 * half, each epoch drawn from its own derived stream so the trace is
 * reproducible run over run.
 */
sim::Trace
twoPhaseTrace(int nodes, std::size_t epochs,
              std::uint64_t msgs_per_epoch, std::uint64_t seed)
{
    sim::Trace trace;
    trace.workloadName = "bench_adaptive";
    trace.networkName = "mnoc";
    trace.totalTicks = 1000000;
    trace.packets = CountMatrix(nodes, nodes, 0);
    trace.flits = CountMatrix(nodes, nodes, 0);
    trace.manifest = currentManifest();
    trace.epochs.messagesPerEpoch = msgs_per_epoch;
    trace.epochs.epochs.reserve(epochs);
    for (std::size_t e = 0; e < epochs; ++e) {
        Prng rng(deriveSeed(seed, e));
        bool neighbor_phase = e < epochs / 2;
        std::map<std::pair<int, int>,
                 std::pair<std::uint64_t, std::uint64_t>> bucket;
        for (std::uint64_t m = 0; m < msgs_per_epoch; ++m) {
            int src = static_cast<int>(rng.below(nodes));
            int dst;
            if (neighbor_phase) {
                dst = (src + 1 +
                       static_cast<int>(rng.below(3))) % nodes;
            } else {
                dst = static_cast<int>(rng.below(nodes - 1));
                if (dst >= src)
                    ++dst;
            }
            std::uint64_t flits = 1 + rng.below(8);
            auto &cell = bucket[{src, dst}];
            cell.first += 1;
            cell.second += flits;
        }
        std::vector<noc::EpochCell> cells;
        cells.reserve(bucket.size());
        for (const auto &[key, counts] : bucket) {
            cells.push_back({key.first, key.second, counts.first,
                             counts.second});
            trace.packets(key.first, key.second) += counts.first;
            trace.flits(key.first, key.second) += counts.second;
        }
        trace.epochs.epochs.push_back(std::move(cells));
    }
    return trace;
}

/**
 * The journal_overhead section: the adaptive-controller run with the
 * decision journal (common/journal.hh) off and on, over the same
 * deterministic two-phase trace.  serialSeconds is the disabled run
 * -- every emission point must cost one relaxed atomic load and
 * nothing else -- and parallelSeconds is the recording run, so
 * speedup ~ 1 pins "MNOC_JOURNAL=0 is free" and the time delta over
 * workItems is the enabled cost per epoch.  bitIdentical requires
 * the disabled run to have recorded nothing and the enabled run's
 * journal bytes to be identical on a pool of one and on the
 * configured pool (the flight recorder's thread-count-invariance
 * contract).
 */
bench::ParallelRecord
benchJournalOverhead(ThreadPool &serial, ThreadPool &parallel,
                     const std::string &scratch)
{
    using Clock = std::chrono::steady_clock;
    constexpr int kNodes = 64;
    constexpr std::size_t kEpochs = 256;
    constexpr std::uint64_t kMsgsPerEpoch = 128;
    constexpr std::uint64_t kSeed = 37;

    optics::SerpentineLayout layout(kNodes, Meters(0.08));
    optics::DeviceParams params;
    optics::OpticalCrossbar xbar(layout, params);
    core::Designer designer(xbar);

    core::DesignSpec spec;
    spec.numModes = 2;
    spec.assignment = core::Assignment::DistanceBased;
    spec.weights = core::WeightSource::Uniform;
    FlowMatrix flow(kNodes, kNodes, 1.0);
    for (int i = 0; i < kNodes; ++i)
        flow(i, i) = 0.0;
    auto topology = designer.buildTopology(spec, flow);
    auto design =
        designer.buildDesign(spec, topology, flow, DecibelLoss(1.5));

    sim::Trace trace =
        twoPhaseTrace(kNodes, kEpochs, kMsgsPerEpoch, kSeed);
    std::string file = scratch + "/journal.trace";
    sim::saveTrace(file, trace);

    runtime::AdaptivePolicy policy;
    policy.candidateSpec.numModes = 2;
    policy.candidateSpec.assignment = core::Assignment::CommAware;
    policy.candidateSpec.weights = core::WeightSource::DesignFlow;
    policy.candidateMargin = DecibelLoss(1.5);

    auto run = [&](ThreadPool &pool) {
        sim::TraceReader reader(file);
        core::EnergyLedger ledger(kNodes, 2, kEpochs, 1.0e-3);
        runtime::runAdaptiveController(designer, design, policy,
                                       reader, nullptr, &ledger,
                                       &pool);
    };

    bool was_enabled = journalEnabled();
    Journal::setEnabled(false);
    Journal::global().reset();
    auto t0 = Clock::now();
    run(parallel);
    auto t1 = Clock::now();
    bool off_silent = Journal::global().size() == 0;

    Journal::setEnabled(true);
    Journal::global().reset();
    auto t2 = Clock::now();
    run(parallel);
    auto t3 = Clock::now();
    std::string parallel_bytes = Journal::global().toBinary();
    std::size_t journal_records = Journal::global().size();

    Journal::global().reset();
    run(serial);
    std::string serial_bytes = Journal::global().toBinary();

    Journal::setEnabled(was_enabled);
    Journal::global().reset();

    bench::ParallelRecord record;
    record.name = "journal_overhead";
    record.workItems = static_cast<long long>(kEpochs);
    record.serialSeconds = seconds(t0, t1);
    record.parallelSeconds = seconds(t2, t3);
    record.bitIdentical =
        off_silent && serial_bytes == parallel_bytes;
    double per_epoch_us =
        (record.parallelSeconds - record.serialSeconds) * 1.0e6 /
        static_cast<double>(kEpochs);
    std::cout << "  journal: " << journal_records << " records over "
              << kEpochs << " epochs, enabled cost "
              << per_epoch_us << " us/epoch, disabled run recorded "
              << (off_silent ? "nothing" : "RECORDS (bug)") << "\n";
    return record;
}

void
printRecord(const bench::ParallelRecord &record)
{
    std::cout << record.name << ": serial "
              << record.serialSeconds << " s, parallel "
              << record.parallelSeconds << " s, speedup "
              << record.speedup() << "x, bit-identical "
              << (record.bitIdentical ? "yes" : "NO") << "\n";
}

} // namespace

int
main()
{
    // Smoke scale unless the caller already chose one.
    setenv("MNOC_BENCH_CORES", "64", 0);
    setenv("MNOC_BENCH_OPS", "500", 0);

    int threads = ThreadPool::configuredThreads();
    std::cout << "=============================================\n"
              << "parallel execution layer: serial vs parallel\n"
              << "pool size " << threads
              << " (override with MNOC_THREADS)\n"
              << "=============================================\n";

    ThreadPool serial(1);
    ThreadPool parallel(threads);

    std::string out_dir = readKnob("MNOC_BENCH_DIR").text;
    std::filesystem::create_directories(out_dir);
    std::string scratch = out_dir + "/parallel_scratch";

    std::vector<bench::ParallelRecord> records;
    records.push_back(benchYield(serial, parallel));
    printRecord(records.back());
    records.push_back(benchQapMultiStart(serial, parallel));
    printRecord(records.back());
    records.push_back(benchSuite(serial, parallel, scratch));
    printRecord(records.back());
    std::filesystem::create_directories(scratch);
    records.push_back(benchLedgerBuild(serial, parallel, scratch));
    printRecord(records.back());
    records.push_back(benchJournalOverhead(serial, parallel,
                                           scratch));
    printRecord(records.back());
    std::filesystem::remove_all(scratch);

    std::string json_path = out_dir + "/BENCH_parallel.json";
    bench::writeParallelJson(json_path, threads, currentManifest(),
                             records);
    std::cout << "\nwrote " << json_path << "\n";

    bool all_identical = true;
    for (const auto &record : records)
        all_identical = all_identical && record.bitIdentical;
    if (!all_identical) {
        std::cerr << "FAIL: a parallel result diverged from its "
                     "serial twin\n";
        return 1;
    }
    return 0;
}
