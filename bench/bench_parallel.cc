/**
 * @file
 * Serial-vs-parallel smoke benchmark of the deterministic parallel
 * execution layer (DESIGN.md §9): times the Monte Carlo yield
 * analysis, the QAP multi-start taboo search and the SPLASH suite
 * simulation -- the library paths that fan out across the pool -- on
 * a pool of one and on the configured pool, verifies the parallel
 * results are bit-identical to the serial ones, and writes
 * BENCH_parallel.json (schema in bench/bench_json.hh) so the perf
 * trajectory accumulates run over run.  The replay verbs are serial
 * and have no section here; the decision journal's cost is
 * BM_AdaptiveRunJournal in micro_kernels.
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
#include <utility>

#include "bench_json.hh"
#include "common/knobs.hh"
#include "common/manifest.hh"
#include "common/prng.hh"
#include "common/thread_pool.hh"
#include "core/designer.hh"
#include "faults/yield.hh"
#include "harness.hh"
#include "qap/multi_start.hh"

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
