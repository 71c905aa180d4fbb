#include "harness.hh"

#include <filesystem>
#include <fstream>
#include <iostream>

#include "common/io.hh"
#include "common/knobs.hh"
#include "common/log.hh"
#include "common/metrics.hh"
#include "common/trace_span.hh"

namespace mnoc::bench {

Harness::Harness()
{
    numCores_ = static_cast<int>(readKnob("MNOC_BENCH_CORES").number);
    opsPerThread_ = static_cast<int>(readKnob("MNOC_BENCH_OPS").number);
    outDir_ = readKnob("MNOC_BENCH_DIR").text;
    std::filesystem::create_directories(outDir_);
    std::filesystem::create_directories(outDir_ + "/cache");

    layout_ = std::make_unique<optics::SerpentineLayout>(
        numCores_, optics::defaultWaveguideLength);
    int ports = numCores_ / 4;
    portLayout_ = std::make_unique<optics::SerpentineLayout>(
        ports, Meters(0.10 * ports / 64.0));
    xbar_ = std::make_unique<optics::OpticalCrossbar>(*layout_,
                                                      deviceParams_);
    designer_ = std::make_unique<core::Designer>(*xbar_, powerParams_);
}

const std::vector<std::string> &
Harness::benchmarks() const
{
    return workloads::splashBenchmarks();
}

std::string
Harness::cacheKey(const std::string &benchmark,
                  const std::string &network) const
{
    return benchmark + "_" + network + "_n" +
           std::to_string(numCores_) + "_ops" +
           std::to_string(opsPerThread_);
}

sim::Trace
Harness::simulate(const std::string &benchmark,
                  const std::string &network)
{
    noc::NetworkConfig net_config;
    std::unique_ptr<noc::Network> net;
    if (network == "mnoc") {
        net = std::make_unique<noc::MnocNetwork>(*layout_, net_config);
    } else if (network == "rnoc") {
        net = std::make_unique<noc::ClusteredNetwork>(
            numCores_, *portLayout_, net_config, "rNoC");
    } else {
        fatal("unknown network kind: " + network);
    }

    sim::SimConfig config;
    config.numCores = numCores_;
    workloads::WorkloadScale scale;
    scale.opsPerThread = opsPerThread_;
    auto workload = workloads::makeWorkload(benchmark, scale);
    std::cerr << "[harness] simulating " << benchmark << " on "
              << network << "...\n";
    TraceSpan span("harness.simulate:" + benchmark, "bench");
    return sim::toTrace(
        sim::runSimulation(config, *net, *workload, 1));
}

const sim::Trace &
Harness::trace(const std::string &benchmark,
               const std::string &network)
{
    auto &metrics = MetricsRegistry::global();
    std::string key = cacheKey(benchmark, network);
    {
        std::lock_guard<std::mutex> lock(cacheMutex_);
        auto it = traces_.find(key);
        if (it != traces_.end()) {
            metrics.counter("bench.trace_cache.memory_hits").add();
            return it->second;
        }
    }

    // Simulate (or load) outside the lock: concurrent callers for the
    // *same* key may duplicate work, but both produce identical
    // traces, and the first insert wins.
    std::string path = outDir_ + "/cache/" + key + ".trace";
    sim::Trace t;
    if (std::filesystem::exists(path)) {
        metrics.counter("bench.trace_cache.disk_hits").add();
        t = sim::loadTrace(path);
    } else {
        metrics.counter("bench.trace_cache.misses").add();
        t = simulate(benchmark, network);
        sim::saveTrace(path, t);
    }

    std::lock_guard<std::mutex> lock(cacheMutex_);
    // Map references stay valid across later inserts, so the returned
    // reference outlives the lock.
    return traces_.emplace(key, std::move(t)).first->second;
}

void
Harness::simulateSuite(const std::string &network, ThreadPool *pool)
{
    TraceSpan span("harness.simulateSuite:" + network, "bench");
    const auto &names = benchmarks();
    ThreadPool &workers = pool != nullptr ? *pool
                                          : ThreadPool::global();
    workers.parallelFor(
        static_cast<long long>(names.size()), [&](long long i) {
            trace(names[static_cast<std::size_t>(i)], network);
        });
}

const std::vector<int> &
Harness::mapping(const std::string &benchmark)
{
    {
        std::lock_guard<std::mutex> lock(cacheMutex_);
        auto it = mappings_.find(benchmark);
        if (it != mappings_.end())
            return it->second;
    }

    std::string path = outDir_ + "/cache/" +
                       cacheKey(benchmark, "mnoc") + ".map";
    std::vector<int> map;
    if (std::filesystem::exists(path)) {
        std::ifstream in(path);
        int core;
        while (in >> core)
            map.push_back(core);
        if (static_cast<int>(map.size()) != numCores_)
            fatal("corrupt mapping cache: " + path);
    } else {
        std::cerr << "[harness] taboo mapping for " << benchmark
                  << "...\n";
        TraceSpan span("harness.mapping:" + benchmark, "bench");
        core::MappingParams params;
        params.tabooIterations = 20000;
        auto result = designer_->map(threadFlow(benchmark),
                                     core::MappingMethod::Taboo,
                                     params);
        map = result.threadToCore;
        FileWriter out(path);
        for (int core : map)
            out.stream() << core << "\n";
        out.close();
    }
    std::lock_guard<std::mutex> lock(cacheMutex_);
    return mappings_.emplace(benchmark, std::move(map))
        .first->second;
}

std::vector<int>
Harness::identityMapping() const
{
    std::vector<int> map(numCores_);
    for (int i = 0; i < numCores_; ++i)
        map[i] = i;
    return map;
}

FlowMatrix
Harness::threadFlow(const std::string &benchmark)
{
    return toFlowMatrix(trace(benchmark).flits);
}

FlowMatrix
Harness::sampledCoreFlow(const std::vector<std::string> &names)
{
    FlowMatrix avg(numCores_, numCores_, 0.0);
    for (const auto &name : names) {
        FlowMatrix flow = permuteFlow(threadFlow(name), mapping(name));
        double total = flow.total();
        if (total <= 0.0)
            continue;
        for (int s = 0; s < numCores_; ++s)
            for (int d = 0; d < numCores_; ++d)
                avg(s, d) += flow(s, d) / total;
    }
    return avg;
}

std::string
Harness::outPath(const std::string &name) const
{
    return outDir_ + "/" + name;
}

void
printHeader(const std::string &title, const std::string &source)
{
    std::cout << "==============================================="
                 "=============\n";
    std::cout << title << "\n";
    std::cout << "(reproduces " << source
              << " of Pang et al., ASPLOS 2015)\n";
    std::cout << "==============================================="
                 "=============\n";
}

} // namespace mnoc::bench
