#include "sim/trace.hh"

#include <algorithm>
#include <tuple>
#include <utility>

#include "common/log.hh"
#include "common/metrics.hh"
#include "common/trace_span.hh"
#include "sim/trace_stream.hh"

namespace mnoc::sim {

Trace
toTrace(SimulationResult result)
{
    Trace t;
    t.manifest = currentManifest(
        result.seed,
        hexDigest(fnv1a64(result.workloadName + "|" +
                          result.networkName + "|" +
                          std::to_string(result.packets.rows()))));
    t.workloadName = std::move(result.workloadName);
    t.networkName = std::move(result.networkName);
    t.totalTicks = result.totalTicks;
    t.packets = std::move(result.packets);
    t.flits = std::move(result.flits);
    t.epochs = std::move(result.epochs);
    return t;
}

void
checkCoreMapping(const std::vector<int> &thread_to_core, int n)
{
    fatalIf(static_cast<int>(thread_to_core.size()) != n,
            "thread mapping must cover every thread");
    // The mapping must be a permutation: a duplicated target core
    // would merge two threads' traffic rows, silently corrupting
    // every downstream power number.
    std::vector<bool> used(static_cast<std::size_t>(n), false);
    for (int c : thread_to_core) {
        fatalIf(c < 0 || c >= n, "mapped core out of range");
        if (used[static_cast<std::size_t>(c)])
            fatal("thread mapping is not a permutation: core " +
                  std::to_string(c) + " is used twice");
        used[static_cast<std::size_t>(c)] = true;
    }
}

std::vector<noc::EpochCell>
mapEpochCells(const std::vector<noc::EpochCell> &cells,
              const std::vector<int> &thread_to_core)
{
    std::vector<noc::EpochCell> mapped;
    mapped.reserve(cells.size());
    for (noc::EpochCell cell : cells) {
        cell.src = thread_to_core[static_cast<std::size_t>(cell.src)];
        cell.dst = thread_to_core[static_cast<std::size_t>(cell.dst)];
        mapped.push_back(cell);
    }
    // Re-canonicalize: the permutation scrambles (src, dst) order,
    // and downstream byte-identity depends on it.  Keys are unique,
    // so an identity or order-preserving map needs no sort.
    auto by_endpoints = [](const noc::EpochCell &a, const noc::EpochCell &b) {
        return std::tie(a.src, a.dst) < std::tie(b.src, b.dst);
    };
    if (!std::is_sorted(mapped.begin(), mapped.end(), by_endpoints))
        std::sort(mapped.begin(), mapped.end(), by_endpoints);
    return mapped;
}

Trace
mapTrace(const Trace &trace, const std::vector<int> &thread_to_core)
{
    int n = static_cast<int>(trace.packets.rows());
    checkCoreMapping(thread_to_core, n);

    Trace out;
    out.workloadName = trace.workloadName;
    out.networkName = trace.networkName;
    out.totalTicks = trace.totalTicks;
    out.manifest = trace.manifest;
    out.packets = CountMatrix(n, n, 0);
    out.flits = CountMatrix(n, n, 0);
    for (int s = 0; s < n; ++s) {
        int sc = thread_to_core[static_cast<std::size_t>(s)];
        for (int d = 0; d < n; ++d) {
            int dc = thread_to_core[static_cast<std::size_t>(d)];
            out.packets(sc, dc) += trace.packets(s, d);
            out.flits(sc, dc) += trace.flits(s, d);
        }
    }
    out.epochs.messagesPerEpoch = trace.epochs.messagesPerEpoch;
    for (const auto &cells : trace.epochs.epochs)
        out.epochs.epochs.push_back(
            mapEpochCells(cells, thread_to_core));
    return out;
}

Trace
loadTrace(const std::string &path)
{
    TraceSpan span("loadTrace", "io");
    TraceReader reader(path);
    const TraceHeader &header = reader.header();

    Trace t;
    t.workloadName = header.workloadName;
    t.networkName = header.networkName;
    t.totalTicks = header.totalTicks;
    t.manifest = header.manifest;
    int n = header.numNodes;
    t.packets = CountMatrix(n, n, 0);
    t.flits = CountMatrix(n, n, 0);
    t.epochs.messagesPerEpoch = header.messagesPerEpoch;
    t.epochs.epochs.reserve(header.numEpochs);
    std::vector<noc::EpochCell> cells;
    while (reader.nextEpoch(cells))
        t.epochs.epochs.push_back(cells);
    reader.readMessageMatrix(t.packets, t.flits);
    MetricsRegistry::global().counter("trace.loads").add();
    return t;
}

} // namespace mnoc::sim
