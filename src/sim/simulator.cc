#include "sim/simulator.hh"

#include <deque>
#include <optional>
#include <queue>
#include <utility>
#include <vector>

#include "common/journal.hh"
#include "common/log.hh"
#include "common/metrics.hh"
#include "common/trace_span.hh"

namespace mnoc::sim {

namespace {

/** Journal one sealed traffic epoch (cell count plus packet/flit
 *  totals).  Epochs seal in delivery order on the capture path, so
 *  the record sequence is deterministic. */
void
journalEpochBoundary(std::size_t epoch,
                     const std::vector<noc::EpochCell> &cells)
{
    std::uint64_t packets = 0;
    std::uint64_t flits = 0;
    for (const noc::EpochCell &cell : cells) {
        packets += cell.packets;
        flits += cell.flits;
    }
    JournalRecord rec(JournalKind::EpochBoundary, epoch);
    rec.addInt(static_cast<std::int64_t>(cells.size()))
        .addInt(static_cast<std::int64_t>(packets))
        .addInt(static_cast<std::int64_t>(flits));
    Journal::global().record(rec);
}

} // namespace

SimulationResult
runSimulation(const SimConfig &config, noc::Network &network,
              Workload &workload, std::uint64_t seed)
{
    TraceSpan span("simulate:" + workload.name(), "sim");
    int n = config.numCores;
    fatalIf(n < 1, "need at least one core");
    fatalIf(network.numNodes() != n,
            "network size must match the core count");

    std::vector<int> thread_to_core = config.threadToCore;
    if (thread_to_core.empty()) {
        thread_to_core.resize(n);
        for (int i = 0; i < n; ++i)
            thread_to_core[i] = i;
    }
    fatalIf(static_cast<int>(thread_to_core.size()) != n,
            "thread mapping must cover every thread");
    {
        std::vector<bool> used(n, false);
        for (int c : thread_to_core) {
            fatalIf(c < 0 || c >= n, "mapped core out of range");
            fatalIf(used[c], "thread mapping is not a permutation");
            used[c] = true;
        }
    }

    // Phases as child spans of the run: setup (caches, directory,
    // workload reset), the event loop, and the drain that seals the
    // last epoch and assembles the result.
    std::optional<TraceSpan> phase;
    phase.emplace("simulate.setup", "sim");
    network.reset();
    noc::TrafficRecorder recorder(n);
    // Epoch bucketing feeds the energy-attribution ledger; one
    // branch per packet when MNOC_LEDGER is off.
    if (ledgerEnabled()) {
        recorder.enableEpochs(ledgerEpochMessages());
        if (config.epochSink) {
            if (journalEnabled()) {
                auto inner = config.epochSink;
                recorder.setEpochSink(
                    [inner, epoch = std::size_t(0)](
                        std::vector<noc::EpochCell> &&cells) mutable {
                        journalEpochBoundary(epoch++, cells);
                        inner(std::move(cells));
                    });
            } else {
                recorder.setEpochSink(config.epochSink);
            }
        }
    }
    CoherenceController coherence(n, config.memory, network, recorder);
    coherence.setHomeMap(thread_to_core);
    workload.reset(n, seed);

    phase.emplace("simulate.events", "sim");
    // Min-heap of (next ready tick, thread).
    using Event = std::pair<noc::Tick, int>;
    std::priority_queue<Event, std::vector<Event>, std::greater<>> queue;
    for (int t = 0; t < n; ++t)
        queue.emplace(0, t);

    // Per-thread outstanding store completions (store buffer).
    std::vector<std::deque<noc::Tick>> stores(n);

    noc::Tick last_tick = 0;
    while (!queue.empty()) {
        auto [tick, thread] = queue.top();
        queue.pop();

        MemOp op;
        if (!workload.next(thread, op))
            continue; // thread finished
        int core = thread_to_core[thread];
        noc::Tick issue = tick + op.computeCycles;

        noc::Tick ready;
        if ((op.write || op.nonBlocking) &&
            config.storeBufferDepth > 0) {
            // Retire drained stores, then stall on a full buffer.
            auto &buf = stores[thread];
            while (!buf.empty() && buf.front() <= issue)
                buf.pop_front();
            if (static_cast<int>(buf.size()) >=
                config.storeBufferDepth) {
                issue = std::max(issue, buf.front());
                buf.pop_front();
            }
            noc::Tick done = coherence.access(core, op, issue);
            buf.push_back(done);
            last_tick = std::max(last_tick, done);
            ready = issue + 1; // the core moves on immediately
        } else {
            ready = coherence.access(core, op, issue);
            last_tick = std::max(last_tick, ready);
        }
        queue.emplace(ready, thread);
    }

    phase.emplace("simulate.drain", "sim");
    SimulationResult result;
    result.totalTicks = last_tick;
    result.packets = recorder.packets();
    result.flits = recorder.flits();
    result.coherence = coherence.stats();
    result.avgPacketLatency =
        result.coherence.packetsSent
            ? static_cast<double>(result.coherence.packetLatencySum) /
                  static_cast<double>(result.coherence.packetsSent)
            : 0.0;
    result.networkName = network.name();
    result.workloadName = workload.name();
    result.seed = seed;
    result.epochs = recorder.takeEpochs();
    if (journalEnabled() && !config.epochSink)
        for (std::size_t e = 0; e < result.epochs.epochs.size(); ++e)
            journalEpochBoundary(e, result.epochs.epochs[e]);
    phase.reset();

    // Deterministic observability: pure tallies of the (already
    // deterministic) run, safe under any thread interleaving.
    auto &metrics = MetricsRegistry::global();
    metrics.counter("sim.runs").add();
    metrics.counter("sim.ops").add(result.coherence.accesses);
    metrics.counter("sim.packets").add(result.coherence.packetsSent);
    metrics.counter("sim.directory_lines")
        .add(coherence.directory().numEntries());
    metrics
        .histogram("sim.avg_packet_latency_cycles",
                   {1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 1000.0})
        .observe(result.avgPacketLatency);
    return result;
}

} // namespace mnoc::sim
