/**
 * @file
 * Event-driven multicore simulator: in-order cores pull operations from
 * a workload and block on the memory system (our Graphite substitute,
 * paper Section 5.1).
 */

#ifndef MNOC_SIM_SIMULATOR_HH
#define MNOC_SIM_SIMULATOR_HH

#include <cstdint>
#include <functional>

#include "common/matrix.hh"
#include "noc/network.hh"
#include "sim/coherence.hh"
#include "sim/workload.hh"

namespace mnoc::sim {

/** Simulator configuration. */
struct SimConfig
{
    int numCores = 256;
    MemoryParams memory;
    /**
     * Outstanding-access buffer depth: stores and non-blocking
     * (prefetched) reads retire into the buffer and overlap with
     * execution; a full buffer stalls until the oldest entry
     * completes.  Plain loads always block (in-order cores).  Depth 0
     * makes every access blocking.
     */
    int storeBufferDepth = 16;
    /**
     * thread_to_core mapping; empty means identity.  Thread t's
     * operations execute on core threadToCore[t], which is how QAP
     * thread mappings are applied to a run.
     */
    std::vector<int> threadToCore;
    /**
     * When set (and the ledger is enabled), sealed attribution
     * epochs are streamed into this sink as the run produces them --
     * e.g. straight into a TraceWriter -- instead of
     * accumulating in SimulationResult::epochs, so capture memory
     * stays bounded on arbitrarily long runs.  Cells arrive sorted
     * by (src, dst); the result's epoch list is then empty.
     */
    std::function<void(std::vector<noc::EpochCell> &&)> epochSink;
};

/** Results of one simulated run. */
struct SimulationResult
{
    /** End-to-end execution time in cycles. */
    noc::Tick totalTicks = 0;
    /** Per-(src core, dst core) packet counts. */
    CountMatrix packets;
    /** Per-(src core, dst core) flit counts. */
    CountMatrix flits;
    /** Coherence statistics. */
    CoherenceStats coherence;
    /** Mean network latency per packet, in cycles. */
    double avgPacketLatency = 0.0;
    /** Network name the run used. */
    std::string networkName;
    /** Workload name. */
    std::string workloadName;
    /** Workload seed the run used (recorded for provenance). */
    std::uint64_t seed = 0;
    /** Traffic bucketed into message-count windows; populated only
     *  when the energy-attribution ledger is enabled (MNOC_LEDGER),
     *  otherwise empty. */
    noc::EpochTraffic epochs;
};

/**
 * Run @p workload to completion over @p network.
 *
 * @param config Core count, cache parameters, thread mapping.
 * @param network Timing model (shared channel state is reset first).
 * @param workload Kernel to execute; reset with @p seed.
 * @param seed Workload seed.
 */
SimulationResult runSimulation(const SimConfig &config,
                               noc::Network &network,
                               Workload &workload,
                               std::uint64_t seed = 1);

} // namespace mnoc::sim

#endif // MNOC_SIM_SIMULATOR_HH
