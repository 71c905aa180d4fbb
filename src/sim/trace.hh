/**
 * @file
 * Saving and loading captured communication traces, so expensive
 * simulations can be reused across tools.
 *
 * The on-disk format, "mnoc-trace 3", is specified normatively,
 * byte by byte, in docs/TRACE_FORMAT.md: identity and dimensions, a
 * manifest block, an epochs block (empty -- "epochs 0 0" -- when the
 * trace carries no epoch buckets), and the sparse triplets.
 *
 * These whole-file helpers are a thin layer over the streaming
 * reader/writer in sim/trace_stream.hh; consumers that must stay
 * bounded in memory pull epoch and message batches from a
 * TraceReader directly instead of materializing a Trace.  A Trace
 * already in memory is served through the same interface
 * (TraceReader(const Trace &)), so the ledger build has one input
 * type for both sources.
 *
 * loadTrace() is strict: a truncated or garbled record is a fatal
 * error naming the file, line, record kind, and byte offset, never a
 * silently shortened matrix, and saveTrace() verifies the stream
 * after flushing so a full disk cannot truncate a trace quietly.
 */

#ifndef MNOC_SIM_TRACE_HH
#define MNOC_SIM_TRACE_HH

#include <string>

#include "common/manifest.hh"
#include "sim/simulator.hh"

namespace mnoc::sim {

/** The trace fields the power models consume. */
struct Trace
{
    std::string workloadName;
    std::string networkName;
    noc::Tick totalTicks = 0;
    CountMatrix packets;
    CountMatrix flits;
    /** Provenance of the run that captured the trace; embedded in
     *  the file so the experiment can be re-run from it alone. */
    RunManifest manifest;
    /** Per-epoch traffic buckets for the energy-attribution ledger;
     *  empty unless the run was captured with MNOC_LEDGER on. */
    noc::EpochTraffic epochs;
};

/** Extract the trace from a simulation result, stamping the current
 *  run manifest (seed, git SHA, result-class knobs, config
 *  digest).  Pass an rvalue to move the matrices and epochs in
 *  instead of copying them. */
Trace toTrace(SimulationResult result);

/**
 * Write @p trace to @p path in the line-oriented text format (the
 * same bytes a TraceWriter fed the same trace writes).
 * @throws FatalError when the file cannot be written or the stream
 *         reports an error after flushing (disk full, permissions).
 */
void saveTrace(const std::string &path, const Trace &trace);

/**
 * Read a trace previously written by saveTrace() or TraceWriter.
 * @throws FatalError on malformed input, with the offending file and
 *         line in the message; clean end-of-file is the only
 *         accepted termination.
 */
Trace loadTrace(const std::string &path);

/**
 * Validate that @p thread_to_core is a permutation of [0, @p n);
 * fatal otherwise.  Two threads on one core would silently merge
 * traffic rows, which is never a valid QAP assignment.  mapTrace()
 * and the ledger build run it on every mapping they are given.
 */
void checkCoreMapping(const std::vector<int> &thread_to_core, int n);

/**
 * Re-express one epoch's @p cells in core coordinates under
 * @p thread_to_core (already validated), in place, and re-sort them
 * into the canonical (src, dst) order.  The per-epoch kernel of
 * mapTrace(), exposed so streamed consumers can map each epoch inside
 * the reader's vector.
 */
void mapEpochCells(std::vector<noc::EpochCell> &cells,
                   const std::vector<int> &thread_to_core);

/**
 * Re-express a thread-granularity trace (captured with the identity
 * mapping) in core coordinates under @p thread_to_core: traffic
 * between threads s and d becomes traffic between their cores.
 * @throws FatalError unless @p thread_to_core is a permutation of
 *         [0, n) -- two threads on one core would silently merge
 *         traffic rows, which is never a valid QAP assignment.
 */
Trace mapTrace(const Trace &trace,
               const std::vector<int> &thread_to_core);

} // namespace mnoc::sim

#endif // MNOC_SIM_TRACE_HH
