#include "workloads/phase_splice.hh"

#include <algorithm>
#include <memory>

#include "common/log.hh"
#include "workloads/registry.hh"

namespace mnoc::workloads {

PhaseSpliceWorkload::PhaseSpliceWorkload(
    std::vector<std::string> phases, const WorkloadScale &scale)
    : GeneratedWorkload(scale), phases_(std::move(phases))
{
    fatalIf(phases_.size() < 2,
            "a phase splice needs at least two phases");
    const std::vector<std::string> &known = splashBenchmarks();
    for (const std::string &phase : phases_)
        if (std::find(known.begin(), known.end(), phase) == known.end())
            fatal("unknown benchmark in phase splice: " + phase);
}

void
PhaseSpliceWorkload::generate(int num_threads, Prng &rng)
{
    // Each phase is the unmodified kernel, generated with a seed
    // drawn from the splice's own stream in phase order; its
    // per-thread streams are then replayed verbatim onto ours.  One
    // draw per phase whatever the kernel, so adding a phase never
    // shifts the seeds of the ones before it.
    for (const std::string &phase : phases_) {
        std::uint64_t child_seed = rng();
        std::unique_ptr<GeneratedWorkload> child =
            makeWorkload(phase, scale_);
        child->reset(num_threads, child_seed);
        for (int t = 0; t < num_threads; ++t) {
            sim::MemOp op;
            while (child->next(t, op))
                emitOp(t, op);
        }
    }
}

} // namespace mnoc::workloads
