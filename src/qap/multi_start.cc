#include "qap/multi_start.hh"

#include <cstdint>
#include <utility>
#include <vector>

#include "common/log.hh"
#include "common/metrics.hh"
#include "common/prng.hh"
#include "common/trace_span.hh"

namespace mnoc::qap {

namespace {

/** Salt separating start-shuffle streams from solver seed streams
 *  (both derive from the same base seed). */
constexpr std::uint64_t kShuffleSalt = 0x7375666c65724d53ULL;

/** Fisher-Yates on our own Prng: std::shuffle's draw pattern is
 *  implementation-defined, this one is pinned everywhere. */
Permutation
shuffledStart(const Permutation &start, std::uint64_t stream_seed)
{
    Permutation perm = start;
    Prng rng(stream_seed);
    for (std::size_t i = perm.size(); i > 1; --i) {
        auto j = static_cast<std::size_t>(rng.below(i));
        std::swap(perm[i - 1], perm[j]);
    }
    return perm;
}

template <typename Solver>
QapResult
multiStart(const QapInstance &instance, const Permutation &start,
           std::uint64_t base_seed, int restarts, ThreadPool *pool,
           const Solver &solve)
{
    fatalIf(restarts < 1, "multi-start needs at least one restart");
    instance.checkPermutation(start);

    TraceSpan span("qapMultiStart", "qap");
    Counter &restart_tally =
        MetricsRegistry::global().counter("qap.restarts");
    ThreadPool &workers = pool != nullptr ? *pool
                                          : ThreadPool::global();
    std::vector<QapResult> results(
        static_cast<std::size_t>(restarts));
    workers.parallelFor(restarts, [&](long long r) {
        auto index = static_cast<std::uint64_t>(r);
        std::uint64_t solver_seed =
            r == 0 ? base_seed : deriveSeed(base_seed, index);
        Permutation perm =
            r == 0 ? start
                   : shuffledStart(
                         start,
                         deriveSeed(base_seed ^ kShuffleSalt, index));
        results[static_cast<std::size_t>(r)] =
            solve(perm, solver_seed);
        // Integer add: deterministic total at any thread
        // count (DESIGN.md §10).
        restart_tally.add();
    });

    // Ordered reduction: lowest cost wins and ties go to the lowest
    // restart index, so the winner is independent of thread count.
    QapResult best = results[0];
    long long total_iterations = results[0].iterations;
    for (std::size_t r = 1; r < results.size(); ++r) {
        total_iterations += results[r].iterations;
        if (results[r].cost < best.cost)
            best = results[r];
    }
    best.iterations = total_iterations;
    MetricsRegistry::global()
        .counter("qap.iterations")
        .add(static_cast<std::uint64_t>(total_iterations));
    return best;
}

} // namespace

QapResult
multiStartTaboo(const QapInstance &instance, const Permutation &start,
                const TabooParams &params, int restarts,
                ThreadPool *pool)
{
    return multiStart(
        instance, start, params.seed, restarts, pool,
        [&](const Permutation &perm, std::uint64_t seed) {
            TabooParams restart_params = params;
            restart_params.seed = seed;
            return tabooSearch(instance, perm, restart_params);
        });
}

QapResult
multiStartAnnealing(const QapInstance &instance,
                    const Permutation &start,
                    const AnnealingParams &params, int restarts,
                    ThreadPool *pool)
{
    return multiStart(
        instance, start, params.seed, restarts, pool,
        [&](const Permutation &perm, std::uint64_t seed) {
            AnnealingParams restart_params = params;
            restart_params.seed = seed;
            return simulatedAnnealing(instance, perm, restart_params);
        });
}

} // namespace mnoc::qap
