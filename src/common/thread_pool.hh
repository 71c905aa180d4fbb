/**
 * @file
 * Fixed-size worker pool shared by every parallel path in the tree.
 *
 * All concurrency in this library goes through this pool
 * (mnoc-analyze's raw-thread rule enforces it): the QAP multi-start
 * solvers, the Monte Carlo yield analyzer, the bench harness and
 * mnoc-analyze call parallelFor() here instead of spawning threads.
 * The trace-replay verbs are serial and take no pool.  The pool never
 * affects results -- parallel callers write to disjoint,
 * index-addressed slots and reduce in index order afterwards, so
 * every result is bit-identical to a serial run at any thread count
 * (see DESIGN.md §9).
 *
 * The default pool size is the hardware concurrency; the MNOC_THREADS
 * environment variable overrides it (MNOC_THREADS=1 gives the
 * pool-of-one, which runs every task inline on the caller with no
 * worker threads at all).
 */

#ifndef MNOC_COMMON_THREAD_POOL_HH
#define MNOC_COMMON_THREAD_POOL_HH

#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

namespace mnoc {

/**
 * Fixed-size worker pool whose one entry point is parallelFor().
 *
 * A parallelFor() called from inside one of the pool's own workers
 * runs inline on that worker instead of being queued, so nested
 * fan-out (a pool task that itself calls parallelFor) can never
 * deadlock on a fixed worker count.
 */
class ThreadPool
{
  public:
    /** @param num_threads Worker count (>= 1); 1 means inline. */
    explicit ThreadPool(int num_threads);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    int numThreads() const { return numThreads_; }

    /**
     * Run @p body(i) for every i in [0, n) and block until all calls
     * finish.  On a pool-of-one, or when called from one of this
     * pool's workers, every call runs inline on the caller.
     * Iterations are grouped into at most numThreads() contiguous
     * chunks; callers must only write to disjoint slots indexed by
     * i (the determinism contract of DESIGN.md §9).  If
     * any iteration throws, the exception of the lowest-index chunk
     * is rethrown once every chunk has finished -- independent of
     * scheduling order.
     */
    void parallelFor(long long n,
                     const std::function<void(long long)> &body);

    /** The process-wide pool, sized by configuredThreads() on first
     *  use. */
    static ThreadPool &global();

    /** MNOC_THREADS when set, else the hardware concurrency (at
     *  least 1).  A malformed MNOC_THREADS is fatal: silently
     *  falling back would run at a thread count nobody asked for. */
    static int configuredThreads();

  private:
    /** Queue @p task for a worker; the future rethrows what it
     *  raised.  parallelFor() runs inline work itself, so this
     *  always queues. */
    std::future<void> submit(std::function<void()> task);
    void workerLoop();
    /** True when tasks must run on the caller: pool-of-one, or the
     *  caller is one of this pool's own workers. */
    bool runsInline() const;

    int numThreads_;
    std::vector<std::thread> workers_;
    std::deque<std::function<void()>> queue_;
    std::mutex mutex_;
    std::condition_variable condition_;
    bool stop_ = false;
};

} // namespace mnoc

#endif // MNOC_COMMON_THREAD_POOL_HH
