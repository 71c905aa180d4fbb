#include "common/thread_pool.hh"

#include <algorithm>
#include <exception>
#include <string>

#include "common/knobs.hh"
#include "common/log.hh"

namespace mnoc {

namespace {

/** Set inside workerLoop(): which pool (if any) owns this thread.
 *  submit()/parallelFor() consult it to run nested work inline. */
thread_local const ThreadPool *tls_owner_pool = nullptr;

} // namespace

ThreadPool::ThreadPool(int num_threads) : numThreads_(num_threads)
{
    fatalIf(num_threads < 1,
            "thread pool needs at least one thread");
    // The pool-of-one spawns no workers: every task runs inline on
    // the caller, which is both the MNOC_THREADS=1 escape hatch and
    // the reference schedule parallel runs must reproduce.
    if (numThreads_ == 1)
        return;
    workers_.reserve(static_cast<std::size_t>(numThreads_));
    for (int i = 0; i < numThreads_; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    condition_.notify_all();
    for (auto &worker : workers_)
        worker.join();
}

void
ThreadPool::workerLoop()
{
    tls_owner_pool = this;
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            condition_.wait(lock, [this] {
                return stop_ || !queue_.empty();
            });
            if (queue_.empty())
                return; // stop_ set and queue drained
            task = std::move(queue_.front());
            queue_.pop_front();
        }
        task();
    }
}

bool
ThreadPool::runsInline() const
{
    return numThreads_ == 1 || tls_owner_pool == this;
}

void
ThreadPool::parallelFor(long long n,
                        const std::function<void(long long)> &body)
{
    if (n <= 0)
        return;
    if (runsInline() || n == 1) {
        for (long long i = 0; i < n; ++i)
            body(i);
        return;
    }

    // Static contiguous chunking.  The chunk shape never reaches the
    // results -- tasks write disjoint slots and callers reduce in
    // index order afterwards -- so it only sets the grain size.
    long long chunks = std::min<long long>(numThreads_, n);
    std::vector<std::future<void>> futures;
    futures.reserve(static_cast<std::size_t>(chunks));
    for (long long c = 0; c < chunks; ++c) {
        long long begin = n * c / chunks;
        long long end = n * (c + 1) / chunks;
        futures.push_back(submit([&body, begin, end] {
            for (long long i = begin; i < end; ++i)
                body(i);
        }));
    }

    // get() in chunk order, after every chunk has finished: the
    // lowest-index chunk's exception wins regardless of scheduling.
    std::exception_ptr first;
    for (auto &future : futures) {
        try {
            future.get();
        } catch (...) {
            if (!first)
                first = std::current_exception();
        }
    }
    if (first)
        std::rethrow_exception(first);
}

ThreadPool &
ThreadPool::global()
{
    static ThreadPool pool(configuredThreads());
    return pool;
}

int
ThreadPool::configuredThreads()
{
    KnobValue knob = readKnob("MNOC_THREADS");
    if (knob.set())
        return static_cast<int>(knob.number);
    int hardware =
        static_cast<int>(std::thread::hardware_concurrency());
    return hardware < 1 ? 1 : hardware;
}

} // namespace mnoc
