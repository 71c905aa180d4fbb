/**
 * @file
 * Tests of the shared worker pool through its one entry point,
 * parallelFor: coverage of every index, deterministic exception
 * propagation, the pool-of-one inline path, nested fan-out running
 * inline on workers without deadlock, and the MNOC_THREADS parsing
 * rules.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/knobs.hh"
#include "common/log.hh"
#include "common/thread_pool.hh"

namespace {

using namespace mnoc;

TEST(ThreadPool, RejectsNonPositiveSize)
{
    EXPECT_ANY_THROW(ThreadPool(0));
    EXPECT_ANY_THROW(ThreadPool(-3));
}

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce)
{
    ThreadPool pool(4);
    constexpr long long kN = 1000;
    std::vector<int> hits(kN, 0);
    pool.parallelFor(kN, [&](long long i) {
        hits[static_cast<std::size_t>(i)] += 1;
    });
    for (long long i = 0; i < kN; ++i)
        EXPECT_EQ(hits[static_cast<std::size_t>(i)], 1);
}

TEST(ThreadPool, ParallelForZeroAndNegativeAreNoOps)
{
    ThreadPool pool(2);
    int calls = 0;
    pool.parallelFor(0, [&](long long) { ++calls; });
    pool.parallelFor(-5, [&](long long) { ++calls; });
    EXPECT_EQ(calls, 0);
}

TEST(ThreadPool, PoolOfOneRunsInlineOnTheCaller)
{
    ThreadPool pool(1);
    auto caller = std::this_thread::get_id();
    std::vector<std::thread::id> seen(3);
    pool.parallelFor(3, [&](long long i) {
        seen[static_cast<std::size_t>(i)] =
            std::this_thread::get_id();
    });
    for (const auto &id : seen)
        EXPECT_EQ(id, caller);
}

TEST(ThreadPool, ParallelForRethrowsTheLowestChunkException)
{
    ThreadPool pool(4);
    // Every iteration throws its own index; the reported exception
    // must be from the first chunk (which starts at index 0),
    // regardless of which chunk finishes first.
    constexpr long long kN = 64;
    try {
        pool.parallelFor(kN, [](long long i) {
            throw std::runtime_error("index " + std::to_string(i));
        });
        FAIL() << "parallelFor swallowed the exceptions";
    } catch (const std::runtime_error &error) {
        EXPECT_STREQ(error.what(), "index 0");
    }
}

TEST(ThreadPool, ExceptionStillDrainsEveryChunk)
{
    ThreadPool pool(4);
    constexpr long long kN = 100;
    std::atomic<long long> visited{0};
    EXPECT_THROW(
        pool.parallelFor(kN,
                         [&](long long i) {
                             if (i == 3)
                                 throw std::runtime_error("bad");
                             visited.fetch_add(1);
                         }),
        std::runtime_error);
    // The throwing chunk stops early; all other chunks run to the
    // end (parallelFor waits for every future before rethrowing).
    EXPECT_GE(visited.load(), kN - kN / 4);
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlock)
{
    // Nested submission runs inline on the owning worker, so even a
    // pool of one worker thread cannot deadlock on nested fan-out.
    ThreadPool pool(2);
    std::vector<long long> sums(8, 0);
    pool.parallelFor(8, [&](long long outer) {
        std::vector<long long> inner(16, 0);
        pool.parallelFor(16, [&](long long i) {
            inner[static_cast<std::size_t>(i)] = i;
        });
        sums[static_cast<std::size_t>(outer)] = std::accumulate(
            inner.begin(), inner.end(), 0LL);
    });
    for (long long s : sums)
        EXPECT_EQ(s, 120);
}

TEST(ThreadPool, NestedParallelForRunsInlineOnWorkers)
{
    // Each outer iteration runs on a worker, never the caller, and
    // its nested fan-out stays on that worker.
    ThreadPool pool(2);
    auto caller = std::this_thread::get_id();
    std::vector<std::thread::id> outer_ids(2);
    std::vector<std::vector<std::thread::id>> inner_ids(
        2, std::vector<std::thread::id>(4));
    pool.parallelFor(2, [&](long long outer) {
        auto o = static_cast<std::size_t>(outer);
        outer_ids[o] = std::this_thread::get_id();
        pool.parallelFor(4, [&](long long i) {
            inner_ids[o][static_cast<std::size_t>(i)] =
                std::this_thread::get_id();
        });
    });
    for (std::size_t o = 0; o < outer_ids.size(); ++o) {
        EXPECT_NE(outer_ids[o], caller);
        for (const auto &id : inner_ids[o])
            EXPECT_EQ(id, outer_ids[o]);
    }
}

TEST(ThreadPool, WorkersActuallyRunConcurrently)
{
    // Four 100 ms sleeps on four workers overlap even on one CPU;
    // a serial pool would need 400 ms.
    ThreadPool pool(4);
    auto begin = std::chrono::steady_clock::now();
    pool.parallelFor(4, [](long long) {
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
    });
    auto elapsed = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - begin)
                       .count();
    EXPECT_LT(elapsed, 0.35);
}

TEST(ThreadPool, ParseThreadsAcceptsCountsRejectsGarbage)
{
    auto threads = [](const char *text) {
        return parseKnob("MNOC_THREADS", text).number;
    };
    EXPECT_EQ(threads("8"), 8);
    EXPECT_EQ(threads("1"), 1);
    // Unset and empty fall back (to the hardware concurrency, in
    // configuredThreads); anything else must be valid -- a mistyped
    // override is a fatal configuration error, never a silent
    // fallback to a different thread count.
    EXPECT_FALSE(parseKnob("MNOC_THREADS", nullptr).set());
    EXPECT_FALSE(parseKnob("MNOC_THREADS", "").set());
    EXPECT_THROW(threads("0"), FatalError);
    EXPECT_THROW(threads("-4"), FatalError);
    EXPECT_THROW(threads("abc"), FatalError);
    EXPECT_THROW(threads("4x"), FatalError);
    EXPECT_THROW(threads("999999"), FatalError);
    EXPECT_THROW(threads("99999999999999999999"), FatalError);
    try {
        threads("banana");
        FAIL() << "garbage thread count must throw";
    } catch (const FatalError &error) {
        EXPECT_NE(std::string(error.what()).find("banana"),
                  std::string::npos);
        EXPECT_NE(std::string(error.what()).find("MNOC_THREADS"),
                  std::string::npos);
    }
}

TEST(ThreadPool, GlobalPoolIsConfiguredAndStable)
{
    ThreadPool &a = ThreadPool::global();
    ThreadPool &b = ThreadPool::global();
    EXPECT_EQ(&a, &b);
    EXPECT_GE(a.numThreads(), 1);
}

} // namespace
