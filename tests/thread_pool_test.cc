/**
 * @file
 * Tests for util::ThreadPool: parallelForRange coverage, the job
 * board's wakeup and seat protocol, exception propagation and
 * abandonment, and a contended stress loop that doubles as the
 * ThreadSanitizer workload for tools/check.sh.
 */

#include <atomic>
#include <chrono>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "util/thread_pool.h"

namespace ceer {
namespace util {
namespace {

/** Runs body(i) for every i in [0, n) through parallelForRange with
 *  default options (measured grain, every worker). */
template <typename Body>
void
forEachIndex(ThreadPool &pool, std::size_t n, Body &&body)
{
    pool.parallelForRange(n, ParallelOptions{},
                          [&](std::size_t lo, std::size_t hi) {
                              for (std::size_t i = lo; i < hi; ++i)
                                  body(i);
                          });
}

TEST(ThreadPoolTest, ZeroWorkerPoolRunsOnCaller)
{
    ThreadPool pool(0);
    EXPECT_EQ(pool.workerCount(), 0u);
    const std::thread::id caller = std::this_thread::get_id();
    std::vector<int> hits(10, 0);
    forEachIndex(pool, hits.size(), [&](std::size_t i) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        hits[i] = 1;
    });
    EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 10);
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce)
{
    ThreadPool pool(4);
    constexpr std::size_t kN = 1000;
    std::vector<std::atomic<int>> hits(kN);
    for (auto &hit : hits)
        hit.store(0);
    forEachIndex(pool, kN, [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < kN; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPoolTest, ParallelForHandlesEmptyAndSingle)
{
    ThreadPool pool(2);
    int calls = 0;
    auto count = [&](std::size_t lo, std::size_t hi) {
        EXPECT_EQ(lo, 0u);
        EXPECT_EQ(hi, 1u);
        ++calls;
    };
    pool.parallelForRange(0, ParallelOptions{}, count);
    EXPECT_EQ(calls, 0);
    pool.parallelForRange(1, ParallelOptions{}, count);
    EXPECT_EQ(calls, 1);
}

TEST(ThreadPoolTest, ParallelForPropagatesExceptions)
{
    ThreadPool pool(3);
    EXPECT_THROW(forEachIndex(pool, 100,
                              [](std::size_t i) {
                                  if (i == 37)
                                      throw std::runtime_error(
                                          "task 37 failed");
                              }),
                 std::runtime_error);
}

TEST(ThreadPoolTest, ZeroWorkerParallelForPropagatesExceptions)
{
    ThreadPool pool(0);
    EXPECT_THROW(forEachIndex(pool, 10,
                              [](std::size_t i) {
                                  if (i == 3)
                                      throw std::runtime_error(
                                          "serial task failed");
                              }),
                 std::runtime_error);
}

TEST(ThreadPoolTest, PoolIsReusableAfterParallelForThrows)
{
    ThreadPool pool(3);
    EXPECT_THROW(forEachIndex(
                     pool, 50,
                     [](std::size_t i) {
                         if (i % 10 == 5)
                             throw std::runtime_error("partial");
                     }),
                 std::runtime_error);

    // The failed run must not wedge the workers: the same pool runs a
    // full clean pass afterwards.
    std::vector<std::atomic<int>> hits(200);
    for (auto &hit : hits)
        hit.store(0);
    forEachIndex(pool, hits.size(),
                 [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < hits.size(); ++i)
        ASSERT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPoolTest, TaskCounterTracksSubmissions)
{
    // pool.tasks counts helper seats posted: two workers plus the
    // caller make three executors, so one section posts two seats.
    obs::ScopedEnable on(true);
    obs::counter("pool.tasks").reset();
    ThreadPool pool(2);
    std::atomic<std::size_t> total{0};
    forEachIndex(pool, 100, [&](std::size_t i) { total.fetch_add(i); });
    EXPECT_EQ(total.load(), 100u * 99u / 2);
    EXPECT_EQ(obs::snapshotMetrics().counterValue("pool.tasks"), 2u);
}

TEST(ThreadPoolTest, FewerItemsThanWorkersCoversEveryIndex)
{
    ThreadPool pool(8);
    std::vector<std::atomic<int>> hits(3);
    for (auto &hit : hits)
        hit.store(0);
    forEachIndex(pool, hits.size(),
                 [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < hits.size(); ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPoolTest, RangeFormCoversEveryIndexOnceWithStaticGrain)
{
    ThreadPool pool(4);
    constexpr std::size_t kN = 10'000;
    std::vector<std::atomic<int>> hits(kN);
    for (auto &hit : hits)
        hit.store(0);
    ParallelOptions options;
    options.costHintUs = 1.0; // static grain (no probe chunk)
    pool.parallelForRange(kN, options,
                          [&](std::size_t lo, std::size_t hi) {
                              ASSERT_LT(lo, hi);
                              ASSERT_LE(hi, kN);
                              for (std::size_t i = lo; i < hi; ++i)
                                  hits[i].fetch_add(1);
                          });
    for (std::size_t i = 0; i < kN; ++i)
        ASSERT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPoolTest, RangeFormCoversEveryIndexOnceWithMeasuredGrain)
{
    ThreadPool pool(4);
    constexpr std::size_t kN = 50'000;
    std::vector<std::atomic<int>> hits(kN);
    for (auto &hit : hits)
        hit.store(0);
    ParallelOptions options; // costHintUs == 0: measured first chunk
    options.minGrain = 16;
    options.maxGrain = 4096;
    pool.parallelForRange(kN, options,
                          [&](std::size_t lo, std::size_t hi) {
                              for (std::size_t i = lo; i < hi; ++i)
                                  hits[i].fetch_add(1);
                          });
    for (std::size_t i = 0; i < kN; ++i)
        ASSERT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPoolTest, MaxThreadsOneRunsSerially)
{
    ThreadPool pool(4);
    ParallelOptions options;
    options.maxThreads = 1;
    std::vector<int> hits(100, 0); // unsynchronized: serial contract
    pool.parallelForRange(hits.size(), options,
                          [&](std::size_t lo, std::size_t hi) {
                              for (std::size_t i = lo; i < hi; ++i)
                                  hits[i] += 1;
                          });
    EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 100);
}

TEST(ThreadPoolTest, ExceptionAbandonsRemainingChunks)
{
    // Protocol invariant: once a chunk's exception is recorded, no
    // executor claims another chunk. Every chunk is one item; chunk 0
    // throws, and every other chunk first waits until chunk 0's
    // unwinding has begun (the guard's destructor), so no executor
    // can race through the range before the throw. After the failure
    // is recorded the cursor is exhausted: only the few chunks
    // claimed in the window between the guard and the catch can run,
    // far below n. Without the abandonment every item would run.
    ThreadPool pool(4);
    constexpr std::size_t kN = 1'000'000;
    std::atomic<std::size_t> executed{0};
    std::atomic<bool> unwinding{false};
    struct SetOnUnwind
    {
        std::atomic<bool> &flag;
        ~SetOnUnwind()
        {
            flag.store(true);
            flag.notify_all();
        }
    };
    ParallelOptions options;
    options.costHintUs = 1000.0; // one item per chunk
    try {
        pool.parallelForRange(
            kN, options, [&](std::size_t lo, std::size_t hi) {
                if (lo == 0) {
                    SetOnUnwind guard{unwinding};
                    throw std::runtime_error("first chunk failed");
                }
                unwinding.wait(false);
                executed.fetch_add(hi - lo);
            });
        FAIL() << "expected the chunk's exception to propagate";
    } catch (const std::runtime_error &error) {
        EXPECT_STREQ(error.what(), "first chunk failed");
    }
    EXPECT_LT(executed.load(), kN / 2)
        << "remaining chunks were not abandoned";
}

TEST(ThreadPoolTest, RangeFormPropagatesExceptionFromLastChunk)
{
    ThreadPool pool(2);
    ParallelOptions options;
    options.costHintUs = 1000.0;
    EXPECT_THROW(pool.parallelForRange(
                     64, options,
                     [&](std::size_t, std::size_t hi) {
                         if (hi == 64)
                             throw std::runtime_error("tail failed");
                     }),
                 std::runtime_error);
}

TEST(ThreadPoolTest, NestedParallelForDoesNotDeadlock)
{
    // Outer chunks run on workers; each body opens a nested
    // parallelForRange on the same pool. The nested caller claims
    // chunks itself, so this terminates even with every worker busy.
    ThreadPool pool(3);
    constexpr std::size_t kOuter = 16;
    constexpr std::size_t kInner = 64;
    std::vector<std::atomic<std::size_t>> inner_sums(kOuter);
    for (auto &sum : inner_sums)
        sum.store(0);
    forEachIndex(pool, kOuter, [&](std::size_t o) {
        forEachIndex(pool, kInner, [&](std::size_t i) {
            inner_sums[o].fetch_add(i + 1);
        });
    });
    for (std::size_t o = 0; o < kOuter; ++o)
        EXPECT_EQ(inner_sums[o].load(), kInner * (kInner + 1) / 2)
            << "outer " << o;
}

TEST(ThreadPoolTest, SharedPoolHasWorkersAndRuns)
{
    ThreadPool &pool = ThreadPool::shared();
    EXPECT_GE(pool.workerCount(), 1u);
    EXPECT_TRUE(&pool == &ThreadPool::shared());
    std::vector<std::atomic<int>> hits(512);
    for (auto &hit : hits)
        hit.store(0);
    forEachIndex(pool, hits.size(),
                 [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < hits.size(); ++i)
        ASSERT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPoolTest, SchedulerMetricsAreObservable)
{
    obs::ScopedEnable on(true);
    {
        ThreadPool pool(4);
        // Many short parallel sections. Park counts are schedule-
        // dependent (zero is legitimate on a single-core host), so
        // the contract tested here is the deterministic part: helper
        // seats are counted, the grain controller publishes its
        // decision, and the destructor records the per-worker job
        // distribution.
        for (int round = 0; round < 20; ++round) {
            std::atomic<std::size_t> total{0};
            ParallelOptions options;
            options.costHintUs = 0.5;
            pool.parallelForRange(1000, options,
                                  [&](std::size_t lo, std::size_t hi) {
                                      total.fetch_add(hi - lo);
                                  });
            ASSERT_EQ(total.load(), 1000u);
        }
    }
    const auto snapshot = obs::snapshotMetrics();
    EXPECT_GT(snapshot.counterValue("pool.tasks"), 0u);
    EXPECT_GT(snapshot.gaugeValue("pool.grain"), 0.0);
    EXPECT_NE(snapshot.findHistogram("pool.worker_tasks"), nullptr);
}

TEST(ThreadPoolTest, SubmitWakeupIsNeverLost)
{
    // Regression for lost wakeups in the park protocol. With one
    // worker and n = 2, each section's two chunks rendezvous: a chunk
    // counts itself in, then waits until both have started. The
    // caller runs one chunk, so only a helper woken by the post can
    // run the other; a lost wakeup leaves the caller waiting out the
    // bound. Thousands of sections maximize park/post round trips.
    ThreadPool pool(1);
    ParallelOptions options;
    options.costHintUs = 1000.0; // one item per chunk
    for (int section = 0; section < 3000; ++section) {
        std::atomic<int> started{0};
        std::atomic<bool> rendezvous{true};
        pool.parallelForRange(2, options, [&](std::size_t, std::size_t) {
            started.fetch_add(1);
            const auto deadline =
                std::chrono::steady_clock::now() + std::chrono::seconds(30);
            while (started.load() < 2) {
                if (std::chrono::steady_clock::now() > deadline) {
                    rendezvous.store(false);
                    return;
                }
                std::this_thread::yield();
            }
        });
        ASSERT_TRUE(rendezvous.load())
            << "section " << section << ": no helper ran the second chunk";
    }
}

TEST(ThreadPoolTest, ExceptionExhaustsCursorBeforeRethrow)
{
    // The job lives in the caller's frame: after a throw the caller
    // must withdraw untaken seats and wait out every seated helper
    // before it rethrows. Tight repeated sections reuse the stack
    // frame while workers are still waking for the previous post;
    // TSan (tools/check.sh) flags any touch of a dead frame.
    ThreadPool pool(4);
    for (int round = 0; round < 200; ++round) {
        std::atomic<std::size_t> executed{0};
        ParallelOptions options;
        options.costHintUs = 0.01;
        try {
            pool.parallelForRange(
                10'000, options,
                [&](std::size_t lo, std::size_t hi) {
                    if (lo == 0)
                        throw std::runtime_error("poisoned chunk");
                    executed.fetch_add(hi - lo);
                });
            FAIL() << "expected the exception to propagate";
        } catch (const std::runtime_error &) {
        }
        EXPECT_LE(executed.load(), 10'000u);
    }
}

TEST(ThreadPoolTest, MeasuredGrainHonorsBalanceCap)
{
    obs::ScopedEnable on(true);
    ThreadPool pool(3); // 4 executors with the caller
    constexpr std::size_t kN = 1600;
    // Near-free items: an uncapped measured grain would cover the
    // whole remaining range in one chunk, serializing the sweep after
    // the probe. The published grain must respect the per-executor
    // balance bound n / (executors * 4) even with maxGrain unset.
    std::atomic<std::size_t> total{0};
    pool.parallelForRange(kN, ParallelOptions{},
                          [&](std::size_t lo, std::size_t hi) {
                              total.fetch_add(hi - lo);
                          });
    EXPECT_EQ(total.load(), kN);
    const double grain =
        obs::snapshotMetrics().gaugeValue("pool.grain");
    EXPECT_GT(grain, 0.0);
    EXPECT_LE(grain, static_cast<double>(kN / (4 * 4)));
}

TEST(ThreadPoolTest, ContendedSharedStateStress)
{
    // TSan workload: many tasks mutating shared state under a mutex
    // plus an atomic counter, across repeated pool lifetimes.
    for (int round = 0; round < 3; ++round) {
        ThreadPool pool(4);
        std::mutex mutex;
        std::set<std::size_t> seen;
        std::atomic<std::size_t> total{0};
        forEachIndex(pool, 500, [&](std::size_t i) {
            total.fetch_add(i);
            std::lock_guard<std::mutex> lock(mutex);
            seen.insert(i);
        });
        EXPECT_EQ(seen.size(), 500u);
        EXPECT_EQ(total.load(), 500u * 499u / 2);
    }
}

} // namespace
} // namespace util
} // namespace ceer
