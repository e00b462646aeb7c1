#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <optional>
#include <string>

#include "obs/metrics.h"

namespace ceer {
namespace util {

namespace {

double
microsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - start)
        .count();
}

} // namespace

/**
 * Shared state of one parallelForRange() call. It lives in the
 * caller's frame: workers reach it only through the board or a seat
 * they hold (`active`), both guarded by the pool mutex, and the caller
 * returns only after taking it off the board and seeing `active` == 0.
 */
struct ThreadPool::Job
{
    std::size_t n = 0;
    void (*invoke)(void *, std::size_t, std::size_t) = nullptr;
    void *ctx = nullptr;

    std::atomic<std::size_t> cursor{0};
    std::atomic<std::size_t> grain{0}; ///< 0 = probing.
    std::size_t minGrain = 1; ///< Also the probe chunk size.
    std::size_t maxGrain = 1;

    std::atomic<bool> failed{false};
    std::exception_ptr error; ///< Written only by the first thrower.

    // Guarded by the pool mutex.
    std::size_t seats = 0;  ///< Helper seats nobody took yet.
    std::size_t active = 0; ///< Helpers holding a seat.
    Job *next = nullptr;    ///< Board link while seats > 0.
    std::condition_variable done; ///< Notified when active drops to 0.

    std::size_t clampGrain(double items) const
    {
        std::size_t grainItems =
            items < 1.0 ? 1 : static_cast<std::size_t>(items);
        return std::max(std::min(grainItems, maxGrain), minGrain);
    }

    /** Claims and runs chunks until the range is exhausted or an
     *  executor failed. */
    void run()
    {
        while (!failed.load(std::memory_order_relaxed)) {
            const std::size_t g = grain.load(std::memory_order_acquire);
            const std::size_t take = g > 0 ? g : minGrain;
            const std::size_t lo =
                cursor.fetch_add(take, std::memory_order_relaxed);
            if (lo >= n)
                return;
            const std::size_t hi = std::min(lo + take, n);
            try {
                if (g > 0) {
                    invoke(ctx, lo, hi);
                    continue;
                }
                // Probe: time this chunk and derive the grain from the
                // measured per-item cost. First publication wins; the
                // measurement only feeds scheduling, never the body's
                // results.
                const auto start = std::chrono::steady_clock::now();
                invoke(ctx, lo, hi);
                const double itemUs = std::max(
                    microsSince(start) / static_cast<double>(hi - lo),
                    1e-4);
                const std::size_t measured =
                    clampGrain(ThreadPool::kTargetChunkUs / itemUs);
                std::size_t expected = 0;
                if (grain.compare_exchange_strong(
                        expected, measured, std::memory_order_acq_rel))
                    OBS_GAUGE_SET("pool.grain",
                                  static_cast<double>(measured));
            } catch (...) {
                // Exhaust the cursor so every later claim fails, even
                // by an executor that has not seen `failed` yet.
                cursor.store(n, std::memory_order_relaxed);
                if (!failed.exchange(true, std::memory_order_relaxed))
                    error = std::current_exception();
                return;
            }
        }
    }
};

ThreadPool::ThreadPool(std::size_t workers)
{
    if (workers == kAutoWorkers) {
        const unsigned hardware = std::thread::hardware_concurrency();
        workers = hardware > 1 ? hardware - 1 : 0;
    }
    workerJobs_.assign(workers, 0);
    threads_.reserve(workers);
    for (std::size_t i = 0; i < workers; ++i)
        threads_.emplace_back([this, i] { workerLoop(i); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    workCv_.notify_all();
    for (std::thread &thread : threads_)
        thread.join();
    for (std::uint64_t jobs : workerJobs_)
        OBS_HISTOGRAM_RECORD("pool.worker_tasks",
                             static_cast<double>(jobs));
}

ThreadPool &
ThreadPool::shared()
{
    // Leaked so parked workers never race process teardown; sized to
    // at least one worker so parallel schedules are exercised (and
    // testable) even on a single-core host.
    static ThreadPool *pool = [] {
        const unsigned hardware = std::thread::hardware_concurrency();
        const std::size_t workers =
            hardware > 1 ? static_cast<std::size_t>(hardware - 1) : 1;
        return new ThreadPool(workers);
    }();
    return *pool;
}

std::size_t
ThreadPool::effectiveThreads(int requested)
{
    if (requested > 0)
        return static_cast<std::size_t>(requested);
    const unsigned hardware = std::thread::hardware_concurrency();
    return hardware > 0 ? hardware : 1;
}

void
ThreadPool::workerLoop(std::size_t index)
{
    // Cached per-worker latency histogram (the OBS_* macros cache per
    // call site, which would alias every worker onto one histogram).
    obs::Histogram *myTaskUs = nullptr;

    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        if (Job *job = board_) {
            if (--job->seats == 0)
                board_ = job->next;
            ++job->active;
            lock.unlock();
            {
                OBS_TIMER("pool.task_us");
                std::optional<obs::ScopedTimer> workerTimer;
                if (obs::enabled()) {
                    if (myTaskUs == nullptr)
                        myTaskUs = &obs::histogram(
                            "pool.worker" + std::to_string(index) +
                            ".task_us");
                    workerTimer.emplace(*myTaskUs);
                }
                job->run();
            }
            ++workerJobs_[index];
            lock.lock();
            // Notify while still holding the mutex: once it is
            // released the caller may return and destroy the job.
            if (--job->active == 0)
                job->done.notify_one();
            continue;
        }
        if (stop_)
            return;

        ++parked_;
        OBS_COUNTER_INC("pool.parks");
        const auto parkStart = std::chrono::steady_clock::now();
        workCv_.wait(lock, [&] { return board_ != nullptr || stop_; });
        --parked_;
        OBS_HISTOGRAM_RECORD("pool.park_us", microsSince(parkStart));
    }
}

void
ThreadPool::parallelForRangeImpl(std::size_t n,
                                 const ParallelOptions &options,
                                 void (*invoke)(void *, std::size_t,
                                                std::size_t),
                                 void *ctx)
{
    if (n == 0)
        return;
    const std::size_t minGrain = std::max<std::size_t>(
        options.minGrain, 1);

    std::size_t executors = threads_.size() + 1;
    if (options.maxThreads > 0)
        executors = std::min(executors, options.maxThreads);
    // No point posting seats that could never claim a chunk.
    executors = std::min(executors, (n + minGrain - 1) / minGrain);

    if (executors <= 1) {
        invoke(ctx, 0, n);
        return;
    }

    Job job;
    job.n = n;
    job.invoke = invoke;
    job.ctx = ctx;
    job.minGrain = minGrain;
    // Bound every grain decision — static hint and measured probe
    // alike — so each executor still sees several chunks for load
    // balance (minGrain stays a hard floor via clampGrain).
    const std::size_t balance =
        std::max<std::size_t>(1, n / (executors * 4));
    job.maxGrain = options.maxGrain > 0
                       ? std::min(options.maxGrain, balance)
                       : balance;
    if (options.costHintUs > 0.0) {
        const std::size_t grain =
            job.clampGrain(kTargetChunkUs / options.costHintUs);
        job.grain.store(grain, std::memory_order_relaxed);
        OBS_GAUGE_SET("pool.grain", static_cast<double>(grain));
    }

    const std::size_t helpers = executors - 1;
    bool wake = false;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        job.seats = helpers;
        job.next = board_;
        board_ = &job;
        wake = parked_ > 0;
    }
    OBS_COUNTER_ADD("pool.tasks", helpers);
    if (wake) {
        if (helpers == 1)
            workCv_.notify_one();
        else
            workCv_.notify_all();
    }

    job.run();

    // Withdraw untaken seats, then wait out the seated helpers: after
    // this no worker can reach the job, and the frame may unwind.
    {
        std::unique_lock<std::mutex> lock(mutex_);
        if (job.seats > 0) {
            Job **link = &board_;
            while (*link != &job)
                link = &(*link)->next;
            *link = job.next;
            job.seats = 0;
        }
        job.done.wait(lock, [&] { return job.active == 0; });
    }
    if (job.error)
        std::rethrow_exception(job.error);
}

} // namespace util
} // namespace ceer
