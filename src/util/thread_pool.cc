#include "util/thread_pool.h"

#include <algorithm>
#include <chrono>
#include <exception>

#include "obs/metrics.h"
#include "util/random.h"

namespace ceer {
namespace util {

namespace {

/** Identity of the pool worker running the current thread, if any. */
struct WorkerIdentity
{
    ThreadPool *pool = nullptr;
    std::size_t index = 0;
};

thread_local WorkerIdentity tls_worker;

/** Cheap per-thread xorshift step for victim selection. */
inline std::uint64_t
nextRandom(std::uint64_t &state)
{
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
}

} // namespace

// ---------------------------------------------------------------------------
// StealDeque

bool
ThreadPool::StealDeque::push(Task *task)
{
    const std::int64_t b = bottom_.load(std::memory_order_relaxed);
    const std::int64_t t = top_.load(std::memory_order_acquire);
    // A stale top only under-reports the free space, never over-
    // reports it, so a full deque is detected conservatively.
    if (b - t > kMask)
        return false;
    // Release so a thief's acquire load of the same slot sees the
    // task's bytes (TSan tracks the edge through the slot atomic).
    slots_[static_cast<std::size_t>(b & kMask)].store(
        task, std::memory_order_release);
    bottom_.store(b + 1, std::memory_order_seq_cst);
    return true;
}

Task *
ThreadPool::StealDeque::pop()
{
    const std::int64_t b = bottom_.load(std::memory_order_relaxed) - 1;
    // The seq_cst store-then-load on (bottom_, top_) is the Dekker
    // handshake with steal(): either this pop sees the thief's top
    // increment, or the thief sees the reserved bottom.
    bottom_.store(b, std::memory_order_seq_cst);
    std::int64_t t = top_.load(std::memory_order_seq_cst);
    if (t > b) {
        // Empty: undo the reservation.
        bottom_.store(b + 1, std::memory_order_relaxed);
        return nullptr;
    }
    Task *task =
        slots_[static_cast<std::size_t>(b & kMask)].load(
            std::memory_order_relaxed);
    if (t == b) {
        // Last element: race the thieves for it via top_.
        if (!top_.compare_exchange_strong(t, t + 1,
                                          std::memory_order_seq_cst,
                                          std::memory_order_seq_cst))
            task = nullptr; // a thief won.
        bottom_.store(b + 1, std::memory_order_relaxed);
    }
    return task;
}

Task *
ThreadPool::StealDeque::steal()
{
    std::int64_t t = top_.load(std::memory_order_seq_cst);
    const std::int64_t b = bottom_.load(std::memory_order_seq_cst);
    if (t >= b)
        return nullptr;
    // Read the candidate before the CAS; the value is only trusted if
    // the CAS claims index t (a failed CAS discards it, so a slot
    // being concurrently overwritten by the owner is harmless).
    Task *task = slots_[static_cast<std::size_t>(t & kMask)].load(
        std::memory_order_acquire);
    if (!top_.compare_exchange_strong(t, t + 1,
                                      std::memory_order_seq_cst,
                                      std::memory_order_seq_cst))
        return nullptr;
    return task;
}

bool
ThreadPool::StealDeque::looksEmpty() const
{
    return top_.load(std::memory_order_acquire) >=
           bottom_.load(std::memory_order_acquire);
}

// ---------------------------------------------------------------------------
// Pool lifecycle

ThreadPool::ThreadPool(std::size_t workers)
{
    if (workers == kAutoWorkers) {
        const unsigned hardware = std::thread::hardware_concurrency();
        workers = hardware > 1 ? hardware - 1 : 0;
    }
    workers_.reserve(workers);
    for (std::size_t i = 0; i < workers; ++i)
        workers_.push_back(std::make_unique<Worker>());
    threads_.reserve(workers);
    for (std::size_t i = 0; i < workers; ++i)
        threads_.emplace_back([this, i] { workerLoop(i); });
}

ThreadPool::~ThreadPool()
{
    stop_.store(true, std::memory_order_seq_cst);
    epoch_.fetch_add(1, std::memory_order_seq_cst);
    {
        std::lock_guard<std::mutex> lock(parkMutex_);
        parkCv_.notify_all();
    }
    for (std::thread &thread : threads_)
        thread.join();
    // Workers drain every queue before exiting; the loop below only
    // matters for the corner case of tasks enqueued by the last task
    // a worker ran after its peers had already exited (they must
    // still run: a submit() future would otherwise never resolve).
    for (;;) {
        Task *task = nullptr;
        {
            std::lock_guard<std::mutex> lock(injectMutex_);
            if (!inject_.empty()) {
                task = inject_.front();
                inject_.pop_front();
            }
        }
        if (!task) {
            for (const auto &worker : workers_)
                if ((task = worker->deque.steal()) != nullptr)
                    break;
        }
        if (!task)
            break;
        (*task)();
        delete task;
    }
    // Record the final per-worker task distribution while
    // observability is on.
    if (obs::enabled()) {
        for (const auto &worker : workers_)
            OBS_HISTOGRAM_RECORD("pool.worker_tasks",
                                 static_cast<double>(worker->executed));
    }
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

// ---------------------------------------------------------------------------
// Scheduling

void
ThreadPool::enqueue(Task task, std::size_t wakeCount)
{
    OBS_COUNTER_INC("pool.tasks");
    Task *node = new Task(std::move(task));
    const WorkerIdentity &self = tls_worker;
    if (self.pool == this) {
        // Lock-free local push; overflow spills to the injection
        // queue rather than blocking the worker.
        if (!workers_[self.index]->deque.push(node)) {
            std::lock_guard<std::mutex> lock(injectMutex_);
            inject_.push_back(node);
            OBS_GAUGE_SET("pool.queue_depth", inject_.size());
        }
    } else {
        std::lock_guard<std::mutex> lock(injectMutex_);
        inject_.push_back(node);
        OBS_GAUGE_SET("pool.queue_depth", inject_.size());
    }
    if (wakeCount > 0)
        wake(wakeCount);
}

void
ThreadPool::wake(std::size_t count)
{
    // Publish "there is new work" first; parkers announce themselves
    // before re-validating the epoch, so this store-then-load pair
    // can never miss a concurrent parker (Dekker pattern).
    epoch_.fetch_add(1, std::memory_order_seq_cst);
    if (parked_.load(std::memory_order_seq_cst) == 0)
        return; // everyone is busy: no lock, no notify.
    std::lock_guard<std::mutex> lock(parkMutex_);
    if (count == 1)
        parkCv_.notify_one();
    else
        parkCv_.notify_all();
}

bool
ThreadPool::pendingWork()
{
    for (const auto &worker : workers_)
        if (!worker->deque.looksEmpty())
            return true;
    std::lock_guard<std::mutex> lock(injectMutex_);
    return !inject_.empty();
}

Task *
ThreadPool::findTask(std::size_t self, std::uint64_t &rngState)
{
    // 1. Own deque (newest first: better locality for nested jobs).
    if (Task *task = workers_[self]->deque.pop())
        return task;
    // 2. Injection queue.
    {
        std::lock_guard<std::mutex> lock(injectMutex_);
        if (!inject_.empty()) {
            Task *task = inject_.front();
            inject_.pop_front();
            return task;
        }
    }
    // 3. Steal from victims in a random rotation.
    const std::size_t n = workers_.size();
    if (n > 1) {
        const std::size_t start =
            static_cast<std::size_t>(nextRandom(rngState) % n);
        for (std::size_t hop = 0; hop < n; ++hop) {
            const std::size_t victim = (start + hop) % n;
            if (victim == self)
                continue;
            if (Task *task = workers_[victim]->deque.steal()) {
                OBS_COUNTER_INC("pool.steals");
                return task;
            }
        }
    }
    return nullptr;
}

void
ThreadPool::workerLoop(std::size_t index)
{
    tls_worker.pool = this;
    tls_worker.index = index;
    Worker &me = *workers_[index];
    std::uint64_t rngState = hashMix(0x9E3779B97F4A7C15ull, index + 1);

    // Cached per-worker latency histogram (the OBS_* macros cache per
    // call site, which would alias every worker onto one histogram).
    obs::Histogram *myTaskUs = nullptr;

    for (;;) {
        Task *task = findTask(index, rngState);
        if (task) {
            OBS_TIMER("pool.task_us");
            if (obs::enabled()) {
                if (myTaskUs == nullptr)
                    myTaskUs = &obs::histogram(
                        "pool.worker" + std::to_string(index) +
                        ".task_us");
                obs::ScopedTimer timer(*myTaskUs);
                (*task)();
            } else {
                (*task)();
            }
            delete task;
            ++me.executed;
            continue;
        }

        // Nothing anywhere: spin briefly (work often arrives in
        // bursts), then park on the eventcount.
        bool found = false;
        for (int spin = 0; spin < 2 && !found; ++spin) {
            std::this_thread::yield();
            found = pendingWork();
        }
        if (found)
            continue;
        if (stop_.load(std::memory_order_acquire))
            return;

        std::chrono::steady_clock::time_point parkStart;
        const bool timing = obs::enabled();
        bool parkedForReal = false;
        if (timing)
            parkStart = std::chrono::steady_clock::now();
        {
            std::unique_lock<std::mutex> lock(parkMutex_);
            // Eventcount prepare-wait: announce, snapshot the epoch,
            // THEN re-validate the queues. The snapshot-before-scan
            // order is what closes the lost-wakeup window: for any
            // enqueue racing with this park, either its epoch bump is
            // ordered after `seen` (the wait predicate fires without a
            // notify), or the bump is ordered before `seen` — in which
            // case reading the bumped epoch synchronizes-with the
            // enqueuer, its push happens-before the scan below, and we
            // bail out instead of sleeping on a queued task.
            parked_.fetch_add(1, std::memory_order_seq_cst);
            const std::uint64_t seen =
                epoch_.load(std::memory_order_seq_cst);
            if (pendingWork() ||
                stop_.load(std::memory_order_acquire)) {
                parked_.fetch_sub(1, std::memory_order_seq_cst);
            } else {
                parkedForReal = true;
                OBS_COUNTER_INC("pool.parks");
                parkCv_.wait(lock, [&] {
                    return epoch_.load(std::memory_order_seq_cst) !=
                               seen ||
                           stop_.load(std::memory_order_acquire);
                });
                parked_.fetch_sub(1, std::memory_order_seq_cst);
            }
        }
        if (timing && parkedForReal) {
            const double parkedUs =
                std::chrono::duration<double, std::micro>(
                    std::chrono::steady_clock::now() - parkStart)
                    .count();
            OBS_HISTOGRAM_RECORD("pool.park_us", parkedUs);
        }
    }
}

// ---------------------------------------------------------------------------
// parallelForRange

namespace {

/** Shared state of one parallelForRange() call. */
struct ParallelJob
{
    std::size_t n = 0;
    void (*invoke)(void *, std::size_t, std::size_t) = nullptr;
    void *ctx = nullptr;

    std::atomic<std::size_t> cursor{0};
    std::atomic<std::size_t> grain{0}; ///< 0 = probing.
    std::size_t probeItems = 1;
    std::size_t minGrain = 1;
    std::size_t maxGrain = 0; ///< 0 = uncapped.

    std::atomic<bool> failed{false};
    std::mutex errorMutex;
    std::exception_ptr error;

    /** Executors currently inside run() — the caller waits for 0. */
    std::atomic<int> active{0};
    std::mutex doneMutex;
    std::condition_variable doneCv;

    std::size_t clampGrain(double items) const
    {
        std::size_t grainItems =
            items < 1.0 ? 1
                        : static_cast<std::size_t>(items);
        if (maxGrain > 0)
            grainItems = std::min(grainItems, maxGrain);
        return std::max(grainItems, minGrain);
    }

    /**
     * Claims and runs chunks until the range is exhausted or another
     * executor failed. Safe to call after the owning parallelForRange
     * returned (late-started helpers see the exhausted cursor and
     * never touch invoke/ctx).
     */
    void run()
    {
        active.fetch_add(1, std::memory_order_acq_rel);
        for (;;) {
            if (failed.load(std::memory_order_relaxed))
                break; // abandon remaining chunks after a throw.
            const std::size_t g =
                grain.load(std::memory_order_acquire);
            const std::size_t take = g > 0 ? g : probeItems;
            const std::size_t lo =
                cursor.fetch_add(take, std::memory_order_relaxed);
            if (lo >= n)
                break;
            const std::size_t hi = std::min(lo + take, n);
            try {
                if (g > 0) {
                    invoke(ctx, lo, hi);
                } else {
                    // Probe: time this chunk and derive the grain
                    // from the measured per-item cost. First
                    // publication wins; the measurement is functional
                    // (not gated on observability) but never feeds
                    // into the body's results, only into scheduling.
                    const auto start =
                        std::chrono::steady_clock::now();
                    invoke(ctx, lo, hi);
                    const double chunkUs =
                        std::chrono::duration<double, std::micro>(
                            std::chrono::steady_clock::now() - start)
                            .count();
                    const double itemUs = std::max(
                        chunkUs / static_cast<double>(hi - lo), 1e-4);
                    const std::size_t measured = clampGrain(
                        ThreadPool::kTargetChunkUs / itemUs);
                    std::size_t expected = 0;
                    if (grain.compare_exchange_strong(
                            expected, measured,
                            std::memory_order_acq_rel))
                        OBS_GAUGE_SET("pool.grain",
                                      static_cast<double>(measured));
                }
            } catch (...) {
                failed.store(true, std::memory_order_relaxed);
                // Exhaust the cursor so late-starting helpers are
                // gated by their claim fetch_add — an RMW that always
                // observes this advance — rather than by the relaxed
                // `failed` flag, whose stale value could otherwise let
                // a helper claim lo < n after the caller has rethrown
                // and destroyed the frame behind invoke/ctx.
                std::size_t cur =
                    cursor.load(std::memory_order_relaxed);
                while (cur < n &&
                       !cursor.compare_exchange_weak(
                           cur, n, std::memory_order_seq_cst,
                           std::memory_order_relaxed)) {
                }
                std::lock_guard<std::mutex> lock(errorMutex);
                if (!error)
                    error = std::current_exception();
                break;
            }
        }
        if (active.fetch_sub(1, std::memory_order_acq_rel) == 1) {
            std::lock_guard<std::mutex> lock(doneMutex);
            doneCv.notify_all();
        }
    }
};

} // namespace

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

    std::size_t executors = workers_.size() + 1;
    if (options.maxThreads > 0)
        executors = std::min(executors, options.maxThreads);
    // No point spawning helpers that could never claim a chunk.
    executors = std::min(executors, (n + minGrain - 1) / minGrain);

    if (executors <= 1) {
        invoke(ctx, 0, n);
        return;
    }

    auto job = std::make_shared<ParallelJob>();
    job->n = n;
    job->invoke = invoke;
    job->ctx = ctx;
    job->minGrain = minGrain;
    // Bound every grain decision — static hint and measured probe
    // alike — so each executor still sees several chunks for load
    // balance (minGrain stays a hard floor via clampGrain).
    const std::size_t balance =
        std::max<std::size_t>(1, n / (executors * 4));
    job->maxGrain = options.maxGrain > 0
                        ? std::min(options.maxGrain, balance)
                        : balance;
    job->probeItems = minGrain;
    if (options.costHintUs > 0.0) {
        const std::size_t grain =
            job->clampGrain(kTargetChunkUs / options.costHintUs);
        job->grain.store(grain, std::memory_order_relaxed);
        OBS_GAUGE_SET("pool.grain", static_cast<double>(grain));
    }

    // Enqueue every helper first, then wake once for the whole batch
    // (waking per enqueue would thundering-herd the parked workers).
    const std::size_t helpers = executors - 1;
    for (std::size_t i = 0; i < helpers; ++i)
        enqueue(Task([job] { job->run(); }), 0);
    wake(helpers);

    job->run();

    // Wait until no helper is inside run(). Helpers that were never
    // scheduled will see the exhausted cursor later and exit without
    // touching the (by then dead) caller frame; the job outlives them
    // via shared_ptr.
    if (job->active.load(std::memory_order_acquire) != 0) {
        std::unique_lock<std::mutex> lock(job->doneMutex);
        job->doneCv.wait(lock, [&] {
            return job->active.load(std::memory_order_acquire) == 0;
        });
    }
    if (job->failed.load(std::memory_order_acquire)) {
        // Take ownership of the exception before rethrowing: a
        // straggler helper may drop the job's last reference on a
        // worker thread much later, and it must not be the one to
        // destroy the exception object the caller is still examining.
        std::exception_ptr error;
        {
            std::lock_guard<std::mutex> lock(job->errorMutex);
            std::swap(error, job->error);
        }
        if (error)
            std::rethrow_exception(error);
    }
}

} // namespace util
} // namespace ceer
