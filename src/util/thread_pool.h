/**
 * @file
 * Work-stealing worker pool used to parallelize the repo's hot sweeps
 * (profiling runs, simulated iterations, recommender candidates,
 * trainer fit cells) without spawning a thread per task — or per call.
 *
 * Scheduler design (see docs/performance.md for the full story):
 *
 *  - Each worker owns a fixed-capacity Chase–Lev deque of task
 *    pointers: the owner pushes and pops at the bottom lock-free,
 *    thieves CAS the top. External submitters (and deque overflow)
 *    go through a small mutex-guarded injection queue.
 *  - Idle workers steal from victims chosen by a per-thread xorshift
 *    walk; after a few failed scan rounds they park on an eventcount
 *    (announce-then-validate), so enqueueing while every worker is
 *    busy costs two uncontended atomics and no notify syscall.
 *  - parallelForRange() distributes contiguous [lo, hi) chunks through
 *    a shared claim cursor with an adaptive grain: callers pass a
 *    static per-item cost hint, or the first chunk is measured and the
 *    grain derived from it, targeting ~kTargetChunkUs of work per
 *    claim (bounded so every executor still gets several chunks).
 *  - ThreadPool::shared() is a leaked process-wide pool so sub-
 *    millisecond parallel sections (the recommender sweep) reuse
 *    parked workers instead of paying thread creation per call.
 *
 * Work distribution is nondeterministic; every call site keeps its
 * outputs byte-identical across thread counts by writing to
 * slot-indexed results and reducing in serial order.
 */

#ifndef CEER_UTIL_THREAD_POOL_H
#define CEER_UTIL_THREAD_POOL_H

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <new>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace ceer {
namespace util {

/**
 * Move-only type-erased callable with small-buffer optimization: the
 * common wrappers (packaged_task, a shared_ptr to a parallel-for job)
 * fit inline, so enqueueing does not heap-allocate beyond the task
 * node itself.
 */
class Task
{
  public:
    Task() = default;

    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, Task>>>
    Task(F &&fn)
    {
        using Fn = std::decay_t<F>;
        if constexpr (sizeof(Fn) <= kInlineBytes &&
                      alignof(Fn) <= alignof(std::max_align_t) &&
                      std::is_nothrow_move_constructible_v<Fn>) {
            new (storage_) Fn(std::forward<F>(fn));
            invoke_ = [](void *p) { (*static_cast<Fn *>(p))(); };
            relocate_ = [](void *from, void *to) {
                Fn *source = static_cast<Fn *>(from);
                new (to) Fn(std::move(*source));
                source->~Fn();
            };
            destroy_ = [](void *p) { static_cast<Fn *>(p)->~Fn(); };
            inline_ = true;
        } else {
            heap_ = new Fn(std::forward<F>(fn));
            invoke_ = [](void *p) { (*static_cast<Fn *>(p))(); };
            destroy_ = [](void *p) { delete static_cast<Fn *>(p); };
            inline_ = false;
        }
    }

    Task(Task &&other) noexcept { moveFrom(other); }

    Task &operator=(Task &&other) noexcept
    {
        if (this != &other) {
            reset();
            moveFrom(other);
        }
        return *this;
    }

    Task(const Task &) = delete;
    Task &operator=(const Task &) = delete;

    ~Task() { reset(); }

    explicit operator bool() const { return invoke_ != nullptr; }

    void operator()() { invoke_(target()); }

  private:
    static constexpr std::size_t kInlineBytes = 48;

    void *target()
    {
        return inline_ ? static_cast<void *>(storage_) : heap_;
    }

    void reset()
    {
        if (invoke_)
            destroy_(target());
        invoke_ = nullptr;
    }

    void moveFrom(Task &other) noexcept
    {
        invoke_ = other.invoke_;
        relocate_ = other.relocate_;
        destroy_ = other.destroy_;
        inline_ = other.inline_;
        if (!invoke_)
            return;
        if (inline_)
            relocate_(other.storage_, storage_);
        else
            heap_ = other.heap_;
        other.invoke_ = nullptr;
    }

    union
    {
        alignas(std::max_align_t) unsigned char storage_[kInlineBytes];
        void *heap_;
    };
    void (*invoke_)(void *) = nullptr;
    void (*relocate_)(void *, void *) = nullptr;
    void (*destroy_)(void *) = nullptr;
    bool inline_ = false;
};

/** Tuning knobs for one parallelForRange() call. */
struct ParallelOptions
{
    /**
     * Estimated cost of one item in microseconds. Positive values set
     * the grain statically (targeting ~kTargetChunkUs per chunk);
     * 0 means "unknown" and the first chunk of each executor is
     * measured until one measurement publishes the grain.
     */
    double costHintUs = 0.0;

    /** Never claim fewer items than this per chunk (also the probe
     *  chunk size while the grain is unmeasured). */
    std::size_t minGrain = 1;

    /** Never claim more items than this per chunk (0 = no cap beyond
     *  the load-balance bound). */
    std::size_t maxGrain = 0;

    /**
     * Cap on concurrent executors, counting the calling thread
     * (0 = caller plus every pool worker). Call sites map their
     * `threads` knobs here; the pool never uses more executors than
     * it has workers + 1.
     */
    std::size_t maxThreads = 0;
};

/**
 * Work-stealing worker pool.
 *
 * Thread-safe: submit() and parallelForRange() may be called from
 * any thread, including from inside a task running on this pool
 * (nested parallel sections do not deadlock: the nested caller claims
 * chunks itself, and abandoned helper tasks exit without touching the
 * caller's frame). The destructor drains outstanding tasks and joins.
 */
class ThreadPool
{
  public:
    /**
     * @param workers Worker thread count. kAutoWorkers picks
     *                hardware_concurrency() - 1 (the caller counts as
     *                one executor via parallelForRange); 0 creates no
     *                threads, makes parallelForRange a serial call,
     *                and runs submit() tasks inline on the caller.
     */
    explicit ThreadPool(std::size_t workers = kAutoWorkers);

    /** Joins all workers after finishing queued tasks. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Sentinel for "size the pool from the hardware". */
    static constexpr std::size_t kAutoWorkers = ~std::size_t{0};

    /**
     * Process-wide pool shared by every parallel call site, created on
     * first use and intentionally leaked (workers park when idle).
     * Sized max(1, hardware_concurrency() - 1) so parallel code paths
     * are exercised even on a single-core host.
     */
    static ThreadPool &shared();

    /** Number of worker threads (excludes the calling thread). */
    std::size_t workerCount() const { return workers_.size(); }

    /** Target microseconds of work per claimed chunk. */
    static constexpr double kTargetChunkUs = 100.0;

    /**
     * Enqueues @p task for execution on a worker. A pool with no
     * workers runs the task inline on the calling thread instead —
     * otherwise the returned future could only resolve in the
     * destructor's drain, and future::get() would deadlock.
     *
     * @return Future for the task's result; exceptions thrown by the
     *         task surface from future::get().
     */
    template <typename F>
    auto submit(F task) -> std::future<std::invoke_result_t<F>>
    {
        using Result = std::invoke_result_t<F>;
        std::packaged_task<Result()> packaged(std::move(task));
        std::future<Result> future = packaged.get_future();
        if (workers_.empty())
            packaged(); // captures exceptions into the future.
        else
            enqueue(Task(std::move(packaged)));
        return future;
    }

    /**
     * Runs body(lo, hi) over disjoint chunks covering [0, n),
     * blocking until all complete. The body amortizes per-chunk
     * scheduling over a tight local loop; the calling thread executes
     * chunks too. Chunk boundaries are scheduling artifacts — the body
     * must produce the same result for any partition of [0, n).
     *
     * Exceptions: the first exception thrown by any chunk is rethrown
     * here; chunks not yet claimed when it was thrown are abandoned.
     */
    template <typename Body>
    void parallelForRange(std::size_t n, const ParallelOptions &options,
                          Body &&body)
    {
        using Fn = std::remove_reference_t<Body>;
        parallelForRangeImpl(
            n, options,
            [](void *ctx, std::size_t lo, std::size_t hi) {
                (*static_cast<Fn *>(ctx))(lo, hi);
            },
            std::addressof(body));
    }

    /**
     * Effective parallelism for a requested thread count: @p requested
     * if positive, otherwise hardware_concurrency() (min 1).
     */
    static std::size_t effectiveThreads(int requested);

  private:
    /**
     * Fixed-capacity Chase–Lev deque of task pointers. push()/pop()
     * are owner-only and lock-free; steal() may be called by any
     * thread and races are resolved by a CAS on top_. Orderings are
     * deliberately seq_cst on the top/bottom counters (no standalone
     * fences: ThreadSanitizer models atomics, not fences) — task
     * pointers move at chunk granularity, so the counter traffic is
     * not a hot path.
     */
    class StealDeque
    {
      public:
        static constexpr std::size_t kCapacity = 256; // power of two

        /** Owner only. Returns false when full (caller overflows to
         *  the injection queue). */
        bool push(Task *task);

        /** Owner only. Null when empty or lost to a thief. */
        Task *pop();

        /** Any thread. Null when empty or the race was lost. */
        Task *steal();

        bool looksEmpty() const;

      private:
        static constexpr std::int64_t kMask =
            static_cast<std::int64_t>(kCapacity) - 1;

        alignas(64) std::atomic<std::int64_t> top_{0};
        alignas(64) std::atomic<std::int64_t> bottom_{0};
        std::array<std::atomic<Task *>, kCapacity> slots_{};
    };

    /** Per-worker bookkeeping (the thread plus its deque). */
    struct Worker
    {
        StealDeque deque;
        std::uint64_t executed = 0; ///< Tasks run (worker-local).
    };

    void workerLoop(std::size_t index);

    /** Takes one task from anywhere: own deque (workers), the
     *  injection queue, or a victim's deque. */
    Task *findTask(std::size_t self, std::uint64_t &rngState);

    /** True when any deque or the injection queue looks non-empty
     *  (racy by nature; used by the spin and park re-validation). */
    bool pendingWork();

    /** Moves @p task into the scheduler (local deque when called from
     *  a worker of this pool, else the injection queue) and wakes up
     *  to @p wake parked workers. */
    void enqueue(Task task, std::size_t wake = 1);

    void parallelForRangeImpl(std::size_t n,
                              const ParallelOptions &options,
                              void (*invoke)(void *, std::size_t,
                                             std::size_t),
                              void *ctx);

    /** Wakes up to @p count parked workers (cheap no-op when none). */
    void wake(std::size_t count);

    std::vector<std::unique_ptr<Worker>> workers_;
    std::vector<std::thread> threads_;

    // External submissions and deque overflow.
    std::mutex injectMutex_;
    std::deque<Task *> inject_;

    // Eventcount: under parkMutex_, workers announce in parked_,
    // snapshot epoch_, re-validate the queues, and only then sleep on
    // "epoch_ moved past the snapshot"; enqueuers bump epoch_ first
    // and only lock/notify when parked_ says someone is waiting.
    std::mutex parkMutex_;
    std::condition_variable parkCv_;
    std::atomic<std::uint64_t> epoch_{0};
    std::atomic<std::size_t> parked_{0};
    std::atomic<bool> stop_{false};
};

} // namespace util
} // namespace ceer

#endif // CEER_UTIL_THREAD_POOL_H
