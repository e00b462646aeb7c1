/**
 * @file
 * Fork-join worker pool used to parallelize the repo's hot sweeps
 * (profiling runs, simulated iterations, recommender candidates,
 * trainer fit cells, evaluation cells) without spawning a thread per
 * section — or per call.
 *
 * Scheduler design (see docs/performance.md for the full story):
 *
 *  - parallelForRange() is the only way to run work. It posts a Job
 *    that lives in the caller's frame on a mutex-guarded board with
 *    `executors - 1` helper seats, then starts claiming chunks itself.
 *    Parked workers take seats and run the same claim loop.
 *  - Chunks are contiguous [lo, hi) ranges handed out by an atomic
 *    claim cursor with an adaptive grain: callers pass a static
 *    per-item cost hint, or the first chunk is measured and the grain
 *    derived from it, targeting ~kTargetChunkUs of work per claim
 *    (bounded so every executor still gets several chunks).
 *  - When its own claim loop ends the caller withdraws the seats
 *    nobody took and waits, under the board mutex, until no helper is
 *    inside the job. After that no worker can reach the job, so the
 *    caller's frame is safe to unwind.
 *  - Posting notifies only when a worker is parked (`parked_` is read
 *    under the board mutex, so no wakeup is lost and posting while
 *    every worker is busy costs no notify syscall).
 *
 * Work distribution is nondeterministic; every call site keeps its
 * outputs byte-identical across thread counts by writing to
 * slot-indexed results and reducing in serial order.
 */

#ifndef CEER_UTIL_THREAD_POOL_H
#define CEER_UTIL_THREAD_POOL_H

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace ceer {
namespace util {

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
     * it has workers + 1, and with one executor the body runs inline
     * as body(0, n) without touching the board.
     */
    std::size_t maxThreads = 0;
};

/**
 * Fork-join worker pool.
 *
 * Thread-safe: parallelForRange() may be called from any thread,
 * including from inside a chunk running on this pool (nested parallel
 * sections do not deadlock: the nested caller claims chunks itself
 * and waits only for helpers already inside its job). The destructor
 * joins the workers; no parallelForRange() may be in flight.
 */
class ThreadPool
{
  public:
    /**
     * @param workers Worker thread count. kAutoWorkers picks
     *                hardware_concurrency() - 1 (the caller counts as
     *                one executor via parallelForRange); 0 creates no
     *                threads and makes parallelForRange a serial call.
     */
    explicit ThreadPool(std::size_t workers = kAutoWorkers);

    /** Stops and joins all workers. */
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
    std::size_t workerCount() const { return threads_.size(); }

    /** Target microseconds of work per claimed chunk. */
    static constexpr double kTargetChunkUs = 100.0;

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
    /** One parallelForRange() call, owned by the caller's frame. */
    struct Job;

    void workerLoop(std::size_t index);

    void parallelForRangeImpl(std::size_t n,
                              const ParallelOptions &options,
                              void (*invoke)(void *, std::size_t,
                                             std::size_t),
                              void *ctx);

    std::mutex mutex_;
    // Guarded by mutex_: jobs with free helper seats (newest first,
    // linked through Job::next), the parked-worker count and the stop
    // flag. Workers wait on workCv_ for a posted job or stop.
    Job *board_ = nullptr;
    std::size_t parked_ = 0;
    bool stop_ = false;
    std::condition_variable workCv_;

    /** Jobs run per worker; each worker writes only its own slot. */
    std::vector<std::uint64_t> workerJobs_;
    std::vector<std::thread> threads_;
};

} // namespace util
} // namespace ceer

#endif // CEER_UTIL_THREAD_POOL_H
