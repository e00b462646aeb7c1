/**
 * @file
 * Process-wide plan cache for ceerd.
 *
 * One cache is shared by every session and reactor, keyed by a 64-bit
 * plan key (ceerd's is serve::planKey of the request's model and
 * batch), so ten connections asking for vgg_19 compile it once and a
 * reconnecting client finds it warm. It is one map under one mutex
 * with one global LRU order, so `capacity` is the exact entry cap. It
 * is engine-generation-aware: a hot reload flushes nothing eagerly,
 * but an entry compiled under an older generation misses and is
 * recompiled on next use, while in-flight requests keep the pinned
 * entry they started with (shared_ptr keeps the old plan alive until
 * its last request finishes).
 *
 * Concurrent requests for the same key compile exactly once: the
 * first claims the slot and compiles OUTSIDE the lock, the rest wait
 * on the condition variable and share the result.
 *
 * Metrics: `serve.plan_cache.{hits,misses,evictions}` counters and a
 * `serve.plan_cache.bytes` gauge (plan approxBytes accounting).
 */

#ifndef CEER_SERVE_PLAN_CACHE_H
#define CEER_SERVE_PLAN_CACHE_H

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "core/predict_plan.h"
#include "core/recommender.h"
#include "graph/graph.h"

namespace ceer {
namespace serve {

/**
 * One immutable cached compilation: the compiled plan and the graph's
 * memory-fit verdicts, stamped with the engine generation that
 * compiled it. The request path needs nothing else of the graph.
 */
struct PlanEntry
{
    std::uint64_t fingerprint = 0; ///< The plan key it is cached under.
    std::uint64_t generation = 0;  ///< Engine generation at compile.
    /// Null in ceerd; set only by the perfbench layer harness, which
    /// still passes it to the recommender.
    std::shared_ptr<const graph::Graph> graph;
    std::shared_ptr<const core::PredictPlan> plan;
    /** Per-GPU memory-fit verdicts, computed once at compile — the
     *  recommender's only O(nodes) per-query step otherwise. */
    core::MemoryFitTable fits{};
    std::size_t bytes = 0;         ///< approxBytes accounting.
};

/** Shared, LRU-capped plan key -> PlanEntry cache. */
class PlanCache
{
  public:
    /** Point-in-time counters (monotonic except bytes/entries). */
    struct Stats
    {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::uint64_t evictions = 0;
        std::size_t bytes = 0;
        std::size_t entries = 0;
    };

    /** Builds @p compile's result when the cache misses. Must return a
     *  fully-populated entry; may throw (the claim is rolled back and
     *  waiters retry). */
    using CompileFn = std::function<PlanEntry()>;

    /** @param capacity Entry cap (0 is treated as 1). */
    explicit PlanCache(std::size_t capacity = 256);

    /**
     * Allocation-free hit path: returns the cached entry for
     * @p key under @p generation, or null on a cold, stale or
     * still-compiling slot (no waiting, no miss accounted — callers
     * fall through to getOrCompile, which counts the miss and
     * coordinates the compile). Thread-safe.
     */
    std::shared_ptr<const PlanEntry>
    tryGet(std::uint64_t key, std::uint64_t generation);

    /**
     * Returns the entry for @p key compiled under
     * @p generation, invoking @p compile on a miss (stale generation
     * or absent). Hits pin the shared entry; a concurrent miss on the
     * same key waits for the in-progress compile instead of
     * duplicating it. Thread-safe.
     */
    std::shared_ptr<const PlanEntry>
    getOrCompile(std::uint64_t key, std::uint64_t generation,
                 const CompileFn &compile);

    Stats stats() const;

  private:
    struct Slot
    {
        std::shared_ptr<const PlanEntry> entry; ///< Null while compiling.
        bool compiling = false;
        std::uint64_t lruTick = 0;
    };

    /** Evicts least-recently-used non-compiling slots while the cache
     *  is over capacity. Caller holds the lock. */
    void evictOver();

    const std::size_t capacity_;
    mutable std::mutex mutex_;
    /** Signalled whenever a claimed compile finishes or rolls back. */
    std::condition_variable compiled_;
    // Everything below is guarded by mutex_.
    std::unordered_map<std::uint64_t, Slot> slots_;
    std::uint64_t tick_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t evictions_ = 0;
    std::size_t bytes_ = 0;
};

} // namespace serve
} // namespace ceer

#endif // CEER_SERVE_PLAN_CACHE_H
