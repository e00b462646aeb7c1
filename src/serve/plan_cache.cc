#include "serve/plan_cache.h"

#include <exception>
#include <utility>

#include "obs/metrics.h"
#include "util/logging.h"

namespace ceer {
namespace serve {

PlanCache::PlanCache(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity)
{
}

void
PlanCache::evictOver()
{
    while (slots_.size() > capacity_) {
        auto victim = slots_.end();
        for (auto it = slots_.begin(); it != slots_.end(); ++it) {
            if (it->second.compiling)
                continue;
            if (victim == slots_.end() ||
                it->second.lruTick < victim->second.lruTick)
                victim = it;
        }
        if (victim == slots_.end())
            return; // everything in flight; nothing evictable
        if (victim->second.entry)
            bytes_ -= victim->second.entry->bytes;
        slots_.erase(victim);
        ++evictions_;
        OBS_COUNTER_INC("serve.plan_cache.evictions");
    }
}

std::shared_ptr<const PlanEntry>
PlanCache::tryGet(std::uint64_t key, std::uint64_t generation)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = slots_.find(key);
    if (it == slots_.end())
        return nullptr;
    Slot &slot = it->second;
    if (slot.compiling || !slot.entry ||
        slot.entry->generation != generation)
        return nullptr;
    slot.lruTick = ++tick_;
    ++hits_;
    OBS_COUNTER_INC("serve.plan_cache.hits");
    return slot.entry;
}

std::shared_ptr<const PlanEntry>
PlanCache::getOrCompile(std::uint64_t key, std::uint64_t generation,
                        const CompileFn &compile)
{
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        auto it = slots_.find(key);
        if (it == slots_.end())
            break; // absent -> claim below
        Slot &slot = it->second;
        if (slot.compiling) {
            // Another session is compiling this key right now;
            // share its result instead of duplicating the work.
            compiled_.wait(lock);
            continue;
        }
        if (slot.entry && slot.entry->generation == generation) {
            slot.lruTick = ++tick_;
            ++hits_;
            OBS_COUNTER_INC("serve.plan_cache.hits");
            return slot.entry;
        }
        break; // stale generation -> recompile in place
    }

    // Claim the slot and compile outside the lock: plan compilation
    // takes milliseconds and must not stall hits on other keys.
    Slot &claimed = slots_[key];
    claimed.compiling = true;
    ++misses_;
    OBS_COUNTER_INC("serve.plan_cache.misses");
    lock.unlock();

    PlanEntry computed;
    std::exception_ptr failure;
    try {
        computed = compile();
    } catch (...) {
        failure = std::current_exception();
    }

    lock.lock();
    auto it = slots_.find(key);
    if (it == slots_.end())
        util::panic("PlanCache: compiling slot vanished");
    Slot &slot = it->second;
    slot.compiling = false;
    if (failure) {
        // Roll the claim back so the next request retries the
        // compile; a stale entry (if any) stays usable for pinning
        // but will miss again.
        if (!slot.entry)
            slots_.erase(it);
        compiled_.notify_all();
        std::rethrow_exception(failure);
    }
    auto entry = std::make_shared<const PlanEntry>(std::move(computed));
    if (slot.entry)
        bytes_ -= slot.entry->bytes;
    slot.entry = entry;
    slot.lruTick = ++tick_;
    bytes_ += entry->bytes;
    evictOver();
    OBS_GAUGE_SET("serve.plan_cache.bytes",
                  static_cast<double>(bytes_));
    compiled_.notify_all();
    return entry;
}

PlanCache::Stats
PlanCache::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    Stats stats;
    stats.hits = hits_;
    stats.misses = misses_;
    stats.evictions = evictions_;
    stats.bytes = bytes_;
    stats.entries = slots_.size();
    return stats;
}

} // namespace serve
} // namespace ceer
