/**
 * @file
 * Allocation-counting replacement of the global operator new; see
 * alloc_count.h.
 */

#include "bench/alloc_count.h"

#include <atomic>
#include <cstdlib>
#include <malloc.h>
#include <new>

namespace {

std::atomic<bool> g_count_allocs{false};
std::atomic<std::uint64_t> g_alloc_count{0};
/// Bytes allocated minus bytes freed since the start (usable sizes);
/// negative when the counted code frees blocks made before it.
std::atomic<std::int64_t> g_live_bytes{0};
std::atomic<std::int64_t> g_peak_bytes{0};

void *
countedAlloc(std::size_t size)
{
    void *p = std::malloc(size ? size : 1);
    if (p && g_count_allocs.load(std::memory_order_relaxed)) {
        g_alloc_count.fetch_add(1, std::memory_order_relaxed);
        const auto bytes = static_cast<std::int64_t>(malloc_usable_size(p));
        const std::int64_t live =
            g_live_bytes.fetch_add(bytes, std::memory_order_relaxed) +
            bytes;
        std::int64_t peak = g_peak_bytes.load(std::memory_order_relaxed);
        // A failed exchange reloads peak; retry while live is above it.
        while (live > peak &&
               !g_peak_bytes.compare_exchange_weak(
                   peak, live, std::memory_order_relaxed)) {
        }
    }
    return p;
}

void
countedFree(void *p)
{
    if (p && g_count_allocs.load(std::memory_order_relaxed))
        g_live_bytes.fetch_sub(
            static_cast<std::int64_t>(malloc_usable_size(p)),
            std::memory_order_relaxed);
    std::free(p);
}

} // namespace

#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
#define CEER_ALLOC_HOOK 0
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
#define CEER_ALLOC_HOOK 0
#else
#define CEER_ALLOC_HOOK 1
#endif
#else
#define CEER_ALLOC_HOOK 1
#endif

#if CEER_ALLOC_HOOK
void *
operator new(std::size_t size)
{
    void *p = countedAlloc(size);
    if (!p)
        throw std::bad_alloc();
    return p;
}

void *
operator new[](std::size_t size)
{
    void *p = countedAlloc(size);
    if (!p)
        throw std::bad_alloc();
    return p;
}

void *
operator new(std::size_t size, const std::nothrow_t &) noexcept
{
    return countedAlloc(size);
}

void *
operator new[](std::size_t size, const std::nothrow_t &) noexcept
{
    return countedAlloc(size);
}

void
operator delete(void *p) noexcept
{
    countedFree(p);
}

void
operator delete[](void *p) noexcept
{
    countedFree(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    countedFree(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    countedFree(p);
}

void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    countedFree(p);
}

void
operator delete[](void *p, const std::nothrow_t &) noexcept
{
    countedFree(p);
}
#endif // CEER_ALLOC_HOOK

namespace ceer {
namespace bench {

bool
allocHookAvailable()
{
    return CEER_ALLOC_HOOK != 0;
}

void
startAllocCount()
{
    g_alloc_count.store(0, std::memory_order_relaxed);
    g_live_bytes.store(0, std::memory_order_relaxed);
    g_peak_bytes.store(0, std::memory_order_relaxed);
    g_count_allocs.store(true, std::memory_order_relaxed);
}

std::uint64_t
stopAllocCount()
{
    g_count_allocs.store(false, std::memory_order_relaxed);
    return g_alloc_count.load(std::memory_order_relaxed);
}

std::uint64_t
peakAllocBytes()
{
    return static_cast<std::uint64_t>(
        g_peak_bytes.load(std::memory_order_relaxed));
}

} // namespace bench
} // namespace ceer
