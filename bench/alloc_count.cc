/**
 * @file
 * Allocation-counting replacement of the global operator new; see
 * alloc_count.h.
 */

#include "bench/alloc_count.h"

#include <atomic>
#include <cstdlib>
#include <new>

namespace {

std::atomic<bool> g_count_allocs{false};
std::atomic<std::uint64_t> g_alloc_count{0};

void *
countedAlloc(std::size_t size)
{
    if (g_count_allocs.load(std::memory_order_relaxed))
        g_alloc_count.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(size ? size : 1);
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
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
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
    g_count_allocs.store(true, std::memory_order_relaxed);
}

std::uint64_t
stopAllocCount()
{
    g_count_allocs.store(false, std::memory_order_relaxed);
    return g_alloc_count.load(std::memory_order_relaxed);
}

} // namespace bench
} // namespace ceer
