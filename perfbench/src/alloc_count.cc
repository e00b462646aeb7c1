// Replaceable operator new/delete that count calls while counting is
// on (relaxed atomics; one load per allocation while it is off). The
// server child counts its whole process during the traced window, so
// the figure is the serving path's operator-new calls per request; the
// cold pipeline counts one serial pipeline.

#include <atomic>
#include <cstdlib>
#include <new>

#include "perfbench.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_count{0};

void *
countedAlloc(std::size_t size)
{
    if (g_counting.load(std::memory_order_relaxed))
        g_count.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(size ? size : 1);
}

void *
countedAllocOrThrow(std::size_t size)
{
    void *p = countedAlloc(size);
    if (!p)
        throw std::bad_alloc();
    return p;
}

} // namespace

namespace perfbench {

void
setAllocCounting(bool on)
{
    g_counting.store(on, std::memory_order_relaxed);
}

std::uint64_t
allocCount()
{
    return g_count.load(std::memory_order_relaxed);
}

} // namespace perfbench

void *operator new(std::size_t size) { return countedAllocOrThrow(size); }
void *operator new[](std::size_t size) { return countedAllocOrThrow(size); }
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
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
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
