/**
 * @file
 * Process-wide heap-allocation counter for the micro benches.
 *
 * Linking alloc_count.cc replaces the global operator new: while
 * counting is on, every allocation through it bumps one counter, and
 * the replaced operator new and delete keep a running total of the
 * live bytes (malloc_usable_size of each block) and its high-water
 * mark.
 * Callers keep every other thread idle while they count, so the count
 * is the measured code's. Sanitizer builds keep the default operators
 * (the sanitizers interpose their own) and report the hook as absent.
 */

#ifndef CEER_BENCH_ALLOC_COUNT_H
#define CEER_BENCH_ALLOC_COUNT_H

#include <cstdint>

namespace ceer {
namespace bench {

/** False in sanitizer builds, where allocations are not counted. */
bool allocHookAvailable();

/** Resets the counter to zero and starts counting. */
void startAllocCount();

/** Stops counting and returns the allocations since the start. */
std::uint64_t stopAllocCount();

/**
 * High-water mark of the operator-new bytes live between the last
 * startAllocCount() and stopAllocCount(), counted from zero at the
 * start: the most heap the counted code held at once beyond what was
 * live before it.
 */
std::uint64_t peakAllocBytes();

} // namespace bench
} // namespace ceer

#endif // CEER_BENCH_ALLOC_COUNT_H
