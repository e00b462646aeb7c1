/**
 * @file
 * Cross-subsystem trace spans: a process-wide sink collecting timed
 * spans from any layer (profiling runs, trainer fits, recommender
 * sweeps) and exporting them in the Chrome tracing JSON format through
 * writeChromeTrace() below, the writer sim::IterationTrace uses too.
 *
 * Recording is gated on obs::enabled(): a ScopedSpan constructed while
 * observability is off arms nothing and its destructor is a branch.
 * Each recording thread gets its own lane (Chrome "tid") so concurrent
 * spans render side by side instead of overlapping.
 */

#ifndef CEER_OBS_TRACE_SINK_H
#define CEER_OBS_TRACE_SINK_H

#include <atomic>
#include <chrono>
#include <cstddef>
#include <iosfwd>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.h"

namespace ceer {
namespace obs {

/** One completed span (microsecond offsets from the sink's origin). */
struct TraceSpan
{
    std::string name;
    std::string category;
    double startUs = 0.0;
    double durationUs = 0.0;
    int lane = 0; ///< Chrome "tid": one lane per recording thread.

    friend bool operator==(const TraceSpan &,
                           const TraceSpan &) = default;
};

// Chrome-trace writing, shared by TraceSink and sim::IterationTrace.

/** Escapes a string for embedding in a JSON literal. */
std::string chromeJsonEscape(const std::string &text);

/** Emits one `thread_name` metadata event line (trailing comma). */
void chromeThreadNameEvent(std::ostream &out, int tid,
                           const std::string &name);

/**
 * Writes @p spans as a Chrome tracing JSON document (array-of-events
 * form with "X" complete events), preceded by one `thread_name`
 * metadata event per entry of @p lane_names (lane i is tid i).
 */
void writeChromeTrace(std::ostream &out, std::span<const TraceSpan> spans,
                      std::span<const std::string> lane_names);

/**
 * Process-wide span collector. All methods are thread-safe; record()
 * appends under a mutex (spans complete at most once per instrumented
 * region, so the sink is never on a per-sample hot path).
 */
class TraceSink
{
  public:
    /** The process-wide sink used by ScopedSpan. */
    static TraceSink &instance();

    TraceSink();

    /** Microseconds since the sink's construction (steady clock). */
    double nowUs() const;

    /** Lane id of the calling thread (assigned on first use). */
    int laneForThisThread();

    /** Appends one completed span. */
    void record(TraceSpan span);

    /** Copies all recorded spans. */
    std::vector<TraceSpan> spans() const;

    /** Number of recorded spans. */
    std::size_t size() const;

    /** Drops all recorded spans (lane ids are kept). */
    void clear();

    /**
     * Writes every recorded span as a Chrome tracing JSON document,
     * with per-lane `thread_name` metadata ("worker <lane>").
     */
    void writeChromeTrace(std::ostream &out) const;

    /**
     * Writes the trace to @p path. Returns false (with *error set
     * when non-null) if the file cannot be written.
     */
    bool tryWriteFile(const std::string &path, std::string *error) const;

  private:
    mutable std::mutex mutex_;
    std::vector<TraceSpan> spans_;
    std::chrono::steady_clock::time_point origin_;
    std::atomic<int> nextLane_{0};
};

/**
 * RAII span: arms only when obs::enabled() at construction, and
 * records [construction, destruction) into TraceSink::instance().
 * The name and category are copied only when the span arms, so a
 * disarmed span allocates nothing. Build the name lazily at the call
 * site (inside an enabled() check) when formatting it is not free.
 */
class ScopedSpan
{
  public:
    explicit ScopedSpan(std::string_view name,
                        std::string_view category = "obs");
    ~ScopedSpan();
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    bool armed_ = false;
    std::string name_;
    std::string category_;
    double startUs_ = 0.0;
};

} // namespace obs
} // namespace ceer

/** Traces the enclosing scope as a span named @p name. */
#define OBS_SPAN(name, category)                                       \
    ::ceer::obs::ScopedSpan CEER_OBS_CAT(obs_span_, __LINE__)(         \
        (name), (category))

#endif // CEER_OBS_TRACE_SINK_H
