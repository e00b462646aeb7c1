/**
 * @file
 * The benchmark's own span recorder for the traced run.
 *
 * Spans are recorded from the benchmark's files around each public
 * call it makes into the system: name, start, end, parent span and a
 * request id shared by the spans of one request or pipeline. They stay
 * in memory and are written once, at exit, as a Chrome trace (the
 * array-of-events document obs::TraceSink emits, plus an "args" object
 * carrying id, parent and request). When the recorder is off a Scope
 * costs one branch.
 */

#ifndef PERFBENCH_SPANS_H
#define PERFBENCH_SPANS_H

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/** One recorded span; times in microseconds from the recorder's origin. */
struct Span
{
    std::string name;
    std::int64_t request = -1; ///< Shared by the spans of one request.
    int parent = -1;           ///< Index of the enclosing span, or -1.
    double startUs = 0.0;
    double endUs = 0.0;
    int lane = 0; ///< Recording thread.

    double durationUs() const { return endUs - startUs; }
};

/** Process-wide in-memory span store. */
class SpanRecorder
{
  public:
    static SpanRecorder &instance();

    void setEnabled(bool on) { enabled_ = on; }
    bool enabled() const { return enabled_; }

    /** Opens a span on the calling thread; -1 when disabled. */
    int begin(const char *name, std::int64_t request);
    /** Closes span @p index (from begin()). */
    void end(int index);

    /** All spans (call once recording threads are done). */
    const std::vector<Span> &spans() const { return spans_; }

    /** Durations of every span named @p name. */
    std::vector<double> durationsUs(const std::string &name) const;

    /** Self times (duration minus the part covered by child spans) of
     *  every span named @p name. */
    std::vector<double> selfTimesUs(const std::string &name) const;

    /** Summed self time per layer (the name up to its first '.'). */
    std::vector<std::pair<std::string, double>> layerSelfTimesUs() const;

    /** Writes the Chrome trace; false with @p error on I/O failure. */
    bool writeChromeTrace(const std::string &path,
                          std::string *error) const;

  private:
    SpanRecorder();
    double nowUs() const;
    double selfTimeUs(std::size_t index,
                      const std::vector<std::vector<int>> &children) const;
    std::vector<std::vector<int>> childLists() const;

    bool enabled_ = false;
    double originUs_ = 0.0;
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
    int nextLane_ = 0;
};

/** RAII span around one call. */
class Scope
{
  public:
    explicit Scope(const char *name, std::int64_t request = -1)
        : index_(SpanRecorder::instance().enabled()
                     ? SpanRecorder::instance().begin(name, request)
                     : -1)
    {
    }
    ~Scope()
    {
        if (index_ >= 0)
            SpanRecorder::instance().end(index_);
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    int index_;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_H
