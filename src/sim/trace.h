/**
 * @file
 * Iteration timelines: records one simulated training iteration as a
 * sequence of timed op events and exports it in the Chrome tracing
 * JSON format (chrome://tracing, Perfetto), the same way TensorFlow's
 * timeline did for the paper's measurements.
 *
 * The simulator's additive model serializes ops per device, so the
 * timeline lays out GPU ops back-to-back on a GPU lane, CPU ops on a
 * host lane, and the communication overhead as a closing sync event.
 */

#ifndef CEER_SIM_TRACE_H
#define CEER_SIM_TRACE_H

#include <iosfwd>
#include <string>
#include <vector>

#include "sim/simulator.h"

namespace ceer {
namespace sim {

/** One timed op occurrence in the timeline. */
struct TraceEvent
{
    std::string name;     ///< Node name.
    std::string category; ///< Op type name.
    double startUs = 0.0; ///< Start offset within the iteration.
    double durationUs = 0.0; ///< Sampled compute time.
    int lane = 0;         ///< 0 = GPU stream, 1 = host, 2 = comm.
};

/** A recorded iteration. */
class IterationTrace
{
  public:
    /** All events, in start order per lane. */
    const std::vector<TraceEvent> &events() const { return events_; }

    /** Total iteration span in microseconds. */
    double totalUs() const { return totalUs_; }

    /** Appends one event (used by traceIteration). */
    void add(TraceEvent event);

    /** Sets the iteration span. */
    void setTotalUs(double total) { totalUs_ = total; }

    /**
     * Writes the trace as a Chrome tracing JSON document
     * (array-of-events form with "X" complete events).
     */
    void writeChromeTrace(std::ostream &out) const;

  private:
    std::vector<TraceEvent> events_;
    double totalUs_ = 0.0;
};

/**
 * Runs one iteration of @p g under @p config and records the timeline
 * of replica 0 plus the synchronization phase.
 */
IterationTrace traceIteration(const graph::Graph &g,
                              const SimConfig &config);

} // namespace sim
} // namespace ceer

#endif // CEER_SIM_TRACE_H
