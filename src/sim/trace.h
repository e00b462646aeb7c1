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

#include "obs/trace_sink.h"
#include "sim/simulator.h"

namespace ceer {
namespace sim {

/** A recorded iteration. */
class IterationTrace
{
  public:
    /**
     * All events, in start order per lane: op spans (category = op
     * type name) on lane 0 (GPU stream) or 1 (host), then the
     * "Communication" sync span on lane 2.
     */
    const std::vector<obs::TraceSpan> &events() const { return events_; }

    /** Total iteration span in microseconds. */
    double totalUs() const { return totalUs_; }

    /** Appends one event (used by traceIteration). */
    void add(obs::TraceSpan event);

    /** Sets the iteration span. */
    void setTotalUs(double total) { totalUs_ = total; }

    /**
     * Writes the trace as a Chrome tracing JSON document
     * (array-of-events form with "X" complete events).
     */
    void writeChromeTrace(std::ostream &out) const;

  private:
    std::vector<obs::TraceSpan> events_;
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
