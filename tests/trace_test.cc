/**
 * @file
 * Tests for the iteration-timeline (Chrome tracing) exporter.
 */

#include <sstream>

#include <gtest/gtest.h>

#include "models/model_zoo.h"
#include "obs/trace_sink.h"
#include "sim/trace.h"

namespace ceer {
namespace sim {
namespace {

IterationTrace
sampleTrace()
{
    const graph::Graph g = models::buildInceptionV1(8);
    SimConfig config;
    config.seed = 31337;
    return traceIteration(g, config);
}

TEST(TraceTest, OneEventPerNodePlusSync)
{
    const graph::Graph g = models::buildInceptionV1(8);
    SimConfig config;
    const IterationTrace trace = traceIteration(g, config);
    EXPECT_EQ(trace.events().size(), g.size() + 1);
    EXPECT_EQ(trace.events().back().category, "Communication");
    EXPECT_EQ(trace.events().back().lane, 2);
}

TEST(TraceTest, LanesArePackedWithoutOverlap)
{
    const IterationTrace trace = sampleTrace();
    double cursor[2] = {0.0, 0.0};
    for (const auto &event : trace.events()) {
        if (event.lane > 1)
            continue;
        // Sequential layout: each event starts where the previous one
        // on its lane ended.
        EXPECT_NEAR(event.startUs, cursor[event.lane], 1e-9)
            << event.name;
        cursor[event.lane] = event.startUs + event.durationUs;
        EXPECT_GT(event.durationUs, 0.0) << event.name;
    }
}

TEST(TraceTest, TotalsAreConsistent)
{
    const graph::Graph g = models::buildAlexNet(8);
    SimConfig config;
    config.seed = 7;
    const IterationTrace trace = traceIteration(g, config);
    // GPU + CPU lane totals plus comm should bound the iteration total
    // (total = max(gpu, cpu) + comm in the additive model).
    double lane_us[3] = {0.0, 0.0, 0.0};
    for (const auto &event : trace.events()) {
        ASSERT_GE(event.lane, 0);
        ASSERT_LE(event.lane, 2);
        lane_us[event.lane] += event.durationUs;
    }
    const double gpu = lane_us[0];
    const double cpu = lane_us[1];
    const double comm = lane_us[2];
    EXPECT_NEAR(trace.totalUs(), gpu + cpu + comm, 1e-6);
    EXPECT_GT(gpu, cpu); // GPU work dominates a CNN iteration.
}

TEST(TraceTest, ChromeJsonIsWellFormed)
{
    const IterationTrace trace = sampleTrace();
    std::ostringstream out;
    trace.writeChromeTrace(out);
    const std::string text = out.str();
    ASSERT_FALSE(text.empty());
    EXPECT_EQ(text.front(), '[');
    EXPECT_EQ(text[text.size() - 2], ']');
    // Balanced braces and the metadata records present.
    EXPECT_EQ(std::count(text.begin(), text.end(), '{'),
              std::count(text.begin(), text.end(), '}'));
    EXPECT_NE(text.find("\"ph\": \"X\""), std::string::npos);
    EXPECT_NE(text.find("GPU stream"), std::string::npos);
    EXPECT_NE(text.find("synchronization"), std::string::npos);
    // No trailing comma before the closing bracket.
    EXPECT_EQ(text.find(",\n]"), std::string::npos);
}

TEST(TraceTest, ChromeJsonEscapesControlCharacters)
{
    // Raw \r, \b, \f or other control bytes inside an event name once
    // reached the output verbatim and produced invalid JSON. Every
    // byte below 0x20 must come out as an escape sequence.
    const std::string hostile("tab\there\r\n back\b feed\f bell\x07"
                              " nul\x00 quote\" slash\\ unit\x1f",
                              53);
    const std::string escaped = obs::chromeJsonEscape(hostile);
    for (char c : escaped)
        EXPECT_GE(static_cast<unsigned char>(c), 0x20u)
            << "raw control byte leaked into JSON";
    EXPECT_NE(escaped.find("\\t"), std::string::npos);
    EXPECT_NE(escaped.find("\\r"), std::string::npos);
    EXPECT_NE(escaped.find("\\n"), std::string::npos);
    EXPECT_NE(escaped.find("\\b"), std::string::npos);
    EXPECT_NE(escaped.find("\\f"), std::string::npos);
    EXPECT_NE(escaped.find("\\u0007"), std::string::npos);
    EXPECT_NE(escaped.find("\\u0000"), std::string::npos);
    EXPECT_NE(escaped.find("\\u001f"), std::string::npos);
    EXPECT_NE(escaped.find("\\\""), std::string::npos);
    EXPECT_NE(escaped.find("\\\\"), std::string::npos);

    // Round trip through a full document: it stays structurally
    // sound (quotes balance, no raw control bytes).
    std::ostringstream out;
    const obs::TraceSpan span{hostile, "cat", 0.0, 1.0, 0};
    obs::writeChromeTrace(out, {&span, 1}, {});
    const std::string line = out.str();
    for (char c : line) {
        if (c != '\n') {
            EXPECT_GE(static_cast<unsigned char>(c), 0x20u);
        }
    }
}

TEST(TraceTest, ChromeTraceUsesSharedWriter)
{
    // obs::TraceSink and sim::IterationTrace both write through
    // obs::writeChromeTrace; its document format is pinned here.
    const std::vector<obs::TraceSpan> spans = {
        {"conv", "Conv2D", 0.0, 1.5, 0},
        {"sync (k=2)", "Communication", 1.5, 0.25, 2}};
    const std::string lanes[] = {"GPU stream", "host"};
    std::ostringstream doc;
    obs::writeChromeTrace(doc, spans, lanes);
    EXPECT_EQ(doc.str(),
              "[\n"
              "  {\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, "
              "\"tid\": 0, \"args\": {\"name\": \"GPU stream\"}},\n"
              "  {\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, "
              "\"tid\": 1, \"args\": {\"name\": \"host\"}},\n"
              "  {\"name\": \"conv\", \"cat\": \"Conv2D\", \"ph\": \"X\", "
              "\"ts\": 0.000, \"dur\": 1.500, \"pid\": 1, \"tid\": 0},\n"
              "  {\"name\": \"sync (k=2)\", \"cat\": \"Communication\", "
              "\"ph\": \"X\", \"ts\": 1.500, \"dur\": 0.250, \"pid\": 1, "
              "\"tid\": 2}\n"
              "]\n");

    // An iteration timeline is that document over its three lanes.
    const IterationTrace trace = sampleTrace();
    std::ostringstream actual, expected;
    trace.writeChromeTrace(actual);
    const std::string lane_names[] = {"GPU stream", "host (CPU ops)",
                                      "synchronization"};
    obs::writeChromeTrace(expected, trace.events(), lane_names);
    EXPECT_EQ(actual.str(), expected.str());
}

TEST(TraceTest, CategoriesAreOpTypeNames)
{
    const IterationTrace trace = sampleTrace();
    bool saw_conv = false, saw_cpu_op = false;
    for (const auto &event : trace.events()) {
        saw_conv |= event.category == "Conv2D" && event.lane == 0;
        saw_cpu_op |=
            event.category == "IteratorGetNext" && event.lane == 1;
    }
    EXPECT_TRUE(saw_conv);
    EXPECT_TRUE(saw_cpu_op);
}

} // namespace
} // namespace sim
} // namespace ceer
