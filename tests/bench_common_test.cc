/**
 * @file
 * Tests for the shared bench infrastructure: a paper check outside its
 * band must fail the bench process, and the micro benches' trial runner
 * must judge a sweep from its trial vectors alone (these tests read no
 * clock: every trial is made up).
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "bench/common.h"

namespace ceer {
namespace bench {
namespace {

TEST(CheckSummaryTest, AllChecksInBandExitZero)
{
    CheckSummary summary;
    summary.check("ratio", 10.0, 8.0, 12.0);
    summary.check("share", 0.5, 0.0, 1.0);
    EXPECT_EQ(summary.finish(), 0);
}

TEST(CheckSummaryTest, AnyCheckOutOfBandExitsNonzero)
{
    CheckSummary summary;
    summary.check("ratio", 10.0, 8.0, 12.0);
    summary.check("share", 1.5, 0.0, 1.0);
    summary.check("count", 3.0, 1.0, 5.0);
    EXPECT_EQ(summary.finish(), 1);
}

/** The document @p doc renders to. */
std::string
render(const JsonObject &doc)
{
    std::ostringstream out;
    doc.write(out);
    return out.str();
}

/** A row whose wall and CPU trials are @p sortedMs. */
ScalingRow
row(int threads, std::vector<double> sortedMs, bool identical = true)
{
    ScalingRow r;
    r.threads = threads;
    r.trials.wallMs = sortedMs;
    r.trials.cpuMs = std::move(sortedMs);
    r.identical = identical;
    return r;
}

/** 1, 2, 4 and 8 threads; the 4- and 8-thread rows run slower. */
std::vector<ScalingRow>
sweepRows()
{
    std::vector<ScalingRow> rows;
    rows.push_back(row(1, {9.0, 10.0, 30.0}));  // median 10, mean 16.3
    rows.push_back(row(2, {4.0, 5.0, 100.0}));  // median 5: 2x
    rows.push_back(row(4, {11.0, 12.5, 13.0})); // median 12.5: 0.8x
    rows.push_back(row(8, {20.0, 20.0, 20.0})); // median 20: 0.5x
    return rows;
}

TEST(BenchFlagsTest, NonPositiveSizesExitNamingTheFlag)
{
    // Each would otherwise reach a library panic (SIGABRT) mid-run.
    for (const char *flag : {"--iters", "--eval-iters", "--batch"}) {
        const char *argv[] = {"bench", flag, "0"};
        EXPECT_EXIT(parseBenchFlags(3, const_cast<char **>(argv)),
                    ::testing::ExitedWithCode(1),
                    std::string("flag ") + flag + " expects a value in "
                                                  "\\[1, ")
            << flag;
    }
}

TEST(TrialRunnerTest, MedianMinMaxOfOddAndEvenCounts)
{
    EXPECT_DOUBLE_EQ(median({1.0, 2.0, 9.0}), 2.0);
    EXPECT_DOUBLE_EQ(median({1.0, 2.0, 3.0, 10.0}), 2.5);
    EXPECT_DOUBLE_EQ(median({7.0}), 7.0);

    JsonObject doc;
    doc.object("odd", spreadJson({1.0, 2.0, 9.0}))
        .object("even", spreadJson({1.0, 2.0, 3.0, 10.0}));
    EXPECT_EQ(render(doc),
              "{\n"
              "  \"odd\": {\"median\": 2.000, \"min\": 1.000, "
              "\"max\": 9.000},\n"
              "  \"even\": {\"median\": 2.500, \"min\": 1.000, "
              "\"max\": 10.000}\n"
              "}\n");
}

TEST(TrialRunnerTest, SpeedupAndBelowSerialComeFromMedians)
{
    const ScalingSweep sweep = judgeSweep(sweepRows(), 4);
    ASSERT_EQ(sweep.rows.size(), 4u);
    EXPECT_FALSE(sweep.skippedScaling);
    EXPECT_DOUBLE_EQ(sweep.rows[0].speedup, 1.0);
    EXPECT_DOUBLE_EQ(sweep.rows[1].speedup, 2.0);
    EXPECT_DOUBLE_EQ(sweep.rows[2].speedup, 0.8);
    EXPECT_DOUBLE_EQ(sweep.rows[3].speedup, 0.5);
    EXPECT_FALSE(sweep.rows[0].belowSerial);
    EXPECT_FALSE(sweep.rows[1].belowSerial);
    EXPECT_TRUE(sweep.rows[2].belowSerial);
    // Past the hardware's 4 threads a row measures scheduling.
    EXPECT_FALSE(sweep.rows[3].belowSerial);
    EXPECT_EQ(sweep.belowSerial(), 1);

    // The one row shape, in its field order.
    JsonObject doc;
    doc.array("rows", sweep.rowsJson());
    EXPECT_NE(render(doc).find(
                  "{\"threads\": 4, \"trials\": 3, \"wall_ms\": "
                  "{\"median\": 12.500, \"min\": 11.000, \"max\": "
                  "13.000}, \"cpu_ms\": {\"median\": 12.500, \"min\": "
                  "11.000, \"max\": 13.000}, \"speedup\": 0.8000, "
                  "\"identical\": true, \"below_serial\": true}"),
              std::string::npos)
        << render(doc);
}

TEST(TrialRunnerTest, OneHardwareThreadSkipsScaling)
{
    const ScalingSweep sweep = judgeSweep(sweepRows(), 1);
    EXPECT_TRUE(sweep.skippedScaling);
    EXPECT_EQ(sweep.belowSerial(), 0);
    EXPECT_DOUBLE_EQ(sweep.rows[2].speedup, 0.8);

    JsonObject doc;
    sweep.addFields(doc);
    EXPECT_EQ(render(doc), "{\n"
                           "  \"hardware_threads\": 1,\n"
                           "  \"skipped_scaling\": true,\n"
                           "  \"below_serial_measurements\": 0\n"
                           "}\n");
}

TEST(TrialRunnerTest, DifferingResultFailsTheBench)
{
    std::vector<ScalingRow> rows = sweepRows();
    JsonObject same_doc;
    EXPECT_TRUE(judgeSweep(rows, 4).identical());
    EXPECT_EQ(finishBench("", same_doc, judgeSweep(rows, 4).identical()),
              0);

    rows[1].identical = false;
    const ScalingSweep sweep = judgeSweep(rows, 4);
    EXPECT_FALSE(sweep.identical());
    JsonObject doc;
    doc.array("rows", sweep.rowsJson());
    EXPECT_NE(render(doc).find("{\"threads\": 2, "), std::string::npos);
    EXPECT_NE(render(doc).find("\"identical\": false"), std::string::npos);
    EXPECT_EQ(finishBench("", doc, sweep.identical()), 1);
}

TEST(TrialRunnerTest, ThreadSweepAlwaysChecksTwoAndFourThreads)
{
    EXPECT_EQ(threadSweep(1), (std::vector<int>{1, 2, 4}));
    EXPECT_EQ(threadSweep(4), (std::vector<int>{1, 2, 4}));
    EXPECT_EQ(threadSweep(12), (std::vector<int>{1, 2, 4, 8}));
    EXPECT_EQ(threadSweep(16), (std::vector<int>{1, 2, 4, 8, 16}));
}

} // namespace
} // namespace bench
} // namespace ceer
