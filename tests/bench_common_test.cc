/**
 * @file
 * Tests for the shared bench infrastructure: a paper check outside its
 * band must fail the bench process.
 */

#include <gtest/gtest.h>

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

} // namespace
} // namespace bench
} // namespace ceer
