/**
 * @file
 * Unit tests for the util module: statistics, RNG, CSV, strings, tables.
 */

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <span>
#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "util/csv.h"
#include "util/flags.h"
#include "util/parse.h"
#include "util/random.h"
#include "util/stats.h"
#include "util/strings.h"
#include "util/table.h"

namespace ceer {
namespace util {
namespace {

TEST(RunningStatsTest, EmptyIsZero)
{
    RunningStats stats;
    EXPECT_EQ(stats.count(), 0u);
    EXPECT_DOUBLE_EQ(stats.mean(), 0.0);
    EXPECT_DOUBLE_EQ(stats.variance(), 0.0);
    EXPECT_DOUBLE_EQ(stats.normalizedStddev(), 0.0);
}

TEST(RunningStatsTest, MeanAndVarianceMatchClosedForm)
{
    RunningStats stats;
    for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        stats.add(x);
    EXPECT_EQ(stats.count(), 8u);
    EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
    // Sample variance of the classic dataset is 32/7.
    EXPECT_NEAR(stats.variance(), 32.0 / 7.0, 1e-12);
    EXPECT_DOUBLE_EQ(stats.min(), 2.0);
    EXPECT_DOUBLE_EQ(stats.max(), 9.0);
}

TEST(RunningStatsTest, MergeMatchesSequential)
{
    RunningStats combined, a, b;
    for (int i = 0; i < 100; ++i) {
        const double x = std::sin(i) * 10.0 + i * 0.25;
        combined.add(x);
        (i < 37 ? a : b).add(x);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), combined.count());
    EXPECT_NEAR(a.mean(), combined.mean(), 1e-9);
    EXPECT_NEAR(a.variance(), combined.variance(), 1e-9);
    EXPECT_DOUBLE_EQ(a.min(), combined.min());
    EXPECT_DOUBLE_EQ(a.max(), combined.max());
}

TEST(RunningStatsTest, MergedChunksMatchSinglePass)
{
    // The parallel simulator accumulates fixed-size chunks and merges
    // them in order; the result must match a single-pass accumulation
    // on count, mean, and variance for any chunking.
    std::vector<double> data;
    for (int i = 0; i < 257; ++i)
        data.push_back(std::cos(i * 0.37) * 40.0 + i * 0.11);

    RunningStats single_pass;
    for (double x : data)
        single_pass.add(x);

    for (std::size_t chunk : {1u, 7u, 32u, 256u, 1000u}) {
        RunningStats merged;
        for (std::size_t start = 0; start < data.size(); start += chunk) {
            RunningStats part;
            const std::size_t stop =
                std::min(start + chunk, data.size());
            for (std::size_t i = start; i < stop; ++i)
                part.add(data[i]);
            merged.merge(part);
        }
        SCOPED_TRACE(chunk);
        EXPECT_EQ(merged.count(), single_pass.count());
        EXPECT_NEAR(merged.mean(), single_pass.mean(), 1e-9);
        EXPECT_NEAR(merged.variance(), single_pass.variance(), 1e-9);
        EXPECT_DOUBLE_EQ(merged.min(), single_pass.min());
        EXPECT_DOUBLE_EQ(merged.max(), single_pass.max());
    }
}

TEST(RunningStatsTest, MergeWithEmptyChunkIsIdentity)
{
    RunningStats filled;
    for (double x : {1.5, -2.0, 8.25})
        filled.add(x);
    const RunningStats empty;

    // Non-empty <- empty: nothing changes, bit for bit.
    RunningStats a = filled;
    a.merge(empty);
    EXPECT_EQ(a.count(), filled.count());
    EXPECT_DOUBLE_EQ(a.mean(), filled.mean());
    EXPECT_DOUBLE_EQ(a.variance(), filled.variance());
    EXPECT_DOUBLE_EQ(a.min(), filled.min());
    EXPECT_DOUBLE_EQ(a.max(), filled.max());

    // Empty <- non-empty: adopts the source exactly.
    RunningStats b;
    b.merge(filled);
    EXPECT_EQ(b.count(), filled.count());
    EXPECT_DOUBLE_EQ(b.mean(), filled.mean());
    EXPECT_DOUBLE_EQ(b.variance(), filled.variance());
    EXPECT_DOUBLE_EQ(b.min(), filled.min());
    EXPECT_DOUBLE_EQ(b.max(), filled.max());

    // Empty <- empty stays empty.
    RunningStats c;
    c.merge(empty);
    EXPECT_EQ(c.count(), 0u);
    EXPECT_DOUBLE_EQ(c.variance(), 0.0);
}

TEST(RunningStatsTest, MergeOfSingleElementChunksMatchesAdds)
{
    // Degenerate chunking: every chunk holds one element (variance of
    // each part is zero; the merge must still build the right moments).
    RunningStats merged, added;
    for (double x : {3.0, 3.0, 4.5, -1.0, 0.0, 12.5}) {
        added.add(x);
        RunningStats one;
        one.add(x);
        merged.merge(one);
    }
    EXPECT_EQ(merged.count(), added.count());
    EXPECT_NEAR(merged.mean(), added.mean(), 1e-12);
    EXPECT_NEAR(merged.variance(), added.variance(), 1e-12);
}

TEST(RunningStatsTest, NormalizedStddevIsCoefficientOfVariation)
{
    RunningStats stats;
    stats.add(90.0);
    stats.add(110.0);
    // mean 100, sample stddev sqrt(200) ~ 14.14 -> CV ~ 0.1414.
    EXPECT_NEAR(stats.normalizedStddev(), std::sqrt(200.0) / 100.0,
                1e-12);
}

TEST(MedianTest, OddAndEvenCounts)
{
    EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
    EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
    EXPECT_DOUBLE_EQ(median(std::vector<double>{}), 0.0);
}

TEST(PercentileTest, InterpolatesBetweenRanks)
{
    std::vector<double> values{10.0, 20.0, 30.0, 40.0};
    EXPECT_DOUBLE_EQ(percentile(values, 0.0), 10.0);
    EXPECT_DOUBLE_EQ(percentile(values, 100.0), 40.0);
    EXPECT_DOUBLE_EQ(percentile(values, 50.0), 25.0);
    EXPECT_DOUBLE_EQ(percentile(values, 25.0), 17.5);
}

TEST(PercentileTest, SelectionMatchesSortedReferenceBitForBit)
{
    // percentile() selects its two ranks; the reference sorts. Both
    // read the same order statistics, so every result must agree to
    // the bit: odd and even sizes, many duplicates, the end ranks and
    // fractional ones.
    const auto reference = [](std::vector<double> values, double p) {
        std::sort(values.begin(), values.end());
        const double rank =
            p / 100.0 * static_cast<double>(values.size() - 1);
        const std::size_t lo = static_cast<std::size_t>(std::floor(rank));
        const std::size_t hi = static_cast<std::size_t>(std::ceil(rank));
        if (lo == hi)
            return values[lo];
        const double frac = rank - static_cast<double>(lo);
        return values[lo] * (1.0 - frac) + values[hi] * frac;
    };
    const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
    Rng rng(2024);
    for (std::size_t n : {1u, 2u, 3u, 10u, 11u, 64u, 257u, 1000u}) {
        for (int trial = 0; trial < 20; ++trial) {
            // Even trials draw from 5 values, so most entries repeat.
            std::vector<double> values(n);
            for (double &v : values)
                v = trial % 2 == 0 ? std::floor(rng.uniform(1.0, 6.0))
                                   : rng.uniform(0.5, 1000.0);
            SCOPED_TRACE(testing::Message() << n << "/" << trial);
            EXPECT_EQ(bits(median(values)), bits(reference(values, 50.0)));
            for (double p : {0.0, 100.0, 12.5, 33.3, 50.0, 90.0, 99.9,
                             rng.uniform(0.0, 100.0)})
                EXPECT_EQ(bits(percentile(values, p)),
                          bits(reference(values, p)))
                    << "p = " << p;
        }
    }
}

TEST(PercentileTest, SpansMatchSortedConcatenationBitForBit)
{
    // The span form selects in place over the parts; the reference
    // concatenates and sorts (-0.0 below +0.0). Every result must agree
    // to the bit: empty and one-element spans, heavy duplicates, odd
    // and even totals, subnormal and huge values, split anywhere.
    const auto before = [](double a, double b) {
        return a < b || (a == b && std::signbit(a) && !std::signbit(b));
    };
    const auto reference = [&](std::vector<double> values, double p) {
        if (values.empty())
            return 0.0;
        std::sort(values.begin(), values.end(), before);
        const double rank =
            p / 100.0 * static_cast<double>(values.size() - 1);
        const std::size_t lo = static_cast<std::size_t>(std::floor(rank));
        const std::size_t hi = static_cast<std::size_t>(std::ceil(rank));
        if (lo == hi)
            return values[lo];
        const double frac = rank - static_cast<double>(lo);
        return values[lo] * (1.0 - frac) + values[hi] * frac;
    };
    const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
    const double extremes[] = {
        0.0, -0.0, std::numeric_limits<double>::denorm_min(),
        -std::numeric_limits<double>::denorm_min(), 4.9e-320, 2.2e-308,
        1.0, -1.0, 1e300, -1e300, std::numeric_limits<double>::max(),
        std::numeric_limits<double>::lowest()};
    Rng rng(2025);
    for (std::size_t n : {0u, 1u, 2u, 3u, 10u, 11u, 64u, 257u, 1000u,
                          4099u}) {
        for (int trial = 0; trial < 12; ++trial) {
            std::vector<double> values(n);
            for (double &v : values) {
                switch (trial % 4) {
                case 0: // a few values, repeated heavily
                    v = std::floor(rng.uniform(1.0, 4.0));
                    break;
                case 1: // distinct timings
                    v = rng.uniform(0.5, 1000.0);
                    break;
                case 2: // subnormal, huge, signed and zero values
                    v = extremes[static_cast<std::size_t>(
                        rng.uniform(0.0, 12.0))];
                    break;
                default: // one value throughout but the sign of zero
                    v = rng.uniform(0.0, 1.0) < 0.5 ? 0.0 : -0.0;
                }
            }
            // Cut the values into up to 5 spans at random points, empty
            // and one-element spans included.
            std::vector<std::size_t> cuts{0, n};
            const int extra = static_cast<int>(rng.uniform(0.0, 5.0));
            for (int c = 0; c < extra; ++c)
                cuts.push_back(
                    static_cast<std::size_t>(rng.uniform(0.0, 1.0) * n));
            if (n > 1 && trial % 3 == 0) {
                cuts.push_back(1);
                cuts.push_back(n - 1);
            }
            std::sort(cuts.begin(), cuts.end());
            std::vector<std::span<const double>> parts;
            for (std::size_t c = 0; c + 1 < cuts.size(); ++c)
                parts.push_back(std::span(values).subspan(
                    cuts[c], cuts[c + 1] - cuts[c]));
            SCOPED_TRACE(testing::Message()
                         << n << "/" << trial << ", " << parts.size()
                         << " spans");
            EXPECT_EQ(bits(median(parts)), bits(reference(values, 50.0)));
            for (double p : {0.0, 50.0, 90.0, 95.0, 99.0, 100.0, 12.5,
                             rng.uniform(0.0, 100.0)})
                EXPECT_EQ(bits(percentile(parts, p)),
                          bits(reference(values, p)))
                    << "p = " << p;
        }
    }
}

TEST(PercentileTest, NaNRankOrValueDies)
{
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const std::vector<double> clean{1.0, 2.0, 3.0};
    const std::vector<double> dirty{4.0, nan};
    const std::span<const double> parts[] = {clean, dirty};
    EXPECT_DEATH(percentile(clean, nan), "NaN rank");
    EXPECT_DEATH(median(std::span(parts)), "NaN value");
    EXPECT_DEATH(percentile(dirty, 100.0), "NaN value");
    EXPECT_DEATH(percentile(std::vector<double>{}, nan), "NaN rank");
}

TEST(SampleReservoirTest, RetainsEverythingBelowCapacity)
{
    SampleReservoir reservoir(100);
    for (int i = 1; i <= 99; ++i)
        reservoir.add(i);
    EXPECT_EQ(reservoir.offered(), 99u);
    EXPECT_EQ(reservoir.samples().size(), 99u);
    EXPECT_DOUBLE_EQ(median(reservoir.samples()), 50.0);
}

TEST(SampleReservoirTest, BoundedAboveCapacityAndRepresentative)
{
    SampleReservoir reservoir(512);
    for (int i = 0; i < 100000; ++i)
        reservoir.add(static_cast<double>(i % 1000));
    EXPECT_EQ(reservoir.samples().size(), 512u);
    // Median of a uniform 0..999 stream should be near 500.
    EXPECT_NEAR(median(reservoir.samples()), 500.0, 80.0);
}

TEST(ReservoirScheduleTest, ReplaysAddBitForBit)
{
    // Offers replayed in place through the schedule must rebuild
    // exactly the reservoir add() keeps: same samples in the same
    // slots, same offered count, same RNG state. Each slot the schedule
    // draws is a kept slot or capacity(), the drop mark.
    for (std::size_t capacity : {1u, 7u, 64u}) {
        const ReservoirSchedule schedule(capacity, 5000);
        ASSERT_EQ(schedule.maxOffered(), 5000u);
        for (std::size_t offered :
             {std::size_t{0}, std::size_t{1}, capacity, capacity + 1,
              std::size_t{777}, std::size_t{5000}}) {
            SCOPED_TRACE(testing::Message() << capacity << "/" << offered);
            SampleReservoir expected(capacity);
            SampleReservoir replayed(capacity);
            for (std::size_t j = 1; j <= offered; ++j) {
                const double x = std::sin(static_cast<double>(j)) * 100.0;
                expected.add(x);
                replayed.replay(x, schedule);
                ASSERT_LE(schedule.slot(j), capacity);
            }
            EXPECT_EQ(replayed.capacity(), expected.capacity());
            EXPECT_EQ(replayed.offered(), expected.offered());
            EXPECT_EQ(replayed.rngState(), expected.rngState());
            EXPECT_EQ(replayed.rngState(), schedule.rngState(offered));
            EXPECT_EQ(replayed.samples(), expected.samples());
        }
    }
}

TEST(EmpiricalCdfTest, MonotoneAndBounded)
{
    std::vector<double> values;
    for (int i = 0; i < 1000; ++i)
        values.push_back(std::fmod(i * 0.7153, 1.0));
    const auto cdf = empiricalCdf(values, 50);
    ASSERT_LE(cdf.size(), 50u);
    ASSERT_GE(cdf.size(), 2u);
    for (std::size_t i = 1; i < cdf.size(); ++i) {
        EXPECT_LE(cdf[i - 1].value, cdf[i].value);
        EXPECT_LT(cdf[i - 1].cumulative, cdf[i].cumulative);
    }
    EXPECT_DOUBLE_EQ(cdf.back().cumulative, 1.0);
}

TEST(RngTest, UniformInUnitInterval)
{
    Rng rng(42);
    RunningStats stats;
    for (int i = 0; i < 20000; ++i) {
        const double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        stats.add(u);
    }
    EXPECT_NEAR(stats.mean(), 0.5, 0.01);
    EXPECT_NEAR(stats.variance(), 1.0 / 12.0, 0.005);
}

TEST(RngTest, DeterministicForSameSeed)
{
    Rng a(7), b(7);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(RngTest, NormalMomentsMatch)
{
    Rng rng(123);
    RunningStats stats;
    for (int i = 0; i < 50000; ++i)
        stats.add(10.0 + 2.0 * rng.normal());
    EXPECT_NEAR(stats.mean(), 10.0, 0.05);
    EXPECT_NEAR(stats.stddev(), 2.0, 0.05);
}

TEST(RngTest, GammaMomentsMatch)
{
    Rng rng(77);
    RunningStats stats;
    const double shape = 2.5, scale = 1.5;
    for (int i = 0; i < 50000; ++i)
        stats.add(rng.gamma(shape, scale));
    EXPECT_NEAR(stats.mean(), shape * scale, 0.05);
    EXPECT_NEAR(stats.variance(), shape * scale * scale, 0.3);
}

TEST(RngTest, NormalCachingCouplesTheSequence)
{
    // Pins the Box-Muller pairing contract documented on Rng::normal():
    // every odd call computes two deviates and caches one; every even
    // call returns the cache and consumes no generator state.
    Rng a(42), b(42);
    EXPECT_DOUBLE_EQ(a.normal(), b.normal()); // odd call: pair drawn.

    // An extra draw interleaved between the paired calls does not
    // change the cached second deviate...
    (void)b.uniform();
    EXPECT_DOUBLE_EQ(a.normal(), b.normal()); // even call: cache only.

    // ...but it consumed state, so everything after the pair diverges:
    // the streams are coupled to the full call history.
    EXPECT_NE(a.normal(), b.normal());

    // Identical call sequences stay in lockstep indefinitely.
    Rng c(42), d(42);
    for (int i = 0; i < 9; ++i) {
        SCOPED_TRACE(i);
        EXPECT_DOUBLE_EQ(c.normal(), d.normal());
    }
}

TEST(InverseNormalCdfTest, KnownQuantiles)
{
    // Acklam's approximation is good to ~1.2e-9 relative; check the
    // median, the central branch, and both tails against textbook
    // quantiles.
    EXPECT_NEAR(inverseNormalCdf(0.5), 0.0, 1e-9);
    EXPECT_NEAR(inverseNormalCdf(0.975), 1.959963985, 1e-7);
    EXPECT_NEAR(inverseNormalCdf(0.025), -1.959963985, 1e-7);
    EXPECT_NEAR(inverseNormalCdf(0.841344746), 1.0, 1e-7);
    EXPECT_NEAR(inverseNormalCdf(0.001), -3.090232306, 1e-7);
    EXPECT_NEAR(inverseNormalCdf(0.999), 3.090232306, 1e-7);
}

TEST(InverseNormalCdfTest, MonotoneAcrossTheBranchPoint)
{
    // The central/tail branch seam (p = 0.02425) must not introduce a
    // jump: the quantile function is strictly increasing.
    double last = inverseNormalCdf(1e-6);
    for (double p = 1e-4; p < 1.0 - 1e-4; p += 1e-4) {
        const double z = inverseNormalCdf(p);
        ASSERT_GT(z, last) << "p=" << p;
        last = z;
    }
}

TEST(InverseNormalCdfTest, RejectsOutOfRange)
{
    EXPECT_DEATH(inverseNormalCdf(0.0), "requires p");
    EXPECT_DEATH(inverseNormalCdf(1.0), "requires p");
    EXPECT_DEATH(inverseNormalCdf(-0.3), "requires p");
}

TEST(CounterBasedDrawTest, PureFunctionOfKey)
{
    // Counter-based draws must not depend on any hidden state: the
    // same key always yields the same deviate, different keys differ.
    EXPECT_DOUBLE_EQ(normalFromKey(123), normalFromKey(123));
    EXPECT_NE(normalFromKey(123), normalFromKey(124));
    EXPECT_DOUBLE_EQ(uniformFromKey(99), uniformFromKey(99));
}

TEST(CounterBasedDrawTest, NormalFromKeyMomentsMatch)
{
    RunningStats stats;
    for (std::uint64_t key = 0; key < 50000; ++key)
        stats.add(normalFromKey(hashMix(2026, key)));
    EXPECT_NEAR(stats.mean(), 0.0, 0.02);
    EXPECT_NEAR(stats.variance(), 1.0, 0.03);
}

TEST(RngTest, UniformIntBounds)
{
    Rng rng(5);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(rng.uniformInt(17), 17u);
}

/** tryReadCsv of @p text, which the test expects to parse. */
std::vector<std::vector<std::string>>
readCsvText(const std::string &text)
{
    std::istringstream in(text);
    std::vector<std::vector<std::string>> rows;
    std::string error;
    EXPECT_TRUE(tryReadCsv(in, &rows, &error)) << error;
    return rows;
}

TEST(CsvTest, EscapeRoundTrip)
{
    const std::vector<std::string> row{"plain", "with,comma",
                                       "with \"quote\"", ""};
    std::ostringstream out;
    CsvWriter writer(out);
    writer.writeRow(row);
    const auto rows = readCsvText(out.str());
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(rows[0], row);
}

TEST(CsvTest, ReadMultipleRows)
{
    const auto rows = readCsvText("a,b,c\n1,2,3\n\n4,5,6\n");
    ASSERT_EQ(rows.size(), 3u);
    EXPECT_EQ(rows[0][0], "a");
    EXPECT_EQ(rows[2][2], "6");
}

TEST(CsvTest, QuotedCommaAndEscapedQuote)
{
    const auto rows =
        readCsvText("a,\"b,c\",\"he said \"\"hi\"\"\"");
    ASSERT_EQ(rows.size(), 1u);
    const auto &fields = rows[0];
    ASSERT_EQ(fields.size(), 3u);
    EXPECT_EQ(fields[0], "a");
    EXPECT_EQ(fields[1], "b,c");
    EXPECT_EQ(fields[2], "he said \"hi\"");
}

TEST(CsvTest, EmptyTrailingFieldSurvives)
{
    const auto rows = readCsvText("a,b,");
    ASSERT_EQ(rows.size(), 1u);
    ASSERT_EQ(rows[0].size(), 3u);
    EXPECT_EQ(rows[0][2], "");
}

TEST(CsvTest, CrlfRecordSeparatorsTolerated)
{
    const auto rows = readCsvText("a,b\r\nc,d\r\n\r\n e ,f\r\n");
    ASSERT_EQ(rows.size(), 3u);
    EXPECT_EQ(rows[0], (std::vector<std::string>{"a", "b"}));
    EXPECT_EQ(rows[1], (std::vector<std::string>{"c", "d"}));
    EXPECT_EQ(rows[2], (std::vector<std::string>{" e ", "f"}));
}

TEST(CsvTest, CarriageReturnInsideQuotesIsPreserved)
{
    // Regression: the old parser stripped \r even inside quotes, so a
    // field containing a carriage return did not round-trip.
    const std::vector<std::string> row{"a\rb", "x\r\ny"};
    std::ostringstream out;
    CsvWriter writer(out);
    writer.writeRow(row);
    const auto rows = readCsvText(out.str());
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(rows[0], row);
}

TEST(CsvTest, NewlinesInsideQuotedFieldsSpanRecords)
{
    // RFC 4180 multi-line records: a quoted field may contain the
    // record separator. The old getline-based reader split these.
    const std::vector<std::string> row{"line1\nline2", "tail"};
    std::ostringstream out;
    CsvWriter writer(out);
    writer.writeRow(row);
    writer.writeRow({"next", "record"});
    const auto rows = readCsvText(out.str());
    ASSERT_EQ(rows.size(), 2u);
    EXPECT_EQ(rows[0], row);
    EXPECT_EQ(rows[1], (std::vector<std::string>{"next", "record"}));
}

TEST(CsvTest, LoneEmptyFieldRoundTrips)
{
    // A record of one empty field is written quoted so it is not
    // mistaken for a blank (skipped) line on read.
    std::ostringstream out;
    CsvWriter writer(out);
    writer.writeRow({""});
    EXPECT_EQ(out.str(), "\"\"\n");
    const auto rows = readCsvText(out.str());
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(rows[0], (std::vector<std::string>{""}));
}

TEST(CsvTest, UnterminatedQuoteIsRejected)
{
    std::vector<std::vector<std::string>> rows;
    std::string error;
    std::istringstream single("\"abc");
    EXPECT_FALSE(tryReadCsv(single, &rows, &error));
    EXPECT_NE(error.find("unterminated"), std::string::npos);

    std::istringstream in("a,b\nc,\"oops\n");
    EXPECT_FALSE(tryReadCsv(in, &rows, &error));
    // The error pinpoints where the open quote started.
    EXPECT_NE(error.find("line"), std::string::npos);
    EXPECT_NE(error.find("2"), std::string::npos);
}

TEST(ParseTest, ParsesValidDoubles)
{
    EXPECT_DOUBLE_EQ(parseDouble("3.25").value, 3.25);
    EXPECT_DOUBLE_EQ(parseDouble("-1e-9").value, -1e-9);
    EXPECT_DOUBLE_EQ(parseDouble("+7").value, 7.0);
    EXPECT_TRUE(std::isinf(parseDouble("inf").value));
    EXPECT_TRUE(std::isinf(parseDouble("-inf").value));
    EXPECT_LT(parseDouble("-inf").value, 0.0);
    EXPECT_TRUE(std::isnan(parseDouble("nan").value));
    // "%.17g" output round-trips bit for bit.
    const double value = 0.1 + 0.2;
    const auto parsed = parseDouble(format("%.17g", value));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value, value);
}

TEST(ParseTest, RejectsMalformedDoubles)
{
    EXPECT_FALSE(parseDouble("").ok());
    EXPECT_FALSE(parseDouble("12x").ok());
    EXPECT_FALSE(parseDouble(" 1").ok());
    EXPECT_FALSE(parseDouble("1 ").ok());
    EXPECT_FALSE(parseDouble("--2").ok());
    EXPECT_FALSE(parseDouble("1,5").ok());
    EXPECT_STREQ(parseDouble("garbage").error, "not a number");
}

TEST(ParseTest, ParsesAndRejectsInt64)
{
    EXPECT_EQ(parseInt64("42").value, 42);
    EXPECT_EQ(parseInt64("-7").value, -7);
    EXPECT_EQ(parseInt64("+13").value, 13);
    EXPECT_EQ(parseInt64("9223372036854775807").value,
              std::numeric_limits<std::int64_t>::max());
    EXPECT_FALSE(parseInt64("9223372036854775808").ok()); // overflow
    EXPECT_FALSE(parseInt64("").ok());
    EXPECT_FALSE(parseInt64("12.5").ok());
    EXPECT_FALSE(parseInt64("ten").ok());
    EXPECT_FALSE(parseInt64("1e3").ok());
}

TEST(ParseTest, ParsesAndRejectsSizes)
{
    EXPECT_EQ(parseSize("0").value, 0u);
    EXPECT_EQ(parseSize("18446744073709551615").value,
              std::numeric_limits<std::uint64_t>::max());
    EXPECT_FALSE(parseSize("18446744073709551616").ok()); // overflow
    EXPECT_FALSE(parseSize("-1").ok());
    EXPECT_STREQ(parseSize("-1").error, "negative count");
    EXPECT_FALSE(parseSize("3.0").ok());
    EXPECT_FALSE(parseSize("").ok());
}

TEST(StringsTest, SplitJoinTrim)
{
    EXPECT_EQ(split("a,b,,c", ','),
              (std::vector<std::string>{"a", "b", "", "c"}));
    EXPECT_EQ(join({"x", "y"}, "-"), "x-y");
    EXPECT_EQ(trim("  hello \t\n"), "hello");
    EXPECT_TRUE(startsWith("resnet_101", "resnet"));
    EXPECT_TRUE(endsWith("fig08_validation", "validation"));
    EXPECT_EQ(toLower("AbC"), "abc");
}

TEST(StringsTest, FormatAndHumanUnits)
{
    EXPECT_EQ(format("%d-%s", 7, "x"), "7-x");
    EXPECT_EQ(humanBytes(85e6), "85.0MB");
    EXPECT_EQ(humanMicros(500.0), "500.0us");
    EXPECT_EQ(humanMicros(2500.0), "2.50ms");
    EXPECT_EQ(humanMicros(2.5e6), "2.50s");
    EXPECT_EQ(humanMicros(7.2e9), "2.00h");
}

TEST(TableTest, RendersAlignedColumns)
{
    TablePrinter table({"op", "time"});
    table.addRow({"Conv2D", "12.5"});
    table.addRow({"MaxPool", "3.1"});
    std::ostringstream out;
    table.print(out);
    const std::string text = out.str();
    EXPECT_NE(text.find("Conv2D"), std::string::npos);
    EXPECT_NE(text.find("| op"), std::string::npos);
    // First column left-aligned, the others right-aligned.
    EXPECT_NE(text.find("| MaxPool |  3.1 |"), std::string::npos)
        << text;
}

TEST(TableTest, CheckLineReportsBand)
{
    std::ostringstream out;
    EXPECT_TRUE(printCheck(out, "ratio", 10.0, 8.0, 12.0));
    EXPECT_FALSE(printCheck(out, "ratio", 20.0, 8.0, 12.0));
    EXPECT_NE(out.str().find("[PASS]"), std::string::npos);
    EXPECT_NE(out.str().find("[CHECK]"), std::string::npos);
}

TEST(FlagsTest, ParsesAllKinds)
{
    Flags flags;
    flags.defineInt("iters", 100, "iterations");
    flags.defineDouble("budget", 3.0, "budget");
    flags.defineString("model", "alexnet", "model name");
    flags.defineBool("verbose", false, "verbosity");

    const char *argv[] = {"prog", "--iters", "250", "--budget=4.5",
                          "--verbose", "extra"};
    flags.parse(6, const_cast<char **>(argv));

    EXPECT_EQ(flags.getInt("iters"), 250);
    EXPECT_DOUBLE_EQ(flags.getDouble("budget"), 4.5);
    EXPECT_EQ(flags.getString("model"), "alexnet");
    EXPECT_TRUE(flags.getBool("verbose"));
    ASSERT_EQ(flags.positional().size(), 1u);
    EXPECT_EQ(flags.positional()[0], "extra");
}

TEST(FlagsTest, RepeatedFlagLastValueWins)
{
    Flags flags;
    flags.defineInt("iters", 100, "iterations");
    const char *argv[] = {"prog", "--iters", "10", "--iters=20"};
    flags.parse(4, const_cast<char **>(argv));
    EXPECT_EQ(flags.getInt("iters"), 20);
}

TEST(FlagsTest, UnknownFlagIsFatal)
{
    Flags flags;
    flags.defineInt("iters", 100, "iterations");
    const char *argv[] = {"prog", "--itres", "10"};
    EXPECT_DEATH(flags.parse(3, const_cast<char **>(argv)), "itres");
}

TEST(FlagsTest, MalformedValueIsFatal)
{
    Flags flags;
    flags.defineInt("iters", 100, "iterations");
    flags.defineDouble("budget", 3.0, "budget");
    {
        const char *argv[] = {"prog", "--iters", "ten"};
        EXPECT_DEATH(flags.parse(3, const_cast<char **>(argv)), "");
    }
    {
        const char *argv[] = {"prog", "--budget=lots"};
        EXPECT_DEATH(flags.parse(2, const_cast<char **>(argv)), "");
    }
}

TEST(FlagsTest, MissingValueIsFatal)
{
    Flags flags;
    flags.defineString("model", "alexnet", "model name");
    const char *argv[] = {"prog", "--model"};
    EXPECT_DEATH(flags.parse(2, const_cast<char **>(argv)), "");
}

TEST(FlagsTest, UndeclaredLookupIsFatal)
{
    Flags flags;
    flags.defineInt("iters", 100, "iterations");
    EXPECT_DEATH((void)flags.getInt("nope"), "");
    // Kind mismatch is also a programming error, not a silent cast.
    EXPECT_DEATH((void)flags.getString("iters"), "");
}

TEST(FlagsTest, IntAsReturnsValuesThatFit)
{
    Flags flags;
    flags.defineInt("iters", 100, "iterations");
    flags.defineInt("floor", 0, "lowest int");
    flags.defineInt("count", 0, "count");
    const char *argv[] = {"prog", "--iters=2147483647",
                          "--floor=-2147483648", "--count",
                          "4294967297"};
    flags.parse(5, const_cast<char **>(argv));
    EXPECT_EQ(flags.getIntAs<int>("iters"),
              std::numeric_limits<int>::max());
    EXPECT_EQ(flags.getIntAs<int>("floor"),
              std::numeric_limits<int>::min());
    EXPECT_EQ(flags.getIntAs<std::size_t>("count"), 4294967297u);
    EXPECT_EQ(flags.getIntAs<std::uint64_t>("count"), 4294967297u);
}

TEST(FlagsTest, IntAsRejectsValuesThatWouldWrap)
{
    // A bare static_cast to int keeps the low 32 bits (`--iters
    // 4294967297` would run 1 iteration), and -1 cast to size_t is
    // 2^64 - 1.
    Flags flags;
    flags.defineInt("iters", 100, "iterations");
    flags.defineInt("above", 0, "one past INT_MAX");
    flags.defineInt("below", 0, "one below INT_MIN");
    flags.defineInt("count", 0, "count");
    const char *argv[] = {"prog", "--iters", "4294967297",
                          "--above=2147483648", "--below=-2147483649",
                          "--count=-1"};
    flags.parse(6, const_cast<char **>(argv));
    EXPECT_EXIT((void)flags.getIntAs<int>("iters"),
                ::testing::ExitedWithCode(1),
                "flag --iters expects a value in \\[-2147483648, "
                "2147483647\\], got 4294967297");
    EXPECT_EXIT((void)flags.getIntAs<int>("above"),
                ::testing::ExitedWithCode(1), "--above .* got 2147483648");
    EXPECT_EXIT((void)flags.getIntAs<int>("below"),
                ::testing::ExitedWithCode(1), "--below .* got -2147483649");
    EXPECT_EXIT((void)flags.getIntAs<std::size_t>("count"),
                ::testing::ExitedWithCode(1),
                "flag --count expects a value in \\[0, .*\\], got -1");
    // The unchecked accessor still reads the full 64-bit value.
    EXPECT_EQ(flags.getInt("iters"), 4294967297);
}

TEST(FlagsTest, IntAsRejectsValuesBelowTheMinimum)
{
    Flags flags;
    flags.defineInt("gpus", 1, "width");
    flags.defineInt("batch", 32, "batch");
    const char *argv[] = {"prog", "--gpus=0", "--batch", "1"};
    flags.parse(4, const_cast<char **>(argv));
    EXPECT_EXIT((void)flags.getIntAs<int>("gpus", 1),
                ::testing::ExitedWithCode(1),
                "flag --gpus expects a value in \\[1, 2147483647\\], "
                "got 0");
    EXPECT_EQ(flags.getIntAs<std::int64_t>("batch", 1), 1);
    // Without a minimum the full range of the type is accepted.
    EXPECT_EQ(flags.getIntAs<int>("gpus"), 0);
}

TEST(FlagsTest, BoolFlagConsumesSeparateTokenValue)
{
    // `--verbose false` once left `false` behind as a positional
    // argument; the separate-token value must be consumed.
    Flags flags;
    flags.defineBool("verbose", false, "verbosity");
    flags.defineBool("quiet", false, "quietness");
    const char *argv[] = {"prog",  "--verbose", "false",
                          "--quiet", "true",    "extra"};
    flags.parse(6, const_cast<char **>(argv));
    EXPECT_FALSE(flags.getBool("verbose"));
    EXPECT_TRUE(flags.getBool("quiet"));
    ASSERT_EQ(flags.positional().size(), 1u);
    EXPECT_EQ(flags.positional()[0], "extra");
}

TEST(FlagsTest, BoolFlagKeepsNonBoolFollowerPositional)
{
    // Only the literal `true`/`false` tokens belong to the switch;
    // anything else after a bare bool flag stays positional.
    Flags flags;
    flags.defineBool("verbose", false, "verbosity");
    const char *argv[] = {"prog", "--verbose", "falsey"};
    flags.parse(3, const_cast<char **>(argv));
    EXPECT_TRUE(flags.getBool("verbose"));
    ASSERT_EQ(flags.positional().size(), 1u);
    EXPECT_EQ(flags.positional()[0], "falsey");
}

TEST(FlagsTest, DoubleDashEndsFlagParsing)
{
    // After `--`, flag-shaped tokens are data, not flags: they must
    // neither update declared flags nor die as unknown ones.
    Flags flags;
    flags.defineInt("iters", 100, "iterations");
    const char *argv[] = {"prog", "--iters", "250", "--",
                          "--iters", "999", "--unknown"};
    flags.parse(7, const_cast<char **>(argv));
    EXPECT_EQ(flags.getInt("iters"), 250);
    ASSERT_EQ(flags.positional().size(), 3u);
    EXPECT_EQ(flags.positional()[0], "--iters");
    EXPECT_EQ(flags.positional()[1], "999");
    EXPECT_EQ(flags.positional()[2], "--unknown");
}

TEST(FlagsTest, UsageListsFlagsAndDefaults)
{
    Flags flags;
    flags.defineInt("iters", 100, "profiling iterations");
    flags.defineBool("verbose", false, "verbosity");
    const std::string usage = flags.usage("prog");
    EXPECT_NE(usage.find("prog"), std::string::npos);
    EXPECT_NE(usage.find("--iters"), std::string::npos);
    EXPECT_NE(usage.find("100"), std::string::npos);
    EXPECT_NE(usage.find("profiling iterations"), std::string::npos);
    EXPECT_NE(usage.find("--verbose"), std::string::npos);
}

} // namespace
} // namespace util
} // namespace ceer
