/**
 * @file
 * LogHistogram unit tests: bucket index math, percentile queries, and
 * StatSet registration/dump integration.
 */

#include <sstream>

#include <gtest/gtest.h>

#include "sim/stats.hh"

using namespace pva;

TEST(LogHistogram, ValuesBelowTheLinearRangeMapToThemselves)
{
    for (std::uint64_t v = 0; v < (1ULL << LogHistogram::kSubBits); ++v)
        EXPECT_EQ(LogHistogram::bucketIndex(v), v);
}

TEST(LogHistogram, OctaveIndexingMatchesHandComputedBuckets)
{
    // kSubBits = 3: eight linear sub-buckets per octave.
    EXPECT_EQ(LogHistogram::bucketIndex(8), 8u);
    EXPECT_EQ(LogHistogram::bucketIndex(15), 15u);
    EXPECT_EQ(LogHistogram::bucketIndex(16), 16u);
    EXPECT_EQ(LogHistogram::bucketIndex(17), 16u); // same sub-bucket
    EXPECT_EQ(LogHistogram::bucketIndex(31), 23u);
    EXPECT_EQ(LogHistogram::bucketIndex(~0ULL),
              LogHistogram::kBucketCount - 1);
}

TEST(LogHistogram, BucketLowerBoundInvertsBucketIndex)
{
    EXPECT_EQ(LogHistogram::bucketLowerBound(23), 30u);
    // Every value's bucket lower bound is <= the value, and the value
    // is below the next bucket's lower bound.
    for (std::uint64_t v : {1ULL, 7ULL, 8ULL, 100ULL, 4096ULL,
                            123456789ULL}) {
        unsigned idx = LogHistogram::bucketIndex(v);
        EXPECT_LE(LogHistogram::bucketLowerBound(idx), v);
        if (idx + 1 < LogHistogram::kBucketCount) {
            EXPECT_LT(v, LogHistogram::bucketLowerBound(idx + 1));
        }
    }
}

TEST(LogHistogram, EmptyHistogramReportsZeros)
{
    LogHistogram h;
    EXPECT_EQ(h.samples(), 0u);
    EXPECT_EQ(h.minValue(), 0u);
    EXPECT_EQ(h.maxValue(), 0u);
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);
    EXPECT_EQ(h.p50(), 0u);
    EXPECT_EQ(h.p999(), 0u);
}

TEST(LogHistogram, SingleSampleIsEveryPercentile)
{
    LogHistogram h;
    h.sample(12345);
    EXPECT_EQ(h.samples(), 1u);
    EXPECT_EQ(h.minValue(), 12345u);
    EXPECT_EQ(h.maxValue(), 12345u);
    EXPECT_DOUBLE_EQ(h.mean(), 12345.0);
    EXPECT_EQ(h.p50(), 12345u);
    EXPECT_EQ(h.p95(), 12345u);
    EXPECT_EQ(h.p999(), 12345u);
}

TEST(LogHistogram, PercentilesAreOrderedAndWithinLogResolution)
{
    LogHistogram h;
    for (std::uint64_t v = 1; v <= 1000; ++v)
        h.sample(v);
    EXPECT_EQ(h.samples(), 1000u);
    EXPECT_DOUBLE_EQ(h.mean(), 500.5);

    EXPECT_LE(h.p50(), h.p95());
    EXPECT_LE(h.p95(), h.p99());
    EXPECT_LE(h.p99(), h.p999());
    EXPECT_LE(h.p999(), h.maxValue());
    EXPECT_GE(h.p50(), h.minValue());

    // 8 sub-buckets per octave bound the relative error at 12.5%.
    EXPECT_GE(h.p50(), 500u);
    EXPECT_LE(h.p50(), 570u);
    EXPECT_GE(h.p99(), 990u);
    // Percentiles clamp to the observed maximum.
    EXPECT_LE(h.p999(), 1000u);
}

TEST(LogHistogram, ResetForgetsEverything)
{
    LogHistogram h;
    h.sample(7);
    h.sample(70000);
    h.reset();
    EXPECT_EQ(h.samples(), 0u);
    EXPECT_EQ(h.maxValue(), 0u);
    EXPECT_EQ(h.p50(), 0u);
}

TEST(StatSetHistogram, RegisteredHistogramsAppearInDumps)
{
    StatSet set;
    LogHistogram lat;
    set.addHistogram("lat", &lat);
    lat.sample(100);
    lat.sample(200);

    ASSERT_TRUE(set.hasHistogram("lat"));
    EXPECT_EQ(set.histogram("lat").samples(), 2u);

    std::ostringstream text;
    set.dump(text);
    EXPECT_NE(text.str().find("lat.samples 2"), std::string::npos);
    EXPECT_NE(text.str().find("lat.p50"), std::string::npos);

    std::ostringstream json;
    set.dumpJson(json);
    EXPECT_NE(json.str().find("\"histograms\""), std::string::npos);
    EXPECT_NE(json.str().find("\"lat\""), std::string::npos);
}
