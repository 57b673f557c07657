/**
 * @file
 * LogHistogram unit tests: bucket index math, percentile queries, the
 * windowed bucket store against a full-partition reference, and
 * StatSet registration/dump integration.
 */

#include <algorithm>
#include <array>
#include <cstdint>
#include <iterator>
#include <limits>
#include <sstream>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "alloc_counter.hh"
#include "sim/stats.hh"

using namespace pva;

namespace
{

/**
 * Every one of the kBucketCount buckets, always stored: what a
 * LogHistogram reports must not depend on which window it keeps.
 */
struct FullHistogram
{
    std::array<std::uint64_t, LogHistogram::kBucketCount> counts{};
    std::uint64_t n = 0;
    std::uint64_t sum = 0;
    std::uint64_t lo = 0;
    std::uint64_t hi = 0;

    void
    sample(std::uint64_t v)
    {
        ++counts[LogHistogram::bucketIndex(v)];
        lo = n == 0 || v < lo ? v : lo;
        hi = n == 0 || v > hi ? v : hi;
        ++n;
        sum += v;
    }

    std::uint64_t
    percentile(double p) const
    {
        if (n == 0)
            return 0;
        if (p <= 0.0)
            return lo;
        auto rank = static_cast<std::uint64_t>(
            p / 100.0 * static_cast<double>(n) + 0.9999999);
        rank = std::min(rank, n);
        std::uint64_t seen = 0;
        for (unsigned i = 0; i < LogHistogram::kBucketCount; ++i) {
            seen += counts[i];
            if (seen >= rank) {
                std::uint64_t edge = i + 1 < LogHistogram::kBucketCount
                    ? LogHistogram::bucketLowerBound(i + 1) - 1
                    : hi;
                return std::max(lo, std::min(edge, hi));
            }
        }
        return hi;
    }

    std::vector<std::pair<std::uint64_t, std::uint64_t>>
    nonZeroBuckets() const
    {
        std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
        for (unsigned i = 0; i < LogHistogram::kBucketCount; ++i) {
            if (counts[i])
                out.emplace_back(LogHistogram::bucketLowerBound(i),
                                 counts[i]);
        }
        return out;
    }
};

void
expectMatchesReference(const LogHistogram &h, const FullHistogram &ref)
{
    EXPECT_EQ(h.samples(), ref.n);
    EXPECT_EQ(h.minValue(), ref.lo);
    EXPECT_EQ(h.maxValue(), ref.hi);
    EXPECT_DOUBLE_EQ(h.mean(), ref.n ? static_cast<double>(ref.sum) /
                                           static_cast<double>(ref.n)
                                     : 0.0);
    EXPECT_EQ(h.nonZeroBuckets(), ref.nonZeroBuckets());
    for (double p : {0.0, 1e-9, 1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 95.0,
                     99.0, 99.9, 100.0})
        EXPECT_EQ(h.percentile(p), ref.percentile(p)) << "p" << p;
}

/** Seeded values spread over every octave, with the range's edges. */
std::vector<std::uint64_t>
edgyValues(std::uint64_t seed, std::size_t count)
{
    constexpr std::uint64_t kEdges[] = {
        0, 7, 8, 1ULL << 63, std::numeric_limits<std::uint64_t>::max()};
    std::vector<std::uint64_t> out;
    std::uint64_t x = seed;
    for (std::size_t i = 0; i < count; ++i) {
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
        out.push_back((x ^ (x >> 29)) >> (x % 64));
        if (i % 97 == 40) {
            out.insert(out.end(), std::begin(kEdges), std::end(kEdges));
        }
    }
    return out;
}

} // anonymous namespace

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

TEST(LogHistogramWindow, MatchesAFullBucketReference)
{
    // Start high, mid and low, so the window widens downward, upward
    // and both ways; compare after every 50 samples.
    for (std::uint64_t seed : {1ULL, 2ULL, 3ULL, 99ULL}) {
        std::vector<std::uint64_t> values = edgyValues(seed, 600);
        if (seed == 2)
            values.insert(values.begin(), 1ULL << 40);
        if (seed == 3)
            values.insert(values.begin(), 0);
        LogHistogram h;
        FullHistogram ref;
        for (std::size_t i = 0; i < values.size(); ++i) {
            h.sample(values[i]);
            ref.sample(values[i]);
            if (i % 50 == 0 || i + 1 == values.size())
                expectMatchesReference(h, ref);
        }
    }
}

TEST(LogHistogramWindow, NarrowRangesMatchTheReference)
{
    // Latency-like samples inside one or two octaves, then one far
    // outlier each way.
    LogHistogram h;
    FullHistogram ref;
    for (std::uint64_t v = 40; v < 90; v += 3) {
        h.sample(v);
        ref.sample(v);
        expectMatchesReference(h, ref);
    }
    for (std::uint64_t v : {1ULL << 62, 0ULL, 55ULL}) {
        h.sample(v);
        ref.sample(v);
        expectMatchesReference(h, ref);
    }
}

TEST(LogHistogramWindow, ResetThenNewSamplesMatchAFreshHistogram)
{
    LogHistogram h;
    for (std::uint64_t v : edgyValues(5, 200))
        h.sample(v);
    h.reset();
    expectMatchesReference(h, FullHistogram{});

    // New samples on both sides of the old range, and inside it.
    FullHistogram ref;
    for (std::uint64_t v : {300ULL, 2ULL, 1ULL << 50, 301ULL}) {
        h.sample(v);
        ref.sample(v);
    }
    expectMatchesReference(h, ref);
}

TEST(LogHistogramWindow, ASecondPassOverTheSameValuesAllocatesNothing)
{
    const std::vector<std::uint64_t> values = edgyValues(7, 500);
    LogHistogram h;
    for (std::uint64_t v : values)
        h.sample(v);

    const std::uint64_t before = test::allocations();
    for (std::uint64_t v : values)
        h.sample(v);
    h.reset();
    for (std::uint64_t v : values)
        h.sample(v);
    EXPECT_EQ(test::allocations() - before, 0u);
    EXPECT_EQ(h.samples(), values.size());
}
