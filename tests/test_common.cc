/**
 * @file
 * Unit tests for src/common: status, stats, RNG determinism, logging,
 * and the power-of-two rounding the rings size themselves with.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/bits.h"
#include "common/log.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/status.h"
#include "common/timer.h"

namespace hq {
namespace {

TEST(Status, DefaultIsOk)
{
    Status status;
    EXPECT_TRUE(status.isOk());
    EXPECT_TRUE(static_cast<bool>(status));
    EXPECT_EQ(status.code(), StatusCode::Ok);
}

TEST(Status, ErrorCarriesCodeAndMessage)
{
    Status status = Status::error(StatusCode::NotFound, "missing pid");
    EXPECT_FALSE(status.isOk());
    EXPECT_EQ(status.code(), StatusCode::NotFound);
    EXPECT_EQ(status.message(), "missing pid");
    EXPECT_EQ(status.toString(), "NOT_FOUND: missing pid");
}

TEST(Status, AllCodesHaveNames)
{
    for (int c = 0; c <= static_cast<int>(StatusCode::PolicyViolation);
         ++c) {
        EXPECT_STRNE(statusCodeName(static_cast<StatusCode>(c)),
                     "UNKNOWN");
    }
}

TEST(Expected, ValuePath)
{
    Expected<int> e(42);
    ASSERT_TRUE(e.hasValue());
    EXPECT_EQ(e.value(), 42);
    EXPECT_TRUE(e.status().isOk());
}

TEST(Expected, ErrorPath)
{
    Expected<int> e(Status::error(StatusCode::Internal, "boom"));
    EXPECT_FALSE(e.hasValue());
    EXPECT_EQ(e.status().code(), StatusCode::Internal);
}

TEST(Stats, MeanAndGeomean)
{
    std::vector<double> samples{1.0, 2.0, 4.0};
    EXPECT_DOUBLE_EQ(mean(samples), 7.0 / 3.0);
    EXPECT_NEAR(geomean(samples), 2.0, 1e-12);
}

TEST(Stats, EmptySampleEdgeCases)
{
    std::vector<double> empty;
    EXPECT_DOUBLE_EQ(mean(empty), 0.0);
    EXPECT_DOUBLE_EQ(geomean(empty), 0.0);
    EXPECT_DOUBLE_EQ(stddev(empty), 0.0);
    EXPECT_DOUBLE_EQ(median(empty), 0.0);
    EXPECT_DOUBLE_EQ(minOf(empty), 0.0);
    EXPECT_DOUBLE_EQ(maxOf(empty), 0.0);
}

TEST(Stats, StddevMatchesHandComputation)
{
    std::vector<double> samples{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
    // Sample stddev with n-1 denominator.
    EXPECT_NEAR(stddev(samples), std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(Stats, MedianOddAndEven)
{
    EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
    EXPECT_DOUBLE_EQ(median({4.0, 1.0, 2.0, 3.0}), 2.5);
}

TEST(Stats, RunningStatTracksExtrema)
{
    RunningStat stat;
    EXPECT_EQ(stat.count(), 0u);
    EXPECT_DOUBLE_EQ(stat.min(), 0.0);
    stat.add(5.0);
    stat.add(-1.0);
    stat.add(3.0);
    EXPECT_EQ(stat.count(), 3u);
    EXPECT_DOUBLE_EQ(stat.min(), -1.0);
    EXPECT_DOUBLE_EQ(stat.max(), 5.0);
    EXPECT_NEAR(stat.mean(), 7.0 / 3.0, 1e-12);
}

TEST(Stats, StatSetIncrementAndGet)
{
    StatSet stats;
    EXPECT_DOUBLE_EQ(stats.get("absent"), 0.0);
    stats.increment("messages");
    stats.increment("messages", 4.0);
    stats.set("entries", 285.0);
    EXPECT_DOUBLE_EQ(stats.get("messages"), 5.0);
    EXPECT_DOUBLE_EQ(stats.get("entries"), 285.0);
    EXPECT_NE(stats.toString().find("messages 5"), std::string::npos);
}

TEST(Rng, DeterministicAcrossInstances)
{
    Rng a(12345);
    Rng b(12345);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1);
    Rng b(2);
    bool diverged = false;
    for (int i = 0; i < 10 && !diverged; ++i)
        diverged = a.next() != b.next();
    EXPECT_TRUE(diverged);
}

TEST(Rng, NextBelowStaysInRange)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(rng.nextBelow(17), 17u);
}

TEST(Rng, NextInRangeInclusive)
{
    Rng rng(9);
    bool saw_lo = false;
    bool saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        const auto v = rng.nextInRange(3, 5);
        EXPECT_GE(v, 3u);
        EXPECT_LE(v, 5u);
        saw_lo = saw_lo || v == 3;
        saw_hi = saw_hi || v == 5;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, DoubleInUnitInterval)
{
    Rng rng(11);
    for (int i = 0; i < 1000; ++i) {
        const double d = rng.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Rng, ChanceExtremes)
{
    Rng rng(13);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.chance(0.0));
        EXPECT_TRUE(rng.chance(1.0));
    }
}

TEST(Log, LevelFiltering)
{
    const LogLevel saved = logLevel();
    setLogLevel(LogLevel::Error);
    EXPECT_EQ(logLevel(), LogLevel::Error);
    setLogLevel(saved);
}

TEST(Timer, MeasuresForwardTime)
{
    Timer timer;
    volatile double sink = 0;
    for (int i = 0; i < 10000; ++i)
        sink = sink + i;
    EXPECT_GT(timer.elapsedNs(), 0u);
    EXPECT_GE(timer.elapsedSeconds(), 0.0);
}

TEST(RoundUpPow2, SmallValues)
{
    EXPECT_EQ(roundUpPow2(0), 1u);
    EXPECT_EQ(roundUpPow2(1), 1u);
    EXPECT_EQ(roundUpPow2(2), 2u);
    EXPECT_EQ(roundUpPow2(3), 4u);
    EXPECT_EQ(roundUpPow2(1000), 1024u);
    EXPECT_EQ(roundUpPow2(1024), 1024u);
    EXPECT_EQ(roundUpPow2(1025), 2048u);
}

TEST(RoundUpPow2, HugeValuesClampInsteadOfOverflowing)
{
    // Past the top power of two the helper clamps to the largest
    // representable power instead of looping or overflowing to 0.
    constexpr std::size_t top =
        std::size_t{1} << (std::numeric_limits<std::size_t>::digits - 1);
    EXPECT_EQ(roundUpPow2(top), top);
    EXPECT_EQ(roundUpPow2(top + 1), top);
    EXPECT_EQ(roundUpPow2(~std::size_t{0}), top);
}

} // namespace
} // namespace hq
