// Tests for src/util: statistics, CSV formatting, config, logging, RNG.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>

#include "util/config.h"
#include "util/csv.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/time.h"

namespace flare {
namespace {

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.stddev(), 0.0);
}

TEST(RunningStats, MeanAndVariance) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.Add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  // Sample variance with n-1 = 7: sum of squares = 32.
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
  EXPECT_EQ(s.count(), 8u);
}

TEST(RunningStats, SingleSampleHasZeroVariance) {
  RunningStats s;
  s.Add(3.5);
  EXPECT_DOUBLE_EQ(s.mean(), 3.5);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(Cdf, QuantilesInterpolate) {
  Cdf cdf;
  for (int i = 1; i <= 100; ++i) cdf.Add(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(cdf.Quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(cdf.Quantile(1.0), 100.0);
  EXPECT_NEAR(cdf.Quantile(0.5), 50.5, 1e-9);
}

TEST(Cdf, CurveIsMonotone) {
  Cdf cdf;
  for (int i = 0; i < 50; ++i) cdf.Add(std::sin(i) * 10.0);
  const auto curve = cdf.Curve(11);
  ASSERT_EQ(curve.size(), 11u);
  for (std::size_t i = 1; i < curve.size(); ++i) {
    EXPECT_GE(curve[i].first, curve[i - 1].first);
    EXPECT_GT(curve[i].second, curve[i - 1].second);
  }
}

TEST(Cdf, EmptyCdfIsSafe) {
  Cdf cdf;
  EXPECT_EQ(cdf.Quantile(0.5), 0.0);
  EXPECT_EQ(cdf.Mean(), 0.0);
  EXPECT_TRUE(cdf.Curve(5).empty());
}

TEST(NearestRank, PinsTheRule) {
  // Empty input reads as 0 rather than indexing out of range.
  EXPECT_EQ(NearestRankQuantile({}, 0.5), 0.0);
  // n = 1: every q selects the only sample.
  for (const double q : {0.0, 0.5, 1.0}) {
    EXPECT_EQ(NearestRank(1, q), 1u);
    EXPECT_EQ(NearestRankQuantile({7.0}, q), 7.0);
  }
  const std::vector<double> sorted = {10.0, 20.0, 30.0, 40.0};
  // q = 0 and anything below clamps to rank 1; q = 1 and above to n.
  EXPECT_EQ(NearestRank(4, 0.0), 1u);
  EXPECT_EQ(NearestRank(4, -1.0), 1u);
  EXPECT_EQ(NearestRank(4, 1.0), 4u);
  EXPECT_EQ(NearestRank(4, 2.0), 4u);
  EXPECT_EQ(NearestRankQuantile(sorted, 0.0), 10.0);
  EXPECT_EQ(NearestRankQuantile(sorted, 1.0), 40.0);
  // The ceil boundary: q * n exactly 2 stays at rank 2; a hair above
  // moves to rank 3.
  EXPECT_EQ(NearestRank(4, 0.5), 2u);
  EXPECT_EQ(NearestRankQuantile(sorted, 0.5), 20.0);
  EXPECT_EQ(NearestRank(4, 0.5000001), 3u);
  EXPECT_EQ(NearestRankQuantile(sorted, 0.5000001), 30.0);
  EXPECT_EQ(NearestRank(100, 0.99), 99u);
  EXPECT_EQ(NearestRank(101, 0.99), 100u);  // ceil(99.99)
}

TEST(JainIndex, EqualSharesGiveOne) {
  EXPECT_DOUBLE_EQ(JainIndex({5.0, 5.0, 5.0, 5.0}), 1.0);
}

TEST(JainIndex, SingleUserHogging) {
  // One of n users with everything: index = 1/n.
  EXPECT_NEAR(JainIndex({1.0, 0.0, 0.0, 0.0}), 0.25, 1e-12);
}

TEST(JainIndex, EmptyAndZeroAreOne) {
  EXPECT_DOUBLE_EQ(JainIndex({}), 1.0);
  EXPECT_DOUBLE_EQ(JainIndex({0.0, 0.0}), 1.0);
}

TEST(HarmonicMean, MatchesHandComputation) {
  // HM(1, 2, 4) = 3 / (1 + 0.5 + 0.25) = 12/7.
  EXPECT_NEAR(HarmonicMean({1.0, 2.0, 4.0}), 12.0 / 7.0, 1e-12);
}

TEST(HarmonicMean, IgnoresNonPositive) {
  EXPECT_NEAR(HarmonicMean({0.0, -3.0, 2.0, 2.0}), 2.0, 1e-12);
  EXPECT_EQ(HarmonicMean({0.0, -1.0}), 0.0);
  EXPECT_EQ(HarmonicMean({}), 0.0);
}

TEST(Rng, DeterministicFromSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.Uniform(), b.Uniform());
  }
}

TEST(Rng, ForkedStreamsDiffer) {
  Rng parent(7);
  Rng a = parent.Fork(1);
  Rng b = parent.Fork(2);
  int equal = 0;
  for (int i = 0; i < 50; ++i) {
    if (a.Uniform() == b.Uniform()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(Rng, UniformIntCoversRange) {
  Rng rng(99);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.UniformInt(0, 3);
    EXPECT_GE(v, 0);
    EXPECT_LE(v, 3);
    saw_lo = saw_lo || v == 0;
    saw_hi = saw_hi || v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(TimeHelpers, RoundTrip) {
  EXPECT_EQ(FromSeconds(1.5), 1'500'000);
  EXPECT_DOUBLE_EQ(ToSeconds(FromSeconds(2.25)), 2.25);
  EXPECT_EQ(FromMilliseconds(3.0), 3 * kMillisecond);
  EXPECT_EQ(kTti, kMillisecond);
}

TEST(FormatNumber, CompactOutput) {
  EXPECT_EQ(FormatNumber(1.0), "1");
  EXPECT_EQ(FormatNumber(0.5), "0.5");
  EXPECT_EQ(FormatNumber(123456), "123456");
}

TEST(Config, ParsesKeyValueArgs) {
  const char* argv_c[] = {"prog", "runs=5", "duration_s=12.5",
                          "flag=true"};
  Config config = Config::FromArgs(4, const_cast<char**>(argv_c));
  EXPECT_EQ(config.GetInt("runs", 0), 5);
  EXPECT_DOUBLE_EQ(config.GetDouble("duration_s", 0.0), 12.5);
  EXPECT_TRUE(config.GetBool("flag", false));
  EXPECT_EQ(config.GetInt("missing", 42), 42);
}

TEST(Config, EnvironmentFallback) {
  ::setenv("FLARE_TESTKEY", "17", 1);
  Config config;
  EXPECT_EQ(config.GetInt("testkey", 0), 17);
  ::unsetenv("FLARE_TESTKEY");
  EXPECT_EQ(config.GetInt("testkey", 3), 3);
}

TEST(Config, ExplicitValueBeatsEnvironment) {
  ::setenv("FLARE_TESTKEY2", "17", 1);
  Config config;
  config.Set("testkey2", "4");
  EXPECT_EQ(config.GetInt("testkey2", 0), 4);
  ::unsetenv("FLARE_TESTKEY2");
}

TEST(Logging, RespectsLevel) {
  Logger& logger = Logger::Instance();
  const LogLevel previous = logger.level();
  int hits = 0;
  LogSink old_sink = logger.SetSink(
      [&hits](LogLevel, const std::string&) { ++hits; });
  logger.set_level(LogLevel::kWarn);
  FLOG_DEBUG << "hidden";
  FLOG_WARN << "visible";
  FLOG_ERROR << "visible too";
  EXPECT_EQ(hits, 2);
  logger.SetSink(std::move(old_sink));
  logger.set_level(previous);
}

}  // namespace
}  // namespace flare
