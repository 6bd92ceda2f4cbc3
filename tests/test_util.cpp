#include <gtest/gtest.h>

#include <set>

#include "hbguard/util/logging.hpp"
#include "hbguard/util/rng.hpp"
#include "hbguard/util/strings.hpp"

namespace hbguard {
namespace {

TEST(Strings, SplitKeepsEmptyFields) {
  auto parts = split("a,,b", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
}

TEST(Strings, SplitSingleField) {
  auto parts = split("hello", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "hello");
}

TEST(Strings, TrimBothEnds) {
  EXPECT_EQ(trim("  x \t\n"), "x");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim("no-trim"), "no-trim");
}

TEST(Strings, ParseUnsignedTakesOnlyWholeDecimalTokens) {
  EXPECT_EQ(parse_unsigned("0"), 0u);
  EXPECT_EQ(parse_unsigned("007"), 7u);
  EXPECT_EQ(parse_unsigned("18446744073709551615"), 18446744073709551615u);  // 2^64 - 1
  for (const char* bad : {"", "-1", "+1", " 1", "1 ", "1x", "2x", "0x1", "1.0", "1e9",
                          "18446744073709551616"}) {  // the last is 2^64
    EXPECT_EQ(parse_unsigned(bad), std::nullopt) << '"' << bad << '"';
  }
}

TEST(Strings, ParseFractionTakesOnlyTheHalfOpenUnitInterval) {
  EXPECT_EQ(parse_fraction("1"), 1.0);
  EXPECT_EQ(parse_fraction("0.5"), 0.5);
  EXPECT_EQ(parse_fraction("5e-1"), 0.5);
  EXPECT_EQ(parse_fraction("0.001"), 0.001);
  for (const char* bad : {"", "0", "0.0", "-0.5", "1.5", "1.0000001", "nan", "NaN", "inf",
                          "-inf", "0.5x", " 0.5", "0.5 ", "+0.5", "1e400"}) {
    EXPECT_EQ(parse_fraction(bad), std::nullopt) << '"' << bad << '"';
  }
}

TEST(Strings, FormatDuration) {
  EXPECT_EQ(format_duration_us(25'000'000), "25s");
  EXPECT_EQ(format_duration_us(4'000), "4ms");
  EXPECT_EQ(format_duration_us(100), "0.1ms");
  EXPECT_EQ(format_duration_us(7), "7us");
  EXPECT_EQ(format_duration_us(1'500'000), "1.5s");
}

TEST(Rng, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.uniform_int(0, 1000), b.uniform_int(0, 1000));
  }
}

TEST(Rng, UniformIntStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    auto v = rng.uniform_int(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(Rng, UniformIntSingletonRange) {
  Rng rng(7);
  EXPECT_EQ(rng.uniform_int(42, 42), 42);
}

TEST(Rng, ChanceExtremes) {
  Rng rng(9);
  EXPECT_FALSE(rng.chance(0.0));
  EXPECT_TRUE(rng.chance(1.0));
}

TEST(Rng, ExponentialRejectsNonPositiveMean) {
  Rng rng(1);
  EXPECT_THROW(rng.exponential(0.0), std::invalid_argument);
  EXPECT_THROW(rng.exponential(-1.0), std::invalid_argument);
}

TEST(Rng, ExponentialMeanRoughlyCorrect) {
  Rng rng(17);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(100.0);
  double mean = sum / n;
  EXPECT_GT(mean, 90.0);
  EXPECT_LT(mean, 110.0);
}

TEST(Rng, WeightedIndexRespectsZeroWeights) {
  Rng rng(3);
  std::vector<double> weights{0.0, 1.0, 0.0};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.weighted_index(weights), 1u);
}

TEST(Rng, ForkDivergesFromParent) {
  Rng parent(5);
  Rng child = parent.fork();
  // Extremely unlikely to match for 10 consecutive draws if independent.
  bool any_diff = false;
  for (int i = 0; i < 10; ++i) {
    if (parent.uniform_int(0, 1 << 30) != child.uniform_int(0, 1 << 30)) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(Logging, LevelsGateOutput) {
  auto& logger = Logger::instance();
  LogLevel saved = logger.level();
  std::vector<std::string> lines;
  logger.set_sink([&](LogLevel, std::string_view msg) { lines.emplace_back(msg); });
  logger.set_level(LogLevel::kWarn);
  HBG_INFO << "hidden";
  HBG_WARN << "visible " << 42;
  logger.set_sink(nullptr);
  logger.set_level(saved);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0], "visible 42");
}

TEST(Logging, RateLimiterFlushReportsSuppressedAtTeardown) {
  auto& logger = Logger::instance();
  LogLevel saved = logger.level();
  std::vector<std::string> lines;
  logger.set_sink([&](LogLevel, std::string_view msg) { lines.emplace_back(msg); });
  logger.set_level(LogLevel::kWarn);
  {
    RateLimiter limiter(4, "test-site");
    for (int i = 0; i < 10; ++i) {
      if (limiter.allow()) HBG_WARN << "occurrence " << i;
    }
    // 10 occurrences, every-4th logged (0, 4, 8) => 7 suppressed.
    EXPECT_EQ(limiter.seen(), 10u);
    EXPECT_EQ(limiter.suppressed(), 7u);

    // Explicit flush (what hbguardd does at shutdown) reports the tally...
    logger.flush_suppressed();
    ASSERT_EQ(lines.size(), 4u);
    EXPECT_EQ(lines[3], "test-site: 7 rate-limited warning(s) suppressed (10 total occurrences)");
    // ...idempotently: a second flush with nothing new emits nothing.
    logger.flush_suppressed();
    EXPECT_EQ(lines.size(), 4u);

    limiter.allow();  // occurrences 11 and 12: both suppressed
    limiter.allow();
    // Destruction flushes the remainder.
  }
  ASSERT_EQ(lines.size(), 5u);
  EXPECT_EQ(lines[4], "test-site: 2 rate-limited warning(s) suppressed (12 total occurrences)");

  // Unlabelled limiters never register and never self-report.
  {
    RateLimiter anonymous(2);
    for (int i = 0; i < 6; ++i) anonymous.allow();
    logger.flush_suppressed();
  }
  EXPECT_EQ(lines.size(), 5u);

  logger.set_sink(nullptr);
  logger.set_level(saved);
}

TEST(Logging, OffSilencesEverything) {
  auto& logger = Logger::instance();
  LogLevel saved = logger.level();
  std::vector<std::string> lines;
  logger.set_sink([&](LogLevel, std::string_view msg) { lines.emplace_back(msg); });
  logger.set_level(LogLevel::kOff);
  HBG_ERROR << "nope";
  logger.set_sink(nullptr);
  logger.set_level(saved);
  EXPECT_TRUE(lines.empty());
}

}  // namespace
}  // namespace hbguard
