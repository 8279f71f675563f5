// Unit tests for vgrid::util — RNG, strings, units, clocks, logging.

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <thread>

#include "util/cli_args.hpp"
#include "util/clock.hpp"
#include "util/error.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "util/units.hpp"

namespace vgrid::util {
namespace {

// ---- SplitMix64 / Xoshiro256 ------------------------------------------------

TEST(SplitMix64, IsDeterministic) {
  SplitMix64 a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next(), b.next());
  }
}

TEST(SplitMix64, DifferentSeedsDiverge) {
  SplitMix64 a(1), b(2);
  EXPECT_NE(a.next(), b.next());
}

TEST(Xoshiro256, DeterministicForSameSeed) {
  Xoshiro256 a(7), b(7);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(a.next(), b.next());
  }
}

TEST(Xoshiro256, SeedsProduceDistinctStreams) {
  Xoshiro256 a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next() == b.next()) ++equal;
  }
  EXPECT_EQ(equal, 0);
}

TEST(Xoshiro256, BelowRespectsBound) {
  Xoshiro256 rng(3);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.below(17), 17u);
  }
}

TEST(Xoshiro256, BelowZeroBoundReturnsZero) {
  Xoshiro256 rng(3);
  EXPECT_EQ(rng.below(0), 0u);
}

TEST(Xoshiro256, BelowOneIsAlwaysZero) {
  Xoshiro256 rng(3);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(rng.below(1), 0u);
  }
}

TEST(Xoshiro256, UniformIntCoversInclusiveRange) {
  Xoshiro256 rng(11);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const std::int64_t v = rng.uniform_int(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);  // all values hit
}

TEST(Xoshiro256, UniformIntDegenerateRange) {
  Xoshiro256 rng(11);
  EXPECT_EQ(rng.uniform_int(5, 5), 5);
  EXPECT_EQ(rng.uniform_int(7, 3), 7);  // inverted collapses to lo
}

TEST(Xoshiro256, Uniform01InHalfOpenInterval) {
  Xoshiro256 rng(13);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.uniform01();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Xoshiro256, Uniform01MeanNearHalf) {
  Xoshiro256 rng(17);
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.uniform01();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Xoshiro256, NormalMeanAndSigma) {
  Xoshiro256 rng(19);
  double sum = 0, sum_sq = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.normal(10.0, 2.0);
    sum += v;
    sum_sq += v * v;
  }
  const double mean = sum / n;
  const double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.05);
  EXPECT_NEAR(var, 4.0, 0.15);
}

TEST(Xoshiro256, ExponentialMeanIsInverseRate) {
  Xoshiro256 rng(23);
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(4.0);
  EXPECT_NEAR(sum / n, 0.25, 0.01);
}

TEST(Xoshiro256, ChanceExtremes) {
  Xoshiro256 rng(29);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Xoshiro256, JumpProducesNonOverlappingStream) {
  Xoshiro256 a(31);
  Xoshiro256 b(31);
  b.jump();
  int equal = 0;
  for (int i = 0; i < 1000; ++i) {
    if (a.next() == b.next()) ++equal;
  }
  EXPECT_EQ(equal, 0);
}

// ---- strings ----------------------------------------------------------------

TEST(Strings, SplitBasic) {
  const auto parts = split("a,b,c", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "c");
}

TEST(Strings, SplitPreservesEmptyFields) {
  const auto parts = split("a||b|", '|');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[3], "");
}

TEST(Strings, SplitNoDelimiter) {
  const auto parts = split("abc", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "abc");
}

TEST(Strings, TrimBothEnds) {
  EXPECT_EQ(trim("  hi \t\n"), "hi");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim("x"), "x");
}

TEST(Strings, StartsWith) {
  EXPECT_TRUE(starts_with("foobar", "foo"));
  EXPECT_FALSE(starts_with("foo", "foobar"));
  EXPECT_TRUE(starts_with("foo", ""));
}

TEST(Strings, Format) {
  EXPECT_EQ(format("%d-%s", 42, "x"), "42-x");
  EXPECT_EQ(format("%.2f", 3.14159), "3.14");
}

TEST(Strings, HumanBytes) {
  EXPECT_EQ(human_bytes(128 * 1024), "128 KB");
  EXPECT_EQ(human_bytes(32 * 1024 * 1024), "32 MB");
  EXPECT_EQ(human_bytes(500), "500 B");
}

TEST(Strings, FormatDouble) {
  EXPECT_EQ(format_double(1.2345, 2), "1.23");
  EXPECT_EQ(format_double(2.0, 0), "2");
}

// ---- units ------------------------------------------------------------------

TEST(Units, TimeConversionsRoundTrip) {
  EXPECT_EQ(seconds_to_ns(1.5), 1'500'000'000);
  EXPECT_DOUBLE_EQ(ns_to_seconds(2'000'000'000), 2.0);
}

TEST(Units, MbpsConversions) {
  EXPECT_DOUBLE_EQ(mbps_to_bytes_per_sec(100.0), 12.5e6);
  EXPECT_DOUBLE_EQ(bytes_per_sec_to_mbps(12.5e6), 100.0);
}

TEST(Units, TransferTime) {
  // 1 MB at 1 MB/s = 1 second.
  EXPECT_EQ(transfer_time_ns(1'000'000, 1e6), kSecond);
  EXPECT_EQ(transfer_time_ns(1'000'000, 0.0), 0);
}

// ---- clock ------------------------------------------------------------------

TEST(Clock, WallTimerMeasuresSleep) {
  WallTimer timer;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const double elapsed = timer.elapsed_seconds();
  EXPECT_GE(elapsed, 0.015);
  EXPECT_LT(elapsed, 2.0);
}

TEST(Clock, MonotonicTimeAdvances) {
  const std::int64_t a = monotonic_time_ns();
  const std::int64_t b = monotonic_time_ns();
  EXPECT_GE(b, a);
}

TEST(Clock, CpuTimeAdvancesUnderWork) {
  const std::int64_t before = process_cpu_time_ns();
  double acc = 0;
  for (int i = 0; i < 2'000'000; ++i) acc += static_cast<double>(i) * 0.5;
  // Keep the loop alive without deprecated volatile compound assignment.
  EXPECT_GT(acc, 0.0);
  EXPECT_GT(process_cpu_time_ns(), before);
}

// ---- logging ----------------------------------------------------------------

TEST(Logging, ParseLevel) {
  EXPECT_EQ(Logger::parse_level("trace"), LogLevel::kTrace);
  EXPECT_EQ(Logger::parse_level("error"), LogLevel::kError);
  EXPECT_EQ(Logger::parse_level("nonsense"), LogLevel::kWarn);
}

TEST(Logging, LevelGate) {
  const LogLevel saved = Logger::level();
  Logger::set_level(LogLevel::kError);
  EXPECT_EQ(Logger::level(), LogLevel::kError);
  // Macro below must not crash or emit when gated.
  VGRID_DEBUG("test") << "suppressed";
  Logger::set_level(saved);
}

// ---- Args (CLI flag parser) ----------------------------------------------------

namespace {
constexpr const char* kSynopsis =
    "[fig1..fig8] [--reps N] [--env NAME] [--ratio R] [--hosts N] "
    "[--count N] [--empty X] [--no-checkpoint] [--verbose] [--dry]";

Args parse(std::initializer_list<const char*> tokens) {
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>("prog"));
  for (const char* token : tokens) {
    argv.push_back(const_cast<char*>(token));
  }
  return Args(kSynopsis, static_cast<int>(argv.size()), argv.data());
}
}  // namespace

TEST(Args, PositionalsAndFlagsSeparated) {
  const Args args = parse({"fig1", "--reps", "10", "fig2"});
  ASSERT_EQ(args.positional().size(), 2u);
  EXPECT_EQ(args.positional()[0], "fig1");
  EXPECT_EQ(args.positional()[1], "fig2");
  EXPECT_EQ(args.get_count<int>("reps", 0), 10);
}

TEST(Args, EqualsSyntax) {
  const Args args = parse({"--env=qemu", "--ratio=2.5"});
  EXPECT_EQ(args.get_or("env", ""), "qemu");
  EXPECT_DOUBLE_EQ(args.get_double("ratio", 0.0), 2.5);
}

TEST(Args, BooleanFlag) {
  const Args args = parse({"--no-checkpoint", "--verbose"});
  EXPECT_TRUE(args.has("no-checkpoint"));
  EXPECT_TRUE(args.has("verbose"));
  EXPECT_FALSE(args.has("dry"));
}

TEST(Args, BooleanFlagFollowedByFlag) {
  const Args args = parse({"--dry", "--reps", "5"});
  EXPECT_TRUE(args.has("dry"));
  EXPECT_EQ(args.get_count<int>("reps", 0), 5);
}

TEST(Args, BooleanFlagNeverTakesAValue) {
  // The word after a boolean flag is a positional, never its value.
  const Args args = parse({"--verbose", "fig1", "--reps", "1"});
  EXPECT_TRUE(args.has("verbose"));
  ASSERT_EQ(args.positional().size(), 1u);
  EXPECT_EQ(args.positional()[0], "fig1");
  // "--bool=value" is a usage error, and reading a boolean as a value is
  // a programming error.
  EXPECT_THROW(parse({"--verbose=yes"}), UsageError);
  EXPECT_THROW((void)args.get("verbose"), std::logic_error);
}

TEST(Args, RejectsUndeclaredAndRepeatedFlags) {
  EXPECT_THROW(parse({"--hostz", "5"}), UsageError);
  EXPECT_THROW(parse({"--reps", "8", "--reps", "1"}), UsageError);
  EXPECT_THROW(parse({"--verbose", "--verbose"}), UsageError);
  // A value flag with no value: at the end, or followed by another flag.
  EXPECT_THROW(parse({"--reps"}), UsageError);
  EXPECT_THROW(parse({"--reps", "--verbose"}), UsageError);
  // Reading a flag the synopsis does not declare throws, so a synopsis
  // cannot drift from the code that reads it.
  const Args args = parse({});
  EXPECT_THROW((void)args.has("missing"), std::logic_error);
  EXPECT_THROW((void)args.get_count("missing", 1), std::logic_error);
}

TEST(Args, FallbacksOnMissingOrMalformed) {
  // Absent flags fall back; a present flag that does not parse in full is
  // a ConfigError, never a silent fallback or a truncated prefix, and a
  // count rejects a negative value instead of wrapping it to 2^64 - N.
  const Args args = parse({"--count", "notanumber", "--hosts", "-5",
                           "--ratio", "2.5x", "--empty="});
  EXPECT_THROW(args.get_count("count", 7), ConfigError);
  EXPECT_THROW(args.get_count("hosts", 7), ConfigError);
  EXPECT_THROW(args.get_double("ratio", 1.0), ConfigError);
  EXPECT_THROW(args.get_count("empty", 7), ConfigError);
  EXPECT_EQ(args.get_count<int>("reps", 9), 9);
  EXPECT_DOUBLE_EQ(args.get_double("env", 1.5), 1.5);
  EXPECT_FALSE(args.get("env").has_value());
  EXPECT_EQ(parse({"--hosts", "100000"}).get_count("hosts", 0), 100000u);
  EXPECT_THROW(parse({"--hosts", "4294967296"}).get_count<int>("hosts", 0),
               ConfigError);
}

// ---- errors -----------------------------------------------------------------

TEST(Errors, SystemErrorCarriesErrno) {
  const SystemError error("open failed", 2);
  EXPECT_EQ(error.errno_value(), 2);
  EXPECT_NE(std::string(error.what()).find("errno=2"), std::string::npos);
}

TEST(Errors, HierarchyIsCatchable) {
  EXPECT_THROW(throw ConfigError("x"), VgridError);
  EXPECT_THROW(throw SimulationError("x"), VgridError);
}

}  // namespace
}  // namespace vgrid::util
