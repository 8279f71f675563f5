// Unit tests for vgrid::stats — descriptive stats and Student-t critical
// values.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "stats/descriptive.hpp"
#include "stats/student_t.hpp"
#include "util/rng.hpp"

namespace vgrid::stats {
namespace {

// ---- descriptive ------------------------------------------------------------

TEST(Descriptive, MeanOfKnownSample) {
  const std::vector<double> v{1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(mean(v), 2.5);
}

TEST(Descriptive, MeanOfEmptyIsZero) {
  EXPECT_DOUBLE_EQ(mean({}), 0.0);
}

TEST(Descriptive, SampleStddevKnownValue) {
  const std::vector<double> v{2, 4, 4, 4, 5, 5, 7, 9};
  // population sd = 2; sample sd = sqrt(32/7).
  EXPECT_NEAR(sample_stddev(v), std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(Descriptive, StddevOfSingletonIsZero) {
  const std::vector<double> v{5.0};
  EXPECT_DOUBLE_EQ(sample_stddev(v), 0.0);
}

TEST(Descriptive, MedianOddEven) {
  EXPECT_DOUBLE_EQ(median(std::vector<double>{3, 1, 2}), 2.0);
  EXPECT_DOUBLE_EQ(median(std::vector<double>{4, 1, 3, 2}), 2.5);
}

TEST(Descriptive, QuantileSortedInterpolates) {
  const std::vector<double> v{0, 10};
  EXPECT_DOUBLE_EQ(quantile_sorted(v, 0.5), 5.0);
  EXPECT_DOUBLE_EQ(quantile_sorted(v, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(quantile_sorted(v, 1.0), 10.0);
}

TEST(Descriptive, GeometricMean) {
  const std::vector<double> v{1, 10, 100};
  EXPECT_NEAR(geometric_mean(v), 10.0, 1e-9);
}

TEST(Descriptive, GeometricMeanSkipsNonPositive) {
  const std::vector<double> v{-5, 0, 4, 9};
  EXPECT_NEAR(geometric_mean(v), 6.0, 1e-9);
}

TEST(Descriptive, SummarizeFullFields) {
  const std::vector<double> v{1, 2, 3, 4, 5};
  const Summary s = summarize(v);
  EXPECT_EQ(s.count, 5u);
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
  EXPECT_DOUBLE_EQ(s.median, 3.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 5.0);
  EXPECT_GT(s.ci95_half_width, 0.0);
  EXPECT_LT(s.ci95_lo(), s.mean);
  EXPECT_GT(s.ci95_hi(), s.mean);
}

TEST(Descriptive, SummarizeEmptyIsZeroed) {
  const Summary s = summarize({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.mean, 0.0);
}

TEST(Descriptive, Ci95CoversTrueMeanUsually) {
  // Repeated-sampling property check for the paper's 50-rep methodology.
  util::Xoshiro256 rng(5);
  int covered = 0;
  const int trials = 200;
  for (int t = 0; t < trials; ++t) {
    std::vector<double> sample(50);
    for (auto& v : sample) v = rng.normal(100.0, 15.0);
    const Summary s = summarize(sample);
    if (s.ci95_lo() <= 100.0 && 100.0 <= s.ci95_hi()) ++covered;
  }
  // Expect ~95% coverage; allow generous slack.
  EXPECT_GE(covered, static_cast<int>(trials * 0.88));
}

TEST(Descriptive, TukeyFilterRemovesOutliers) {
  std::vector<double> v{10, 11, 9, 10, 12, 10, 11, 1000};
  const auto filtered = tukey_filter(v);
  EXPECT_EQ(filtered.size(), 7u);
  for (const double x : filtered) EXPECT_LT(x, 100.0);
}

TEST(Descriptive, TukeyFilterKeepsSmallSamples) {
  const std::vector<double> v{1, 1000, 2};
  EXPECT_EQ(tukey_filter(v).size(), 3u);
}

// ---- Student t ---------------------------------------------------------------

TEST(StudentT, TableValues) {
  EXPECT_NEAR(t_critical(1, 0.95), 12.706, 1e-3);
  EXPECT_NEAR(t_critical(10, 0.95), 2.228, 1e-3);
  EXPECT_NEAR(t_critical(30, 0.99), 2.750, 1e-3);
  EXPECT_NEAR(t_critical(30, 0.90), 1.697, 1e-3);
}

TEST(StudentT, LargeDofApproachesNormal) {
  EXPECT_NEAR(t_critical(100, 0.95), 1.984, 0.01);
  EXPECT_NEAR(t_critical(100000, 0.95), 1.96, 0.01);
}

TEST(StudentT, ZCritical) {
  EXPECT_NEAR(z_critical(0.95), 1.95996, 1e-3);
  EXPECT_NEAR(z_critical(0.99), 2.5758, 1e-3);
}

TEST(StudentT, DofClampedToOne) {
  EXPECT_NEAR(t_critical(0, 0.95), 12.706, 1e-3);
}

}  // namespace
}  // namespace vgrid::stats
