// Unit tests of the benchmark's own sampling and reporting rules.
#include <gtest/gtest.h>

#include <vector>

#include "measure.hpp"

namespace perfbench {
namespace {

std::vector<std::size_t> draws(std::uint64_t seed, std::size_t count) {
  const ZipfSampler zipf(1000, 1.2);
  meloppr::Rng rng(seed);
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < count; ++i) out.push_back(zipf.sample(rng));
  return out;
}

TEST(ZipfSampler, SameSeedGivesSameSequence) {
  EXPECT_EQ(draws(42, 500), draws(42, 500));
  EXPECT_NE(draws(42, 500), draws(43, 500));
}

TEST(ZipfSampler, RanksFollowThePowerLaw) {
  const std::vector<std::size_t> d = draws(7, 200000);
  std::vector<std::size_t> counts(1000, 0);
  for (const std::size_t r : d) {
    ASSERT_LT(r, 1000u);
    ++counts[r];
  }
  // P(rank 0) / P(rank 1) = 2^1.2 ≈ 2.30 under s = 1.2.
  const double head_ratio =
      static_cast<double>(counts[0]) / static_cast<double>(counts[1]);
  EXPECT_NEAR(head_ratio, 2.297, 0.15);
  EXPECT_GT(counts[0], counts[10]);
  EXPECT_GT(counts[10], counts[500]);
}

TEST(ZipfSampler, ExponentZeroIsUniformAndBadInputThrows) {
  const ZipfSampler flat(4, 0.0);
  meloppr::Rng rng(1);
  std::vector<std::size_t> counts(4, 0);
  for (int i = 0; i < 40000; ++i) ++counts[flat.sample(rng)];
  for (const std::size_t c : counts) EXPECT_NEAR(c, 10000.0, 600.0);
  EXPECT_THROW(ZipfSampler(0, 1.0), std::invalid_argument);
  EXPECT_THROW(ZipfSampler(10, -1.0), std::invalid_argument);
}

TEST(TailPercentile, HighestWithTenSamplesBeyond) {
  EXPECT_EQ(tail_percentile(0), 0.0);
  EXPECT_EQ(tail_percentile(19), 0.0);
  EXPECT_EQ(tail_percentile(20), 50.0);
  EXPECT_EQ(tail_percentile(99), 50.0);
  EXPECT_EQ(tail_percentile(100), 90.0);
  EXPECT_EQ(tail_percentile(999), 90.0);
  EXPECT_EQ(tail_percentile(1000), 99.0);
  EXPECT_EQ(tail_percentile(9999), 99.0);
  EXPECT_EQ(tail_percentile(10000), 99.9);
  EXPECT_EQ(tail_percentile(100000), 99.99);
}

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

TEST(Summarize, ReportsMedianTailAndCount) {
  const Summary s = summarize(one_to(1000));
  EXPECT_EQ(s.count, 1000u);
  EXPECT_DOUBLE_EQ(s.median, 500.5);
  EXPECT_EQ(s.tail_p, 99.0);
  ASSERT_TRUE(s.p99.has_value());
  EXPECT_NEAR(*s.p99, 990.01, 1e-9);
  EXPECT_DOUBLE_EQ(s.tail, *s.p99);
  EXPECT_DOUBLE_EQ(s.max, 1000.0);
}

TEST(Summarize, NoP99BelowAThousandSamples) {
  // 999 samples leave only 9.99 beyond the p99: the sample supports p90.
  const Summary s = summarize(one_to(999));
  EXPECT_EQ(s.tail_p, 90.0);
  EXPECT_FALSE(s.p99.has_value());
  EXPECT_NEAR(s.tail, 899.2, 1e-9);
}

TEST(ReportedTail, NamesThePercentileItReports) {
  const Tail full = reported_tail(summarize(one_to(1000)));
  EXPECT_EQ(full.label, "p99");
  EXPECT_NEAR(full.value, 990.01, 1e-9);

  // 10000 samples support p99.9, but a p99 metric still reports the p99.
  const Tail more = reported_tail(summarize(one_to(10000)));
  EXPECT_EQ(more.label, "p99");
  EXPECT_NEAR(more.value, 9900.01, 1e-9);

  const Tail short_of = reported_tail(summarize(one_to(999)));
  EXPECT_EQ(short_of.label, "p90");
  EXPECT_NEAR(short_of.value, 899.2, 1e-9);

  EXPECT_EQ(reported_tail(summarize(one_to(150))).label, "p90");
  EXPECT_EQ(reported_tail(summarize(one_to(99))).label, "p50");
  EXPECT_EQ(reported_tail(summarize(one_to(19))).label, "");

  // An empty sample is a layer the workload does not run.
  const Tail empty = reported_tail(summarize({}));
  EXPECT_EQ(empty.label, "p99");
  EXPECT_EQ(empty.value, 0.0);
}

}  // namespace
}  // namespace perfbench
