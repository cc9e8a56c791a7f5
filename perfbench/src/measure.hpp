// Sampling and summary helpers of the repo benchmark: the seeded Zipf
// sampler that shapes the serving workloads' seed popularity, and the
// reporting rule for timings (a median plus the highest percentile that
// has at least ten samples beyond it).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace perfbench {

/// Draws ranks in [0, n) with P(rank = i) proportional to 1 / (i + 1)^s.
/// The sequence is a pure function of the Rng's seed.
class ZipfSampler {
 public:
  ZipfSampler(std::size_t n, double exponent) : cdf_(n) {
    if (n == 0) throw std::invalid_argument("ZipfSampler: n must be > 0");
    if (!(exponent >= 0.0)) {
      throw std::invalid_argument("ZipfSampler: exponent must be >= 0");
    }
    double total = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      total += std::pow(static_cast<double>(i + 1), -exponent);
      cdf_[i] = total;
    }
    for (double& c : cdf_) c /= total;
    cdf_.back() = 1.0;
  }

  [[nodiscard]] std::size_t sample(meloppr::Rng& rng) const {
    const double u = rng.uniform();
    const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
    return std::min<std::size_t>(static_cast<std::size_t>(it - cdf_.begin()),
                                 cdf_.size() - 1);
  }

  [[nodiscard]] std::size_t size() const { return cdf_.size(); }

 private:
  std::vector<double> cdf_;
};

/// Samples required beyond a reported percentile.
inline constexpr std::size_t kTailSamplesBeyond = 10;

/// The highest of p50, p90, p99, p99.9 and p99.99 that has at least
/// kTailSamplesBeyond of `n` samples above it; 0 when even the median
/// lacks them.
[[nodiscard]] inline double tail_percentile(std::size_t n) {
  double best = 0.0;
  for (const double p : {50.0, 90.0, 99.0, 99.9, 99.99}) {
    if (static_cast<double>(n) * (100.0 - p) / 100.0 >=
        static_cast<double>(kTailSamplesBeyond) - 1e-9) {
      best = p;
    }
  }
  return best;
}

/// Linear-interpolation percentile of an ascending-sorted sample.
[[nodiscard]] inline double sorted_percentile(const std::vector<double>& sorted,
                                              double p) {
  if (sorted.empty()) return 0.0;
  const double rank =
      p / 100.0 * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

/// A timing distribution as this benchmark reports it.
struct Summary {
  std::size_t count = 0;
  double median = 0.0;
  double mean = 0.0;
  double max = 0.0;
  /// The tail_percentile(count) rank and its value (0 / 0 when count < 20).
  double tail_p = 0.0;
  double tail = 0.0;
  /// The p99, present only when the sample supports it (tail_p >= 99,
  /// i.e. at least 1000 values).
  std::optional<double> p99;
};

[[nodiscard]] inline Summary summarize(std::vector<double> values) {
  Summary s;
  s.count = values.size();
  if (values.empty()) return s;
  std::sort(values.begin(), values.end());
  double sum = 0.0;
  for (const double v : values) sum += v;
  s.mean = sum / static_cast<double>(values.size());
  s.median = sorted_percentile(values, 50.0);
  s.max = values.back();
  s.tail_p = tail_percentile(values.size());
  if (s.tail_p > 0.0) s.tail = sorted_percentile(values, s.tail_p);
  if (s.tail_p >= 99.0) s.p99 = sorted_percentile(values, 99.0);
  return s;
}

/// The tail a metric named for the p99 reports, under the name of the
/// percentile it really is: the p99 as "p99" when the sample supports it,
/// otherwise the highest supported percentile under its own label ("p90",
/// "p50"). An empty sample (a layer the workload does not run) reads
/// "p99" = 0; 1 to 19 samples support no percentile and give an empty label.
struct Tail {
  std::string label;
  double value = 0.0;
};

[[nodiscard]] inline Tail reported_tail(const Summary& s) {
  if (s.count == 0) return {"p99", 0.0};
  if (s.p99) return {"p99", *s.p99};
  if (s.tail_p <= 0.0) return {};
  std::ostringstream label;
  label << 'p' << s.tail_p;
  return {label.str(), s.tail};
}

}  // namespace perfbench
