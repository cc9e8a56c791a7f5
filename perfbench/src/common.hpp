// Shared types of the repo benchmark: command-line options, the result a
// workload hands back, and the helpers every workload's checks use.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.hpp"
#include "measure.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where the traced run writes its spans (JSON lines); empty skips it.
  std::string trace_out;
};

/// What a workload reports. Metrics carry BENCHMARK.json's names; run.py
/// keeps the ones BENCHMARK.json lists for the mode.
struct Result {
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  bool correct = true;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> errors;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// Adds the reported_tail of `s` under `pattern` with its "{p}" replaced
  /// by the tail's label: "{p}_ms.r1" gives "p99_ms.r1" from 1000 samples
  /// and "p90_ms.r1" from 650. Adds nothing when `s` supports no percentile.
  void add_tail(const std::string& pattern, const Summary& s, std::string unit) {
    const Tail t = reported_tail(s);
    if (t.label.empty()) return;
    std::string name = pattern;
    name.replace(name.find("{p}"), 3, t.label);
    add(std::move(name), t.value, std::move(unit));
  }
  void fail_check(std::string what) {
    correct = false;
    errors.push_back(std::move(what));
  }
};

/// Process high-water resident set in MiB; 0 if unavailable.
double peak_rss_mib();

/// CPU seconds consumed by every thread of this process so far. Time the
/// hypervisor steals from the machine is not charged to it.
double process_cpu_s();

/// True when both rankings hold the same nodes with bit-identical scores.
bool same_scores(const meloppr::core::QueryResult& got,
                 const meloppr::core::QueryResult& want);

/// Prints one timing distribution (milliseconds) with its sample count and
/// the percentile the count supports.
void print_timing(const std::string& label, const Summary& s_ms);

/// Summary of `seconds` rescaled to milliseconds.
Summary summarize_ms(const std::vector<double>& seconds);

/// Run serve_zipf / serve_churn (by opt.workload) or batch_farm_cold and
/// fill `result`, failed checks included.
void run_serving(const Options& opt, Result& result);
void run_batch_farm_cold(const Options& opt, Result& result);

}  // namespace perfbench
