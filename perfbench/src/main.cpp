// perfbench_runner — runs one workload of the repo benchmark. perfbench/run.py
// builds it, runs it, and turns the final RESULT line into the benchmark's
// JSON result. Each workload's fixed parameters (offered rates, SLO, sizes)
// are constants in its source file.
//
//   perfbench_runner --workload <serve_zipf|batch_farm_cold|serve_churn>
//                    --seed N --seconds S --trace 0|1 [--trace-out spans.jsonl]
//
// Exit codes: 0 ran and every correctness check passed, 1 a check failed,
// 2 bad arguments or an environment that would change what is measured.
#include <sys/resource.h>

#include <cstdlib>
#include <ctime>
#include <exception>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "ppr/diffusion_kernels.hpp"

namespace perfbench {
namespace {

bool parse_args(int argc, char** argv, Options& opt) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      opt.workload = value;
    } else if (key == "--seed") {
      opt.seed = std::stoull(value);
    } else if (key == "--seconds") {
      opt.seconds = std::stod(value);
    } else if (key == "--trace") {
      opt.trace = value == "1";
    } else if (key == "--trace-out") {
      opt.trace_out = value;
    } else {
      std::cerr << "unknown argument " << key << '\n';
      return false;
    }
  }
  return argc % 2 == 1 && !opt.workload.empty() && opt.seconds > 0.0;
}

/// The library reads these at run time; any of them would change the code
/// path being measured (scalar kernels, injected faults, a non-default
/// retry/breaker policy), so the benchmark refuses to report under them.
bool environment_is_pinned() {
  bool pinned = true;
  for (const char* var :
       {"MELOPPR_FORCE_SCALAR", "MELOPPR_FAULT_PLAN",
        "MELOPPR_DISPATCH_ATTEMPTS", "MELOPPR_DISPATCH_DEADLINE",
        "MELOPPR_BREAKER_THRESHOLD", "MELOPPR_BREAKER_PROBE_SECONDS"}) {
    const char* raw = std::getenv(var);
    if (raw != nullptr && *raw != '\0') {
      std::cerr << "refusing to report: " << var << " is set\n";
      pinned = false;
    }
  }
  return pinned;
}

void print_result(const Result& r) {
  std::ostringstream out;
  out.precision(17);
  out << "RESULT {\"correct\": " << (r.correct ? "true" : "false")
      << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
      << ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Result::Metric& m = r.metrics[i];
    out << (i == 0 ? "" : ", ") << '"' << m.name << "\": {\"value\": "
        << m.value << ", \"unit\": \"" << m.unit << "\"}";
  }
  out << "}}";
  std::cout << out.str() << std::endl;
}

}  // namespace

double peak_rss_mib() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double process_cpu_s() {
  timespec ts{};
  if (clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts) != 0) return 0.0;
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

bool same_scores(const meloppr::core::QueryResult& got,
                 const meloppr::core::QueryResult& want) {
  if (got.top.size() != want.top.size()) return false;
  for (std::size_t i = 0; i < got.top.size(); ++i) {
    if (got.top[i].node != want.top[i].node ||
        got.top[i].score != want.top[i].score) {
      return false;
    }
  }
  return true;
}

Summary summarize_ms(const std::vector<double>& seconds) {
  std::vector<double> ms;
  ms.reserve(seconds.size());
  for (const double s : seconds) ms.push_back(s * 1e3);
  return summarize(std::move(ms));
}

void print_timing(const std::string& label, const Summary& s) {
  std::cout << "  " << label << ": n=" << s.count << " p50=" << s.median
            << " ms";
  if (s.tail_p > 0.0) std::cout << " p" << s.tail_p << "=" << s.tail << " ms";
  std::cout << " max=" << s.max << " ms\n";
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  try {
    if (!parse_args(argc, argv, opt)) {
      std::cerr << "usage: perfbench_runner --workload W --seed N --seconds S "
                   "--trace 0|1 [--trace-out FILE]\n";
      return 2;
    }
  } catch (const std::exception& e) {
    std::cerr << "bad argument: " << e.what() << '\n';
    return 2;
  }
  if (!environment_is_pinned()) return 2;

  std::cout << "workload=" << opt.workload << " seed=" << opt.seed
            << " seconds=" << opt.seconds << " trace=" << opt.trace
            << " kernel_tier="
            << meloppr::ppr::to_string(meloppr::ppr::active_kernel_tier())
            << " hardware_threads=" << std::thread::hardware_concurrency()
            << '\n';

  Result result;
  try {
    if (opt.workload == "serve_zipf" || opt.workload == "serve_churn") {
      run_serving(opt, result);
    } else if (opt.workload == "batch_farm_cold") {
      run_batch_farm_cold(opt, result);
    } else {
      std::cerr << "unknown workload " << opt.workload << '\n';
      return 2;
    }
  } catch (const std::exception& e) {
    std::cerr << "workload aborted: " << e.what() << '\n';
    return 1;
  }
  for (const std::string& e : result.errors) {
    std::cerr << "CHECK FAILED: " << e << '\n';
  }
  print_result(result);
  return result.correct ? 0 : 1;
}
