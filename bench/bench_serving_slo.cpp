// Open-loop SLO harness for the serving front end: a Poisson arrival
// process sweeps the offered rate across the stack's measured capacity and
// reports the arrival→completion latency curve — the plot that makes
// saturation visible (closed-loop benches self-throttle and cannot show
// it). One generator thread draws exponential inter-arrival gaps and
// submit()s regardless of how the stack is doing, exactly like outside
// traffic.
//
// The contract this binary gates with `--smoke` (how CI runs it):
//
//   1. below saturation (0.5x capacity): zero rejects, zero sheds, and a
//      bounded p99 — the front end must be invisible when the load is easy;
//   2. above saturation (3x capacity): the queue stays bounded, overload
//      degrades into TYPED counted rejects (queue_full), conservation
//      holds (submitted == admitted + rejects, admitted == completed), and
//      the run terminates — overload must never become a hang;
//   3. every admitted query's scores are bit-identical to Engine::query.
//
// Knobs: MELOPPR_SEEDS (queries per rate point), MELOPPR_RNG_SEED,
// MELOPPR_SCALE, MELOPPR_SLO_THREADS (worker pool, default 4).
#include <cmath>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "core/pipeline.hpp"
#include "core/serving.hpp"

namespace meloppr::bench {
namespace {

struct RatePoint {
  double offered_qps = 0.0;
  core::ServingStats stats;
  std::vector<core::ServedQuery> served;
  double wall_seconds = 0.0;
};

/// Drives one open-loop run: Poisson arrivals at `offered_qps` until
/// `query_count` submissions have been attempted, then drains.
RatePoint run_rate(core::QueryPipeline& pipeline, const graph::Graph& g,
                   double offered_qps, std::size_t query_count, Rng& rng) {
  // The overload valve must be smaller than one run's query count or a
  // saturated burst is simply absorbed and the shedding path never runs.
  core::ServingConfig scfg;
  scfg.queue_capacity = 16;
  scfg.max_in_flight = 8;
  core::ServingFrontEnd fe(pipeline, scfg);

  RatePoint point;
  point.offered_qps = offered_qps;
  Timer wall;
  double next_arrival = 0.0;
  for (std::size_t i = 0; i < query_count; ++i) {
    // Exponential inter-arrival gap: -ln(U)/λ, the Poisson process. The
    // schedule is absolute (gaps accumulate into arrival times) so timer
    // oversleep cannot silently deflate the offered rate.
    next_arrival += -std::log(1.0 - rng.uniform()) / offered_qps;
    const double ahead = next_arrival - wall.elapsed_seconds();
    if (ahead > 0.0) {
      std::this_thread::sleep_for(std::chrono::duration<double>(ahead));
    }
    (void)fe.submit(graph::random_seed_node(g, rng));
  }
  point.served = fe.drain();
  point.wall_seconds = wall.elapsed_seconds();
  fe.shutdown();
  point.stats = fe.stats();
  return point;
}

int run(bool smoke) {
  Rng rng = banner("serving SLO — open-loop Poisson arrival-rate sweep");
  graph::Graph g = build_graph(graph::PaperGraphId::kG1Citeseer, rng);

  core::MelopprConfig cfg = default_config(/*k=*/100);
  cfg.selection = core::Selection::top_ratio(0.03);
  core::Engine engine(g, cfg);
  core::CpuBackend backend(cfg.alpha);
  core::PipelineConfig pcfg;
  pcfg.threads = static_cast<std::size_t>(
      env_int("MELOPPR_SLO_THREADS", 4));
  core::QueryPipeline pipeline(engine, backend, pcfg);

  // --- Calibrate capacity closed-loop: the q/s the stack sustains when
  // arrivals never outrun it. Everything below is offered relative to it.
  // The batch runs twice and only the warm run counts — lazy pool/cache
  // initialization otherwise deflates capacity and defangs the saturated
  // points of the sweep.
  const std::size_t calib_count = bench_seed_count(smoke ? 24 : 64);
  std::vector<graph::NodeId> calib_seeds;
  calib_seeds.reserve(calib_count);
  for (std::size_t i = 0; i < calib_count; ++i) {
    calib_seeds.push_back(graph::random_seed_node(g, rng));
  }
  (void)pipeline.query_batch(calib_seeds);  // warm-up, unmeasured
  Timer calib_wall;
  (void)pipeline.query_batch(calib_seeds);
  const double capacity_qps =
      static_cast<double>(calib_count) / calib_wall.elapsed_seconds();
  std::cout << "closed-loop capacity: " << fmt_fixed(capacity_qps, 1)
            << " q/s at " << pcfg.threads << " threads\n\n";

  // The saturated end is deliberately far past 1.0x: capacity calibration
  // and sleep granularity both carry slack, and the gate needs the queue
  // bound to actually engage.
  const std::vector<double> fractions =
      smoke ? std::vector<double>{0.5, 8.0}
            : std::vector<double>{0.25, 0.5, 0.75, 1.0, 2.0, 4.0, 8.0};
  const std::size_t per_rate = bench_seed_count(smoke ? 60 : 150);

  TablePrinter table({"offered (xcap)", "offered q/s", "completed",
                      "rejected", "p50 (ms)", "p99 (ms)", "max (ms)",
                      "mean queue (ms)", "max pass"});
  std::vector<RatePoint> points;
  points.reserve(fractions.size());
  for (double f : fractions) {
    RatePoint p = run_rate(pipeline, g, f * capacity_qps, per_rate, rng);
    const core::ServingStats& s = p.stats;
    const std::size_t rejected =
        s.rejected_queue_full + s.rejected_deadline + s.rejected_shutdown;
    table.add_row({fmt_fixed(f, 2), fmt_fixed(p.offered_qps, 1),
                   std::to_string(s.completed), std::to_string(rejected),
                   fmt_fixed(s.response_p50_seconds * 1e3, 2),
                   fmt_fixed(s.response_p99_seconds * 1e3, 2),
                   fmt_fixed(s.max_response_seconds * 1e3, 2),
                   fmt_fixed(s.mean_queue_seconds * 1e3, 2),
                   std::to_string(s.max_batch_size)});
    points.push_back(std::move(p));
  }
  std::cout << table.ascii() << '\n'
            << "reading: below 1.0x the latency columns are flat — queueing "
               "is negligible and every arrival is admitted. Crossing "
               "capacity the queue fills, p99 climbs to the queueing limit, "
               "and the rejected column takes over: the bounded queue turns "
               "excess offered load into typed queue_full rejects instead "
               "of unbounded latency. Percentiles are arrival→completion "
               "(admission wait included), so this curve IS the SLO curve.\n";

  if (smoke) {
    std::size_t violations = 0;
    const auto fail = [&violations](const std::string& what) {
      std::cerr << "SMOKE FAIL: " << what << '\n';
      ++violations;
    };
    const RatePoint& easy = points.front();
    const RatePoint& hard = points.back();
    if (easy.stats.rejected_queue_full + easy.stats.shed_deadline != 0) {
      fail("sub-saturation run shed or rejected work");
    }
    if (easy.stats.completed != per_rate) {
      fail("sub-saturation run lost queries: completed " +
           std::to_string(easy.stats.completed) + "/" +
           std::to_string(per_rate));
    }
    if (easy.stats.response_p99_seconds > 1.0) {
      fail("sub-saturation p99 " +
           fmt_fixed(easy.stats.response_p99_seconds, 3) + "s exceeds 1s");
    }
    if (hard.stats.rejected_queue_full == 0) {
      fail("8x-capacity run never hit the queue bound — shedding untested");
    }
    for (const RatePoint* p : {&easy, &hard}) {
      const core::ServingStats& s = p->stats;
      if (s.submitted != s.admitted + s.rejected_queue_full +
                             s.rejected_deadline + s.rejected_shutdown) {
        fail("admission conservation violated");
      }
      if (s.admitted != s.completed + s.shed_deadline) {
        fail("completion conservation violated after drain");
      }
      if (p->served.size() != s.completed + s.shed_deadline) {
        fail("drain() returned a different count than the stats");
      }
    }
    // Bit-identical scores for every admitted query of the easy run.
    std::size_t mismatched = 0;
    for (const core::ServedQuery& sq : easy.served) {
      const core::QueryResult want = engine.query(sq.seed);
      bool same = sq.result.top.size() == want.top.size();
      for (std::size_t r = 0; same && r < want.top.size(); ++r) {
        same = sq.result.top[r].node == want.top[r].node &&
               sq.result.top[r].score == want.top[r].score;
      }
      if (!same) ++mismatched;
    }
    if (mismatched != 0) {
      fail(std::to_string(mismatched) +
           " served queries not bit-identical to Engine::query");
    }
    if (violations != 0) return 1;
    std::cout << "smoke: all serving SLO gates passed\n";
  }
  return 0;
}

}  // namespace
}  // namespace meloppr::bench

int main(int argc, char** argv) {
  const bool smoke = meloppr::bench::parse_bench_args(argc, argv);
  return meloppr::bench::run(smoke);
}
