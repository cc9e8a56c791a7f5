// The continuous-ingest scheduler (QueryPipeline::query_stream) and the
// SLO-aware serving front end built on it: mid-batch injection stays
// bit-identical to Engine::query, latency attribution is arrival-stamped,
// overload degrades into typed counted sheds, dispatch respects the
// in-flight bound, and tenants cannot starve each other. Custom main: the stream
// hammer scales under MELOPPR_STRESS_ITERS for the sanitizer jobs.
#include "core/serving.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/pipeline.hpp"
#include "graph/generators.hpp"
#include "test_support.hpp"
#include "util/rng.hpp"

namespace meloppr::core {
namespace {

using graph::Graph;

MelopprConfig small_config() {
  MelopprConfig cfg;
  cfg.stage_lengths = {3, 3};
  cfg.k = 20;
  cfg.selection = Selection::top_count(12);
  return cfg;
}

const Graph& test_graph() {
  static Rng rng(test::test_seed());
  static const Graph g = graph::barabasi_albert(500, 2, 2, rng);
  return g;
}

void expect_bit_identical(const QueryResult& got, const QueryResult& want,
                          graph::NodeId seed) {
  ASSERT_EQ(got.top.size(), want.top.size()) << "seed " << seed;
  for (std::size_t r = 0; r < want.top.size(); ++r) {
    EXPECT_EQ(got.top[r].node, want.top[r].node) << "seed " << seed;
    EXPECT_DOUBLE_EQ(got.top[r].score, want.top[r].score) << "seed " << seed;
  }
}

// ---------------------------------------------------------------------------
// query_stream: the continuous-ingest scheduler itself.

TEST(QueryStream, MidBatchInjectionBitIdenticalAtEveryThreadCount) {
  const Graph& g = test_graph();
  Engine engine(g, small_config());
  CpuBackend backend(0.85);

  std::vector<graph::NodeId> seeds;
  for (graph::NodeId s = 0; s < 16; ++s) seeds.push_back((s * 31 + 7) % 500);
  std::vector<QueryResult> want;
  want.reserve(seeds.size());
  for (graph::NodeId s : seeds) want.push_back(engine.query(s));

  for (std::size_t threads : {1u, 2u, 4u, 8u}) {
    PipelineConfig pcfg;
    pcfg.threads = threads;
    QueryPipeline pipeline(engine, backend, pcfg);

    SeedStream stream;
    // Two seeds are present at start; the rest are injected WHILE the
    // batch runs, from another thread, with pauses long enough that
    // workers actually go idle and must be woken event-driven.
    stream.push(seeds[0]);
    stream.push(seeds[1]);
    std::thread pusher([&] {
      for (std::size_t i = 2; i < seeds.size(); ++i) {
        std::this_thread::sleep_for(std::chrono::microseconds(300));
        stream.push(seeds[i]);
      }
      stream.close();
    });

    std::vector<QueryResult> got(seeds.size());
    pipeline.query_stream(stream, [&](std::size_t index, QueryResult&& r) {
      got[index] = std::move(r);
    });
    pusher.join();

    for (std::size_t i = 0; i < seeds.size(); ++i) {
      expect_bit_identical(got[i], want[i], seeds[i]);
    }
  }
}

TEST(QueryStream, ResponseTimesMonotoneOnOneWorker) {
  // K same-arrival queries on a single worker finish in claim order, so
  // arrival-stamped response times must be monotone — the headline bug was
  // exactly this: claim-clocked totals made the last query of a backlog
  // look as cheap as the first.
  const Graph& g = test_graph();
  Engine engine(g, small_config());
  CpuBackend backend(0.85);
  PipelineConfig pcfg;
  pcfg.threads = 1;
  QueryPipeline pipeline(engine, backend, pcfg);

  std::vector<graph::NodeId> seeds;
  for (graph::NodeId s = 0; s < 8; ++s) seeds.push_back((s * 17 + 3) % 500);

  // Stream path.
  SeedStream stream;
  stream.push_all(seeds);
  stream.close();
  std::vector<QueryResult> got(seeds.size());
  pipeline.query_stream(stream, [&](std::size_t index, QueryResult&& r) {
    got[index] = std::move(r);
  });
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_LE(got[i].stats.queue_seconds, got[i].stats.total_seconds + 1e-12);
    EXPECT_GT(got[i].stats.service_seconds(), 0.0);
    if (i > 0) {
      EXPECT_GE(got[i].stats.total_seconds + 1e-9,
                got[i - 1].stats.total_seconds)
          << "query " << i << " reported a response time shorter than the "
          << "one serviced before it — claim-clocked attribution is back";
      EXPECT_GE(got[i].stats.queue_seconds + 1e-9,
                got[i - 1].stats.queue_seconds);
    }
  }

  // Closed-batch path: same contract, same clock fix.
  const std::vector<QueryResult> batch = pipeline.query_batch(seeds);
  for (std::size_t i = 1; i < batch.size(); ++i) {
    EXPECT_GE(batch[i].stats.total_seconds + 1e-9,
              batch[i - 1].stats.total_seconds);
    EXPECT_GE(batch[i].stats.queue_seconds + 1e-9,
              batch[i - 1].stats.queue_seconds);
  }
}

TEST(QueryStream, BatchWallExcludesActivationAndPercentilesCohere) {
  // Two equal batches back to back: the second must not be charged for
  // one-time setup the first already paid, so equal work stays within a
  // generous factor.
  const Graph& g = test_graph();
  Engine engine(g, small_config());
  CpuBackend backend(0.85);
  PipelineConfig pcfg;
  pcfg.threads = 2;
  QueryPipeline pipeline(engine, backend, pcfg);

  std::vector<graph::NodeId> seeds;
  for (graph::NodeId s = 0; s < 12; ++s) seeds.push_back((s * 13 + 1) % 500);

  QueryPipeline::BatchStats first;
  QueryPipeline::BatchStats second;
  (void)pipeline.query_batch(seeds, &first);
  (void)pipeline.query_batch(seeds, &second);

  EXPECT_GT(first.wall_seconds, 0.0);
  EXPECT_GT(second.wall_seconds, 0.0);
  // Generous: scheduler jitter is real, an unmetered activation bias is
  // 100x-scale when a cache warms lazily inside the "batch" window.
  EXPECT_LT(first.wall_seconds, second.wall_seconds * 100.0);
  EXPECT_LT(second.wall_seconds, first.wall_seconds * 100.0);

  for (const QueryPipeline::BatchStats* bs : {&first, &second}) {
    EXPECT_EQ(bs->queries, seeds.size());
    EXPECT_GT(bs->response_p50_seconds, 0.0);
    EXPECT_LE(bs->response_p50_seconds, bs->response_p99_seconds + 1e-12);
    EXPECT_LE(bs->response_p99_seconds, bs->response_p999_seconds + 1e-12);
    EXPECT_LE(bs->response_p999_seconds, bs->max_response_seconds + 1e-12);
    EXPECT_GE(bs->mean_queue_seconds, 0.0);
    EXPECT_LE(bs->mean_queue_seconds, bs->max_response_seconds + 1e-12);
  }
}

TEST(QueryStream, PushAfterCloseThrowsAndStreamIsSingleUse) {
  SeedStream stream;
  EXPECT_EQ(stream.push(1), 0u);
  EXPECT_EQ(stream.push(2), 1u);
  stream.close();
  EXPECT_TRUE(stream.closed());
  EXPECT_THROW(stream.push(3), std::logic_error);
  EXPECT_EQ(stream.size(), 2u);
}

// ---------------------------------------------------------------------------
// ServingFrontEnd: admission, shedding, deadlines, fairness.

ServingConfig frozen_config() {
  ServingConfig cfg;
  cfg.service_estimate_ewma = 0.0;  // deterministic deadline checks
  return cfg;
}

TEST(ServingFrontEnd, ServesBitIdenticalAndConservesCounts) {
  const Graph& g = test_graph();
  Engine engine(g, small_config());
  CpuBackend backend(0.85);
  PipelineConfig pcfg;
  pcfg.threads = 4;
  QueryPipeline pipeline(engine, backend, pcfg);

  ServingFrontEnd fe(pipeline, ServingConfig{});
  std::vector<graph::NodeId> seeds;
  for (graph::NodeId s = 0; s < 24; ++s) seeds.push_back((s * 19 + 5) % 500);
  for (graph::NodeId s : seeds) {
    const Admission a = fe.submit(s);
    EXPECT_TRUE(a.admitted);
    EXPECT_EQ(a.reason, RejectReason::kNone);
    EXPECT_GT(a.ticket, 0u);
  }

  const std::vector<ServedQuery> served = fe.drain();
  ASSERT_EQ(served.size(), seeds.size());
  for (const ServedQuery& sq : served) {
    EXPECT_EQ(sq.status, ServeStatus::kOk);
    EXPECT_TRUE(sq.deadline_met);  // no deadline was set
    EXPECT_GE(sq.response_seconds, 0.0);
    EXPECT_LE(sq.queue_seconds, sq.response_seconds + 1e-12);
    expect_bit_identical(sq.result, engine.query(sq.seed), sq.seed);
  }

  const ServingStats s = fe.stats();
  EXPECT_EQ(s.submitted, seeds.size());
  EXPECT_EQ(s.admitted, seeds.size());
  EXPECT_EQ(s.completed, seeds.size());
  EXPECT_EQ(s.submitted, s.admitted + s.rejected_queue_full +
                             s.rejected_deadline + s.rejected_shutdown);
  EXPECT_EQ(s.admitted,
            s.completed + s.shed_deadline + s.in_flight + s.queued);
  EXPECT_LE(s.response_p50_seconds, s.response_p99_seconds + 1e-12);
  EXPECT_LE(s.response_p99_seconds, s.response_p999_seconds + 1e-12);
  fe.shutdown();
}

TEST(ServingFrontEnd, OverloadShedsWithTypedRejectsNeverHangs) {
  const Graph& g = test_graph();
  Engine engine(g, small_config());
  CpuBackend backend(0.85);
  PipelineConfig pcfg;
  pcfg.threads = 2;
  QueryPipeline pipeline(engine, backend, pcfg);

  ServingConfig scfg = frozen_config();
  scfg.queue_capacity = 4;
  scfg.max_in_flight = 2;
  ServingFrontEnd fe(pipeline, scfg);

  // Submission is instant, service is not: with a 4-deep queue and 2 in
  // flight, a burst of 200 must hit kQueueFull — typed, counted, and
  // without ever blocking the submitter.
  std::size_t admitted = 0;
  std::size_t queue_full = 0;
  for (int i = 0; i < 200; ++i) {
    const Admission a = fe.submit(static_cast<graph::NodeId>(i % 500));
    if (a.admitted) {
      ++admitted;
    } else {
      EXPECT_EQ(a.reason, RejectReason::kQueueFull);
      ++queue_full;
    }
  }
  EXPECT_GT(queue_full, 0u) << "a 4-slot queue absorbed a 200-burst";
  EXPECT_GT(admitted, 0u);

  const std::vector<ServedQuery> served = fe.drain();
  EXPECT_EQ(served.size(), admitted);  // nothing lost, nothing invented
  const ServingStats s = fe.stats();
  EXPECT_EQ(s.submitted, 200u);
  EXPECT_EQ(s.admitted, admitted);
  EXPECT_EQ(s.rejected_queue_full, queue_full);
  EXPECT_EQ(s.admitted, s.completed + s.shed_deadline);

  fe.shutdown();
  // Past shutdown: still typed, still instant.
  const Admission late = fe.submit(1);
  EXPECT_FALSE(late.admitted);
  EXPECT_EQ(late.reason, RejectReason::kShuttingDown);
}

TEST(ServingFrontEnd, ImpossibleDeadlineIsRejectedNotExecuted) {
  const Graph& g = test_graph();
  Engine engine(g, small_config());
  CpuBackend backend(0.85);
  PipelineConfig pcfg;
  pcfg.threads = 2;
  QueryPipeline pipeline(engine, backend, pcfg);

  ServingConfig scfg = frozen_config();
  scfg.initial_service_estimate_seconds = 0.5;  // frozen: never learns down
  ServingFrontEnd fe(pipeline, scfg);

  const Admission a = fe.submit(7, 0, 0.001);  // 1ms budget vs 500ms service
  EXPECT_FALSE(a.admitted);
  EXPECT_EQ(a.reason, RejectReason::kDeadlineImpossible);
  // Deadline 0 = none, negative = config default (also none here).
  EXPECT_TRUE(fe.submit(7, 0, 0.0).admitted);
  EXPECT_TRUE(fe.submit(7).admitted);
  EXPECT_THROW(fe.submit(7, /*tenant=*/5), std::invalid_argument);
  // NaN is neither "default" nor "none": it is caller misuse.
  EXPECT_THROW(fe.submit(7, 0, std::nan("")), std::invalid_argument);
  (void)fe.drain();
  const ServingStats s = fe.stats();
  EXPECT_EQ(s.rejected_deadline, 1u);
  EXPECT_EQ(s.completed, 2u);
}

TEST(ServingFrontEnd, FairQueueingKeepsFloodedTenantFromStarvingOthers) {
  const Graph& g = test_graph();
  Engine engine(g, small_config());
  CpuBackend backend(0.85);
  PipelineConfig pcfg;
  pcfg.threads = 2;
  QueryPipeline pipeline(engine, backend, pcfg);

  ServingConfig scfg = frozen_config();
  scfg.tenants = 2;
  scfg.queue_capacity = 512;
  scfg.max_in_flight = 2;  // force a standing queue so dispatch order shows
  ServingFrontEnd fe(pipeline, scfg);

  // Tenant 0 floods 60 queries, tenant 1 trickles 6 — all submitted before
  // the backlog drains, so without round-robin tenant 1 would wait behind
  // the entire flood.
  for (int i = 0; i < 60; ++i) {
    ASSERT_TRUE(fe.submit(static_cast<graph::NodeId>((i * 7) % 500), 0)
                    .admitted);
  }
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(fe.submit(static_cast<graph::NodeId>((i * 29 + 1) % 500), 1)
                    .admitted);
  }

  const std::vector<ServedQuery> served = fe.drain();
  ASSERT_EQ(served.size(), 66u);
  double max_wait_t1 = 0.0;
  double max_wait_t0 = 0.0;
  for (const ServedQuery& sq : served) {
    (sq.tenant == 1 ? max_wait_t1 : max_wait_t0) =
        std::max(sq.tenant == 1 ? max_wait_t1 : max_wait_t0,
                 sq.queue_seconds);
  }
  // Round-robin dispatches tenant 1's 6 queries within the first ~12
  // slots; tenant 0's tail waits behind its own flood. Strictly less —
  // with a 10x queue-depth gap the margin is enormous.
  EXPECT_LT(max_wait_t1, max_wait_t0)
      << "the flooded tenant's tail must wait longer than the trickle's";
  const ServingStats s = fe.stats();
  ASSERT_EQ(s.tenant_completed.size(), 2u);
  EXPECT_EQ(s.tenant_completed[0], 60u);
  EXPECT_EQ(s.tenant_completed[1], 6u);
  fe.shutdown();
}

TEST(ServingFrontEnd, PipelineErrorSurfacesThroughDrainNotAHang) {
  const Graph& g = test_graph();
  Engine engine(g, small_config());
  CpuBackend backend(0.85);
  PipelineConfig pcfg;
  pcfg.threads = 2;
  QueryPipeline pipeline(engine, backend, pcfg);

  ServingFrontEnd fe(pipeline, frozen_config());
  ASSERT_TRUE(fe.submit(5'000'000).admitted);  // out-of-range: worker throws
  EXPECT_ANY_THROW(fe.drain());
  // Post-mortem: intake rejects typed, shutdown is clean (the error was
  // already delivered once, so it is not thrown again).
  EXPECT_EQ(fe.submit(1).reason, RejectReason::kShuttingDown);
  EXPECT_NO_THROW(fe.shutdown());
}

TEST(ServingFrontEnd, ConfigValidationRejectsNonsense) {
  ServingConfig cfg;
  cfg.tenants = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = ServingConfig{};
  cfg.queue_capacity = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = ServingConfig{};
  cfg.service_estimate_ewma = 1.0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = ServingConfig{};
  cfg.initial_service_estimate_seconds = 0.0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = ServingConfig{};
  cfg.default_deadline_seconds = -0.5;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = ServingConfig{};
  cfg.default_deadline_seconds = std::nan("");
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  EXPECT_NO_THROW(ServingConfig{}.validate());
}

/// A shared CPU backend whose run() blocks until the test opens its gate,
/// so a query can be held in flight without sleeping.
class GatedBackend final : public DiffusionBackend {
 public:
  explicit GatedBackend(double alpha) : alpha_(alpha), cpu_(alpha) {}

  BackendResult run(const graph::Subgraph& ball, double mass,
                    unsigned length) override {
    {
      std::unique_lock<std::mutex> lock(mu_);
      ++entered_;
      entered_cv_.notify_all();
      open_cv_.wait(lock, [this] { return open_; });
    }
    return cpu_.run(ball, mass, length);
  }
  [[nodiscard]] std::size_t working_bytes(
      std::size_t ball_nodes, std::size_t ball_edges) const override {
    return cpu_.working_bytes(ball_nodes, ball_edges);
  }
  [[nodiscard]] std::string name() const override { return "gated-cpu"; }
  [[nodiscard]] std::unique_ptr<DiffusionBackend> clone() const override {
    return std::make_unique<GatedBackend>(alpha_);
  }
  [[nodiscard]] bool thread_safe() const override { return true; }

  /// Blocks until at least one run() call has reached the gate.
  void wait_for_first_run() {
    std::unique_lock<std::mutex> lock(mu_);
    entered_cv_.wait(lock, [this] { return entered_ > 0; });
  }
  void open() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      open_ = true;
    }
    open_cv_.notify_all();
  }

 private:
  double alpha_;
  CpuBackend cpu_;
  std::mutex mu_;
  std::condition_variable entered_cv_;
  std::condition_variable open_cv_;
  std::size_t entered_ = 0;
  bool open_ = false;
};

TEST(ServingFrontEnd, MaxInFlightBoundsEveryFormedBatch) {
  // A dispatch pass must respect the in-flight bound, not only check it
  // before starting: with one query held in flight and room for one more,
  // a 30-deep queue may dispatch exactly one further query.
  const Graph& g = test_graph();
  Engine engine(g, small_config());
  GatedBackend backend(0.85);
  PipelineConfig pcfg;
  pcfg.threads = 2;
  QueryPipeline pipeline(engine, backend, pcfg);

  ServingConfig scfg = frozen_config();
  scfg.max_in_flight = 2;
  ServingFrontEnd fe(pipeline, scfg);

  const auto sample = [&] {
    const ServingStats s = fe.stats();
    EXPECT_LE(s.in_flight, scfg.max_in_flight);
    return s;
  };

  ASSERT_TRUE(fe.submit(3).admitted);
  backend.wait_for_first_run();  // that query is now held in flight
  EXPECT_EQ(sample().in_flight, 1u);
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(fe.submit(static_cast<graph::NodeId>((i * 13 + 1) % 500))
                    .admitted);
  }
  // The dispatcher fills the free slot (and must stop there).
  while (sample().in_flight < scfg.max_in_flight) std::this_thread::yield();

  backend.open();
  while (sample().completed < 31) std::this_thread::yield();
  const std::vector<ServedQuery> served = fe.drain();
  EXPECT_EQ(served.size(), 31u);
  for (const ServedQuery& sq : served) {
    EXPECT_EQ(sq.status, ServeStatus::kOk);
  }
  fe.shutdown();
}

// ---------------------------------------------------------------------------
// Stress: many producers hammering the stream path under the sanitizers.

TEST(ServingFrontEnd, ConcurrentProducerHammerConservesEverything) {
  const Graph& g = test_graph();
  Engine engine(g, small_config());
  CpuBackend backend(0.85);
  PipelineConfig pcfg;
  pcfg.threads = 4;
  QueryPipeline pipeline(engine, backend, pcfg);

  ServingConfig scfg;
  scfg.tenants = 3;
  scfg.queue_capacity = 64;
  scfg.default_deadline_seconds = 0.0;
  ServingFrontEnd fe(pipeline, scfg);

  const std::size_t per_producer = test::stress_iters(120);
  constexpr std::size_t kProducers = 3;
  std::atomic<std::size_t> admitted{0};
  std::atomic<std::size_t> rejected{0};
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (std::size_t t = 0; t < kProducers; ++t) {
    producers.emplace_back([&, t] {
      for (std::size_t i = 0; i < per_producer; ++i) {
        const auto seed = static_cast<graph::NodeId>((i * 13 + t * 101) % 500);
        // A third of the traffic carries a deadline loose enough to pass
        // admission but tight enough that overload sheds some of it.
        const double deadline = (i % 3 == 0) ? 0.25 : 0.0;
        const Admission a = fe.submit(seed, t % scfg.tenants, deadline);
        if (a.admitted) {
          admitted.fetch_add(1, std::memory_order_relaxed);
        } else {
          EXPECT_NE(a.reason, RejectReason::kNone);
          rejected.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& p : producers) p.join();

  const std::vector<ServedQuery> served = fe.drain();
  EXPECT_EQ(served.size(), admitted.load());
  std::size_t ok = 0;
  std::size_t shed = 0;
  for (const ServedQuery& sq : served) {
    if (sq.status == ServeStatus::kOk) {
      ++ok;
      EXPECT_FALSE(sq.result.top.empty());
    } else {
      ++shed;
      EXPECT_GT(sq.deadline_seconds, 0.0);  // only deadlined work sheds
    }
  }
  const ServingStats s = fe.stats();
  EXPECT_EQ(s.submitted, kProducers * per_producer);
  EXPECT_EQ(s.admitted, admitted.load());
  EXPECT_EQ(s.rejected_queue_full + s.rejected_deadline + s.rejected_shutdown,
            rejected.load());
  EXPECT_EQ(s.completed, ok);
  EXPECT_EQ(s.shed_deadline, shed);
  EXPECT_EQ(s.admitted, s.completed + s.shed_deadline);
  fe.shutdown();

  // The stream-wide pipeline accounting is live after shutdown.
  EXPECT_EQ(fe.pipeline_stats().queries, ok);
}

}  // namespace
}  // namespace meloppr::core

int main(int argc, char** argv) {
  return meloppr::test::run_all_tests(argc, argv);
}
