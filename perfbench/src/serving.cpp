// serve_zipf and serve_churn: open-loop Poisson traffic through
// core::ServingFrontEnd on the Pubmed stand-in (G3), with Zipf-distributed
// seeds over a fixed popularity order, a CPU float64 backend and a
// ShardedBallCache large enough for the hot set. serve_churn adds
// degree-biased edge updates from the same generator thread.
#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common.hpp"
#include "core/pipeline.hpp"
#include "core/serving.hpp"
#include "core/sharded_ball_cache.hpp"
#include "graph/dynamic_graph.hpp"
#include "graph/paper_graphs.hpp"
#include "graph/update_streams.hpp"
#include "layers.hpp"
#include "ppr/local_ppr.hpp"
#include "trace.hpp"
#include "util/timer.hpp"

namespace perfbench {
namespace {

using meloppr::Rng;
using meloppr::Timer;
using meloppr::core::ServedQuery;
using meloppr::graph::Graph;
using meloppr::graph::NodeId;
namespace core = meloppr::core;
namespace graph = meloppr::graph;

// The graph and the popularity order are fixed, so every seed serves the
// same hot set; the workload seed shapes only the arrival times, the
// seed draws and the update stream.
constexpr std::uint64_t kGraphSeed = 20210705;
constexpr std::uint64_t kPopularitySeed = 7;
/// An assumed popularity skew, not a measured or published one (the
/// repository's cache-admission test uses 1.1). It sets the share of stage
/// balls served from the cache (about 97%), and so which layers carry
/// serve_zipf.
constexpr double kZipfExponent = 1.2;
/// serve_zipf's fixed absolute offered rates r1 < r2 < r3 (queries/s), set
/// at about 0.3, 0.6 and 0.9 of its saturated throughput through the front
/// end when the benchmark was defined (the capacity runs are recorded in
/// perfbench/README.md). They are never recalibrated.
constexpr std::array<double, 3> kZipfRates{130.0, 260.0, 360.0};
/// The fixed ladder above r3 that locates max_qps_under_slo, and the p99
/// limit (ms) a rung must meet.
constexpr std::array<double, 7> kLadder{380.0, 420.0, 460.0, 500.0,
                                        540.0, 580.0, 620.0};
constexpr double kSloP99Ms = 250.0;
/// serve_churn's one offered rate, and one edge update per this many
/// arrivals.
constexpr double kChurnRate = 100.0;
constexpr std::size_t kQueriesPerUpdate = 500;
/// Pipeline workers; with the generator thread that is 4 busy threads
/// (the CPU backend keeps the prefetch threads unspawned).
constexpr std::size_t kWorkers = 3;
constexpr std::size_t kCacheBytes = std::size_t{512} << 20;
constexpr std::size_t kWarmupQueries = 1500;
constexpr std::size_t kSetupRepetitions = 3;
constexpr std::size_t kCheckSample = 12;
/// serve_zipf: interleaved rounds of one window per fixed rate, saturation
/// bursts, and arrivals per ladder probe (exactly 1000, so the probe's p99
/// has ten samples beyond it).
constexpr std::size_t kRounds = 5;
constexpr std::size_t kBursts = 7;
constexpr std::size_t kBurstQueries = 500;
constexpr std::size_t kProbeQueries = 1000;
constexpr double kLeadSeconds = 0.005;

core::MelopprConfig serve_config() {
  core::MelopprConfig cfg;  // paper setup: L = 3 + 3, k = 200, top 5%
  cfg.k = 200;
  return cfg;
}

struct Popularity {
  std::vector<NodeId> order;  ///< rank → node (non-isolated nodes only)
  ZipfSampler zipf;

  explicit Popularity(const Graph& g)
      : order(non_isolated(g)), zipf(order.size(), kZipfExponent) {
    Rng rng(kPopularitySeed);
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.below(i)]);
    }
  }
  NodeId draw(Rng& rng) const { return order[zipf.sample(rng)]; }

  static std::vector<NodeId> non_isolated(const Graph& g) {
    std::vector<NodeId> nodes;
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      if (g.degree(v) > 0) nodes.push_back(v);
    }
    return nodes;
  }
};

struct Stack {
  // Declaration order is destruction order in reverse: the pipeline goes
  // first, the dynamic graph (which the cache listens to) last.
  std::unique_ptr<graph::DynamicGraph> dyn;
  std::unique_ptr<core::ShardedBallCache> cache;
  std::unique_ptr<core::Engine> engine;
  std::unique_ptr<core::DiffusionBackend> cpu;
  std::unique_ptr<TracingBackend> traced;
  std::unique_ptr<core::QueryPipeline> pipeline;
};

std::unique_ptr<Stack> build_stack(const Graph& g, bool churn,
                                   SpanSink* sink,
                                   const std::vector<NodeId>& warm) {
  auto s = std::make_unique<Stack>();
  const core::MelopprConfig cfg = serve_config();
  s->cache = std::make_unique<core::ShardedBallCache>(g, kCacheBytes);
  if (sink != nullptr) s->cache->set_extractor(traced_extractor(*sink));
  s->engine = std::make_unique<core::Engine>(g, cfg);
  if (churn) {
    // bind_dynamic_graph replaces the extractor, so serve_churn sees
    // extraction only as cache misses.
    s->dyn = std::make_unique<graph::DynamicGraph>(g);
    s->cache->bind_dynamic_graph(*s->dyn);
    s->engine->set_dynamic_graph(s->dyn.get());
  }
  s->engine->set_shared_ball_cache(s->cache.get());
  s->cpu = core::make_cpu_backend(g, cfg);
  core::DiffusionBackend* backend = s->cpu.get();
  if (sink != nullptr) {
    s->traced = std::make_unique<TracingBackend>(*s->cpu, *sink, "ppr.diffuse");
    backend = s->traced.get();
  }
  core::PipelineConfig pcfg;
  pcfg.threads = kWorkers;
  s->pipeline = std::make_unique<core::QueryPipeline>(*s->engine, *backend, pcfg);
  (void)s->pipeline->query_batch(warm);
  return s;
}

struct Event {
  double due = 0.0;  ///< seconds after the phase start
  NodeId seed = graph::kInvalidNode;
  bool is_update = false;
  graph::EdgeUpdate update;
};

/// Poisson arrivals at `rate` for `seconds` or until `max_arrivals`,
/// whichever ends first; with `updates` non-null one update (taken in
/// order) follows every kQueriesPerUpdate-th arrival at the same due time.
std::vector<Event> make_schedule(double rate, double seconds,
                                 std::size_t max_arrivals,
                                 const Popularity& pop, Rng& rng,
                                 const std::vector<graph::EdgeUpdate>* updates,
                                 std::size_t* next_update) {
  std::vector<Event> events;
  double t = 0.0;
  std::size_t arrivals = 0;
  while (arrivals < max_arrivals) {
    t += -std::log(1.0 - rng.uniform()) / rate;
    if (t > seconds) break;
    Event q;
    q.due = t;
    q.seed = pop.draw(rng);
    events.push_back(q);
    if (++arrivals % kQueriesPerUpdate == 0 && updates != nullptr &&
        *next_update < updates->size()) {
      Event u;
      u.due = t;
      u.is_update = true;
      u.update = (*updates)[(*next_update)++];
      events.push_back(u);
    }
  }
  return events;
}

struct Phase {
  std::string label;
  double rate = 0.0;
  std::size_t queries = 0;
  std::size_t succeeded = 0;
  std::size_t failed = 0;
  std::size_t updates = 0;
  std::size_t update_failures = 0;
  std::vector<double> latency_s;  ///< due → completion, succeeded only
  std::vector<double> update_latency_s;
  std::vector<double> lag_s;
  std::vector<double> submit_s;
  std::vector<double> admission_wait_s;
  std::vector<double> claim_wait_s;
  std::vector<double> service_s;
  std::vector<ServedQuery> served;  ///< succeeded, ticket order
  core::ServingStats stats;
  core::QueryPipeline::BatchStats pipeline;
  core::ShardedBallCache::Stats cache;  ///< delta over the phase
  std::size_t backlog_mid = 0;
  std::size_t backlog_end = 0;
  double wall_s = 0.0;  ///< first due → last completion
  std::uint64_t balls = 0;
  std::uint64_t edge_ops = 0;
};

std::size_t outstanding(const core::ServingStats& s) {
  return s.queued + s.in_flight;
}

Phase run_phase(Stack& s, const std::vector<Event>& events, double rate,
                const std::string& label, SpanSink* sink) {
  core::ServingConfig scfg;
  // Large enough that no phase this benchmark offers is ever rejected:
  // overload shows as latency and backlog, and no operation fails.
  scfg.queue_capacity = std::size_t{1} << 20;
  Phase p;
  p.label = label;
  p.rate = rate;
  const core::ShardedBallCache::Stats before = s.cache->stats();
  core::ServingFrontEnd fe(*s.pipeline, scfg);
  if (s.dyn) fe.set_dynamic_graph(s.dyn.get());
  const double to_sink = sink != nullptr ? sink->now() - fe.now() : 0.0;
  std::unordered_map<std::uint64_t, double> due_of;
  due_of.reserve(events.size());
  const double start = fe.now() + kLeadSeconds;

  for (std::size_t i = 0; i < events.size(); ++i) {
    const Event& ev = events[i];
    const double due = start + ev.due;
    const double ahead = due - fe.now();
    if (ahead > 0.0) {
      std::this_thread::sleep_for(std::chrono::duration<double>(ahead));
    }
    const double t0 = fe.now();
    p.lag_s.push_back(t0 - due);
    if (ev.is_update) {
      ++p.updates;
      try {
        (void)fe.submit_update(ev.update);
      } catch (const std::exception&) {
        ++p.update_failures;
      }
      const double t1 = fe.now();
      p.update_latency_s.push_back(t1 - due);
      if (sink != nullptr) {
        sink->record("graph.update", 0, t0 + to_sink, t1 + to_sink);
      }
    } else {
      ++p.queries;
      const core::Admission a = fe.submit(ev.seed);
      const double t1 = fe.now();
      p.submit_s.push_back(t1 - t0);
      if (a.admitted) {
        due_of.emplace(a.ticket, due);
        if (sink != nullptr) {
          sink->record("serve.submit", a.ticket, t0 + to_sink, t1 + to_sink);
        }
      } else {
        ++p.failed;
      }
    }
    if (i + 1 == events.size() / 2) p.backlog_mid = outstanding(fe.stats());
  }
  p.backlog_end = outstanding(fe.stats());
  std::vector<ServedQuery> done = fe.drain();
  fe.shutdown();
  p.stats = fe.stats();
  p.pipeline = fe.pipeline_stats();
  p.cache = cache_delta(s.cache->stats(), before);

  std::sort(done.begin(), done.end(),
            [](const ServedQuery& a, const ServedQuery& b) {
              return a.ticket < b.ticket;
            });
  double last_completion = start;
  for (ServedQuery& sq : done) {
    const double completion = sq.arrival_seconds + sq.response_seconds;
    last_completion = std::max(last_completion, completion);
    if (sq.status != core::ServeStatus::kOk ||
        sq.result.stats.outcome() == core::QueryOutcome::kFailed) {
      ++p.failed;
      continue;
    }
    ++p.succeeded;
    const core::QueryStats& qs = sq.result.stats;
    const double claim = qs.queue_seconds;
    const double admission = std::max(0.0, sq.queue_seconds - claim);
    const double service = qs.service_seconds();
    p.latency_s.push_back(completion - due_of.at(sq.ticket));
    p.admission_wait_s.push_back(admission);
    p.claim_wait_s.push_back(claim);
    p.service_s.push_back(service);
    p.balls += qs.total_balls();
    p.edge_ops += qs.edge_ops();
    if (sink != nullptr) {
      const double a0 = sq.arrival_seconds + to_sink;
      sink->record("serving.admission_wait", sq.ticket, a0, a0 + admission);
      sink->record("pipeline.claim_wait", sq.ticket, a0 + admission,
                   a0 + admission + claim);
      sink->record("pipeline.service", sq.ticket, completion + to_sink - service,
                   completion + to_sink);
    }
    p.served.push_back(std::move(sq));
  }
  p.wall_s = last_completion - start;

  std::cout << "phase " << p.label << " rate=" << p.rate
            << " q/s: attempted=" << p.queries << " succeeded=" << p.succeeded
            << " failed=" << p.failed;
  if (p.updates > 0) {
    std::cout << " updates attempted=" << p.updates
              << " failed=" << p.update_failures;
  }
  std::cout << " backlog mid/end=" << p.backlog_mid << "/" << p.backlog_end
            << " cache hit ratio=" << p.cache.hit_rate() << " of "
            << p.cache.hits + p.cache.misses
            << " invalidations=" << p.cache.invalidations << '\n';
  print_timing("due->completion", summarize_ms(p.latency_s));
  if (!p.update_latency_s.empty()) {
    print_timing("update due->return", summarize_ms(p.update_latency_s));
  }
  return p;
}

/// The SLO of max_qps_under_slo over one probe, or the pooled windows of
/// one fixed rate: p99 at or under kSloP99Ms with failed queries counted
/// as misses, at most 1% failed, and no phase whose backlog grew. A sample
/// of fewer than 1000 queries cannot show its p99 and does not meet it.
bool meets_slo(const std::vector<const Phase*>& phases) {
  std::vector<double> ms;
  std::size_t queries = 0;
  std::size_t failed = 0;
  bool backlog_grew = false;
  for (const Phase* p : phases) {
    for (const double s : p->latency_s) ms.push_back(s * 1e3);
    queries += p->queries;
    failed += p->failed;
    const double slack =
        std::max(32.0, static_cast<double>(p->queries) / 20.0);
    backlog_grew |= static_cast<double>(p->backlog_end) >
                    static_cast<double>(p->backlog_mid) + slack;
  }
  ms.insert(ms.end(), failed, 1e300);
  const std::optional<double> p99 = summarize(std::move(ms)).p99;
  return p99 && *p99 <= kSloP99Ms &&
         static_cast<double>(failed) <= 0.01 * static_cast<double>(queries) &&
         !backlog_grew;
}

/// The fixed check sample: for each of the kCheckSample most popular
/// seeds, its first served query (phase order, then ticket order). The
/// popularity order is fixed, so every run checks the same seeds.
std::vector<const ServedQuery*> check_sample(
    const std::vector<const Phase*>& phases, const Popularity& pop) {
  std::vector<const ServedQuery*> out;
  for (std::size_t rank = 0; rank < kCheckSample; ++rank) {
    const NodeId seed = pop.order[rank];
    const ServedQuery* first = nullptr;
    for (const Phase* p : phases) {
      for (const ServedQuery& sq : p->served) {
        if (sq.seed == seed) {
          first = &sq;
          break;
        }
      }
      if (first != nullptr) break;
    }
    if (first != nullptr) out.push_back(first);
  }
  return out;
}

struct CheckOutcome {
  std::size_t mismatches = 0;
  double precision = 0.0;
  double peak_kb = 0.0;
};

/// Bit-identity against a serial cacheless Engine::query on `g` (same
/// float64 numerics and exact aggregation) and precision@k against
/// ppr::local_ppr on `g`.
CheckOutcome check_against(const Graph& g,
                           const std::vector<const ServedQuery*>& sample) {
  const core::MelopprConfig cfg = serve_config();
  const core::Engine ref(g, cfg);
  CheckOutcome out;
  std::vector<double> peaks;
  for (const ServedQuery* sq : sample) {
    const core::QueryResult want = ref.query(sq->seed);
    if (!same_scores(sq->result, want)) ++out.mismatches;
    peaks.push_back(static_cast<double>(want.stats.peak_bytes) / 1024.0);
    const meloppr::ppr::LocalPprResult exact = meloppr::ppr::local_ppr(
        g, sq->seed, {cfg.alpha, cfg.total_length(), cfg.k});
    out.precision += meloppr::ppr::precision_at_k(exact.top, sq->result.top,
                                                  cfg.k);
  }
  if (!sample.empty()) out.precision /= static_cast<double>(sample.size());
  out.peak_kb = summarize(peaks).median;
  return out;
}

/// One fixed rate's open-loop windows. Each window is its own front-end
/// life, so a noisy stretch of one window cannot queue work into the next,
/// and the rates' windows interleave, so such a stretch hits every rate.
struct RateWindows {
  std::string label;
  double rate = 0.0;
  std::vector<Phase> windows;

  [[nodiscard]] std::vector<double> pooled_latency_s() const {
    std::vector<double> all;
    for (const Phase& w : windows) {
      all.insert(all.end(), w.latency_s.begin(), w.latency_s.end());
    }
    return all;
  }
  /// Median over windows of each window's p50 latency (ms).
  [[nodiscard]] double window_median_p50_ms() const {
    std::vector<double> per_window;
    for (const Phase& w : windows) per_window.push_back(summarize_ms(w.latency_s).median);
    return summarize(per_window).median;
  }
};

/// Everything one pass over the workload's phases produced.
struct Pass {
  std::vector<RateWindows> rates;  ///< r1, r2, r3 (serve_churn: its one rate)
  std::vector<Phase> bursts;       ///< saturation bursts (serve_zipf)
  std::vector<double> burst_qps;
  std::vector<Phase> ladder;       ///< probed rungs, in probe order
  double max_qps_under_slo = 0.0;
  /// Per round: process CPU over its fixed-rate windows ÷ their completed
  /// queries (ms).
  std::vector<double> round_cpu_ms_per_query;

  [[nodiscard]] std::vector<const Phase*> phases() const {
    std::vector<const Phase*> all;
    for (const RateWindows& r : rates) {
      for (const Phase& w : r.windows) all.push_back(&w);
    }
    for (const Phase& b : bursts) all.push_back(&b);
    for (const Phase& l : ladder) all.push_back(&l);
    return all;
  }
};

void fold_into(LayerLedger& l, const Phase& p) {
  l.queries += p.succeeded;
  l.submit_s.insert(l.submit_s.end(), p.submit_s.begin(), p.submit_s.end());
  l.admission_wait_s.insert(l.admission_wait_s.end(),
                            p.admission_wait_s.begin(),
                            p.admission_wait_s.end());
  l.claim_wait_s.insert(l.claim_wait_s.end(), p.claim_wait_s.begin(),
                        p.claim_wait_s.end());
  l.service_s.insert(l.service_s.end(), p.service_s.begin(),
                     p.service_s.end());
  l.lag_s.insert(l.lag_s.end(), p.lag_s.begin(), p.lag_s.end());
  l.batches += p.stats.batches_formed;
  l.admitted += p.stats.admitted;
  l.rejected += p.stats.rejected_queue_full + p.stats.rejected_deadline +
                p.stats.rejected_shutdown;
  l.shed += p.stats.shed_deadline;
  accumulate(l.cache, p.cache);
  l.add_batch(p.pipeline);
}

}  // namespace

void run_serving(const Options& opt, Result& result) {
  const bool churn = opt.workload == "serve_churn";
  const std::vector<double> fixed_rates =
      churn ? std::vector<double>{kChurnRate}
            : std::vector<double>(kZipfRates.begin(), kZipfRates.end());
  std::cout << "rates";
  for (const double r : fixed_rates) std::cout << ' ' << r;
  std::cout << " q/s  workers=" << kWorkers
            << " generator_threads=1 zipf_s=" << kZipfExponent << '\n';

  Rng root(opt.seed);
  Rng warm_rng = root.fork(1);
  Rng traffic_seed_rng = root.fork(2);
  const std::uint64_t traffic_seed = traffic_seed_rng();
  Rng update_rng = root.fork(3);

  // --- Set-up, timed and repeated; the last repetition is measured.
  std::unique_ptr<Graph> g;
  std::unique_ptr<Popularity> pop;
  std::unique_ptr<Stack> stack;
  // setup_s is set-up CPU time: on a shared host the wall time swings with
  // the CPU time the hypervisor steals, and CPU time is not charged for it.
  std::vector<double> setup_s;
  std::vector<double> setup_wall_s;
  std::vector<NodeId> warm;
  const std::size_t reps = opt.trace ? 1 : kSetupRepetitions;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    stack.reset();
    pop.reset();
    g.reset();
    Timer t;
    const double cpu0 = process_cpu_s();
    Rng grng(kGraphSeed);
    g = std::make_unique<Graph>(
        graph::make_paper_graph(graph::PaperGraphId::kG3Pubmed, grng));
    pop = std::make_unique<Popularity>(*g);
    Rng wr = warm_rng;
    warm.clear();
    for (std::size_t i = 0; i < kWarmupQueries; ++i) warm.push_back(pop->draw(wr));
    stack = build_stack(*g, churn, nullptr, warm);
    setup_wall_s.push_back(t.elapsed_seconds());
    setup_s.push_back(process_cpu_s() - cpu0);
  }
  std::cout << "set-up: median " << summarize(setup_s).median
            << " CPU s, " << summarize(setup_wall_s).median << " wall s over "
            << reps << " repetition(s)\n";
  std::cout << "graph " << g->summary() << "  cache " << stack->cache->entries()
            << " balls / " << stack->cache->bytes() / (1024.0 * 1024.0)
            << " MiB after warm-up\n";

  // --- Inputs. serve_zipf spends half of --seconds on kRounds rounds of
  // one window per fixed rate; its saturation bursts and ladder probes
  // are sized in arrivals, and at these rates take about the other half. serve_churn runs one window of --seconds. A traced run
  // runs only the windows, twice (untraced, traced), each pass at half of
  // --seconds.
  const std::size_t rounds = churn ? 1 : kRounds;
  const double window_share = churn ? (opt.trace ? 0.5 : 1.0) : 0.5;
  const double window_s = opt.seconds * window_share /
                          static_cast<double>(rounds * fixed_rates.size());

  std::vector<graph::EdgeUpdate> updates;
  if (churn) {
    graph::UpdateStreamConfig ucfg;
    ucfg.count = static_cast<std::size_t>(fixed_rates[0] * window_s * 1.2) /
                     kQueriesPerUpdate + 16;
    updates = graph::make_update_stream(
        *g, graph::UpdateWorkload::kRecommenderChurn, ucfg, update_rng);
  }
  auto schedule_for = [&](double rate, double seconds,
                          std::size_t max_arrivals, std::size_t index) {
    Rng rng(traffic_seed + 0x9e37 * (index + 1));
    std::size_t next_update = 0;
    return make_schedule(rate, seconds, max_arrivals, *pop, rng,
                         churn ? &updates : nullptr, &next_update);
  };

  auto run_pass = [&](Stack& s, SpanSink* sink) {
    Pass pass;
    for (std::size_t i = 0; i < fixed_rates.size(); ++i) {
      std::string label = "churn";
      if (!churn) label = std::string("r").append(std::to_string(i + 1));
      pass.rates.push_back({label, fixed_rates[i], {}});
    }
    for (std::size_t round = 0; round < rounds; ++round) {
      const double cpu_start = process_cpu_s();
      std::size_t served = 0;
      for (RateWindows& r : pass.rates) {
        const std::size_t index = round * pass.rates.size() +
                                  static_cast<std::size_t>(&r - pass.rates.data());
        r.windows.push_back(run_phase(
            s, schedule_for(r.rate, window_s, SIZE_MAX, index), r.rate,
            r.label, sink));
        served += r.windows.back().succeeded;
      }
      pass.round_cpu_ms_per_query.push_back(
          served == 0 ? 0.0
                      : (process_cpu_s() - cpu_start) * 1e3 /
                            static_cast<double>(served));
    }
    if (churn || opt.trace) return pass;

    // Saturation throughput through the front end: every arrival of a
    // burst is due at once, so the queue never empties until the end.
    for (std::size_t b = 0; b < kBursts; ++b) {
      Rng rng(traffic_seed + 0x51ed * (b + 1));
      std::vector<Event> burst(kBurstQueries);
      for (Event& e : burst) e.seed = pop->draw(rng);
      Phase p = run_phase(s, burst, 0.0, "burst", nullptr);
      pass.burst_qps.push_back(
          p.wall_s > 0.0 ? static_cast<double>(p.succeeded) / p.wall_s : 0.0);
      pass.bursts.push_back(std::move(p));
    }

    // Bisect the fixed ladder for its highest rung meeting the SLO; the
    // fixed rates are the rungs below it.
    std::ptrdiff_t lo = -1;
    auto hi = static_cast<std::ptrdiff_t>(kLadder.size());
    while (hi - lo > 1) {
      const std::ptrdiff_t mid = (lo + hi) / 2;
      const double rate = kLadder[static_cast<std::size_t>(mid)];
      Phase p = run_phase(
          s,
          schedule_for(rate, HUGE_VAL, kProbeQueries,
                       1000 + static_cast<std::size_t>(mid)),
          rate, "ladder", nullptr);
      const bool ok = meets_slo({&p});
      std::cout << "  ladder rung " << rate << " q/s "
                << (ok ? "meets" : "misses") << " the SLO\n";
      (ok ? lo : hi) = mid;
      pass.ladder.push_back(std::move(p));
    }
    if (lo >= 0) {
      pass.max_qps_under_slo = kLadder[static_cast<std::size_t>(lo)];
    } else {
      for (std::size_t i = pass.rates.size(); i-- > 0;) {
        std::vector<const Phase*> windows;
        for (const Phase& w : pass.rates[i].windows) windows.push_back(&w);
        if (meets_slo(windows)) {
          pass.max_qps_under_slo = pass.rates[i].rate;
          break;
        }
      }
    }
    return pass;
  };

  // --- Untraced pass: every end-to-end metric comes from here.
  Pass plain = run_pass(*stack, nullptr);
  const double peak_rss = peak_rss_mib();
  for (const Phase* p : plain.phases()) {
    result.attempted += p->queries + p->updates;
    result.failed += p->failed + p->update_failures;
  }

  // --- Correctness: the fixed check sample against a serial engine. For
  // serve_churn the sample is re-served after the update stream ended and
  // checked against a from-scratch rebuild of the final graph.
  std::vector<const ServedQuery*> sample = check_sample(plain.phases(), *pop);
  CheckOutcome check;
  Phase reserved;
  if (churn) {
    std::vector<Event> again(kCheckSample);
    for (std::size_t rank = 0; rank < kCheckSample; ++rank) {
      again[rank].seed = pop->order[rank];
    }
    reserved = run_phase(*stack, again, 0.0, "re-serve after updates", nullptr);
    sample.clear();
    for (const ServedQuery& sq : reserved.served) sample.push_back(&sq);
    const Graph final_graph = stack->dyn->materialize();
    check = check_against(final_graph, sample);
  } else {
    check = check_against(*g, sample);
  }
  if (sample.size() != kCheckSample) {
    result.fail_check("only " + std::to_string(sample.size()) + " of the " +
                      std::to_string(kCheckSample) +
                      " fixed check seeds were served");
  }
  std::cout << "check: " << sample.size() - check.mismatches << "/"
            << sample.size()
            << " sampled queries bit-identical to serial Engine::query"
            << (churn ? " on the rebuilt final graph" : "")
            << "; precision@k vs local_ppr=" << check.precision << '\n';
  if (check.mismatches != 0) {
    result.fail_check(std::to_string(check.mismatches) +
                      " served queries differ from serial Engine::query");
  }

  // --- Report. p50_ms is the median over the reference rate's windows
  // (r2; serve_churn's one rate) of each window's p50.
  const RateWindows& ref = plain.rates[churn ? 0 : 1];
  const double p50_ms = ref.window_median_p50_ms();
  std::cout << "end-to-end (open loop, latency from due time, pooled over "
            << rounds << " window(s) per rate):\n";
  for (const RateWindows& r : plain.rates) {
    const Summary s = summarize_ms(r.pooled_latency_s());
    std::size_t queries = 0;
    std::size_t failed = 0;
    for (const Phase& w : r.windows) {
      queries += w.queries;
      failed += w.failed;
    }
    std::cout << "  p50_ms." << r.label << "=" << s.median << " p"
              << s.tail_p << "_ms." << r.label << "=" << s.tail
              << " (n=" << s.count << ", failed " << failed << "/" << queries
              << ")\n";
    if (!opt.trace) {
      result.add("p50_ms." + r.label, s.median, "ms");
      result.add_tail("{p}_ms." + r.label, s, "ms");
    }
  }
  const double fail_ratio =
      result.attempted == 0 ? 0.0
                            : static_cast<double>(result.failed) /
                                  static_cast<double>(result.attempted);
  std::vector<double> update_s;
  for (const Phase& w : ref.windows) {
    update_s.insert(update_s.end(), w.update_latency_s.begin(),
                    w.update_latency_s.end());
  }
  const Summary update_latency = summarize_ms(update_s);
  const double saturated_qps = summarize(plain.burst_qps).median;
  if (!churn && !opt.trace) {
    std::cout << "  max_qps_under_slo=" << plain.max_qps_under_slo
              << " q/s (p99 <= " << kSloP99Ms << " ms, fail_ratio <= 1%, "
              << "no backlog growth)\n  saturated q/s per burst:";
    for (const double q : plain.burst_qps) std::cout << ' ' << q;
    std::cout << " (median " << saturated_qps << ")\n";
  } else if (churn) {
    print_timing("update due->return", update_latency);
  }
  std::cout << "  fail_ratio=" << fail_ratio << " (" << result.failed << "/"
            << result.attempted << ")\n  CPU ms per query, per round:";
  for (const double c : plain.round_cpu_ms_per_query) std::cout << ' ' << c;
  std::cout << '\n';

  if (!opt.trace) {
    double churn_qps = 0.0;
    if (churn) {
      const Phase& w = ref.windows.front();
      churn_qps = w.wall_s > 0.0 ? static_cast<double>(w.succeeded) / w.wall_s : 0.0;
    }
    result.add("setup_s", summarize(setup_s).median, "s");
    result.add("setup_wall_s", summarize(setup_wall_s).median, "s");
    result.add("qps", churn ? churn_qps : saturated_qps, "1/s");
    // The median over rounds, so one round with a cold stretch of seeds or
    // a noisy neighbour does not move it.
    result.add("cpu_ms_per_query",
               summarize(plain.round_cpu_ms_per_query).median, "ms");
    result.add("p50_ms", p50_ms, "ms");
    result.add("precision_at_k", check.precision, "fraction");
    result.add("peak_rss_mb", peak_rss, "MiB");
    result.add("fail_ratio", fail_ratio, "fraction");
    if (churn) {
      result.add_tail("update_{p}_ms", update_latency, "ms");
    } else {
      result.add("max_qps_under_slo", plain.max_qps_under_slo, "1/s");
    }
    return;
  }

  // --- Traced pass on a fresh stack with the extractor and the backend
  // decorator installed; same schedules, so the program counts must match.
  SpanSink sink;
  stack.reset();
  stack = build_stack(*g, churn, &sink, warm);
  const double traced_start = sink.now();
  Pass traced = run_pass(*stack, &sink);
  std::vector<Span> spans;
  for (const Span& sp : sink.snapshot()) {
    if (sp.start_s >= traced_start) spans.push_back(sp);
  }
  LayerLedger ledger;
  struct Counts {
    std::uint64_t served = 0, balls = 0, edge_ops = 0, tasks = 0;
    bool operator==(const Counts&) const = default;
  };
  const auto counts_of = [](const Pass& pass) {
    Counts c;
    for (const Phase* p : pass.phases()) {
      c.served += p->succeeded + p->updates;
      c.balls += p->balls;
      c.edge_ops += p->edge_ops;
      c.tasks += p->pipeline.executed_tasks;
    }
    return c;
  };
  for (const Phase* p : traced.phases()) fold_into(ledger, *p);
  ledger.query_peak_kb = check.peak_kb;
  const double traced_p50_ms =
      traced.rates[churn ? 0 : 1].window_median_p50_ms();
  ledger.trace_overhead = p50_ms > 0.0 ? traced_p50_ms / p50_ms - 1.0 : 0.0;
  std::cout << "traced run: reference-rate p50 " << traced_p50_ms << " ms vs "
            << p50_ms << " ms untraced (overhead "
            << ledger.trace_overhead * 100.0 << "%)\n";
  const Counts want = counts_of(plain);
  const Counts got = counts_of(traced);
  std::cout << "program counts untraced/traced: served " << want.served << "/"
            << got.served << ", balls " << want.balls << "/" << got.balls
            << ", tasks " << want.tasks << "/" << got.tasks << ", edge_ops "
            << want.edge_ops << "/" << got.edge_ops << '\n';
  // Under churn a query may be served any graph state at least as fresh as
  // its admission, so its task tree is not fixed; only the served counts
  // compare.
  if (churn ? want.served != got.served : !(want == got)) {
    result.fail_check("traced run executed different program counts");
  }
  add_layer_metrics(result, ledger, spans);
  if (!opt.trace_out.empty() && !sink.write_jsonl(opt.trace_out)) {
    std::cerr << "could not write " << opt.trace_out << '\n';
  }
}

}  // namespace perfbench
