#include "layers.hpp"

#include <algorithm>
#include <cstring>
#include <string>
#include <unordered_set>

namespace perfbench {
namespace {

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

struct SpanTotals {
  std::size_t calls = 0;
  double busy_s = 0.0;
  std::vector<double> seconds;
  std::uint64_t edge_ops = 0;
  double modeled_s = 0.0;
};

SpanTotals totals_of(const std::vector<Span>& spans, const char* name,
                     const std::unordered_set<std::size_t>* only_threads =
                         nullptr) {
  SpanTotals t;
  for (const Span& s : spans) {
    if (std::strcmp(s.name, name) != 0) continue;
    if (only_threads != nullptr && only_threads->count(s.thread) == 0) {
      continue;
    }
    ++t.calls;
    t.busy_s += s.seconds();
    t.seconds.push_back(s.seconds());
    t.edge_ops += s.edge_ops;
    t.modeled_s += s.modeled_s;
  }
  return t;
}

Summary summarize_scaled(const std::vector<double>& seconds, double scale) {
  std::vector<double> v;
  v.reserve(seconds.size());
  for (const double s : seconds) v.push_back(s * scale);
  return summarize(std::move(v));
}

}  // namespace

void LayerLedger::add_batch(const meloppr::core::QueryPipeline::BatchStats& b) {
  tasks += b.executed_tasks;
  stolen += b.stolen_tasks;
  prefetch_issued += b.prefetch_issued;
  prefetch_balls += b.prefetched_balls;
  prefetch_hidden_s += b.prefetch_hidden_seconds;
  demand_bfs_s += b.demand_bfs_seconds;
  root_reextractions += b.root_reextractions;
  last_window = b.last_root_prefetch_window;
  aggregator_evictions += b.aggregator_evictions;
  peak_aggregator_entries =
      std::max(peak_aggregator_entries, b.peak_aggregator_entries);
}

meloppr::core::ShardedBallCache::Stats cache_delta(
    const meloppr::core::ShardedBallCache::Stats& after,
    const meloppr::core::ShardedBallCache::Stats& before) {
  meloppr::core::ShardedBallCache::Stats d;
  d.hits = after.hits - before.hits;
  d.misses = after.misses - before.misses;
  d.dedup_hits = after.dedup_hits - before.dedup_hits;
  d.evictions = after.evictions - before.evictions;
  d.admission_rejects = after.admission_rejects - before.admission_rejects;
  d.invalidations = after.invalidations - before.invalidations;
  d.stale_rejects = after.stale_rejects - before.stale_rejects;
  return d;
}

void accumulate(meloppr::core::ShardedBallCache::Stats& into,
                const meloppr::core::ShardedBallCache::Stats& delta) {
  into.hits += delta.hits;
  into.misses += delta.misses;
  into.dedup_hits += delta.dedup_hits;
  into.evictions += delta.evictions;
  into.admission_rejects += delta.admission_rejects;
  into.invalidations += delta.invalidations;
  into.stale_rejects += delta.stale_rejects;
}

void add_layer_metrics(Result& r, const LayerLedger& l,
                       const std::vector<Span>& spans) {
  const auto q = static_cast<double>(l.queries);

  // core/serving
  const Summary submit = summarize_scaled(l.submit_s, 1e6);
  const Summary admission = summarize_scaled(l.admission_wait_s, 1e3);
  r.add("serving.submit_us.p50", submit.median, "us");
  r.add_tail("serving.submit_us.{p}", submit, "us");
  r.add("serving.admission_wait_ms.mean", admission.mean, "ms");
  r.add_tail("serving.admission_wait_ms.{p}", admission, "ms");
  double admission_s = 0.0;
  double response_s = 0.0;
  for (const double s : l.admission_wait_s) admission_s += s;
  for (const double s : l.claim_wait_s) response_s += s;
  for (const double s : l.service_s) response_s += s;
  r.add("serving.admission_wait_share",
        ratio(admission_s, admission_s + response_s), "fraction");
  r.add("serving.batches", static_cast<double>(l.batches), "count");
  r.add("serving.batch_size.mean",
        ratio(static_cast<double>(l.admitted), static_cast<double>(l.batches)),
        "count");
  r.add("serving.rejected", static_cast<double>(l.rejected), "count");
  r.add("serving.shed", static_cast<double>(l.shed), "count");

  // core/pipeline
  const Summary claim = summarize_scaled(l.claim_wait_s, 1e3);
  const Summary service = summarize_scaled(l.service_s, 1e3);
  r.add("pipeline.claim_wait_ms.mean", claim.mean, "ms");
  r.add_tail("pipeline.claim_wait_ms.{p}", claim, "ms");
  r.add("pipeline.service_ms.p50", service.median, "ms");
  r.add_tail("pipeline.service_ms.{p}", service, "ms");
  r.add("pipeline.tasks", static_cast<double>(l.tasks), "count");
  r.add("pipeline.stolen_ratio",
        ratio(static_cast<double>(l.stolen), static_cast<double>(l.tasks)),
        "fraction");

  // graph: extraction (benchmark-owned extractor) and updates.
  const SpanTotals extract = totals_of(spans, "graph.extract");
  const Summary extract_us = summarize_scaled(extract.seconds, 1e6);
  r.add("graph.extract.calls", static_cast<double>(extract.calls), "count");
  r.add("graph.extract.busy_s", extract.busy_s, "s");
  r.add("graph.extract_us.p50", extract_us.median, "us");
  r.add_tail("graph.extract_us.{p}", extract_us, "us");
  const SpanTotals update = totals_of(spans, "graph.update");
  const Summary update_us = summarize_scaled(update.seconds, 1e6);
  r.add("graph.update.calls", static_cast<double>(update.calls), "count");
  r.add("graph.update_us.p50", update_us.median, "us");
  r.add_tail("graph.update_us.{p}", update_us, "us");

  // core/sharded_ball_cache
  const auto lookups = static_cast<double>(l.cache.hits + l.cache.misses);
  r.add("cache.demand_hit_ratio",
        ratio(static_cast<double>(l.cache.hits), lookups), "fraction");
  r.add("cache.demand_lookups", lookups, "count");
  r.add("cache.dedup_hits", static_cast<double>(l.cache.dedup_hits), "count");
  r.add("cache.evictions", static_cast<double>(l.cache.evictions), "count");
  r.add("cache.admission_rejects",
        static_cast<double>(l.cache.admission_rejects), "count");
  r.add("cache.invalidations", static_cast<double>(l.cache.invalidations),
        "count");
  r.add("cache.stale_rejects", static_cast<double>(l.cache.stale_rejects),
        "count");

  // core/prefetcher and core/adaptive_window
  r.add("prefetch.issued", static_cast<double>(l.prefetch_issued), "count");
  r.add("prefetch.balls", static_cast<double>(l.prefetch_balls), "count");
  r.add("prefetch.bfs_hidden_share",
        ratio(l.prefetch_hidden_s, l.prefetch_hidden_s + l.demand_bfs_s),
        "fraction");
  r.add("prefetch.root_reextractions",
        static_cast<double>(l.root_reextractions), "count");
  r.add("prefetch.last_window", static_cast<double>(l.last_window), "count");

  // ppr (CpuBackend) and hw (FpgaFarm), each behind the TracingBackend.
  const SpanTotals diffuse = totals_of(spans, "ppr.diffuse");
  const Summary diffuse_us = summarize_scaled(diffuse.seconds, 1e6);
  r.add("ppr.diffuse.calls", static_cast<double>(diffuse.calls), "count");
  r.add("ppr.diffuse.busy_s", diffuse.busy_s, "s");
  r.add("ppr.diffuse_us.p50", diffuse_us.median, "us");
  r.add_tail("ppr.diffuse_us.{p}", diffuse_us, "us");
  r.add("ppr.edge_ops", static_cast<double>(diffuse.edge_ops), "count");
  const SpanTotals farm = totals_of(spans, "hw.run");
  const Summary farm_us = summarize_scaled(farm.seconds, 1e6);
  r.add("hw.run.calls", static_cast<double>(farm.calls), "count");
  r.add("hw.run_wall_us.p50", farm_us.median, "us");
  r.add_tail("hw.run_wall_us.{p}", farm_us, "us");
  r.add("hw.modeled_device_s", farm.modeled_s, "s");
  r.add("hw.retries", static_cast<double>(l.health.retries), "count");
  r.add("hw.failovers", static_cast<double>(l.health.failovers), "count");

  // core/engine and core/aggregator. Self time is service time minus the
  // extraction and diffusion spans on the threads that run stage tasks
  // (the ones that call the backend); prefetch-thread extraction runs
  // beside the service window, not inside it. Under work stealing a
  // worker's spans may belong to another query's service window, so this
  // is a per-phase aggregate, not a per-query attribution.
  std::unordered_set<std::size_t> workers;
  for (const Span& s : spans) {
    if (std::strcmp(s.name, "ppr.diffuse") == 0 ||
        std::strcmp(s.name, "hw.run") == 0) {
      workers.insert(s.thread);
    }
  }
  const SpanTotals demand_extract =
      totals_of(spans, "graph.extract", &workers);
  double service_total = 0.0;
  for (const double s : l.service_s) service_total += s;
  const double self_total = std::max(
      0.0, service_total - demand_extract.busy_s - diffuse.busy_s - farm.busy_s);
  r.add("engine.self_s", ratio(self_total, q), "s");
  r.add("engine.aggregator_evictions",
        static_cast<double>(l.aggregator_evictions), "count");
  r.add("engine.peak_aggregator_entries",
        static_cast<double>(l.peak_aggregator_entries), "count");
  r.add("engine.query_peak_kb", l.query_peak_kb, "KiB");

  // Load generator sanity check.
  const Summary lag = summarize_scaled(l.lag_s, 1e3);
  r.add_tail("gen.lag_ms.{p}", lag, "ms");
  r.add("gen.lag_ms.max", lag.max, "ms");

  r.add("trace.overhead", l.trace_overhead, "fraction");
}

}  // namespace perfbench
