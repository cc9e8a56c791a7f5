// Span recording for the traced run. Every span is recorded from the
// benchmark's own code, around a call into a library layer's public API:
// the library itself carries no tracing. Spans stay in memory and are
// written out once, when the run ends.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <fstream>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/backend.hpp"
#include "core/sharded_ball_cache.hpp"
#include "graph/bfs.hpp"

namespace perfbench {

/// One timed interval. Outer (per-query) spans carry the query's ticket as
/// `id`; inner spans (extraction, diffusion, update) carry id 0 and are
/// aggregated per layer, because a stolen task cannot be tied to its query
/// from outside the library.
struct Span {
  const char* name = "";
  std::uint64_t id = 0;
  std::size_t thread = 0;
  double start_s = 0.0;  ///< on the sink's clock
  double end_s = 0.0;
  /// Backend spans only: the run's edge operations and its modeled
  /// (device-reported) compute + transfer seconds.
  std::uint64_t edge_ops = 0;
  double modeled_s = 0.0;

  [[nodiscard]] double seconds() const { return end_s - start_s; }
};

/// Thread-safe in-memory span store with its own monotonic clock.
class SpanSink {
 public:
  SpanSink() : epoch_(std::chrono::steady_clock::now()) {}
  SpanSink(const SpanSink&) = delete;
  SpanSink& operator=(const SpanSink&) = delete;

  [[nodiscard]] double now() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         epoch_)
        .count();
  }

  void record(Span span) {
    span.thread = std::hash<std::thread::id>{}(std::this_thread::get_id());
    const std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(span);
  }

  void record(const char* name, std::uint64_t id, double start_s,
              double end_s) {
    Span span;
    span.name = name;
    span.id = id;
    span.start_s = start_s;
    span.end_s = end_s;
    record(span);
  }

  [[nodiscard]] std::vector<Span> snapshot() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return spans_;
  }

  /// One JSON object per line: name, id, thread, start_s, end_s.
  [[nodiscard]] bool write_jsonl(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    out.precision(9);
    for (const Span& s : snapshot()) {
      out << "{\"name\":\"" << s.name << "\",\"id\":" << s.id
          << ",\"thread\":" << s.thread << ",\"start_s\":" << s.start_s
          << ",\"end_s\":" << s.end_s << "}\n";
    }
    return static_cast<bool>(out);
  }

 private:
  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// DiffusionBackend decorator that records one span per run(). It forwards
/// every virtual of the interface, because the pipeline reads them to make
/// scheduling decisions (sharing vs cloning, the prefetch throttle, the
/// farm-wait meter, health accounting): a wrapper that fell back to a
/// default would silently change what the traced run executes.
class TracingBackend final : public meloppr::core::DiffusionBackend {
 public:
  TracingBackend(meloppr::core::DiffusionBackend& inner, SpanSink& sink,
                 const char* span_name)
      : inner_(&inner), sink_(&sink), span_name_(span_name) {}
  /// Owning variant (used by clone()).
  TracingBackend(std::unique_ptr<meloppr::core::DiffusionBackend> inner,
                 SpanSink& sink, const char* span_name)
      : inner_(inner.get()),
        owned_(std::move(inner)),
        sink_(&sink),
        span_name_(span_name) {}

  meloppr::core::BackendResult run(const meloppr::graph::Subgraph& ball,
                                   double mass, unsigned length) override {
    Span span;
    span.name = span_name_;
    span.start_s = sink_->now();
    meloppr::core::BackendResult result = inner_->run(ball, mass, length);
    span.end_s = sink_->now();
    span.edge_ops = result.edge_ops;
    span.modeled_s = result.compute_seconds + result.transfer_seconds;
    sink_->record(span);
    return result;
  }

  [[nodiscard]] std::size_t working_bytes(
      std::size_t ball_nodes, std::size_t ball_edges) const override {
    return inner_->working_bytes(ball_nodes, ball_edges);
  }
  [[nodiscard]] std::string name() const override {
    return "traced(" + inner_->name() + ")";
  }
  [[nodiscard]] std::unique_ptr<meloppr::core::DiffusionBackend> clone()
      const override {
    return std::make_unique<TracingBackend>(inner_->clone(), *sink_,
                                            span_name_);
  }
  [[nodiscard]] bool thread_safe() const override {
    return inner_->thread_safe();
  }
  [[nodiscard]] std::size_t max_concurrent_runs() const override {
    return inner_->max_concurrent_runs();
  }
  [[nodiscard]] bool offloads_compute() const override {
    return inner_->offloads_compute();
  }
  [[nodiscard]] std::size_t active_dispatches() const override {
    return inner_->active_dispatches();
  }
  [[nodiscard]] meloppr::core::DispatchHealth dispatch_health()
      const override {
    return inner_->dispatch_health();
  }

 private:
  meloppr::core::DiffusionBackend* inner_;
  std::unique_ptr<meloppr::core::DiffusionBackend> owned_;
  SpanSink* sink_;
  const char* span_name_;
};

/// Ball extractor for ShardedBallCache::set_extractor that times every
/// miss-path graph::extract_ball call as a "graph.extract" span.
[[nodiscard]] inline meloppr::core::ShardedBallCache::Extractor
traced_extractor(SpanSink& sink) {
  return [&sink](const meloppr::graph::Graph& g, meloppr::graph::NodeId root,
                 unsigned radius) {
    const double start = sink.now();
    meloppr::graph::Subgraph ball = meloppr::graph::extract_ball(g, root, radius);
    sink.record("graph.extract", 0, start, sink.now());
    return ball;
  };
}

}  // namespace perfbench
