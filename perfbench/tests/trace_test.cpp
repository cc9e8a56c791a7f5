// The traced run's backend decorator must be invisible to the pipeline:
// every DiffusionBackend virtual it reads to schedule work is forwarded.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "trace.hpp"

namespace perfbench {
namespace {

namespace core = meloppr::core;

class FakeBackend final : public core::DiffusionBackend {
 public:
  core::BackendResult run(const meloppr::graph::Subgraph&, double,
                          unsigned) override {
    core::BackendResult r;
    r.edge_ops = 42;
    r.compute_seconds = 0.5;
    r.transfer_seconds = 0.25;
    return r;
  }
  [[nodiscard]] std::size_t working_bytes(std::size_t nodes,
                                          std::size_t edges) const override {
    return nodes * 1000 + edges;
  }
  [[nodiscard]] std::string name() const override { return "fake"; }
  [[nodiscard]] std::unique_ptr<core::DiffusionBackend> clone()
      const override {
    return std::make_unique<FakeBackend>();
  }
  [[nodiscard]] bool thread_safe() const override { return true; }
  [[nodiscard]] std::size_t max_concurrent_runs() const override { return 7; }
  [[nodiscard]] bool offloads_compute() const override { return true; }
  [[nodiscard]] std::size_t active_dispatches() const override { return 3; }
  [[nodiscard]] core::DispatchHealth dispatch_health() const override {
    core::DispatchHealth h;
    h.devices = 2;
    h.retries = 5;
    h.failovers = 1;
    return h;
  }
};

TEST(TracingBackend, ForwardsEveryVirtual) {
  FakeBackend inner;
  SpanSink sink;
  TracingBackend traced(inner, sink, "hw.run");
  EXPECT_TRUE(traced.thread_safe());
  EXPECT_EQ(traced.max_concurrent_runs(), 7u);
  EXPECT_TRUE(traced.offloads_compute());
  EXPECT_EQ(traced.active_dispatches(), 3u);
  EXPECT_EQ(traced.dispatch_health().retries, 5u);
  EXPECT_EQ(traced.dispatch_health().failovers, 1u);
  EXPECT_EQ(traced.working_bytes(2, 3), 2003u);

  const std::unique_ptr<core::DiffusionBackend> copy = traced.clone();
  EXPECT_EQ(copy->max_concurrent_runs(), 7u);
  EXPECT_TRUE(copy->offloads_compute());
  EXPECT_EQ(copy->name(), "traced(fake)");
}

TEST(TracingBackend, RecordsOneSpanPerRunWithItsCounts) {
  FakeBackend inner;
  SpanSink sink;
  TracingBackend traced(inner, sink, "ppr.diffuse");
  const meloppr::graph::Subgraph ball;
  EXPECT_EQ(traced.run(ball, 1.0, 3).edge_ops, 42u);
  const std::unique_ptr<core::DiffusionBackend> copy = traced.clone();
  (void)copy->run(ball, 1.0, 3);

  const std::vector<Span> spans = sink.snapshot();
  ASSERT_EQ(spans.size(), 2u);
  for (const Span& s : spans) {
    EXPECT_STREQ(s.name, "ppr.diffuse");
    EXPECT_EQ(s.id, 0u);
    EXPECT_EQ(s.edge_ops, 42u);
    EXPECT_DOUBLE_EQ(s.modeled_s, 0.75);
    EXPECT_LE(s.start_s, s.end_s);
  }
}

}  // namespace
}  // namespace perfbench
