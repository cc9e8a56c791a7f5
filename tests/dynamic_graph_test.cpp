// The dynamic-graph path: delta-overlay correctness, surgical cache
// invalidation, and the headline equivalence property — after any number
// of incremental updates, query scores are bit-identical to a from-scratch
// rebuild of the graph at the same version, across every generator family
// and thread count.
#include "graph/dynamic_graph.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.hpp"
#include "core/pipeline.hpp"
#include "core/serving.hpp"
#include "core/sharded_ball_cache.hpp"
#include "graph/bfs.hpp"
#include "graph/generators.hpp"
#include "graph/update_streams.hpp"
#include "test_support.hpp"
#include "util/rng.hpp"

namespace meloppr::graph {
namespace {

using core::Engine;
using core::MelopprConfig;
using core::PipelineConfig;
using core::QueryPipeline;
using core::QueryResult;
using core::ShardedBallCache;

// Small stages + small k keep the equivalence sweep fast; kFloat64 is
// required here — the fixed-point quantizer derives its scale from the
// graph's max degree, which updates change, so the dynamic stack documents
// float64 as the dynamic-serving numerics.
MelopprConfig small_config() {
  MelopprConfig cfg;
  cfg.stage_lengths = {2, 2};
  cfg.k = 50;
  return cfg;
}

/// Field-by-field Subgraph equality — the bit-identical claim, not just
/// isomorphism.
void expect_same_ball(const Subgraph& a, const Subgraph& b,
                      const std::string& context) {
  ASSERT_EQ(a.num_nodes(), b.num_nodes()) << context;
  ASSERT_EQ(a.num_arcs(), b.num_arcs()) << context;
  for (NodeId local = 0; local < a.num_nodes(); ++local) {
    ASSERT_EQ(a.to_global(local), b.to_global(local)) << context;
    ASSERT_EQ(a.depth(local), b.depth(local)) << context;
    ASSERT_EQ(a.global_degree(local), b.global_degree(local)) << context;
    const auto na = a.neighbors(local);
    const auto nb = b.neighbors(local);
    ASSERT_EQ(na.size(), nb.size()) << context;
    for (std::size_t i = 0; i < na.size(); ++i) {
      ASSERT_EQ(na[i], nb[i]) << context << " local=" << local;
    }
  }
}

void expect_same_top(const QueryResult& got, const QueryResult& want,
                     const std::string& context) {
  ASSERT_EQ(got.top.size(), want.top.size()) << context;
  for (std::size_t i = 0; i < got.top.size(); ++i) {
    ASSERT_EQ(got.top[i].node, want.top[i].node) << context << " rank " << i;
    // Bit-identical, not approximately equal: the merged-overlay BFS must
    // reproduce the rebuilt CSR's discovery order exactly, and both
    // schedulers replay the serial depth-first reduction order.
    ASSERT_EQ(got.top[i].score, want.top[i].score) << context << " rank " << i;
  }
}

TEST(DynamicGraph, ApplyValidatesAndVersionIsMonotone) {
  DynamicGraph dyn(fixtures::path(6));
  EXPECT_EQ(dyn.version(), 0u);
  EXPECT_EQ(dyn.num_edges(), 5u);

  EXPECT_THROW(dyn.apply({2, 2, true}), std::invalid_argument);   // self-loop
  EXPECT_THROW(dyn.apply({0, 99, true}), std::invalid_argument);  // range
  EXPECT_THROW(dyn.apply({0, 1, true}), std::invalid_argument);   // present
  EXPECT_THROW(dyn.apply({0, 5, false}), std::invalid_argument);  // absent
  EXPECT_EQ(dyn.version(), 0u) << "failed updates must not burn a version";

  EXPECT_EQ(dyn.apply({0, 5, true}), 1u);
  EXPECT_EQ(dyn.apply({0, 1, false}), 2u);
  EXPECT_EQ(dyn.version(), 2u);
  EXPECT_TRUE(dyn.has_edge(0, 5));
  EXPECT_FALSE(dyn.has_edge(0, 1));
  EXPECT_EQ(dyn.num_edges(), 5u);
  EXPECT_EQ(dyn.degree(0), 1u);  // lost 1, gained 5

  // Insert-after-delete and delete-after-insert cancel in the overlay.
  EXPECT_EQ(dyn.apply({0, 1, true}), 3u);
  EXPECT_EQ(dyn.apply({0, 5, false}), 4u);
  EXPECT_EQ(dyn.delta_edges(), 0u);
  EXPECT_TRUE(dyn.has_edge(0, 1));
}

TEST(DynamicGraph, MergedExtractionMatchesRebuild) {
  Rng rng(test::test_seed() ^ 0xba11);
  const Graph base = community_graph(400, 8, 6.0, 1.5, rng);
  DynamicGraph dyn(base);

  UpdateStreamConfig scfg;
  scfg.count = 80;
  Rng srng = rng.fork(1);
  const std::vector<EdgeUpdate> stream =
      make_update_stream(base, UpdateWorkload::kRecommenderChurn, scfg, srng);

  std::size_t applied = 0;
  for (const EdgeUpdate& u : stream) {
    dyn.apply(u);
    if (++applied % 16 != 0) continue;
    const Graph rebuilt = dyn.materialize();
    ASSERT_EQ(rebuilt.num_edges(), dyn.num_edges());
    for (int probe = 0; probe < 6; ++probe) {
      const NodeId root = u.u;  // roots near the churn see the overlay
      for (unsigned radius : {1u, 2u, 3u}) {
        std::uint64_t seen = 0;
        const Subgraph got = dyn.extract_ball(root, radius, &seen);
        EXPECT_EQ(seen, dyn.version());
        const Subgraph want = extract_ball(rebuilt, root, radius);
        expect_same_ball(got, want,
                         "root=" + std::to_string(root) +
                             " radius=" + std::to_string(radius) +
                             " after=" + std::to_string(applied));
      }
    }
  }
}

TEST(DynamicGraph, CompactionPreservesContentAndVersion) {
  Rng rng(test::test_seed() ^ 0xc0de);
  const Graph base = erdos_renyi(300, 900, rng);
  DynamicGraphConfig dcfg;
  dcfg.compaction_fraction = 0.01;  // force frequent folds
  DynamicGraph dyn(base, dcfg);

  UpdateStreamConfig scfg;
  scfg.count = 120;
  Rng srng = rng.fork(2);
  const std::vector<EdgeUpdate> stream =
      make_update_stream(base, UpdateWorkload::kRecommenderChurn, scfg, srng);
  for (const EdgeUpdate& u : stream) dyn.apply(u);

  EXPECT_GT(dyn.compactions(), 0u);
  EXPECT_EQ(dyn.version(), stream.size())
      << "compaction changes representation, never the version";

  const Graph rebuilt = dyn.materialize();
  EXPECT_EQ(rebuilt.num_edges(), dyn.num_edges());
  for (NodeId root = 0; root < 20; ++root) {
    if (dyn.degree(root) == 0) continue;
    expect_same_ball(dyn.extract_ball(root, 2), extract_ball(rebuilt, root, 2),
                     "post-compaction root=" + std::to_string(root));
  }
}

TEST(DynamicGraph, TouchedSinceProbes) {
  DynamicGraph dyn(fixtures::path(100));
  std::uint64_t v0 = 0;
  const Subgraph ball = dyn.extract_ball(0, 2, &v0);  // {0, 1, 2}
  EXPECT_EQ(v0, 0u);

  dyn.apply({50, 60, true});  // far from the ball
  std::uint64_t checked = 0;
  EXPECT_FALSE(dyn.touched_since(ball, v0, &checked));
  EXPECT_EQ(checked, 1u);

  dyn.apply({2, 4, true});  // endpoint 2 is a ball member
  EXPECT_TRUE(dyn.touched_since(ball, v0));
  EXPECT_FALSE(dyn.touched_since(ball, dyn.version()));

  // Past the history window the probe must answer conservatively.
  DynamicGraphConfig tiny;
  tiny.history_capacity = 4;
  DynamicGraph short_mem(fixtures::path(100), tiny);
  const Subgraph far_ball = short_mem.extract_ball(0, 1, nullptr);
  for (NodeId i = 10; i < 20; ++i) short_mem.apply({i, i + 20, true});
  EXPECT_TRUE(short_mem.touched_since(far_ball, 0))
      << "probe beyond the retained history must claim staleness";
}

TEST(DynamicGraph, TouchedSinceMatchesBruteForceMembership) {
  // touched_since() scans the ball once against the window's endpoints;
  // the reference asks, update by update, whether either endpoint is in a
  // std::set of the ball's members.
  Rng rng(test::test_seed() ^ 0x70c4);
  const Graph base = community_graph(300, 6, 6.0, 1.5, rng);
  DynamicGraph dyn(base);
  UpdateStreamConfig scfg;
  scfg.count = 160;
  Rng srng = rng.fork(3);
  const std::vector<EdgeUpdate> stream =
      make_update_stream(base, UpdateWorkload::kRecommenderChurn, scfg, srng);

  struct Probe {
    Subgraph ball;
    std::set<NodeId> members;
  };
  std::vector<Probe> probes;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    if (i % 40 == 0) {
      for (unsigned radius : {1u, 2u, 3u}) {
        NodeId root = 0;
        do {
          root = static_cast<NodeId>(rng.below(base.num_nodes()));
        } while (dyn.degree(root) == 0);
        Subgraph ball = dyn.extract_ball(root, radius);
        std::set<NodeId> members(ball.local_to_global().begin(),
                                 ball.local_to_global().end());
        probes.push_back({std::move(ball), std::move(members)});
      }
    }
    dyn.apply(stream[i]);  // publishes version i + 1
  }

  std::size_t touched = 0;
  std::size_t untouched = 0;
  for (int window = 0; window < 200; ++window) {
    const auto since = static_cast<std::uint64_t>(
        rng.below(stream.size() + 1));
    for (const Probe& probe : probes) {
      bool want = false;
      for (std::uint64_t v = since + 1; v <= stream.size(); ++v) {
        const EdgeUpdate& u = stream[v - 1];
        want = want || probe.members.count(u.u) != 0 ||
               probe.members.count(u.v) != 0;
      }
      ASSERT_EQ(dyn.touched_since(probe.ball, since), want)
          << "since=" << since << " root=" << probe.ball.root_global();
      (want ? touched : untouched) += 1;
    }
  }
  EXPECT_GT(touched, 0u);
  EXPECT_GT(untouched, 0u);
}

TEST(UpdateStreams, ValidAcrossFamiliesAndWorkloads) {
  Rng rng(test::test_seed() ^ 0x57125);
  const std::vector<std::pair<std::string, Graph>> families = [&] {
    std::vector<std::pair<std::string, Graph>> out;
    Rng g = rng.fork(10);
    out.emplace_back("er", erdos_renyi(300, 900, g));
    out.emplace_back("ba", barabasi_albert(300, 2.0, g));
    out.emplace_back("ws", watts_strogatz(300, 6, 0.1, g));
    out.emplace_back("rmat", rmat(9, 1200, 0.45, 0.22, 0.22, g));
    out.emplace_back("comm", community_graph(300, 6, 5.0, 1.0, g));
    return out;
  }();

  for (const auto& [name, base] : families) {
    for (const UpdateWorkload wl :
         {UpdateWorkload::kRecommenderChurn, UpdateWorkload::kCitationGrowth}) {
      UpdateStreamConfig scfg;
      scfg.count = 150;
      Rng srng = rng.fork(wl == UpdateWorkload::kCitationGrowth ? 20 : 21);
      const std::vector<EdgeUpdate> stream =
          make_update_stream(base, wl, scfg, srng);
      EXPECT_FALSE(stream.empty()) << name;

      DynamicGraph dyn(base);
      for (const EdgeUpdate& u : stream) {
        if (wl == UpdateWorkload::kCitationGrowth) {
          EXPECT_TRUE(u.insert) << name << ": citation growth is insert-only";
        }
        ASSERT_NO_THROW(dyn.apply(u)) << name;
        if (!u.insert) {
          // The no-isolation guarantee concurrent queries rely on.
          EXPECT_GE(dyn.degree(u.u), 1u) << name;
          EXPECT_GE(dyn.degree(u.v), 1u) << name;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// The tentpole property: incremental == rebuild, bit-identical, across all
// five generator families, three update checkpoints, and 1/2/4/8 threads.
// Stack under test: DynamicGraph + bind_dynamic_graph cache + versioned
// engine + work-stealing pipeline, with the cache kept WARM across updates
// so surgical invalidation (not clear()) is what preserves correctness.
// ---------------------------------------------------------------------------
TEST(DynamicGraph, IncrementalEqualsRebuildAcrossFamilies) {
  Rng rng(test::test_seed() ^ 0xeb01);
  const MelopprConfig mcfg = small_config();
  constexpr std::size_t kChunks = 3;
  constexpr std::size_t kChunkSize = 40;
  constexpr std::size_t kSeedsPerCheckpoint = 5;

  struct Family {
    std::string name;
    Graph base;
  };
  std::vector<Family> families;
  {
    Rng g = rng.fork(1);
    families.push_back({"er", erdos_renyi(700, 2100, g)});
    families.push_back({"ba", barabasi_albert(700, 2.0, g)});
    families.push_back({"ws", watts_strogatz(700, 6, 0.1, g)});
    families.push_back({"rmat", rmat(10, 2800, 0.45, 0.22, 0.22, g)});
    families.push_back({"comm", community_graph(700, 10, 6.0, 1.5, g)});
  }

  for (const Family& fam : families) {
    UpdateStreamConfig scfg;
    scfg.count = kChunks * kChunkSize;
    Rng srng = rng.fork(2);
    const std::vector<EdgeUpdate> stream = make_update_stream(
        fam.base, UpdateWorkload::kRecommenderChurn, scfg, srng);
    ASSERT_GE(stream.size(), kChunks) << fam.name;
    const std::size_t chunk = stream.size() / kChunks;

    // Seeds with base degree > 0 stay valid forever: churn deletes never
    // isolate a vertex.
    std::vector<NodeId> seeds;
    Rng seed_rng = rng.fork(3);
    while (seeds.size() < kSeedsPerCheckpoint) {
      const NodeId s =
          static_cast<NodeId>(seed_rng.below(fam.base.num_nodes()));
      if (fam.base.degree(s) > 0) seeds.push_back(s);
    }

    // Reference pass: one DynamicGraph advanced chunk by chunk; at each
    // checkpoint the graph is rebuilt from scratch and queried serially.
    std::vector<std::vector<QueryResult>> reference(kChunks);
    {
      DynamicGraph ref_dyn(fam.base);
      for (std::size_t c = 0; c < kChunks; ++c) {
        const std::size_t end = c + 1 == kChunks ? stream.size()
                                                 : (c + 1) * chunk;
        for (std::size_t i = c * chunk; i < end; ++i) {
          ref_dyn.apply(stream[i]);
        }
        const Graph rebuilt = ref_dyn.materialize();
        Engine ref_engine(rebuilt, mcfg);
        for (const NodeId s : seeds) {
          reference[c].push_back(ref_engine.query(s));
        }
      }
    }

    for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
      DynamicGraph dyn(fam.base);
      ShardedBallCache cache(fam.base, 8u << 20, 4);
      cache.bind_dynamic_graph(dyn);
      Engine engine(fam.base, mcfg);
      engine.set_shared_ball_cache(&cache);
      engine.set_dynamic_graph(&dyn);
      const auto backend = core::make_cpu_backend(fam.base, mcfg);
      PipelineConfig pcfg;
      pcfg.threads = threads;
      QueryPipeline pipeline(engine, *backend, pcfg);

      // Warm the cache before any update so the checkpoints exercise
      // invalidation of genuinely resident balls.
      (void)pipeline.query_batch(seeds);

      for (std::size_t c = 0; c < kChunks; ++c) {
        const std::size_t end = c + 1 == kChunks ? stream.size()
                                                 : (c + 1) * chunk;
        for (std::size_t i = c * chunk; i < end; ++i) {
          dyn.apply(stream[i]);
        }
        const std::vector<QueryResult> got = pipeline.query_batch(seeds);
        ASSERT_EQ(got.size(), seeds.size());
        for (std::size_t i = 0; i < seeds.size(); ++i) {
          expect_same_top(got[i], reference[c][i],
                          fam.name + " threads=" + std::to_string(threads) +
                              " checkpoint=" + std::to_string(c) +
                              " seed=" + std::to_string(seeds[i]));
          EXPECT_EQ(got[i].stats.graph_version, dyn.version())
              << fam.name << " admission stamp";
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Invalidation precision: one edge update invalidates exactly the resident
// balls containing an endpoint — counted against a brute-force membership
// scan — and every untouched ball is still a hit afterwards.
// ---------------------------------------------------------------------------
TEST(DynamicGraph, InvalidationIsSurgical) {
  Rng rng(test::test_seed() ^ 0x5039);
  const Graph base = community_graph(500, 10, 6.0, 1.5, rng);
  DynamicGraph dyn(base);
  ShardedBallCache cache(base, 32u << 20, 4);
  cache.bind_dynamic_graph(dyn);

  // Warm: demand-fetch balls for a spread of roots.
  std::vector<NodeId> roots;
  for (NodeId r = 0; r < base.num_nodes() && roots.size() < 120; r += 4) {
    if (base.degree(r) == 0) continue;
    roots.push_back(r);
    (void)cache.fetch(r, 2);
  }
  const auto resident_before = cache.resident_keys();
  ASSERT_FALSE(resident_before.empty());
  EXPECT_GT(cache.reverse_index_entries(), 0u);

  // Choose an insert whose endpoints sit inside cached balls: the first
  // non-adjacent pair of warmed roots (roots are ball centers, so each is
  // trivially a member of its own resident ball).
  EdgeUpdate update{kInvalidNode, kInvalidNode, true};
  for (std::size_t i = 0; i < roots.size() && update.u == kInvalidNode; ++i) {
    for (std::size_t j = i + 1; j < roots.size(); ++j) {
      if (!dyn.has_edge(roots[i], roots[j])) {
        update.u = roots[i];
        update.v = roots[j];
        break;
      }
    }
  }
  ASSERT_NE(update.u, kInvalidNode) << "no non-adjacent warm root pair";

  // Brute-force expectation: which resident balls contain an endpoint?
  std::size_t expected = 0;
  std::vector<core::BallKey> survivors;
  for (const core::BallKey& key : resident_before) {
    const auto ball = cache.peek(key);
    ASSERT_NE(ball, nullptr);
    if (ball->contains(update.u) || ball->contains(update.v)) {
      ++expected;
    } else {
      survivors.push_back(key);
    }
  }
  ASSERT_GT(expected, 0u) << "update must touch at least one cached ball";
  ASSERT_FALSE(survivors.empty());

  const auto before = cache.stats();
  dyn.apply(update);
  const auto after = cache.stats();
  EXPECT_EQ(after.invalidations - before.invalidations, expected)
      << "invalidation must match the brute-force membership scan exactly";

  // Victims are gone; survivors still resident and serveable as pure hits.
  for (const core::BallKey& key : survivors) {
    EXPECT_NE(cache.peek(key), nullptr);
  }
  const auto pre_hits = cache.stats();
  for (const core::BallKey& key : survivors) {
    const auto f = cache.fetch(key.root, key.radius, dyn.version());
    EXPECT_TRUE(f.hit) << "untouched ball must survive the update";
  }
  const auto post_hits = cache.stats();
  EXPECT_EQ(post_hits.misses, pre_hits.misses)
      << "surgical invalidation must not evict untouched balls";

  // Reverse-index gauge stays consistent: recount from residents.
  std::size_t recount = 0;
  for (const core::BallKey& key : cache.resident_keys()) {
    recount += cache.peek(key)->num_nodes();
  }
  EXPECT_EQ(cache.reverse_index_entries(), recount);
}

TEST(DynamicGraph, ClearResetsDynamicCountersAndIndex) {
  Rng rng(test::test_seed() ^ 0xc1ea6);
  const Graph base = erdos_renyi(300, 1200, rng);
  DynamicGraph dyn(base);
  ShardedBallCache cache(base, 32u << 20, 2);
  cache.bind_dynamic_graph(dyn);

  for (NodeId r = 0; r < 60; ++r) {
    if (base.degree(r) > 0) (void)cache.fetch(r, 2);
  }
  UpdateStreamConfig scfg;
  scfg.count = 30;
  Rng srng = rng.fork(1);
  for (const EdgeUpdate& u : make_update_stream(
           base, UpdateWorkload::kRecommenderChurn, scfg, srng)) {
    dyn.apply(u);
  }
  ASSERT_GT(cache.stats().invalidations, 0u);

  cache.clear();
  const auto s = cache.stats();
  EXPECT_EQ(s.invalidations, 0u);
  EXPECT_EQ(s.stale_rejects, 0u);
  EXPECT_EQ(s.reverse_index_entries, 0u)
      << "clear drops every resident, so the gauge must read empty";
  EXPECT_EQ(cache.resident_keys().size(), 0u);

  // The cache must keep working (and re-indexing) after the reset.
  NodeId r = 0;
  while (base.degree(r) == 0) ++r;
  (void)cache.fetch(r, 2, dyn.version());
  EXPECT_GT(cache.reverse_index_entries(), 0u);
}

// ---------------------------------------------------------------------------
// Concurrency hammer (the TSan target): producers apply churn updates while
// the serving front end admits and executes queries. Asserts no torn
// versions (every result's admission stamp is a version that existed),
// counter conservation, and a consistent reverse index after quiesce.
// ---------------------------------------------------------------------------
TEST(DynamicGraph, ConcurrentUpdatesVersusServing) {
  Rng rng(test::test_seed() ^ 0x4a33e5);
  const Graph base = community_graph(600, 10, 6.0, 1.5, rng);
  DynamicGraph dyn(base);
  ShardedBallCache cache(base, 16u << 20, 4);
  cache.bind_dynamic_graph(dyn);
  const MelopprConfig mcfg = small_config();
  Engine engine(base, mcfg);
  engine.set_shared_ball_cache(&cache);
  engine.set_dynamic_graph(&dyn);
  const auto backend = core::make_cpu_backend(base, mcfg);
  PipelineConfig pcfg;
  pcfg.threads = 4;
  QueryPipeline pipeline(engine, *backend, pcfg);

  const std::size_t updates =
      test::stress_iters(400);  // TSan caps via MELOPPR_STRESS_ITERS
  UpdateStreamConfig scfg;
  scfg.count = updates;
  Rng srng = rng.fork(1);
  const std::vector<EdgeUpdate> stream = make_update_stream(
      base, UpdateWorkload::kRecommenderChurn, scfg, srng);

  std::vector<NodeId> seeds;
  Rng seed_rng = rng.fork(2);
  while (seeds.size() < 60) {
    const NodeId s = static_cast<NodeId>(seed_rng.below(base.num_nodes()));
    if (base.degree(s) > 0) seeds.push_back(s);
  }

  core::SeedStream seed_stream;
  std::atomic<std::size_t> results_seen{0};
  std::atomic<bool> version_ok{true};
  std::thread producer([&] {
    for (const EdgeUpdate& u : stream) {
      dyn.apply(u);
      if ((dyn.version() & 7) == 0) std::this_thread::yield();
    }
  });
  std::thread feeder([&] {
    for (const NodeId s : seeds) {
      seed_stream.push(s);
      if ((s & 3) == 0) std::this_thread::yield();
    }
    seed_stream.close();
  });

  pipeline.query_stream(seed_stream, [&](std::size_t, QueryResult&& r) {
    results_seen.fetch_add(1, std::memory_order_relaxed);
    // Admission stamps must be real versions: in [0, final] — read after
    // join below re-checks the upper bound against the true final count.
    if (r.stats.graph_version > stream.size()) {
      version_ok.store(false, std::memory_order_relaxed);
    }
    if (r.top.empty()) version_ok.store(false, std::memory_order_relaxed);
  });
  producer.join();
  feeder.join();

  EXPECT_TRUE(version_ok.load());
  EXPECT_EQ(results_seen.load(), seeds.size())
      << "every admitted query must deliver a result";
  EXPECT_EQ(dyn.version(), stream.size());

  // Counter conservation after quiesce.
  const auto s = cache.stats();
  EXPECT_GE(s.hits + s.misses, seeds.size());
  std::size_t recount = 0;
  for (const core::BallKey& key : cache.resident_keys()) {
    const auto ball = cache.peek(key);
    ASSERT_NE(ball, nullptr);
    recount += ball->num_nodes();
  }
  EXPECT_EQ(s.reverse_index_entries, recount)
      << "reverse index must exactly cover the resident set after quiesce";

  // Post-quiesce serving is bit-identical to a rebuild at the final
  // version (query_batch replays the serial depth-first reduction order,
  // so the comparison is exact, not approximate).
  const Graph rebuilt = dyn.materialize();
  Engine ref_engine(rebuilt, mcfg);
  const std::vector<NodeId> probe(seeds.begin(), seeds.begin() + 5);
  const std::vector<QueryResult> got = pipeline.query_batch(probe);
  for (std::size_t i = 0; i < probe.size(); ++i) {
    expect_same_top(got[i], ref_engine.query(probe[i]),
                    "post-quiesce seed=" + std::to_string(probe[i]));
  }
}

// Interleaved update + query traffic through the serving front end: the
// stats surface reports the applied-update count and a graph version that
// is never older than what any completed query observed.
TEST(DynamicGraph, ServingFrontEndInterleavesUpdatesAndQueries) {
  Rng rng(test::test_seed() ^ 0xf203);
  const Graph base = community_graph(500, 8, 6.0, 1.5, rng);
  DynamicGraph dyn(base);
  ShardedBallCache cache(base, 16u << 20, 4);
  cache.bind_dynamic_graph(dyn);
  const MelopprConfig mcfg = small_config();
  Engine engine(base, mcfg);
  engine.set_shared_ball_cache(&cache);
  engine.set_dynamic_graph(&dyn);
  const auto backend = core::make_cpu_backend(base, mcfg);
  PipelineConfig pcfg;
  pcfg.threads = 2;
  QueryPipeline pipeline(engine, *backend, pcfg);

  core::ServingConfig scfg;
  scfg.tenants = 2;
  scfg.queue_capacity = 256;
  core::ServingFrontEnd fe(pipeline, scfg);
  fe.set_dynamic_graph(&dyn);

  UpdateStreamConfig ucfg;
  ucfg.count = 60;
  Rng urng = rng.fork(1);
  const std::vector<EdgeUpdate> stream = make_update_stream(
      base, UpdateWorkload::kCitationGrowth, ucfg, urng);

  Rng seed_rng = rng.fork(2);
  std::size_t admitted = 0;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    const std::uint64_t v = fe.submit_update(stream[i]);
    EXPECT_EQ(v, i + 1);
    NodeId s = static_cast<NodeId>(seed_rng.below(base.num_nodes()));
    while (base.degree(s) == 0) {
      s = static_cast<NodeId>(seed_rng.below(base.num_nodes()));
    }
    if (fe.submit(s, i % 2).admitted) ++admitted;
  }
  const std::vector<core::ServedQuery> served = fe.drain();
  fe.shutdown();

  const core::ServingStats stats = fe.stats();
  EXPECT_EQ(stats.updates_applied, stream.size());
  EXPECT_EQ(stats.graph_version, dyn.version());
  std::size_t ok = 0;
  for (const core::ServedQuery& q : served) {
    if (q.status != core::ServeStatus::kOk) continue;
    ++ok;
    EXPECT_LE(q.result.stats.graph_version, dyn.version());
  }
  EXPECT_EQ(ok, admitted);
}

}  // namespace
}  // namespace meloppr::graph

int main(int argc, char** argv) {
  return meloppr::test::run_all_tests(argc, argv);
}
