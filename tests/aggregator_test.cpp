#include "core/aggregator.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <utility>
#include <vector>

#include "test_support.hpp"
#include "util/rng.hpp"

namespace meloppr::core {
namespace {

TEST(ExactAggregator, SumsContributions) {
  ExactAggregator agg;
  agg.add(1, 0.5);
  agg.add(1, 0.25);
  agg.add(2, 0.1);
  auto top = agg.top(2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].node, 1u);
  EXPECT_DOUBLE_EQ(top[0].score, 0.75);
  EXPECT_EQ(agg.entries(), 2u);
}

TEST(ExactAggregator, NegativeCorrections) {
  // Eq. 8 subtracts α^l·residual before re-diffusing.
  ExactAggregator agg;
  agg.add(7, 0.4);
  agg.add(7, -0.4);
  agg.add(8, 0.1);
  auto top = agg.top(1);
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0].node, 8u);
}

TEST(ExactAggregator, ClearResets) {
  ExactAggregator agg;
  agg.add(1, 1.0);
  agg.clear();
  EXPECT_EQ(agg.entries(), 0u);
  EXPECT_TRUE(agg.top(5).empty());
}

TEST(ExactAggregator, BytesGrowWithEntries) {
  ExactAggregator agg;
  const std::size_t before = agg.bytes();
  for (graph::NodeId v = 0; v < 1000; ++v) agg.add(v, 0.001);
  EXPECT_GT(agg.bytes(), before + 1000 * 12);
}

TEST(TopCK, RejectsZeroCapacity) {
  EXPECT_THROW(TopCKAggregator(0), std::invalid_argument);
}

TEST(TopCK, LosslessUnderCapacity) {
  TopCKAggregator table(10);
  ExactAggregator exact;
  for (graph::NodeId v = 0; v < 8; ++v) {
    table.add(v, 0.1 * static_cast<double>(v + 1));
    exact.add(v, 0.1 * static_cast<double>(v + 1));
  }
  auto a = table.top(8);
  auto b = exact.top(8);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].node, b[i].node);
    EXPECT_DOUBLE_EQ(a[i].score, b[i].score);
  }
  EXPECT_EQ(table.evictions(), 0u);
}

TEST(TopCK, EvictsMinimumWhenFull) {
  TopCKAggregator table(3);
  table.add(1, 0.1);
  table.add(2, 0.2);
  table.add(3, 0.3);
  table.add(4, 0.4);  // evicts node 1
  EXPECT_EQ(table.entries(), 3u);
  EXPECT_EQ(table.evictions(), 1u);
  auto top = table.top(3);
  for (const auto& sn : top) EXPECT_NE(sn.node, 1u);
}

TEST(TopCK, SmallContributionsAreDroppedWhenFull) {
  TopCKAggregator table(2);
  table.add(1, 0.5);
  table.add(2, 0.6);
  table.add(3, 0.1);  // below min — dropped, no eviction
  EXPECT_EQ(table.entries(), 2u);
  EXPECT_EQ(table.evictions(), 0u);
  auto top = table.top(2);
  EXPECT_EQ(top[0].node, 2u);
  EXPECT_EQ(top[1].node, 1u);
}

TEST(TopCK, InPlaceUpdateNeverEvicts) {
  TopCKAggregator table(2);
  table.add(1, 0.5);
  table.add(2, 0.6);
  table.add(1, 0.3);  // update in place → 0.8
  EXPECT_EQ(table.entries(), 2u);
  EXPECT_EQ(table.evictions(), 0u);
  auto top = table.top(1);
  EXPECT_EQ(top[0].node, 1u);
  EXPECT_DOUBLE_EQ(top[0].score, 0.8);
}

TEST(TopCK, EvictionLosesHistoryByDesign) {
  // The precision cost of small c: once evicted, earlier contributions are
  // forgotten even if the node comes back.
  TopCKAggregator table(2);
  table.add(1, 0.10);
  table.add(2, 0.20);
  table.add(3, 0.30);  // evicts 1
  table.add(1, 0.25);  // re-inserted with only the new mass → evicts 2
  auto top = table.top(2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].node, 3u);
  EXPECT_EQ(top[1].node, 1u);
  EXPECT_DOUBLE_EQ(top[1].score, 0.25);  // 0.10 history lost
}

TEST(TopCK, MatchesExactWhenCapacityIsAmple) {
  Rng rng(55);
  TopCKAggregator table(1000);
  ExactAggregator exact;
  for (int i = 0; i < 5000; ++i) {
    const auto node = static_cast<graph::NodeId>(rng.below(500));
    const double delta = rng.uniform(0.0, 0.01);
    table.add(node, delta);
    exact.add(node, delta);
  }
  auto a = table.top(20);
  auto b = exact.top(20);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].node, b[i].node) << "rank " << i;
    EXPECT_NEAR(a[i].score, b[i].score, 1e-12);
  }
}

TEST(TopCK, BytesAreCapacityBased) {
  TopCKAggregator table(2000);
  EXPECT_EQ(table.bytes(), 2000u * 8u);
  table.add(1, 0.5);
  EXPECT_EQ(table.bytes(), 2000u * 8u);  // fixed BRAM footprint
}

TEST(TopCK, ClearResetsEvictions) {
  TopCKAggregator table(1);
  table.add(1, 0.1);
  table.add(2, 0.2);
  EXPECT_EQ(table.evictions(), 1u);
  table.clear();
  EXPECT_EQ(table.evictions(), 0u);
  EXPECT_EQ(table.entries(), 0u);
}

TEST(TopCK, RejectsNegativeMargin) {
  EXPECT_THROW(TopCKAggregator(4, -0.1), std::invalid_argument);
}

TEST(TopCK, AdmissionMarginDropsNearBoundaryChallengers) {
  // ε hysteresis (MelopprConfig::topck_epsilon): a full table evicts only
  // when the challenger beats the minimum by more than ε·|min| — closer
  // scores are dropped, but still feed the eviction-bound certificate.
  TopCKAggregator strict(4);
  TopCKAggregator margin(4, 0.5);
  for (graph::NodeId v = 0; v < 4; ++v) {
    strict.add(v, 1.0 + static_cast<double>(v));  // scores 1..4
    margin.add(v, 1.0 + static_cast<double>(v));
  }
  strict.add(10, 1.2);  // beats min 1.0 → strict eviction
  margin.add(10, 1.2);  // inside 1.0·(1+ε) = 1.5 → dropped
  EXPECT_EQ(strict.evictions(), 1u);
  EXPECT_EQ(margin.evictions(), 0u);
  EXPECT_EQ(margin.margin_drops(), 1u);
  EXPECT_GE(margin.eviction_bound(), 1.2);  // the drop is on the record
  margin.add(11, 1.6);  // decisively better → evicts even with margin
  EXPECT_EQ(margin.evictions(), 1u);
  EXPECT_EQ(margin.margin_drops(), 1u);
  margin.clear();
  EXPECT_EQ(margin.margin_drops(), 0u);
}

TEST(TopCK, AdmissionMarginCutsAlternatingBoundaryChurn) {
  // The churn scenario the hysteresis exists for: a stream of challengers
  // within floating-point noise of the minimum evicts on every add with
  // ε = 0 but never with a small ε — at identical top-1 results.
  TopCKAggregator strict(2);
  TopCKAggregator margin(2, 0.1);
  for (TopCKAggregator* table : {&strict, &margin}) {
    table->add(1, 1.0);
    table->add(2, 2.0);
  }
  for (int i = 0; i < 10; ++i) {
    const double noisy = 1.0 + 1e-9 * static_cast<double>(i + 1);
    strict.add(static_cast<graph::NodeId>(100 + i), noisy);
    margin.add(static_cast<graph::NodeId>(100 + i), noisy);
  }
  EXPECT_EQ(strict.evictions(), 10u);   // every noisy add displaced the min
  EXPECT_EQ(margin.evictions(), 0u);    // hysteresis absorbed the churn
  EXPECT_EQ(margin.margin_drops(), 10u);
  const auto strict_top = strict.top(1);
  const auto margin_top = margin.top(1);
  ASSERT_EQ(strict_top.size(), 1u);
  EXPECT_EQ(strict_top[0].node, margin_top[0].node);  // winner unaffected
}

TEST(TopCK, ZeroMarginIsBitIdenticalToLegacyEviction) {
  // ε = 0 must reproduce the strict table's admissions operation for
  // operation — the serial bit-identity contract of bounded batches.
  Rng rng(515);
  TopCKAggregator legacy(16);
  TopCKAggregator zero_margin(16, 0.0);
  for (int i = 0; i < 2000; ++i) {
    const auto node = static_cast<graph::NodeId>(rng.below(64));
    const double delta =
        (rng.uniform() - 0.2) * (rng.chance(0.5) ? 1.0 : 1e-6);
    legacy.add(node, delta);
    zero_margin.add(node, delta);
  }
  const auto a = legacy.top(16);
  const auto b = zero_margin.top(16);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].node, b[i].node);
    EXPECT_EQ(a[i].score, b[i].score);  // bit-identical, not merely near
  }
  EXPECT_EQ(legacy.evictions(), zero_margin.evictions());
  EXPECT_EQ(zero_margin.margin_drops(), 0u);
}


// Property: the eviction bound is a fidelity certificate. For streams with
// one contribution per node, any node whose contribution exceeds
// eviction_bound() is guaranteed resident with its exact score — so the
// bounded top-k equals the exact top-k whenever the true k-th score clears
// the bound.
void check_bound_property(TopCKAggregator& table, Rng& rng, std::size_t nodes,
                          std::size_t k) {
  std::vector<std::pair<graph::NodeId, double>> stream;
  stream.reserve(nodes);
  for (graph::NodeId v = 0; v < nodes; ++v) {
    stream.push_back({v, rng.uniform(1e-6, 1.0)});
  }
  // Shuffle so admission order is uncorrelated with score.
  for (std::size_t i = stream.size(); i > 1; --i) {
    std::swap(stream[i - 1], stream[rng.below(i)]);
  }
  ExactAggregator exact;
  for (const auto& [node, delta] : stream) {
    table.add(node, delta);
    exact.add(node, delta);
  }
  const double bound = table.eviction_bound();

  // Every node above the bound is resident with its exact score.
  std::map<graph::NodeId, double> resident;
  for (const auto& sn : table.top(table.capacity())) {
    resident.emplace(sn.node, sn.score);
  }
  EXPECT_LE(resident.size(), table.capacity());
  for (const auto& [node, delta] : stream) {
    if (delta > bound) {
      const auto it = resident.find(node);
      ASSERT_NE(it, resident.end())
          << "node " << node << " with score " << delta
          << " above eviction bound " << bound << " was displaced";
      EXPECT_EQ(it->second, delta);
    }
  }

  // Top-k agreement whenever the true k-th score clears the bound.
  const auto exact_top = exact.top(k);
  if (!exact_top.empty() && exact_top.back().score > bound) {
    const auto got = table.top(k);
    ASSERT_EQ(got.size(), exact_top.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].node, exact_top[i].node) << "rank " << i;
      EXPECT_EQ(got[i].score, exact_top[i].score) << "rank " << i;
    }
  }
}

TEST(TopCKProperty, SerialTableBoundCertifiesTopK) {
  Rng base(meloppr::test::test_seed());
  const std::size_t rounds = meloppr::test::stress_iters(40);
  for (std::size_t round = 0; round < rounds; ++round) {
    Rng rng = base.fork(round);
    const std::size_t capacity = 8 + rng.below(120);
    TopCKAggregator table(capacity);
    check_bound_property(table, rng, capacity + rng.below(4 * capacity),
                         1 + rng.below(capacity));
  }
}

// Each pipeline worker keeps one aggregator and clear()s it before every
// reduction, so a cleared table must behave exactly like a fresh one.
TEST(BoundedAggregation, ClearedTableKeepsCapacityAndMatchesFresh) {
  TopCKAggregator reused(8);
  for (graph::NodeId v = 0; v < 12; ++v) {
    reused.add(v, 0.1 * static_cast<double>(v + 1));
  }
  EXPECT_EQ(reused.entries(), 8u);
  EXPECT_GT(reused.evictions(), 0u);

  reused.clear();
  EXPECT_EQ(reused.entries(), 0u);
  EXPECT_EQ(reused.evictions(), 0u);
  EXPECT_EQ(reused.margin_drops(), 0u);
  EXPECT_EQ(reused.capacity(), 8u);
  EXPECT_EQ(reused.eviction_bound(), -std::numeric_limits<double>::infinity());

  TopCKAggregator fresh(8);
  for (graph::NodeId v = 0; v < 20; ++v) {
    const double delta = 0.05 * static_cast<double>((v * 7) % 13) - 0.2;
    reused.add(v % 11, delta);
    fresh.add(v % 11, delta);
  }
  EXPECT_EQ(reused.evictions(), fresh.evictions());
  const auto a = reused.top(8);
  const auto b = fresh.top(8);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].node, b[i].node);
    EXPECT_EQ(a[i].score, b[i].score);
  }
}

TEST(ExactAggregator, ClearedMapKeepsBucketsAndMatchesFresh) {
  ExactAggregator reused;
  for (graph::NodeId v = 0; v < 100; ++v) reused.add(v, 0.01);
  const std::size_t buckets = reused.scores().bucket_count();
  reused.clear();
  EXPECT_EQ(reused.entries(), 0u);
  EXPECT_EQ(reused.capacity(), 0u);  // unbounded
  EXPECT_EQ(reused.evictions(), 0u);
  EXPECT_EQ(reused.scores().bucket_count(), buckets);  // storage stays warm

  ExactAggregator fresh;
  for (graph::NodeId v = 0; v < 30; ++v) {
    const double delta = 0.01 * static_cast<double>(v % 7) - 0.02;
    reused.add(v % 17, delta);
    fresh.add(v % 17, delta);
  }
  const auto a = reused.top(10);
  const auto b = fresh.top(10);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].node, b[i].node);
    EXPECT_EQ(a[i].score, b[i].score);
  }
}

}  // namespace
}  // namespace meloppr::core

// Custom main (the linker prefers this over gtest_main's): --seed flag +
// failure reproduction line.
int main(int argc, char** argv) {
  return meloppr::test::run_all_tests(argc, argv);
}
