#include "ppr/topk.hpp"

#include <algorithm>
#include <unordered_set>

#include "util/assert.hpp"

namespace meloppr::ppr {

std::vector<ScoredNode> to_scored_nodes(const ScoreMap& scores) {
  std::vector<ScoredNode> out;
  out.reserve(scores.size());
  for (const auto& [node, score] : scores) out.push_back({node, score});
  return out;
}

std::vector<ScoredNode> top_k(std::vector<ScoredNode> scores, std::size_t k) {
  const auto better = [](const ScoredNode& a, const ScoredNode& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.node < b.node;
  };
  if (scores.size() > k) {
    std::nth_element(scores.begin(),
                     scores.begin() + static_cast<std::ptrdiff_t>(k),
                     scores.end(), better);
  }
  const auto end =
      scores.begin() + static_cast<std::ptrdiff_t>(std::min(k, scores.size()));
  std::sort(scores.begin(), end, better);
  // resize() would keep the candidates' whole buffer alive in every
  // retained result; copy the winners out instead so capacity() <= k.
  if (scores.capacity() <= k) {
    scores.erase(end, scores.end());
    return scores;
  }
  return {scores.begin(), end};
}

std::vector<ScoredNode> top_k(const ScoreMap& scores, std::size_t k) {
  return top_k(to_scored_nodes(scores), k);
}

double precision_at_k(const std::vector<ScoredNode>& truth,
                      const std::vector<ScoredNode>& approx, std::size_t k) {
  MELO_CHECK(k > 0);
  std::unordered_set<NodeId> truth_set;
  truth_set.reserve(truth.size());
  for (const auto& sn : truth) truth_set.insert(sn.node);
  std::size_t hits = 0;
  for (const auto& sn : approx) {
    if (truth_set.count(sn.node) != 0) ++hits;
  }
  return static_cast<double>(hits) / static_cast<double>(k);
}

}  // namespace meloppr::ppr
