// Common result types for ranking queries.

#ifndef URANK_CORE_RANKING_H_
#define URANK_CORE_RANKING_H_

#include <algorithm>
#include <vector>

namespace urank {

// One entry of a ranked answer: a tuple id together with the statistic the
// ranking was derived from (expected rank, median rank, top-k probability,
// ...). Lower `statistic` means better (earlier) rank for rank-based
// definitions; probability-based definitions negate so the convention holds
// throughout the library.
struct RankedTuple {
  int id = 0;
  double statistic = 0.0;

  friend bool operator==(const RankedTuple&, const RankedTuple&) = default;
};

// Orders (statistic ascending, id ascending) — the library-wide
// deterministic tie-break — and returns the first min(k, n) entries.
// `ids[i]` and `statistics[i]` describe one tuple; the two vectors must have
// equal length. Pass k < 0 for the full ranking.
inline std::vector<RankedTuple> TopKByStatistic(
    const std::vector<int>& ids, const std::vector<double>& statistics,
    int k) {
  std::vector<RankedTuple> all;
  all.reserve(ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    all.push_back({ids[i], statistics[i]});
  }
  std::sort(all.begin(), all.end(),
            [](const RankedTuple& a, const RankedTuple& b) {
              if (a.statistic != b.statistic) return a.statistic < b.statistic;
              return a.id < b.id;
            });
  if (k >= 0 && static_cast<size_t>(k) < all.size()) {
    all.resize(static_cast<size_t>(k));
  }
  return all;
}

// The one result type of the pruned top-k algorithms (QueryRequest::prune
// and A-ERank-Prune): the answer plus how far the scan got.
struct PrunedTopKResult {
  // The answer in rank order. Exact algorithms return exactly the unpruned
  // top-k selection, statistics included (probability semantics report the
  // probability itself, best first).
  std::vector<RankedTuple> topk;
  // Tuples whose statistic the scan actually computed.
  long long tuples_scanned = 0;
  // Stream position (into rank_order / escore_order) where the scan
  // stopped; N when the bound never fired and the scan ran out.
  long long prune_stop_position = 0;
};

// Extracts just the ids of a ranked answer, in rank order.
inline std::vector<int> IdsOf(const std::vector<RankedTuple>& ranked) {
  std::vector<int> ids;
  ids.reserve(ranked.size());
  for (const RankedTuple& rt : ranked) ids.push_back(rt.id);
  return ids;
}

}  // namespace urank

#endif  // URANK_CORE_RANKING_H_
