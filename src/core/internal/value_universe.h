// Internal helper: the sorted value universe of an attribute-level
// relation — every distinct support value with its aggregate probability
// mass and suffix sums, so q(v) = Σ_j Pr[X_j > v] is a binary search.
// This is the shared precomputation behind A-ERank (eq. 4); the engine's
// PreparedAttrRelation builds it once and reuses it across queries. Not
// part of the public API.

#ifndef URANK_CORE_INTERNAL_VALUE_UNIVERSE_H_
#define URANK_CORE_INTERNAL_VALUE_UNIVERSE_H_

#include <algorithm>
#include <utility>
#include <vector>

#include "core/internal/vector_kernels.h"
#include "model/attr_model.h"

namespace urank {
namespace internal {

// Sorted universe of all values with the aggregate probability mass at
// each distinct value; suffix sums give q(v) = Σ_j Pr[X_j > v].
struct ValueUniverse {
  std::vector<double> values;  // ascending, distinct
  std::vector<double> mass;    // total probability at values[l]
  std::vector<double> suffix;  // suffix[l] = sum of mass[l..]

  // q(v): total probability mass strictly above v, over all tuples.
  double QGreater(double v) const {
    const size_t idx = static_cast<size_t>(
        std::upper_bound(values.begin(), values.end(), v) - values.begin());
    return suffix[idx];
  }
};

// The one q(v) collapse: builds the universe from an ascending (value,
// mass) sequence. `for_each_pair(add)` must call add(value, mass) once per
// support point, in ascending (value, mass) order; equal values collapse
// into one mass summed left to right, then one suffix-sum pass runs. Every
// producer (the eager sort below, the blocked builder's run merge, the
// mutable store's base + delta merge) feeds the same ascending sequence,
// so the sums — and the universe — are bit-identical across them.
template <typename ForEachPair>
ValueUniverse CollapseSortedValues(const ForEachPair& for_each_pair) {
  ValueUniverse u;
  for_each_pair([&u](double v, double p) {
    if (!u.values.empty() && u.values.back() == v) {
      u.mass.back() += p;
    } else {
      u.values.push_back(v);
      u.mass.push_back(p);
    }
  });
  u.suffix.resize(u.values.size() + 1);
  vk::Active().suffix_sum(u.mass.data(), u.suffix.data(), u.values.size());
  return u;
}

inline ValueUniverse BuildValueUniverse(const AttrRelation& rel) {
  std::vector<std::pair<double, double>> pairs;  // (value, mass)
  pairs.reserve(static_cast<size_t>(rel.size()) * 2);
  for (const AttrTuple& t : rel.tuples()) {
    for (const ScoreValue& sv : t.pdf) pairs.emplace_back(sv.value, sv.prob);
  }
  std::sort(pairs.begin(), pairs.end());
  return CollapseSortedValues([&pairs](const auto& add) {
    for (const auto& [v, p] : pairs) add(v, p);
  });
}

}  // namespace internal
}  // namespace urank

#endif  // URANK_CORE_INTERNAL_VALUE_UNIVERSE_H_
