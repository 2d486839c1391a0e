// Experiments E3 + E4: A-ERank-Prune.
//
// E3 — pruning power: tuples accessed (out of N) as a function of k and of
// the score distribution. The stop test uses Markov tail bounds
// (Pr[X > v] <= E[X]/v, eqs. 5-6), so its power depends on how fast
// expected scores decay relative to the top scores: heavy-tailed (Zipfian)
// universes prune aggressively, uniform ones moderately, and tightly
// concentrated (normal) ones barely at all.
//
// E4 — answer quality: precision and recall of the pruned
// (curtailed-prefix surrogate) top-k against the exact top-k.
//
// A-ERank-Prune is approximate, so it is the explicit prepared-state call
// (it walks PreparedAttrRelation::escore_order()), never QueryRequest::
// prune; "accessed" is its tuples_scanned.
//
// Paper shape: pruning saves a large fraction of accesses on skewed data
// and grows mildly with k; the surrogate answer is almost always the exact
// top-k (recall ~1).

#include <cstdio>
#include <vector>

#include "core/engine/prepared_relation.h"
#include "core/expected_rank_attr.h"
#include "gen/attr_gen.h"
#include "util/rank_metrics.h"
#include "util/table.h"

namespace urank {
namespace {

constexpr int kN = 10000;

struct Workload {
  const char* name;
  AttrGenConfig config;
};

std::vector<Workload> Workloads() {
  std::vector<Workload> workloads;
  {
    AttrGenConfig config;
    config.num_tuples = kN;
    config.pdf_size = 5;
    config.score_dist = ScoreDistribution::kZipf;
    config.zipf_theta = 1.0;
    // Wide universe so even the rarest rank keeps scores well above the
    // pdf spread.
    config.score_scale = 1e6;
    config.value_spread = 20.0;
    config.seed = 11;
    workloads.push_back({"zipf(1.0)", config});
  }
  {
    AttrGenConfig config;
    config.num_tuples = kN;
    config.pdf_size = 5;
    config.score_dist = ScoreDistribution::kUniform;
    config.score_scale = 1000.0;
    config.value_spread = 20.0;
    config.seed = 11;
    workloads.push_back({"uniform", config});
  }
  {
    AttrGenConfig config;
    config.num_tuples = kN;
    config.pdf_size = 5;
    config.score_dist = ScoreDistribution::kNormal;
    config.score_scale = 1000.0;
    config.value_spread = 20.0;
    config.seed = 11;
    workloads.push_back({"normal", config});
  }
  return workloads;
}

void RunExperiment() {
  const std::vector<int> ks = {10, 20, 50, 100};

  Table accessed("E3: A-ERank-Prune tuples accessed (N = 10000)",
                 {"score dist", "k", "accessed", "fraction"});
  Table quality("E4: A-ERank-Prune answer quality vs exact top-k",
                {"score dist", "k", "recall", "precision"});

  for (const Workload& workload : Workloads()) {
    const PreparedAttrRelation prepared(GenerateAttrRelation(workload.config));
    for (int k : ks) {
      const PrunedTopKResult pruned = AttrExpectedRankTopKPrune(prepared, k);
      const std::vector<int> exact = IdsOf(AttrExpectedRankTopK(prepared, k));
      const std::vector<int> approx = IdsOf(pruned.topk);
      accessed.AddRow(
          {workload.name, FormatInt(k), FormatInt(pruned.tuples_scanned),
           FormatDouble(static_cast<double>(pruned.tuples_scanned) / kN,
                        3)});
      quality.AddRow({workload.name, FormatInt(k),
                      FormatDouble(RecallAgainst(approx, exact), 3),
                      FormatDouble(PrecisionAgainst(approx, exact), 3)});
    }
  }
  accessed.Print();
  std::printf("\n");
  quality.Print();

  // Ablation A2: the paper's Markov terms E[X_n]/v can exceed 1; clamping
  // each to its trivial probability bound keeps the stop test sound and
  // prunes earlier.
  Table clamped("A2: faithful vs clamped Markov bounds (k = 20)",
                {"score dist", "faithful accessed", "clamped accessed"});
  for (const Workload& workload : Workloads()) {
    const PreparedAttrRelation prepared(GenerateAttrRelation(workload.config));
    const PrunedTopKResult faithful =
        AttrExpectedRankTopKPrune(prepared, 20, /*clamp_tail_bounds=*/false);
    const PrunedTopKResult tight =
        AttrExpectedRankTopKPrune(prepared, 20, /*clamp_tail_bounds=*/true);
    clamped.AddRow({workload.name, FormatInt(faithful.tuples_scanned),
                    FormatInt(tight.tuples_scanned)});
  }
  std::printf("\n");
  clamped.Print();
}

}  // namespace
}  // namespace urank

int main() {
  urank::RunExperiment();
  return 0;
}
