// Experiment E14 (ablation, paper Appendix A): continuous score pdfs are
// discretized into s-point equal-probability pdfs and ranked with the
// discrete algorithms. Reports how the resulting expected-rank ordering
// converges to a high-resolution reference as s grows, and the runtime
// cost of the extra resolution.
//
// Expected shape: the ordering stabilizes at modest s (the discrete
// algorithms' O(sN log sN) cost makes generous s cheap); Kendall distance
// to the reference drops steeply between s = 1 and s ≈ 16.

#include <cstdio>
#include <memory>
#include <vector>

#include "core/engine/prepared_relation.h"
#include "core/expected_rank_attr.h"
#include "model/continuous.h"
#include "util/rng.h"
#include "util/rank_metrics.h"
#include "util/table.h"
#include "util/timer.h"

namespace urank {
namespace {

constexpr int kN = 2000;
constexpr int kReferenceBuckets = 256;

// A heterogeneous population of continuous score distributions.
std::vector<std::unique_ptr<ContinuousPdf>> BuildPopulation() {
  std::vector<std::unique_ptr<ContinuousPdf>> pdfs;
  Rng rng(41);
  for (int i = 0; i < kN; ++i) {
    const double centre = rng.Uniform(0.0, 1000.0);
    switch (rng.UniformInt(0, 2)) {
      case 0:
        pdfs.push_back(std::make_unique<UniformScorePdf>(
            centre, centre + rng.Uniform(5.0, 120.0)));
        break;
      case 1:
        pdfs.push_back(std::make_unique<GaussianScorePdf>(
            centre, rng.Uniform(2.0, 60.0)));
        break;
      default: {
        const double width = rng.Uniform(10.0, 150.0);
        pdfs.push_back(std::make_unique<TriangularScorePdf>(
            centre, centre + rng.Uniform(0.0, 1.0) * width, centre + width));
        break;
      }
    }
  }
  return pdfs;
}

AttrRelation Discretize(
    const std::vector<std::unique_ptr<ContinuousPdf>>& pdfs, int buckets) {
  std::vector<AttrTuple> tuples;
  tuples.reserve(pdfs.size());
  for (size_t i = 0; i < pdfs.size(); ++i) {
    tuples.push_back(
        DiscretizeToTuple(static_cast<int>(i), *pdfs[i], buckets));
  }
  return AttrRelation(std::move(tuples));
}

void RunExperiment() {
  const auto pdfs = BuildPopulation();
  const AttrRelation reference = Discretize(pdfs, kReferenceBuckets);
  const std::vector<int> reference_order =
      IdsOf(AttrExpectedRankTopK(PreparedAttrRelation(reference), kN));

  Table table(
      "E14: continuous-pdf discretization (N = 2000, reference s = 256)",
      {"buckets s", "discretize (ms)", "rank (ms)", "Kendall tau vs ref",
       "top-50 recall"});
  for (int buckets : {1, 2, 4, 8, 16, 32, 64}) {
    AttrRelation rel = Discretize(pdfs, buckets);
    const double build_ms =
        MedianTimeMs(3, [&] { Discretize(pdfs, buckets); });
    std::vector<int> order;
    const double rank_ms = MedianTimeMs(3, [&] {
      order = IdsOf(AttrExpectedRankTopK(PreparedAttrRelation(rel), kN));
    });
    std::vector<int> top50(order.begin(), order.begin() + 50);
    std::vector<int> ref50(reference_order.begin(),
                           reference_order.begin() + 50);
    table.AddRow({FormatInt(buckets), FormatDouble(build_ms, 1),
                  FormatDouble(rank_ms, 2),
                  FormatDouble(KendallTauDistance(order, reference_order), 4),
                  FormatDouble(RecallAgainst(top50, ref50), 3)});
  }
  table.Print();
}

}  // namespace
}  // namespace urank

int main() {
  urank::RunExperiment();
  return 0;
}
