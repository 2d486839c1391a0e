// Sensor-network monitoring: attribute-level uncertainty on real-valued
// measurements (the paper's motivating application for that model).
//
// A field of temperature sensors each reports a small set of calibrated
// readings with confidence weights — a discrete pdf per sensor. The
// operator wants the k hottest sensors. Ranking by expected *score* is
// fooled by a faulty sensor that occasionally reports an absurd spike;
// ranking by expected/median rank is not.
//
//   $ ./sensor_network

#include <cstdio>
#include <cstdlib>
#include <utility>

#include "core/engine/query_engine.h"
// A-ERank-Prune, which is approximate and so never QueryRequest::prune:
// urank-lint: allow(engine-api)
#include "core/expected_rank_attr.h"
#include "model/attr_model.h"
#include "util/rng.h"

namespace {

// Top-k answer of one query; aborts the demo on a non-ok status. Ranks
// use the paper's strict-greater definition (Definition 6).
urank::RankingAnswer TopK(const urank::QueryEngine& engine,
                          urank::RankingSemantics semantics, int k) {
  urank::QueryRequest request;
  request.options.semantics = semantics;
  request.options.k = k;
  request.options.ties = urank::TiePolicy::kStrictGreater;
  urank::QueryResult result = engine.Run(request);
  if (!result.status.ok()) {
    std::fprintf(stderr, "query failed: %s\n",
                 result.status.message.c_str());
    std::exit(1);
  }
  return std::move(result.answer);
}

// Builds a sensor field: `n` healthy sensors with tight pdfs around their
// true temperature, plus one faulty sensor (id = n) whose pdf mixes a
// normal reading with a rare enormous spike.
urank::AttrRelation BuildSensorField(int n, urank::Rng& rng) {
  std::vector<urank::AttrTuple> sensors;
  for (int i = 0; i < n; ++i) {
    const double truth = rng.Uniform(15.0, 35.0);  // degrees C
    urank::AttrTuple s;
    s.id = i;
    // Three calibration points: low/centre/high, centre most likely.
    s.pdf = {{truth - 0.5, 0.25}, {truth, 0.5}, {truth + 0.5, 0.25}};
    sensors.push_back(std::move(s));
  }
  urank::AttrTuple faulty;
  faulty.id = n;
  faulty.pdf = {{20.0, 0.97}, {5000.0, 0.03}};  // rare bogus spike
  sensors.push_back(std::move(faulty));
  return urank::AttrRelation(std::move(sensors));
}

}  // namespace

int main() {
  urank::Rng rng(2026);
  const int kSensors = 200;
  const int k = 5;
  const urank::AttrRelation field = BuildSensorField(kSensors, rng);
  const urank::QueryEngine engine(field);

  std::printf("Sensor field: %d sensors (+1 faulty, id=%d)\n\n",
              kSensors, kSensors);

  const urank::RankingAnswer by_score =
      TopK(engine, urank::RankingSemantics::kExpectedScore, k);
  std::printf("Top-%d by expected score (value-sensitive):\n", k);
  for (size_t i = 0; i < by_score.ids.size(); ++i) {
    const int id = by_score.ids[i];
    std::printf("  sensor %3d  E[temp] = %.2f C%s\n", id,
                -by_score.statistics[i],
                id == kSensors ? "   <-- faulty sensor promoted!" : "");
  }

  const urank::RankingAnswer by_rank =
      TopK(engine, urank::RankingSemantics::kExpectedRank, k);
  std::printf("\nTop-%d by expected rank (value-invariant):\n", k);
  for (size_t i = 0; i < by_rank.ids.size(); ++i) {
    const int id = by_rank.ids[i];
    std::printf("  sensor %3d  expected rank = %.2f%s\n", id,
                by_rank.statistics[i],
                id == kSensors ? "   <-- faulty sensor" : "");
  }

  const urank::RankingAnswer by_median =
      TopK(engine, urank::RankingSemantics::kMedianRank, k);
  std::printf("\nTop-%d by median rank (outlier-robust):\n", k);
  for (size_t i = 0; i < by_median.ids.size(); ++i) {
    std::printf("  sensor %3d  median rank = %.0f\n", by_median.ids[i],
                by_median.statistics[i]);
  }

  // Pruned evaluation (A-ERank-Prune, paper Section 5.2): sensors stream
  // in expected-temperature order; the Markov bounds stop the scan early.
  // It walks the engine's prepared expected-score order.
  const urank::PrunedTopKResult pruned =
      urank::AttrExpectedRankTopKPrune(*engine.attr(), k);
  std::printf(
      "\nA-ERank-Prune answered the top-%d after touching %lld of %d "
      "sensors.\n",
      k, pruned.tuples_scanned, field.size());
  return 0;
}
