#include "eval/metrics.h"

#include <map>
#include <set>
#include <utility>

#include "util/logging.h"

namespace recon {

namespace {

int64_t PairsOf(int64_t n) { return n * (n - 1) / 2; }

}  // namespace

double FMeasure(double precision, double recall) {
  if (precision + recall <= 0) return 0.0;
  return 2.0 * precision * recall / (precision + recall);
}

PairMetrics EvaluateClass(const Dataset& dataset,
                          const std::vector<int>& cluster, int class_id) {
  RECON_CHECK_EQ(static_cast<int>(cluster.size()), dataset.num_references());

  std::map<int, int64_t> by_cluster;
  std::map<int, int64_t> by_entity;
  std::map<std::pair<int, int>, int64_t> contingency;
  for (RefId id = 0; id < dataset.num_references(); ++id) {
    if (dataset.reference(id).class_id() != class_id) continue;
    const int gold = dataset.gold_entity(id);
    if (gold < 0) continue;
    ++by_cluster[cluster[id]];
    ++by_entity[gold];
    ++contingency[{cluster[id], gold}];
  }

  PairMetrics m;
  m.num_partitions = static_cast<int>(by_cluster.size());
  m.num_entities = static_cast<int>(by_entity.size());
  for (const auto& [c, n] : by_cluster) m.predicted_pairs += PairsOf(n);
  for (const auto& [e, n] : by_entity) m.true_pairs += PairsOf(n);
  for (const auto& [cell, n] : contingency) m.correct_pairs += PairsOf(n);

  m.precision = (m.predicted_pairs == 0)
                    ? 1.0
                    : static_cast<double>(m.correct_pairs) /
                          static_cast<double>(m.predicted_pairs);
  m.recall = (m.true_pairs == 0) ? 1.0
                                 : static_cast<double>(m.correct_pairs) /
                                       static_cast<double>(m.true_pairs);
  m.f1 = FMeasure(m.precision, m.recall);
  return m;
}

PairMetrics AverageMetrics(const std::vector<PairMetrics>& runs) {
  PairMetrics avg;
  if (runs.empty()) return avg;
  avg.precision = 0;
  avg.recall = 0;
  for (const PairMetrics& m : runs) {
    avg.precision += m.precision;
    avg.recall += m.recall;
    avg.true_pairs += m.true_pairs;
    avg.predicted_pairs += m.predicted_pairs;
    avg.correct_pairs += m.correct_pairs;
    avg.num_partitions += m.num_partitions;
    avg.num_entities += m.num_entities;
  }
  avg.precision /= static_cast<double>(runs.size());
  avg.recall /= static_cast<double>(runs.size());
  avg.f1 = FMeasure(avg.precision, avg.recall);
  return avg;
}

BCubedMetrics EvaluateBCubed(const Dataset& dataset,
                             const std::vector<int>& cluster, int class_id) {
  // For each reference r: precision(r) = |cluster(r) ∩ entity(r)| /
  // |cluster(r)|, recall(r) = same / |entity(r)|; averages over refs.
  std::map<int, int64_t> cluster_size;
  std::map<int, int64_t> entity_size;
  std::map<std::pair<int, int>, int64_t> cell;
  std::vector<RefId> refs;
  for (RefId id = 0; id < dataset.num_references(); ++id) {
    if (dataset.reference(id).class_id() != class_id) continue;
    if (dataset.gold_entity(id) < 0) continue;
    refs.push_back(id);
    ++cluster_size[cluster[id]];
    ++entity_size[dataset.gold_entity(id)];
    ++cell[{cluster[id], dataset.gold_entity(id)}];
  }
  BCubedMetrics m;
  if (refs.empty()) return m;
  double precision_sum = 0;
  double recall_sum = 0;
  for (const RefId id : refs) {
    const int64_t overlap = cell[{cluster[id], dataset.gold_entity(id)}];
    precision_sum +=
        static_cast<double>(overlap) / cluster_size[cluster[id]];
    recall_sum +=
        static_cast<double>(overlap) / entity_size[dataset.gold_entity(id)];
  }
  m.precision = precision_sum / refs.size();
  m.recall = recall_sum / refs.size();
  m.f1 = FMeasure(m.precision, m.recall);
  return m;
}

int EntitiesWithFalsePositives(const Dataset& dataset,
                               const std::vector<int>& cluster,
                               int class_id) {
  // Entities of each predicted cluster.
  std::map<int, std::set<int>> entities_of_cluster;
  for (RefId id = 0; id < dataset.num_references(); ++id) {
    if (dataset.reference(id).class_id() != class_id) continue;
    const int gold = dataset.gold_entity(id);
    if (gold < 0) continue;
    entities_of_cluster[cluster[id]].insert(gold);
  }
  std::set<int> involved;
  for (const auto& [c, entities] : entities_of_cluster) {
    if (entities.size() >= 2) involved.insert(entities.begin(), entities.end());
  }
  return static_cast<int>(involved.size());
}

}  // namespace recon
