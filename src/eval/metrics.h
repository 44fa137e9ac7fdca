// Evaluation metrics (paper §5.2): pairwise precision / recall /
// F-measure against the gold standard, partition counts, and the count of
// entities involved in false positives (Table 6).

#ifndef RECON_EVAL_METRICS_H_
#define RECON_EVAL_METRICS_H_

#include <cstdint>
#include <vector>

#include "model/dataset.h"

namespace recon {

/// Pairwise reconciliation quality for one class.
struct PairMetrics {
  double precision = 1.0;
  double recall = 1.0;
  double f1 = 1.0;
  int64_t true_pairs = 0;     ///< Same-entity reference pairs in the gold.
  int64_t predicted_pairs = 0;///< Co-clustered reference pairs.
  int64_t correct_pairs = 0;  ///< Co-clustered pairs that share an entity.
  int num_partitions = 0;     ///< Clusters produced for this class.
  int num_entities = 0;       ///< Gold entities for this class.
};

/// Evaluates `cluster` (canonical cluster id per reference) against the
/// dataset's gold labels, restricted to references of `class_id`.
/// Unlabeled references (gold -1) are excluded.
PairMetrics EvaluateClass(const Dataset& dataset,
                          const std::vector<int>& cluster, int class_id);

/// Averages precision / recall / F over several runs (Table 2/3 rows).
PairMetrics AverageMetrics(const std::vector<PairMetrics>& runs);

/// Number of gold entities of `class_id` that appear in at least one
/// erroneous merge (a predicted cluster mixing two or more entities);
/// Table 6's "#(Entities with false-positives)".
int EntitiesWithFalsePositives(const Dataset& dataset,
                               const std::vector<int>& cluster, int class_id);

/// 2PR / (P + R); 0 when both are 0.
double FMeasure(double precision, double recall);

/// B-cubed precision/recall (Bagga & Baldwin): per-reference averages of
/// the fraction of its cluster (resp. entity) that is correct. Less
/// dominated by very large entities than pairwise counting — a useful
/// complement given how much the PIM datasets' owners weigh.
struct BCubedMetrics {
  double precision = 1.0;
  double recall = 1.0;
  double f1 = 1.0;
};
BCubedMetrics EvaluateBCubed(const Dataset& dataset,
                             const std::vector<int>& cluster, int class_id);

}  // namespace recon

#endif  // RECON_EVAL_METRICS_H_
