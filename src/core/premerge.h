// Key-attribute pre-merging — the paper's §3.4 closing optimization:
// "the dependency graph can be pruned at the very beginning using
// inexpensive reference comparisons, e.g., merging Person references that
// have the same email address. This preprocessing can significantly reduce
// the size of the dependency graph."
//
// Besides speed, pre-merging is what keeps extremely popular entities
// (the dataset owner appears in almost every message) tractable: their
// thousands of references collapse into one enriched reference before any
// pairwise comparison happens.

#ifndef RECON_CORE_PREMERGE_H_
#define RECON_CORE_PREMERGE_H_

#include <vector>

#include "core/schema_binding.h"
#include "model/dataset.h"

namespace recon {

struct ReconcileResult;

/// A condensed dataset and the mapping back to the original references.
struct PremergeResult {
  Dataset condensed;
  /// Original reference id -> condensed reference id.
  std::vector<RefId> condensed_of;
  /// Condensed reference id -> smallest original member id.
  std::vector<RefId> original_rep;
};

/// Groups Person references sharing an email address (case-insensitive)
/// into single enriched references: atomic values are unioned, association
/// links are remapped to condensed ids. References of other classes are
/// passed through (with associations remapped). The first member's gold
/// label and provenance are kept. References listed in `keep_apart` (ids
/// out of range are ignored) join no email group, so each stays its own
/// condensed reference: the batch reconciler lists both ends of every
/// "distinct" feedback pair, which would otherwise collapse into one.
PremergeResult PremergeEqualEmails(const Dataset& dataset,
                                   const SchemaBinding& binding,
                                   const std::vector<RefId>& keep_apart = {});

/// Lifts a clustering of the condensed dataset back to the original
/// references, with canonical representatives drawn from the original ids.
std::vector<int> ExpandClusters(const PremergeResult& premerge,
                                const std::vector<int>& condensed_clusters);

/// Lifts a whole condensed-space result back to the original references:
/// the clusters (ExpandClusters), the merged pairs mapped to original
/// representatives, and the key merges the premerge itself performed.
ReconcileResult ExpandResult(const PremergeResult& premerge,
                             ReconcileResult condensed);

}  // namespace recon

#endif  // RECON_CORE_PREMERGE_H_
