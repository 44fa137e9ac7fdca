#include "core/premerge.h"

#include <string>
#include <unordered_map>

#include "core/reconciler.h"
#include "util/logging.h"
#include "util/string_util.h"
#include "util/union_find.h"

namespace recon {
namespace {

/// Condenses `dataset` by the disjoint sets of `groups` (a union-find over
/// its reference ids): each set becomes one enriched reference with unioned
/// atomic values and associations remapped to condensed ids (self-links
/// dropped). Condensed ids are assigned in ascending order of each set's
/// smallest member, so original_rep is strictly increasing — a clustering of
/// the condensed dataset whose representatives are smallest condensed
/// members therefore expands (ExpandClusters) to smallest-original-member
/// representatives.
PremergeResult CondenseByGroups(const Dataset& dataset, UnionFind& groups) {
  const int n = dataset.num_references();
  RECON_CHECK_EQ(groups.size(), n);
  PremergeResult out{Dataset(dataset.schema()), {}, {}};
  out.condensed_of.assign(n, kInvalidRef);

  // Assign condensed ids in order of each group's smallest member so the
  // result is deterministic and ids stay correlated with input order.
  for (RefId id = 0; id < n; ++id) {
    const int root = groups.Find(id);
    if (out.condensed_of[root] == kInvalidRef) {
      const Reference& ref = dataset.reference(id);
      out.condensed_of[root] = out.condensed.NewReference(
          ref.class_id(), dataset.gold_entity(id), dataset.provenance(id));
      out.original_rep.push_back(id);
    }
    out.condensed_of[id] = out.condensed_of[root];
  }

  // Union atomic values; remap and union associations.
  for (RefId id = 0; id < n; ++id) {
    const Reference& ref = dataset.reference(id);
    Reference& condensed =
        out.condensed.mutable_reference(out.condensed_of[id]);
    for (int attr = 0; attr < ref.num_attributes(); ++attr) {
      for (const std::string& value : ref.atomic_values(attr)) {
        condensed.AddAtomicValue(attr, value);
      }
      for (const RefId target : ref.associations(attr)) {
        const RefId mapped = out.condensed_of[target];
        if (mapped != out.condensed_of[id]) {
          condensed.AddAssociation(attr, mapped);
        }
      }
    }
  }
  return out;
}

}  // namespace

PremergeResult PremergeEqualEmails(const Dataset& dataset,
                                   const SchemaBinding& binding,
                                   const std::vector<RefId>& keep_apart) {
  const int n = dataset.num_references();
  UnionFind groups(n);
  std::vector<bool> apart(n, false);
  for (const RefId id : keep_apart) {
    if (id >= 0 && id < n) apart[id] = true;
  }

  if (binding.person >= 0 && binding.person_email >= 0) {
    std::unordered_map<std::string, RefId> first_with_email;
    for (RefId id = 0; id < n; ++id) {
      const Reference& ref = dataset.reference(id);
      if (ref.class_id() != binding.person || apart[id]) continue;
      for (const std::string& email :
           ref.atomic_values(binding.person_email)) {
        auto [it, inserted] =
            first_with_email.try_emplace(ToLower(email), id);
        if (!inserted) groups.Union(it->second, id);
      }
    }
  }

  return CondenseByGroups(dataset, groups);
}

std::vector<int> ExpandClusters(const PremergeResult& premerge,
                                const std::vector<int>& condensed_clusters) {
  RECON_CHECK_EQ(condensed_clusters.size(), premerge.original_rep.size());
  std::vector<int> clusters(premerge.condensed_of.size());
  for (size_t id = 0; id < clusters.size(); ++id) {
    const int condensed_cluster =
        condensed_clusters[premerge.condensed_of[id]];
    clusters[id] = premerge.original_rep[condensed_cluster];
  }
  return clusters;
}

ReconcileResult ExpandResult(const PremergeResult& premerge,
                             ReconcileResult condensed) {
  ReconcileResult result;
  result.stats = condensed.stats;
  result.cluster = ExpandClusters(premerge, condensed.cluster);
  for (const auto& [a, b] : condensed.merged_pairs) {
    result.merged_pairs.emplace_back(premerge.original_rep[a],
                                     premerge.original_rep[b]);
  }
  for (RefId id = 0;
       id < static_cast<RefId>(premerge.condensed_of.size()); ++id) {
    const RefId rep = premerge.original_rep[premerge.condensed_of[id]];
    if (rep != id) result.merged_pairs.emplace_back(rep, id);
  }
  return result;
}

}  // namespace recon
