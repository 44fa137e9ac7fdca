// Partition invariants every reconcile result must satisfy, whatever the
// configuration, thread count or input:
//   - canonical:   each cluster id is the smallest member of its cluster;
//   - mixed-class: no cluster mixes classes;
//   - closure:     the transitive closure of merged_pairs is the partition;
//   - co-author:   with constraints on, no two authors of one article
//                  share a cluster;
//   - distinct:    with constraints on, no feedback.distinct pair shares a
//                  cluster.
// CheckPartition returns one line per violation, prefixed with the name of
// the check it breaks; an empty list means every invariant holds.

#ifndef RECON_TESTS_INVARIANTS_H_
#define RECON_TESTS_INVARIANTS_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "core/options.h"
#include "core/reconciler.h"
#include "core/schema_binding.h"
#include "model/dataset.h"
#include "util/union_find.h"

namespace recon::invariants {

inline constexpr char kCanonical[] = "canonical";
inline constexpr char kMixedClass[] = "mixed-class";
inline constexpr char kClosure[] = "closure";
inline constexpr char kCoAuthor[] = "co-author";
inline constexpr char kDistinct[] = "distinct";

inline std::vector<std::string> CheckPartition(
    const Dataset& data, const ReconcilerOptions& options,
    const ReconcileResult& result) {
  std::vector<std::string> out;
  auto violation = [&out](const char* check, const std::string& detail) {
    out.push_back(std::string(check) + ": " + detail);
  };
  auto pair_text = [](int a, int b) {
    std::string text = "(";
    text += std::to_string(a);
    text += ", ";
    text += std::to_string(b);
    text += ")";
    return text;
  };
  const int n = data.num_references();
  if (static_cast<int>(result.cluster.size()) != n) {
    violation(kCanonical, std::to_string(result.cluster.size()) +
                              " cluster ids for " + std::to_string(n) +
                              " references");
    return out;
  }
  auto in_range = [n](int id) { return id >= 0 && id < n; };

  // The label of a reference is a member of its cluster (it labels itself)
  // and no larger than the reference. The class check groups by label, so
  // it holds or fails independently of the labels being canonical.
  std::unordered_map<int, RefId> first_of_label;
  for (RefId id = 0; id < n; ++id) {
    const int label = result.cluster[id];
    if (!in_range(label) || label > id || result.cluster[label] != label) {
      violation(kCanonical, "reference " + std::to_string(id) +
                                " has cluster id " + std::to_string(label));
    }
    const auto [it, fresh] = first_of_label.try_emplace(label, id);
    if (!fresh && data.reference(it->second).class_id() !=
                      data.reference(id).class_id()) {
      violation(kMixedClass, "cluster " + std::to_string(label) +
                                 " holds references " +
                                 pair_text(it->second, id) +
                                 " of different classes");
    }
  }

  // Closure: the components of merged_pairs and the clusters correspond
  // one to one (compared as sets, whatever the labels).
  UnionFind components(n);
  for (const auto& [a, b] : result.merged_pairs) {
    if (!in_range(a) || !in_range(b)) {
      violation(kClosure, "merged pair " + pair_text(a, b) + " out of range");
      continue;
    }
    components.Union(a, b);
  }
  std::unordered_map<int, int> label_of_component;
  std::unordered_map<int, int> component_of_label;
  for (RefId id = 0; id < n; ++id) {
    const int component = components.Find(id);
    const int label = result.cluster[id];
    const int seen_label =
        label_of_component.try_emplace(component, label).first->second;
    const int seen_component =
        component_of_label.try_emplace(label, component).first->second;
    if (seen_label != label) {
      violation(kClosure, "reference " + std::to_string(id) +
                              " is merged into cluster " +
                              std::to_string(seen_label) + " but labeled " +
                              std::to_string(label));
    } else if (seen_component != component) {
      violation(kClosure, "cluster " + std::to_string(label) +
                              " is not connected by merged pairs at " +
                              std::to_string(id));
    }
  }

  if (!options.constraints) return out;
  const SchemaBinding binding = SchemaBinding::Resolve(data.schema());
  if (binding.article >= 0 && binding.article_authors >= 0) {
    for (RefId id = 0; id < n; ++id) {
      const Reference& ref = data.reference(id);
      if (ref.class_id() != binding.article) continue;
      const auto& authors = ref.associations(binding.article_authors);
      for (size_t i = 0; i < authors.size(); ++i) {
        for (size_t j = i + 1; j < authors.size(); ++j) {
          if (authors[i] == authors[j] ||
              result.cluster[authors[i]] != result.cluster[authors[j]]) {
            continue;
          }
          violation(kCoAuthor,
                    "authors " + pair_text(authors[i], authors[j]) +
                        " of article " + std::to_string(id) +
                        " share a cluster");
        }
      }
    }
  }
  for (const auto& [a, b] : options.feedback.distinct) {
    if (!in_range(a) || !in_range(b) || a == b) continue;
    if (result.cluster[a] == result.cluster[b]) {
      violation(kDistinct, "feedback-distinct pair " + pair_text(a, b) +
                               " shares a cluster");
    }
  }
  return out;
}

}  // namespace recon::invariants

#endif  // RECON_TESTS_INVARIANTS_H_
