#include "baseline/indep_dec.h"

#include <string>
#include <vector>

#include "core/candidates.h"
#include "core/premerge.h"
#include "core/schema_binding.h"
#include "sim/class_sim.h"
#include "sim/comparators.h"
#include "util/timer.h"
#include "util/union_find.h"

namespace recon {

namespace {

/// Offers every value pair of one attribute-wise channel row that reaches
/// the row's seed, mirroring the graph's seed-threshold semantics: scores
/// below the seed leave the channel absent rather than contributing a low
/// value. Then the row's explicit zero when both sides had values but none
/// was seed-similar. Returns whether anything was offered.
bool OfferRow(const AtomicChannel& row, const Reference& a,
              const Reference& b, EvidenceSummary* summary) {
  bool offered = false;
  for (const std::string& v1 : a.atomic_values(row.attr_a)) {
    for (const std::string& v2 : b.atomic_values(row.attr_b)) {
      const double sim = FieldSimilarity(row.evidence, v1, v2);
      if (sim >= row.seed) {
        summary->Offer(row.evidence, sim);
        offered = true;
      }
    }
  }
  if (row.zero_when_dissimilar && !offered &&
      !a.atomic_values(row.attr_a).empty() &&
      !b.atomic_values(row.attr_b).empty()) {
    summary->Offer(row.evidence, 0.0);
    offered = true;
  }
  return offered;
}

}  // namespace

ReconcileResult IndepDec::Run(const Dataset& dataset) const {
  if (options_.premerge_equal_emails) {
    const SchemaBinding binding = SchemaBinding::Resolve(dataset.schema());
    PremergeResult premerge = PremergeEqualEmails(dataset, binding);
    if (premerge.condensed.num_references() < dataset.num_references()) {
      return ExpandResult(premerge, RunCondensed(premerge.condensed));
    }
  }
  return RunCondensed(dataset);
}

ReconcileResult IndepDec::RunCondensed(const Dataset& dataset) const {
  Timer timer;
  const SchemaBinding binding = SchemaBinding::Resolve(dataset.schema());
  const SimParams& p = options_.params;

  const std::vector<std::unique_ptr<ClassSimilarity>> sims =
      MakeClassSimilarities(dataset.schema(), binding, p);
  // Attribute-wise: each kAttrWise row compares one attribute with itself.
  const std::vector<AtomicChannel> channels =
      AtomicChannels(binding, p, EvidenceLevel::kAttrWise);

  ReconcileResult result;
  const CandidateList candidates =
      GenerateCandidates(dataset, binding, options_);
  result.stats.num_candidates = static_cast<int>(candidates.size());

  UnionFind closure(dataset.num_references());
  for (const auto& [r1, r2] : candidates) {
    const Reference& a = dataset.reference(r1);
    const Reference& b = dataset.reference(r2);
    const int class_id = a.class_id();
    if (sims[class_id] == nullptr) continue;

    // A gated row is compared only when the ungated rows before it gave
    // evidence, and otherwise skips the pair: titles and venue names are
    // required.
    EvidenceSummary evidence;
    bool any_evidence = false;
    bool skip = false;
    for (const AtomicChannel& row : ClassChannels(channels, class_id)) {
      if (row.gated && !any_evidence) {
        skip = true;
        break;
      }
      any_evidence = OfferRow(row, a, b, &evidence) || any_evidence;
    }
    if (skip) continue;

    ++result.stats.num_recomputations;
    const double sim = sims[class_id]->Compute(evidence);
    if (sim >= p.merge_threshold) {
      closure.Union(r1, r2);
      result.merged_pairs.emplace_back(r1, r2);
      ++result.stats.num_merges;
    }
  }

  result.cluster.resize(dataset.num_references());
  for (int i = 0; i < dataset.num_references(); ++i) {
    result.cluster[i] = closure.Find(i);
  }
  result.stats.solve_seconds = timer.ElapsedSeconds();
  return result;
}

}  // namespace recon
