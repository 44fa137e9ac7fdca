#include "baseline/indep_dec.h"

#include <string>
#include <vector>

#include "core/candidates.h"
#include "core/premerge.h"
#include "core/schema_binding.h"
#include "sim/class_sim.h"
#include "sim/comparators.h"
#include "sim/evidence.h"
#include "util/timer.h"
#include "util/union_find.h"

namespace recon {

namespace {

/// The comparators also have ValueFeatures overloads now, which makes the
/// bare names ambiguous as template arguments; pin the raw-string forms.
using RawComparator = double (*)(const std::string&, const std::string&);

/// Offers MAX over the value cross product to one evidence channel,
/// mirroring the graph's seed-threshold semantics: scores below the seed
/// leave the channel absent rather than contributing a low value.
void OfferAtomic(const std::vector<std::string>& values1,
                 const std::vector<std::string>& values2, int evidence,
                 double seed, RawComparator comparator,
                 EvidenceSummary* summary) {
  for (const std::string& v1 : values1) {
    for (const std::string& v2 : values2) {
      const double sim = comparator(v1, v2);
      if (sim >= seed) summary->Offer(evidence, sim);
    }
  }
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

    EvidenceSummary evidence;
    if (class_id == binding.person) {
      if (binding.person_name >= 0) {
        OfferAtomic(a.atomic_values(binding.person_name),
                    b.atomic_values(binding.person_name), kEvPersonName,
                    p.person_name_seed, PersonNameFieldSimilarity, &evidence);
        // Mirror the graph builder: dissimilar names on both sides are
        // explicit zero evidence, not missing information.
        if (!a.atomic_values(binding.person_name).empty() &&
            !b.atomic_values(binding.person_name).empty() &&
            !evidence.Has(kEvPersonName)) {
          evidence.Offer(kEvPersonName, 0.0);
        }
      }
      if (binding.person_email >= 0) {
        OfferAtomic(a.atomic_values(binding.person_email),
                    b.atomic_values(binding.person_email), kEvPersonEmail,
                    p.person_email_seed, EmailFieldSimilarity, &evidence);
      }
    } else if (class_id == binding.article) {
      if (binding.article_title >= 0) {
        OfferAtomic(a.atomic_values(binding.article_title),
                    b.atomic_values(binding.article_title), kEvArticleTitle,
                    p.article_title_seed, TitleFieldSimilarity, &evidence);
      }
      if (!evidence.Has(kEvArticleTitle)) continue;  // Titles required.
      if (binding.article_year >= 0) {
        OfferAtomic(a.atomic_values(binding.article_year),
                    b.atomic_values(binding.article_year), kEvArticleYear,
                    p.year_seed, YearFieldSimilarity, &evidence);
      }
      if (binding.article_pages >= 0) {
        OfferAtomic(a.atomic_values(binding.article_pages),
                    b.atomic_values(binding.article_pages), kEvArticlePages,
                    p.pages_seed, PagesFieldSimilarity, &evidence);
      }
    } else if (class_id == binding.venue) {
      if (binding.venue_name >= 0) {
        OfferAtomic(a.atomic_values(binding.venue_name),
                    b.atomic_values(binding.venue_name), kEvVenueName,
                    p.venue_name_seed, VenueNameFieldSimilarity, &evidence);
      }
      if (!evidence.Has(kEvVenueName)) continue;  // Names required.
      if (binding.venue_year >= 0) {
        OfferAtomic(a.atomic_values(binding.venue_year),
                    b.atomic_values(binding.venue_year), kEvVenueYear,
                    p.year_seed, YearFieldSimilarity, &evidence);
      }
      if (binding.venue_location >= 0) {
        OfferAtomic(a.atomic_values(binding.venue_location),
                    b.atomic_values(binding.venue_location),
                    kEvVenueLocation, p.location_seed,
                    LocationFieldSimilarity, &evidence);
      }
    }

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
