// Fellegi-Sunter record linkage with EM-estimated weights.
//
// The paper frames all classical reconciliation work as variants of the
// Fellegi-Sunter model (its references [17], [36]): a candidate pair is
// described by a vector of discrete per-field comparison outcomes; under a
// two-class naive-Bayes model, EM estimates each field's agreement
// probabilities among matches (m) and non-matches (u) without any labels;
// pairs are classified by posterior match probability and closed
// transitively. This is the second baseline next to IndepDec (the
// Reconciler run as ReconcilerOptions::IndepDec()), and — unlike it — is
// *unsupervised but adaptive*: it learns field weights from the dataset
// itself. Each distinct value is interned and analyzed once, as in the graph
// build (InternReferenceValues), and fields are scored by the graph's
// field comparators (FeaturePairSimilarity).

#ifndef RECON_BASELINE_FELLEGI_SUNTER_H_
#define RECON_BASELINE_FELLEGI_SUNTER_H_

#include <array>
#include <vector>

#include "core/options.h"
#include "core/reconciler.h"
#include "model/dataset.h"

namespace recon {

/// Per-field EM estimates, exposed for inspection and tests.
struct FellegiSunterModel {
  /// P(outcome | match) and P(outcome | non-match) per field; outcomes
  /// are {disagree, partial, agree, missing}.
  std::vector<std::array<double, 4>> m_probabilities;
  std::vector<std::array<double, 4>> u_probabilities;
  double match_prior = 0.0;
  int iterations = 0;
};

/// The unsupervised Fellegi-Sunter linker. Fields per class are the
/// attribute-wise channel rows IndepDec compares (names/emails for Person,
/// title/year/pages for Article, name/year/location for Venue). Candidate
/// pairs come from the blocking configuration of `blocking`; its other
/// switches are not read.
class FellegiSunter {
 public:
  explicit FellegiSunter(
      ReconcilerOptions blocking = ReconcilerOptions::IndepDec())
      : blocking_(std::move(blocking)) {}

  /// Partitions the dataset's references.
  ReconcileResult Run(const Dataset& dataset) const;

  /// Runs EM for one class and returns the fitted model (for tests and
  /// weight inspection); class_id must have comparable fields.
  FellegiSunterModel FitClass(const Dataset& dataset, int class_id) const;

 private:
  ReconcilerOptions blocking_;
};

}  // namespace recon

#endif  // RECON_BASELINE_FELLEGI_SUNTER_H_
