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

/// EM and decision parameters.
struct FellegiSunterOptions {
  /// EM iterations / convergence tolerance on the match prior.
  int max_iterations = 60;
  double tolerance = 1e-7;
  /// Initial guesses (EM is seeded deterministically from these).
  double initial_match_prior = 0.05;
  /// Posterior P(match | vector) above which a pair is linked.
  double match_posterior_threshold = 0.9;
  /// Comparison discretization: similarity >= hi is "agree", >= lo is
  /// "partial", else "disagree"; missing values are their own outcome.
  double agree_threshold = 0.90;
  double partial_threshold = 0.60;
  /// Blocking configuration is borrowed from the reconciler options.
  ReconcilerOptions blocking = ReconcilerOptions::IndepDec();
};

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
/// title/year/pages for Article, name/year/location for Venue).
class FellegiSunter {
 public:
  explicit FellegiSunter(FellegiSunterOptions options = {})
      : options_(std::move(options)) {}

  /// Partitions the dataset's references.
  ReconcileResult Run(const Dataset& dataset) const;

  /// Runs EM for one class and returns the fitted model (for tests and
  /// weight inspection); class_id must have comparable fields.
  FellegiSunterModel FitClass(const Dataset& dataset, int class_id) const;

 private:
  FellegiSunterOptions options_;
};

}  // namespace recon

#endif  // RECON_BASELINE_FELLEGI_SUNTER_H_
