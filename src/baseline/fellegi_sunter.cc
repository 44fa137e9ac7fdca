#include "baseline/fellegi_sunter.h"

#include <algorithm>
#include <cmath>
#include <span>
#include <vector>

#include "core/candidates.h"
#include "core/graph_builder.h"
#include "core/schema_binding.h"
#include "graph/value_pool.h"
#include "sim/value_store.h"
#include "util/logging.h"
#include "util/timer.h"
#include "util/union_find.h"

namespace recon {

namespace {

/// EM iterations, and the convergence tolerance on the match prior.
constexpr int kMaxIterations = 60;
constexpr double kTolerance = 1e-7;
/// The match prior EM starts from (EM is seeded deterministically).
constexpr double kInitialMatchPrior = 0.05;
/// Posterior P(match | vector) at or above which a pair is linked.
constexpr double kMatchPosteriorThreshold = 0.9;
/// Comparison discretization: similarity >= kAgreeThreshold is "agree",
/// >= kPartialThreshold is "partial", else "disagree"; missing values are
/// their own outcome.
constexpr double kAgreeThreshold = 0.90;
constexpr double kPartialThreshold = 0.60;

/// Comparison outcomes per field.
enum Outcome : uint8_t {
  kDisagree = 0,
  kPartial = 1,
  kAgree = 2,
  kMissing = 3,
  kNumOutcomes = 4,
};

/// The dataset's atomic values, interned and analyzed once each (the graph
/// build's InternReferenceValues), and its candidate pairs, blocked over
/// those analyses.
struct AnalyzedDataset {
  AnalyzedDataset(const Dataset& dataset, const SchemaBinding& binding,
                  const ReconcilerOptions& blocking)
      : store(MakeValueKindSchema(binding)) {
    InternReferenceValues(dataset, /*first_ref=*/0, pool, store);
    candidates = GenerateCandidates(dataset, binding, blocking,
                                    /*budget=*/nullptr, &pool, &store);
  }

  const ValueFeatures& FeaturesOf(ValueDomain domain,
                                  const std::string& raw) const {
    const ValueId id = pool.Find(domain, raw);
    RECON_CHECK_NE(id, kInvalidValue);
    return store.features(id);
  }

  ValuePool pool;
  ValueStore store;
  CandidateList candidates;
};

Outcome CompareField(const Reference& a, const Reference& b,
                     const AtomicChannel& field,
                     const AnalyzedDataset& values) {
  const std::vector<std::string>& values_a = a.atomic_values(field.attr_a);
  const std::vector<std::string>& values_b = b.atomic_values(field.attr_b);
  if (values_a.empty() || values_b.empty()) return kMissing;
  const ValueDomain domain_a{field.class_id, field.attr_a};
  const ValueDomain domain_b{field.class_id, field.attr_b};
  double best = 0;
  for (const std::string& raw_a : values_a) {
    const ValueFeatures& va = values.FeaturesOf(domain_a, raw_a);
    for (const std::string& raw_b : values_b) {
      best = std::max(best,
                      FeaturePairSimilarity(field.evidence, va,
                                            values.FeaturesOf(domain_b, raw_b)));
    }
  }
  if (best >= kAgreeThreshold) return kAgree;
  if (best >= kPartialThreshold) return kPartial;
  return kDisagree;
}

/// The comparison vectors of all candidate pairs of one class.
struct ClassVectors {
  std::vector<std::pair<RefId, RefId>> pairs;
  /// pairs.size() x fields.size(), row-major.
  std::vector<uint8_t> outcomes;
  int num_fields = 0;
};

ClassVectors BuildVectors(const Dataset& dataset,
                          const AnalyzedDataset& values, int class_id,
                          std::span<const AtomicChannel> fields) {
  ClassVectors out;
  out.num_fields = static_cast<int>(fields.size());
  for (const auto& [r1, r2] : values.candidates) {
    const Reference& a = dataset.reference(r1);
    if (a.class_id() != class_id) continue;
    const Reference& b = dataset.reference(r2);
    out.pairs.emplace_back(r1, r2);
    for (const AtomicChannel& field : fields) {
      out.outcomes.push_back(CompareField(a, b, field, values));
    }
  }
  return out;
}

/// EM for the two-class naive-Bayes mixture over outcome vectors.
FellegiSunterModel FitEm(const ClassVectors& vectors,
                         std::vector<double>* posteriors) {
  FellegiSunterModel model;
  const int fields = vectors.num_fields;
  const size_t n = vectors.pairs.size();
  model.m_probabilities.assign(fields, {0.05, 0.15, 0.75, 0.05});
  model.u_probabilities.assign(fields, {0.70, 0.20, 0.05, 0.05});
  model.match_prior = kInitialMatchPrior;
  posteriors->assign(n, 0.0);
  if (n == 0 || fields == 0) return model;

  for (int iteration = 0; iteration < kMaxIterations; ++iteration) {
    ++model.iterations;
    // E step. The log-probabilities are fixed within an iteration, so
    // they are taken once per field and outcome, not once per pair.
    std::vector<std::array<double, 4>> log_m_of(fields);
    std::vector<std::array<double, 4>> log_u_of(fields);
    for (int f = 0; f < fields; ++f) {
      for (int k = 0; k < 4; ++k) {
        log_m_of[f][k] = std::log(model.m_probabilities[f][k]);
        log_u_of[f][k] = std::log(model.u_probabilities[f][k]);
      }
    }
    const double log_prior_m = std::log(model.match_prior);
    const double log_prior_u = std::log(1.0 - model.match_prior);
    double gamma_sum = 0;
    for (size_t i = 0; i < n; ++i) {
      double log_m = log_prior_m;
      double log_u = log_prior_u;
      for (int f = 0; f < fields; ++f) {
        const uint8_t outcome = vectors.outcomes[i * fields + f];
        log_m += log_m_of[f][outcome];
        log_u += log_u_of[f][outcome];
      }
      const double gamma = 1.0 / (1.0 + std::exp(log_u - log_m));
      (*posteriors)[i] = gamma;
      gamma_sum += gamma;
    }
    // M step with light smoothing so no outcome probability hits zero.
    const double new_prior =
        std::clamp(gamma_sum / static_cast<double>(n), 1e-6, 0.5);
    constexpr double kSmooth = 1e-3;
    for (int f = 0; f < fields; ++f) {
      std::array<double, 4> m_count{kSmooth, kSmooth, kSmooth, kSmooth};
      std::array<double, 4> u_count{kSmooth, kSmooth, kSmooth, kSmooth};
      for (size_t i = 0; i < n; ++i) {
        const uint8_t outcome = vectors.outcomes[i * fields + f];
        m_count[outcome] += (*posteriors)[i];
        u_count[outcome] += 1.0 - (*posteriors)[i];
      }
      const double m_total =
          m_count[0] + m_count[1] + m_count[2] + m_count[3];
      const double u_total =
          u_count[0] + u_count[1] + u_count[2] + u_count[3];
      for (int k = 0; k < 4; ++k) {
        model.m_probabilities[f][k] = m_count[k] / m_total;
        model.u_probabilities[f][k] = u_count[k] / u_total;
      }
    }
    const bool converged =
        std::abs(new_prior - model.match_prior) < kTolerance;
    model.match_prior = new_prior;
    if (converged) break;
  }
  return model;
}

}  // namespace

FellegiSunterModel FellegiSunter::FitClass(const Dataset& dataset,
                                           int class_id) const {
  const SchemaBinding binding = SchemaBinding::Resolve(dataset.schema());
  const std::vector<AtomicChannel> channels =
      AtomicChannels(binding, EvidenceLevel::kAttrWise);
  const AnalyzedDataset values(dataset, binding, blocking_);
  const ClassVectors vectors = BuildVectors(
      dataset, values, class_id, ClassChannels(channels, class_id));
  std::vector<double> posteriors;
  return FitEm(vectors, &posteriors);
}

ReconcileResult FellegiSunter::Run(const Dataset& dataset) const {
  Timer timer;
  const SchemaBinding binding = SchemaBinding::Resolve(dataset.schema());
  const AnalyzedDataset values(dataset, binding, blocking_);

  ReconcileResult result;
  result.stats.num_candidates = static_cast<int>(values.candidates.size());
  UnionFind closure(dataset.num_references());
  // The fields per class are the attribute-wise channel rows, the
  // attributes IndepDec compares; their seeds are not read.
  const std::vector<AtomicChannel> channels =
      AtomicChannels(binding, EvidenceLevel::kAttrWise);

  for (int class_id = 0; class_id < dataset.schema().num_classes();
       ++class_id) {
    const std::span<const AtomicChannel> fields =
        ClassChannels(channels, class_id);
    if (fields.empty()) continue;
    const ClassVectors vectors =
        BuildVectors(dataset, values, class_id, fields);
    std::vector<double> posteriors;
    FitEm(vectors, &posteriors);
    for (size_t i = 0; i < vectors.pairs.size(); ++i) {
      ++result.stats.num_recomputations;
      if (posteriors[i] >= kMatchPosteriorThreshold) {
        closure.Union(vectors.pairs[i].first, vectors.pairs[i].second);
        result.merged_pairs.push_back(vectors.pairs[i]);
        ++result.stats.num_merges;
      }
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
