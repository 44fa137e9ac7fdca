#include "baseline/fellegi_sunter.h"

#include <algorithm>
#include <cmath>
#include <span>
#include <vector>

#include "core/candidates.h"
#include "core/schema_binding.h"
#include "sim/value_store.h"
#include "util/logging.h"
#include "util/timer.h"
#include "util/union_find.h"

namespace recon {

namespace {

/// Comparison outcomes per field.
enum Outcome : uint8_t {
  kDisagree = 0,
  kPartial = 1,
  kAgree = 2,
  kMissing = 3,
  kNumOutcomes = 4,
};

/// A reference's analyzed atomic values, per attribute (AnalyzeValues).
using RefFeatures = std::vector<std::vector<ValueFeatures>>;

Outcome CompareField(const RefFeatures& a, const RefFeatures& b,
                     const AtomicChannel& field,
                     const FellegiSunterOptions& options) {
  const std::vector<ValueFeatures>& values_a = a[field.attr_a];
  const std::vector<ValueFeatures>& values_b = b[field.attr_b];
  if (values_a.empty() || values_b.empty()) return kMissing;
  double best = 0;
  for (const ValueFeatures& va : values_a) {
    for (const ValueFeatures& vb : values_b) {
      best = std::max(best, FeaturePairSimilarity(field.evidence, va, vb));
    }
  }
  if (best >= options.agree_threshold) return kAgree;
  if (best >= options.partial_threshold) return kPartial;
  return kDisagree;
}

/// The comparison vectors of all candidate pairs of one class.
struct ClassVectors {
  std::vector<std::pair<RefId, RefId>> pairs;
  /// pairs.size() x fields.size(), row-major.
  std::vector<uint8_t> outcomes;
  int num_fields = 0;
};

ClassVectors BuildVectors(const Dataset& dataset, const ValueKindSchema& kinds,
                          int class_id, std::span<const AtomicChannel> fields,
                          const CandidateList& candidates,
                          const FellegiSunterOptions& options) {
  ClassVectors out;
  out.num_fields = static_cast<int>(fields.size());
  // Each candidate reference is analyzed once, when first compared.
  std::vector<RefFeatures> features(dataset.num_references());
  const auto features_of = [&](RefId id) -> const RefFeatures& {
    RefFeatures& f = features[id];
    if (f.empty()) f = AnalyzeValues(dataset.reference(id), kinds);
    return f;
  };
  for (const auto& [r1, r2] : candidates) {
    if (dataset.reference(r1).class_id() != class_id) continue;
    const RefFeatures& a = features_of(r1);
    const RefFeatures& b = features_of(r2);
    out.pairs.emplace_back(r1, r2);
    for (const AtomicChannel& field : fields) {
      out.outcomes.push_back(CompareField(a, b, field, options));
    }
  }
  return out;
}

/// EM for the two-class naive-Bayes mixture over outcome vectors.
FellegiSunterModel FitEm(const ClassVectors& vectors,
                         const FellegiSunterOptions& options,
                         std::vector<double>* posteriors) {
  FellegiSunterModel model;
  const int fields = vectors.num_fields;
  const size_t n = vectors.pairs.size();
  model.m_probabilities.assign(fields, {0.05, 0.15, 0.75, 0.05});
  model.u_probabilities.assign(fields, {0.70, 0.20, 0.05, 0.05});
  model.match_prior = options.initial_match_prior;
  posteriors->assign(n, 0.0);
  if (n == 0 || fields == 0) return model;

  for (int iteration = 0; iteration < options.max_iterations; ++iteration) {
    ++model.iterations;
    // E step.
    double gamma_sum = 0;
    for (size_t i = 0; i < n; ++i) {
      double log_m = std::log(model.match_prior);
      double log_u = std::log(1.0 - model.match_prior);
      for (int f = 0; f < fields; ++f) {
        const uint8_t outcome = vectors.outcomes[i * fields + f];
        log_m += std::log(model.m_probabilities[f][outcome]);
        log_u += std::log(model.u_probabilities[f][outcome]);
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
        std::abs(new_prior - model.match_prior) < options.tolerance;
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
      AtomicChannels(binding, options_.blocking.params,
                     EvidenceLevel::kAttrWise);
  const CandidateList candidates =
      GenerateCandidates(dataset, binding, options_.blocking);
  const ClassVectors vectors = BuildVectors(
      dataset, MakeValueKindSchema(binding), class_id,
      ClassChannels(channels, class_id), candidates, options_);
  std::vector<double> posteriors;
  return FitEm(vectors, options_, &posteriors);
}

ReconcileResult FellegiSunter::Run(const Dataset& dataset) const {
  Timer timer;
  const SchemaBinding binding = SchemaBinding::Resolve(dataset.schema());
  const CandidateList candidates =
      GenerateCandidates(dataset, binding, options_.blocking);

  ReconcileResult result;
  result.stats.num_candidates = static_cast<int>(candidates.size());
  UnionFind closure(dataset.num_references());
  // The fields per class are the attribute-wise channel rows, the
  // attributes IndepDec compares; their seeds are not read.
  const std::vector<AtomicChannel> channels =
      AtomicChannels(binding, options_.blocking.params,
                     EvidenceLevel::kAttrWise);
  const ValueKindSchema kinds = MakeValueKindSchema(binding);

  for (int class_id = 0; class_id < dataset.schema().num_classes();
       ++class_id) {
    const std::span<const AtomicChannel> fields =
        ClassChannels(channels, class_id);
    if (fields.empty()) continue;
    const ClassVectors vectors =
        BuildVectors(dataset, kinds, class_id, fields, candidates, options_);
    std::vector<double> posteriors;
    FitEm(vectors, options_, &posteriors);
    for (size_t i = 0; i < vectors.pairs.size(); ++i) {
      ++result.stats.num_recomputations;
      if (posteriors[i] >= options_.match_posterior_threshold) {
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
