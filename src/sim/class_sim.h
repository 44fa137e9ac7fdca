// Per-class reference similarity functions (paper §4):
//   S = min(1, S_rv + S_sb + S_wb)
// where S_rv is a decision tree of linear combinations over present
// real-valued evidence, S_sb = beta * #merged strong-boolean neighbors, and
// S_wb = gamma * #merged weak-boolean neighbors, both gated on S_rv >= t_rv.

#ifndef RECON_SIM_CLASS_SIM_H_
#define RECON_SIM_CLASS_SIM_H_

#include <array>
#include <memory>

#include "sim/evidence.h"

namespace recon {

/// Inputs to a class similarity function, assembled by the reconciler from
/// a node's incoming dependencies (MAX per evidence type over real-valued
/// neighbors, per Eq. 1's multi-valued-attribute rule) plus the node's
/// static evidence.
struct EvidenceSummary {
  EvidenceSummary() { best.fill(-1.0); }

  /// Best similarity per real-valued evidence channel; -1 when the channel
  /// has no evidence at all (which is different from evidence of value 0).
  std::array<double, kNumEvidence> best;
  /// Number of merged strong-boolean incoming neighbors.
  int strong_merged = 0;
  /// Number of merged weak-boolean incoming neighbors.
  int weak_merged = 0;

  bool Has(Evidence e) const { return best[e] >= 0.0; }
  double Get(Evidence e) const { return best[e]; }
  void Offer(int evidence, double sim);
};

/// A reference-pair similarity function for one class.
class ClassSimilarity {
 public:
  virtual ~ClassSimilarity() = default;

  /// Returns the similarity in [0, 1].
  virtual double Compute(const EvidenceSummary& evidence) const = 0;
};

/// Person similarity: names, emails (key attribute), name~email
/// cross-evidence, authored-article strong evidence, common-contact weak
/// evidence.
class PersonSimilarity : public ClassSimilarity {
 public:
  double Compute(const EvidenceSummary& evidence) const override;
};

/// Article similarity: title-dominated with author / venue / pages / year
/// corroboration.
class ArticleSimilarity : public ClassSimilarity {
 public:
  double Compute(const EvidenceSummary& evidence) const override;
};

/// Venue similarity: name-dominated with published-article strong evidence
/// (beta = 0.2, t_rv = 0.1 per the paper).
class VenueSimilarity : public ClassSimilarity {
 public:
  double Compute(const EvidenceSummary& evidence) const override;
};

/// Builds the similarity function for `class_name` ("Person", "Article",
/// "Venue"). Aborts on unknown classes.
std::unique_ptr<ClassSimilarity> MakeClassSimilarity(const char* class_name);

}  // namespace recon

#endif  // RECON_SIM_CLASS_SIM_H_
