// Per-class reference similarity functions (paper §4):
//   S = min(1, S_rv + S_sb + S_wb)
// where S_rv is a decision tree of linear combinations over present
// real-valued evidence, S_sb = beta * #merged strong-boolean neighbors, and
// S_wb = gamma * #merged weak-boolean neighbors, both gated on S_rv >= t_rv.

#ifndef RECON_SIM_CLASS_SIM_H_
#define RECON_SIM_CLASS_SIM_H_

#include <memory>

#include "sim/evidence.h"

namespace recon {

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
