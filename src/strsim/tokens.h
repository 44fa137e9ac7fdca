// Token-set similarity measures (Jaccard, Dice, overlap) and the Monge-Elkan
// hybrid comparator.

#ifndef RECON_STRSIM_TOKENS_H_
#define RECON_STRSIM_TOKENS_H_

#include <string>
#include <vector>

namespace recon::strsim {

/// Jaccard similarity |A ∩ B| / |A ∪ B| over token multiset supports
/// (duplicates collapsed). 1.0 when both are empty.
double JaccardSimilarity(const std::vector<std::string>& a,
                         const std::vector<std::string>& b);

/// Dice coefficient 2|A ∩ B| / (|A| + |B|) over de-duplicated tokens.
double DiceSimilarity(const std::vector<std::string>& a,
                      const std::vector<std::string>& b);

/// Overlap coefficient |A ∩ B| / min(|A|, |B|) over de-duplicated tokens.
double OverlapCoefficient(const std::vector<std::string>& a,
                          const std::vector<std::string>& b);

/// Monge-Elkan, both directions averaged: each direction is the mean over
/// tokens of one side of the best Jaro-Winkler match on the other.
double SymmetricMongeElkan(const std::vector<std::string>& a,
                           const std::vector<std::string>& b);

}  // namespace recon::strsim

#endif  // RECON_STRSIM_TOKENS_H_
