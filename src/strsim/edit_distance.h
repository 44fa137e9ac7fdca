// Levenshtein edit distance and derived normalized similarity.
//
// The public entry points run the Myers bit-parallel kernels (DESIGN.md
// §16). The Scalar* row-DP variants are exported as the reference the
// differential tests and microbenches pin the kernels against.

#ifndef RECON_STRSIM_EDIT_DISTANCE_H_
#define RECON_STRSIM_EDIT_DISTANCE_H_

#include <string_view>

namespace recon::strsim {

/// Levenshtein distance (unit-cost insert / delete / substitute).
int LevenshteinDistance(std::string_view a, std::string_view b);

/// Levenshtein distance with early exit: returns `bound + 1` as soon as the
/// distance provably exceeds `bound`. Useful for candidate filtering.
int BoundedLevenshteinDistance(std::string_view a, std::string_view b,
                               int bound);

/// Reference row-DP implementations (allocation-free: stack row for short
/// strings, thread-local scratch beyond); the kernels must agree with
/// these bit-for-bit.
int ScalarLevenshteinDistance(std::string_view a, std::string_view b);
int ScalarBoundedLevenshteinDistance(std::string_view a, std::string_view b,
                                     int bound);

/// Normalized edit similarity: 1 - distance / max(|a|, |b|); 1.0 when both
/// strings are empty. Always in [0, 1].
double EditSimilarity(std::string_view a, std::string_view b);

}  // namespace recon::strsim

#endif  // RECON_STRSIM_EDIT_DISTANCE_H_
