// Levenshtein edit distance and derived normalized similarity.
//
// The public entry point runs the Myers bit-parallel kernels (DESIGN.md
// §16). The Scalar row-DP variant is exported as the reference the
// differential tests and microbenches pin the kernels against.

#ifndef RECON_STRSIM_EDIT_DISTANCE_H_
#define RECON_STRSIM_EDIT_DISTANCE_H_

#include <string_view>

namespace recon::strsim {

/// Levenshtein distance (unit-cost insert / delete / substitute).
int LevenshteinDistance(std::string_view a, std::string_view b);

/// Reference row-DP implementation (allocation-free: stack row for short
/// strings, thread-local scratch beyond); the kernels must agree with it
/// bit-for-bit.
int ScalarLevenshteinDistance(std::string_view a, std::string_view b);

/// Normalized edit similarity: 1 - distance / max(|a|, |b|); 1.0 when both
/// strings are empty. Always in [0, 1].
double EditSimilarity(std::string_view a, std::string_view b);

}  // namespace recon::strsim

#endif  // RECON_STRSIM_EDIT_DISTANCE_H_
