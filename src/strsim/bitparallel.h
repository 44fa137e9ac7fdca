// Myers-style bit-parallel Levenshtein distance (DESIGN.md §16).
//
// Exact — computes the same unit-cost edit distance as the scalar row-DP
// in edit_distance.cc, but processes 64 pattern rows per text character
// via word-packed PEQ match masks and carry-propagating column deltas
// (Myers 1999; multi-word carries after Hyyrö 2003 / edlib). The
// differential suite in tests/strsim_kernel_test.cc pins the equivalence
// over randomized ASCII/UTF-8/empty/long inputs.

#ifndef RECON_STRSIM_BITPARALLEL_H_
#define RECON_STRSIM_BITPARALLEL_H_

#include <string_view>

namespace recon::strsim {

/// Exact Levenshtein distance, bit-parallel. Handles any lengths (the
/// shorter string becomes the word-packed pattern; a multi-word block
/// path covers patterns > 64 bytes using thread-local scratch).
int MyersLevenshteinDistance(std::string_view a, std::string_view b);

}  // namespace recon::strsim

#endif  // RECON_STRSIM_BITPARALLEL_H_
