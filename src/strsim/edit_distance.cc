#include "strsim/edit_distance.h"

#include <algorithm>
#include <cstdlib>
#include <vector>

#include "strsim/bitparallel.h"

namespace recon::strsim {

namespace {

// Row scratch for the scalar DP: a stack buffer covers the common case,
// a thread-local vector the rest — no per-call heap allocation either way.
constexpr int kStackRow = 128;

int* RowScratch(int n, int* stack_row) {
  if (n < kStackRow) return stack_row;
  thread_local std::vector<int> row;
  if (static_cast<int>(row.size()) < n + 1) row.resize(n + 1);
  return row.data();
}

}  // namespace

int ScalarLevenshteinDistance(std::string_view a, std::string_view b) {
  if (a.size() > b.size()) std::swap(a, b);
  const int n = static_cast<int>(a.size());
  const int m = static_cast<int>(b.size());
  if (n == 0) return m;

  // Single-row DP; `row[j]` holds the distance between a-prefix (current i)
  // and b-prefix of length j.
  int stack_row[kStackRow];
  int* row = RowScratch(n, stack_row);
  for (int j = 0; j <= n; ++j) row[j] = j;
  for (int i = 1; i <= m; ++i) {
    int diagonal = row[0];  // row[i-1][0]
    row[0] = i;
    for (int j = 1; j <= n; ++j) {
      int above = row[j];
      int cost = (b[i - 1] == a[j - 1]) ? 0 : 1;
      row[j] = std::min({above + 1, row[j - 1] + 1, diagonal + cost});
      diagonal = above;
    }
  }
  return row[n];
}

int LevenshteinDistance(std::string_view a, std::string_view b) {
  return MyersLevenshteinDistance(a, b);
}

double EditSimilarity(std::string_view a, std::string_view b) {
  const size_t longest = std::max(a.size(), b.size());
  if (longest == 0) return 1.0;
  return 1.0 - static_cast<double>(LevenshteinDistance(a, b)) /
                   static_cast<double>(longest);
}

}  // namespace recon::strsim
