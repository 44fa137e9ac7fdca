#include "strsim/tokens.h"

#include <algorithm>
#include <set>
#include <string_view>

#include "strsim/jaro_winkler.h"

namespace recon::strsim {

namespace {

// Returns (|A ∩ B|, |A|, |B|) over de-duplicated token sets.
struct SetCounts {
  size_t intersection;
  size_t size_a;
  size_t size_b;
};

SetCounts CountSets(const std::vector<std::string>& a,
                    const std::vector<std::string>& b) {
  std::set<std::string_view> sa(a.begin(), a.end());
  std::set<std::string_view> sb(b.begin(), b.end());
  size_t common = 0;
  for (const auto& t : sa) {
    if (sb.count(t) > 0) ++common;
  }
  return {common, sa.size(), sb.size()};
}

}  // namespace

double JaccardSimilarity(const std::vector<std::string>& a,
                         const std::vector<std::string>& b) {
  SetCounts c = CountSets(a, b);
  const size_t unions = c.size_a + c.size_b - c.intersection;
  if (unions == 0) return 1.0;
  return static_cast<double>(c.intersection) / static_cast<double>(unions);
}

double DiceSimilarity(const std::vector<std::string>& a,
                      const std::vector<std::string>& b) {
  SetCounts c = CountSets(a, b);
  if (c.size_a + c.size_b == 0) return 1.0;
  return 2.0 * static_cast<double>(c.intersection) /
         static_cast<double>(c.size_a + c.size_b);
}

double OverlapCoefficient(const std::vector<std::string>& a,
                          const std::vector<std::string>& b) {
  SetCounts c = CountSets(a, b);
  const size_t smaller = std::min(c.size_a, c.size_b);
  if (smaller == 0) return (c.size_a == c.size_b) ? 1.0 : 0.0;
  return static_cast<double>(c.intersection) / static_cast<double>(smaller);
}

namespace {

// Monge-Elkan in one direction: mean over tokens of `a` of the best
// Jaro-Winkler match in `b`.
double MongeElkanSimilarity(const std::vector<std::string>& a,
                            const std::vector<std::string>& b) {
  if (a.empty() && b.empty()) return 1.0;
  if (a.empty() || b.empty()) return 0.0;
  double total = 0;
  for (const auto& ta : a) {
    double best = 0;
    for (const auto& tb : b) {
      best = std::max(best, JaroWinklerSimilarity(ta, tb));
    }
    total += best;
  }
  return total / static_cast<double>(a.size());
}

}  // namespace

double SymmetricMongeElkan(const std::vector<std::string>& a,
                           const std::vector<std::string>& b) {
  return 0.5 * (MongeElkanSimilarity(a, b) + MongeElkanSimilarity(b, a));
}

}  // namespace recon::strsim
