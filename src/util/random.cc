#include "util/random.h"

#include <algorithm>
#include <cmath>

namespace recon {

int Random::NextWeighted(const std::vector<double>& weights) {
  RECON_CHECK(!weights.empty());
  double total = 0;
  for (double w : weights) {
    RECON_CHECK_GE(w, 0);
    total += w;
  }
  RECON_CHECK_GT(total, 0);
  double x = NextDouble() * total;
  double acc = 0;
  for (size_t i = 0; i < weights.size(); ++i) {
    acc += weights[i];
    if (x < acc) return static_cast<int>(i);
  }
  return static_cast<int>(weights.size()) - 1;
}

ZipfSampler::ZipfSampler(int n, double s) {
  RECON_CHECK_GT(n, 0);
  cdf_.resize(n);
  double acc = 0;
  for (int k = 0; k < n; ++k) {
    acc += 1.0 / std::pow(static_cast<double>(k + 1), s);
    cdf_[k] = acc;
  }
  for (int k = 0; k < n; ++k) cdf_[k] /= acc;
}

int ZipfSampler::Sample(Random& rng) const {
  double x = rng.NextDouble();
  auto it = std::lower_bound(cdf_.begin(), cdf_.end(), x);
  if (it == cdf_.end()) return static_cast<int>(cdf_.size()) - 1;
  return static_cast<int>(it - cdf_.begin());
}

}  // namespace recon
