// Deterministic pseudo-random number generation for data synthesis.
//
// All dataset generators in this repository are seeded, so every experiment
// is reproducible bit-for-bit. We use xoshiro256** seeded via SplitMix64,
// which is fast, high quality, and has a stable cross-platform definition
// (unlike std::mt19937 distributions, whose outputs vary across standard
// library implementations).

#ifndef RECON_UTIL_RANDOM_H_
#define RECON_UTIL_RANDOM_H_

#include <cstdint>
#include <vector>

#include "util/logging.h"

namespace recon {

/// SplitMix64: used to expand a single 64-bit seed into xoshiro state.
class SplitMix64 {
 public:
  explicit SplitMix64(uint64_t seed) : state_(seed) {}

  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  uint64_t state_;
};

/// xoshiro256** PRNG with convenience sampling helpers.
class Random {
 public:
  explicit Random(uint64_t seed) {
    SplitMix64 sm(seed);
    for (auto& s : state_) s = sm.Next();
  }

  /// Uniform 64-bit value.
  uint64_t NextUint64() {
    const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
    const uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound). Requires bound > 0.
  uint64_t NextBounded(uint64_t bound) {
    RECON_CHECK_GT(bound, 0u);
    // Debiased modulo via rejection sampling.
    uint64_t threshold = (-bound) % bound;
    for (;;) {
      uint64_t r = NextUint64();
      if (r >= threshold) return r % bound;
    }
  }

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int64_t NextInt(int64_t lo, int64_t hi) {
    RECON_CHECK_LE(lo, hi);
    return lo + static_cast<int64_t>(
                    NextBounded(static_cast<uint64_t>(hi - lo) + 1));
  }

  /// Uniform double in [0, 1).
  double NextDouble() {
    return static_cast<double>(NextUint64() >> 11) * 0x1.0p-53;
  }

  /// Bernoulli trial with probability p of returning true.
  bool NextBool(double p) { return NextDouble() < p; }

  /// Samples an index in [0, weights.size()) proportionally to weights.
  /// Requires a non-empty vector with a positive total weight.
  int NextWeighted(const std::vector<double>& weights);

  /// Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>& items) {
    for (size_t i = items.size(); i > 1; --i) {
      size_t j = NextBounded(i);
      using std::swap;
      swap(items[i - 1], items[j]);
    }
  }

  /// Returns a reference to a uniformly chosen element. Requires non-empty.
  template <typename T>
  const T& Choice(const std::vector<T>& items) {
    RECON_CHECK(!items.empty());
    return items[NextBounded(items.size())];
  }

 private:
  static uint64_t Rotl(uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  uint64_t state_[4];
};

/// Precomputed cumulative table for repeated Zipf sampling.
class ZipfSampler {
 public:
  /// P(k) proportional to 1 / (k + 1)^s over k in [0, n).
  ZipfSampler(int n, double s);

  /// Samples an index in [0, n).
  int Sample(Random& rng) const;

  int size() const { return static_cast<int>(cdf_.size()); }

 private:
  std::vector<double> cdf_;
};

}  // namespace recon

#endif  // RECON_UTIL_RANDOM_H_
