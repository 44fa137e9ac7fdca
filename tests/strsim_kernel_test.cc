// Bit-parallel similarity kernels and the signature prefilter (DESIGN.md
// §16) must be invisible in every output:
//   - the Myers Levenshtein kernels agree with the scalar row-DP reference
//     bit-for-bit over randomized ASCII / UTF-8 / empty / long /
//     near-bound inputs, at every dispatch level the CPU supports;
//   - the signature bounds are provably conservative (Jaccard upper bound
//     >= exact Jaccard, edit lower bound <= exact distance), asserted
//     directly and through a ~10^6-pair title-prefilter sweep with zero
//     divergence;
//   - full reconciliation output is byte-identical with kernels on vs
//     forced to the scalar reference, at one and four threads, on PIM
//     and Cora shapes;
//   - the widened SimMemo key keeps triples distinct that the old packed
//     key collided (ValueId >= 2^26 bleeding into the evidence bits).
// Runs under AddressSanitizer and ThreadSanitizer via the ctest `asan` /
// `tsan` labels.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <random>
#include <string>
#include <vector>

#include "core/reconciler.h"
#include "datagen/cora_generator.h"
#include "datagen/pim_generator.h"
#include "model/dataset.h"
#include "sim/comparators.h"
#include "sim/evidence.h"
#include "sim/value_store.h"
#include "strsim/bitparallel.h"
#include "strsim/edit_distance.h"
#include "strsim/signature.h"
#include "strsim/simd_dispatch.h"
#include "strsim/tokens.h"

namespace recon {
namespace {

namespace strsim = recon::strsim;

/// Restores the active dispatch level (and RECON_SIMD handling) on scope
/// exit so a failing test cannot leak a forced level into later tests.
class ScopedSimdLevel {
 public:
  ScopedSimdLevel() : saved_(strsim::ActiveSimdLevel()) {}
  ~ScopedSimdLevel() { strsim::SetSimdLevel(saved_); }

 private:
  strsim::SimdLevel saved_;
};

std::string RandomString(std::mt19937& rng, int max_len,
                         std::string_view alphabet) {
  std::uniform_int_distribution<int> len_dist(0, max_len);
  std::uniform_int_distribution<size_t> ch_dist(0, alphabet.size() - 1);
  std::string s;
  const int len = len_dist(rng);
  s.reserve(len);
  for (int i = 0; i < len; ++i) s.push_back(alphabet[ch_dist(rng)]);
  return s;
}

/// Random UTF-8: mixes 1-, 2-, and 3-byte code points. The kernels operate
/// on bytes, so this mostly stresses high-bit byte values and lengths that
/// land mid-code-point in one string relative to the other.
std::string RandomUtf8(std::mt19937& rng, int max_points) {
  std::uniform_int_distribution<int> n_dist(0, max_points);
  std::uniform_int_distribution<int> kind_dist(0, 2);
  std::string s;
  const int n = n_dist(rng);
  for (int i = 0; i < n; ++i) {
    switch (kind_dist(rng)) {
      case 0:
        s.push_back(static_cast<char>('a' + (rng() % 26)));
        break;
      case 1: {  // U+00A0..U+02FF.
        const int cp = 0xA0 + static_cast<int>(rng() % 0x260);
        s.push_back(static_cast<char>(0xC0 | (cp >> 6)));
        s.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
        break;
      }
      default: {  // U+4E00.. (CJK block).
        const int cp = 0x4E00 + static_cast<int>(rng() % 0x1000);
        s.push_back(static_cast<char>(0xE0 | (cp >> 12)));
        s.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
        s.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
        break;
      }
    }
  }
  return s;
}

TEST(BitParallelLevenshteinTest, MatchesScalarOnRandomAscii) {
  std::mt19937 rng(20260809);
  // Small alphabet forces plenty of matches; 180 bytes crosses the
  // one-word / multi-word kernel boundary at 64 both ways.
  for (int trial = 0; trial < 4000; ++trial) {
    const std::string a = RandomString(rng, 180, "abcde ");
    const std::string b = RandomString(rng, 180, "abcde ");
    ASSERT_EQ(strsim::ScalarLevenshteinDistance(a, b),
              strsim::MyersLevenshteinDistance(a, b))
        << "a=\"" << a << "\" b=\"" << b << "\"";
  }
}

TEST(BitParallelLevenshteinTest, MatchesScalarOnRandomUtf8) {
  std::mt19937 rng(7);
  for (int trial = 0; trial < 2000; ++trial) {
    const std::string a = RandomUtf8(rng, 60);
    const std::string b = RandomUtf8(rng, 60);
    ASSERT_EQ(strsim::ScalarLevenshteinDistance(a, b),
              strsim::MyersLevenshteinDistance(a, b));
  }
}

TEST(BitParallelLevenshteinTest, EmptyAndLongInputs) {
  EXPECT_EQ(0, strsim::MyersLevenshteinDistance("", ""));
  EXPECT_EQ(3, strsim::MyersLevenshteinDistance("", "abc"));
  EXPECT_EQ(3, strsim::MyersLevenshteinDistance("abc", ""));
  std::mt19937 rng(99);
  for (int trial = 0; trial < 20; ++trial) {
    // Way past the one-word kernel: several 64-byte blocks per column.
    const std::string a = RandomString(rng, 1200, "abcdefgh");
    const std::string b = RandomString(rng, 1200, "abcdefgh");
    ASSERT_EQ(strsim::ScalarLevenshteinDistance(a, b),
              strsim::MyersLevenshteinDistance(a, b));
  }
}

TEST(BitParallelLevenshteinTest, BoundedMatchesScalarOnRandomBounds) {
  std::mt19937 rng(31337);
  for (int trial = 0; trial < 4000; ++trial) {
    const std::string a = RandomString(rng, 150, "abcd ");
    const std::string b = RandomString(rng, 150, "abcd ");
    const int exact = strsim::ScalarLevenshteinDistance(a, b);
    std::uniform_int_distribution<int> bound_dist(
        0, static_cast<int>(std::max(a.size(), b.size())) + 2);
    const int bound = bound_dist(rng);
    // Both bounded variants contract to min(exact, bound + 1).
    const int want = std::min(exact, bound + 1);
    ASSERT_EQ(want, strsim::ScalarBoundedLevenshteinDistance(a, b, bound));
    ASSERT_EQ(want, strsim::MyersBoundedLevenshteinDistance(a, b, bound))
        << "a=\"" << a << "\" b=\"" << b << "\" bound=" << bound;
  }
}

TEST(BitParallelLevenshteinTest, BoundedNearBoundEdges) {
  // Distances that land exactly on, one under, and one over the bound —
  // the early-exit must never fire a column too soon.
  const std::string base(100, 'x');
  for (int dist = 0; dist <= 6; ++dist) {
    std::string mutated = base;
    for (int i = 0; i < dist; ++i) mutated[i * 7] = 'y';
    for (int bound = std::max(0, dist - 1); bound <= dist + 1; ++bound) {
      const int want = std::min(dist, bound + 1);
      EXPECT_EQ(want,
                strsim::MyersBoundedLevenshteinDistance(base, mutated, bound))
          << "dist=" << dist << " bound=" << bound;
      EXPECT_EQ(want, strsim::ScalarBoundedLevenshteinDistance(base, mutated,
                                                               bound));
    }
  }
  // Negative bound degrades to the equal / not-equal test on both paths.
  EXPECT_EQ(strsim::ScalarBoundedLevenshteinDistance("abc", "abc", -1),
            strsim::MyersBoundedLevenshteinDistance("abc", "abc", -1));
  EXPECT_EQ(strsim::ScalarBoundedLevenshteinDistance("abc", "abd", -1),
            strsim::MyersBoundedLevenshteinDistance("abc", "abd", -1));
}

TEST(SimdDispatchTest, EveryLevelForcedAgreesWithScalar) {
  ScopedSimdLevel restore;
  std::mt19937 rng(4242);
  std::vector<std::pair<std::string, std::string>> cases;
  for (int i = 0; i < 200; ++i) {
    cases.emplace_back(RandomString(rng, 120, "abcdef "),
                       RandomString(rng, 120, "abcdef "));
  }
  const int detected = static_cast<int>(strsim::DetectedSimdLevel());
  for (int level = 0; level <= detected; ++level) {
    const strsim::SimdLevel installed =
        strsim::SetSimdLevel(static_cast<strsim::SimdLevel>(level));
    ASSERT_EQ(level, static_cast<int>(installed));
    ASSERT_EQ(installed, strsim::ActiveSimdLevel());
    for (const auto& [a, b] : cases) {
      const int want = strsim::ScalarLevenshteinDistance(a, b);
      ASSERT_EQ(want, strsim::LevenshteinDistance(a, b))
          << "level=" << strsim::SimdLevelName(installed);
      ASSERT_EQ(std::min(want, 5), strsim::BoundedLevenshteinDistance(a, b, 4))
          << "level=" << strsim::SimdLevelName(installed);
    }
  }
}

TEST(SimdDispatchTest, BatchSymDiffMatchesPortableAtEveryLevel) {
  ScopedSimdLevel restore;
  constexpr int kCount = 257;  // Not a multiple of any vector width.
  std::mt19937_64 rng(555);
  std::vector<uint64_t> a(4 * kCount), b(4 * kCount);
  for (auto& w : a) w = rng();
  for (auto& w : b) w = rng();
  std::vector<int32_t> want(kCount);
  for (int i = 0; i < kCount; ++i) {
    int pop = 0;
    for (int w = 0; w < 4; ++w) {
      pop += __builtin_popcountll(a[4 * i + w] ^ b[4 * i + w]);
    }
    want[i] = pop;
  }
  const int detected = static_cast<int>(strsim::DetectedSimdLevel());
  for (int level = 0; level <= detected; ++level) {
    strsim::SetSimdLevel(static_cast<strsim::SimdLevel>(level));
    std::vector<int32_t> got(kCount, -1);
    strsim::BatchSigSymDiff(a.data(), b.data(), kCount, got.data());
    ASSERT_EQ(want, got) << "level=" << level;
  }
}

TEST(SimdDispatchTest, SetLevelClampsToDetected) {
  ScopedSimdLevel restore;
  const strsim::SimdLevel detected = strsim::DetectedSimdLevel();
  // Asking for more than the CPU has installs the detected maximum.
  EXPECT_EQ(detected, strsim::SetSimdLevel(strsim::SimdLevel::kAvx2));
  EXPECT_EQ(detected, strsim::ActiveSimdLevel());
  EXPECT_EQ(strsim::SimdLevel::kScalar,
            strsim::SetSimdLevel(strsim::SimdLevel::kScalar));
}

TEST(SimdDispatchTest, ParseAndEnvReinit) {
  ScopedSimdLevel restore;
  strsim::SimdLevel level;
  ASSERT_TRUE(strsim::ParseSimdLevelName("scalar", &level));
  EXPECT_EQ(strsim::SimdLevel::kScalar, level);
  ASSERT_TRUE(strsim::ParseSimdLevelName("generic", &level));
  EXPECT_EQ(strsim::SimdLevel::kGeneric, level);
  ASSERT_TRUE(strsim::ParseSimdLevelName("sse42", &level));
  EXPECT_EQ(strsim::SimdLevel::kSse42, level);
  ASSERT_TRUE(strsim::ParseSimdLevelName("avx2", &level));
  EXPECT_EQ(strsim::SimdLevel::kAvx2, level);
  ASSERT_TRUE(strsim::ParseSimdLevelName("auto", &level));
  EXPECT_EQ(strsim::DetectedSimdLevel(), level);
  level = strsim::SimdLevel::kSse42;
  EXPECT_FALSE(strsim::ParseSimdLevelName("sse9000", &level));
  EXPECT_EQ(strsim::SimdLevel::kSse42, level);  // Untouched on failure.

  for (const char* name : {"scalar", "generic"}) {
    ::setenv("RECON_SIMD", name, 1);
    strsim::SimdLevel want;
    ASSERT_TRUE(strsim::ParseSimdLevelName(name, &want));
    EXPECT_EQ(std::min(want, strsim::DetectedSimdLevel()),
              strsim::ReinitSimdLevelFromEnv());
  }
  ::unsetenv("RECON_SIMD");
  EXPECT_EQ(strsim::DetectedSimdLevel(), strsim::ReinitSimdLevelFromEnv());
}

// ---- Signature bound properties, asserted directly.

TEST(SignatureBoundTest, JaccardUpperBoundHoldsOnRandomTokenSets) {
  std::mt19937 rng(606);
  const std::vector<std::string> pool = {
      "query", "processing", "database", "distributed", "relational",
      "systems", "optimization", "parallel", "index", "join",
      "approximate", "evaluation", "large", "data", "management"};
  std::uniform_int_distribution<int> n_dist(0, 10);
  std::uniform_int_distribution<size_t> w_dist(0, pool.size() - 1);
  for (int trial = 0; trial < 3000; ++trial) {
    std::vector<std::string> a, b;
    for (int i = n_dist(rng); i > 0; --i) a.push_back(pool[w_dist(rng)]);
    for (int i = n_dist(rng); i > 0; --i) b.push_back(pool[w_dist(rng)]);
    const double exact = strsim::JaccardSimilarity(a, b);
    const double bound = strsim::SigJaccardUpperBound(
        strsim::TokenSignature(a), strsim::TokenSignature(b));
    ASSERT_GE(bound + 1e-12, exact);
    ASSERT_LE(bound, 1.0);
    ASSERT_GE(bound, 0.0);
  }
}

TEST(SignatureBoundTest, EditDistanceLowerBoundHoldsOnRandomStrings) {
  std::mt19937 rng(707);
  for (int trial = 0; trial < 3000; ++trial) {
    const std::string a = RandomString(rng, 80, "abcdefg ");
    const std::string b = RandomString(rng, 80, "abcdefg ");
    const strsim::NgramSet ga = strsim::BuildNgramSet(a, 3);
    const strsim::NgramSet gb = strsim::BuildNgramSet(b, 3);
    const int exact = strsim::ScalarLevenshteinDistance(a, b);
    const int lower = strsim::SigEditDistanceLowerBound(
        strsim::GramSignature(ga), strsim::GramSignature(gb),
        static_cast<int>(a.size()), static_cast<int>(b.size()), 3);
    ASSERT_LE(lower, exact) << "a=\"" << a << "\" b=\"" << b << "\"";
    ASSERT_GE(lower, 0);
  }
}

TEST(SignatureBoundTest, SymDiffIsALowerBound) {
  std::mt19937 rng(808);
  for (int trial = 0; trial < 2000; ++trial) {
    const std::string a = RandomString(rng, 60, "abc");
    const std::string b = RandomString(rng, 60, "abc");
    const strsim::NgramSet ga = strsim::BuildNgramSet(a, 3);
    const strsim::NgramSet gb = strsim::BuildNgramSet(b, 3);
    // Exact |A Δ B| by merging the sorted distinct-gram hash lists.
    size_t i = 0, j = 0, common = 0;
    while (i < ga.grams.size() && j < gb.grams.size()) {
      if (ga.grams[i].first == gb.grams[j].first &&
          ga.gram(i) == gb.gram(j)) {
        ++common, ++i, ++j;
      } else if (ga.grams[i] < gb.grams[j]) {
        ++i;
      } else {
        ++j;
      }
    }
    const int symdiff = static_cast<int>(ga.grams.size() + gb.grams.size() -
                                         2 * common);
    ASSERT_LE(strsim::SigSymDiffLowerBound(strsim::GramSignature(ga),
                                           strsim::GramSignature(gb)),
              symdiff);
  }
}

// ---- The title prefilter: a randomized ~10^6-pair sweep with zero
// divergence between the signature upper bound and the exact comparator.

std::vector<std::string> SyntheticTitles(int count) {
  const std::vector<std::string> words = {
      "query",    "processing",  "database",  "distributed", "relational",
      "systems",  "optimization", "parallel", "index",       "join",
      "semantic", "integration", "schema",    "matching",    "entity",
      "resolution"};
  std::mt19937 rng(909);
  std::uniform_int_distribution<int> n_words(0, 8);
  std::uniform_int_distribution<size_t> w_dist(0, words.size() - 1);
  std::uniform_int_distribution<int> typo(0, 9);
  std::vector<std::string> titles;
  titles.reserve(count);
  for (int t = 0; t < count; ++t) {
    std::string title;
    for (int i = n_words(rng); i > 0; --i) {
      std::string word = words[w_dist(rng)];
      if (typo(rng) == 0 && word.size() > 2) {
        word.erase(word.begin() + static_cast<int>(rng() % word.size()));
      }
      if (!title.empty()) title.push_back(' ');
      title += word;
    }
    titles.push_back(std::move(title));
  }
  return titles;
}

TEST(TitlePrefilterTest, MillionPairSweepNeverUnderestimates) {
  constexpr int kTitles = 1415;  // 1415 choose 2 pairs, slightly over 10^6.
  const std::vector<std::string> titles = SyntheticTitles(kTitles);
  std::vector<ValueFeatures> features;
  features.reserve(kTitles);
  for (const std::string& raw : titles) {
    features.push_back(AnalyzeValue(raw, FeatureKind::kTitle));
  }
  int64_t pairs = 0;
  int64_t would_skip = 0;
  for (int i = 0; i < kTitles; ++i) {
    for (int j = i + 1; j < kTitles; ++j) {
      const double ub = TitleSimilarityUpperBound(features[i], features[j]);
      const double exact = TitleFieldSimilarity(features[i], features[j]);
      ++pairs;
      if (ub < 0.5) ++would_skip;
      // The one property the prefilter's correctness rests on. Any single
      // violation would make a skip decision diverge from exact scoring.
      ASSERT_GE(ub + 1e-12, exact)
          << "\"" << titles[i] << "\" vs \"" << titles[j] << "\"";
    }
  }
  EXPECT_GE(pairs, 1000000);
  // On dissimilar random titles the bound must actually prune (this is a
  // sanity check of usefulness, not correctness; 0.5 mirrors a typical
  // article_title seed).
  EXPECT_GT(would_skip, pairs / 4);
}

TEST(TitlePrefilterTest, BatchPopsMatchScalarPops) {
  const std::vector<std::string> titles = SyntheticTitles(300);
  std::vector<ValueFeatures> features;
  for (const std::string& raw : titles) {
    features.push_back(AnalyzeValue(raw, FeatureKind::kTitle));
  }
  // Pair i with i+1: the blocked path's flat 4-word gather.
  const int count = static_cast<int>(features.size()) - 1;
  std::vector<uint64_t> ga(4 * count), gb(4 * count);
  for (int i = 0; i < count; ++i) {
    std::copy(features[i].title_gram_sig.w, features[i].title_gram_sig.w + 4,
              &ga[4 * i]);
    std::copy(features[i + 1].title_gram_sig.w,
              features[i + 1].title_gram_sig.w + 4, &gb[4 * i]);
  }
  std::vector<int32_t> pops(count);
  strsim::BatchSigSymDiff(ga.data(), gb.data(), count, pops.data());
  for (int i = 0; i < count; ++i) {
    ASSERT_EQ(strsim::SigSymDiffLowerBound(features[i].title_gram_sig,
                                           features[i + 1].title_gram_sig),
              pops[i]);
    ASSERT_EQ(TitleSimilarityUpperBoundFromPops(
                  pops[i],
                  strsim::SigSymDiffLowerBound(
                      features[i].title_token_sig,
                      features[i + 1].title_token_sig),
                  features[i], features[i + 1]),
              TitleSimilarityUpperBound(features[i], features[i + 1]));
  }
}

// ---- End-to-end byte identity: kernels on vs forced scalar.

Dataset SmallPimB() {
  datagen::PimConfig config = datagen::PimConfigB();
  config = datagen::ScaleConfig(config, 0.12);
  return datagen::GeneratePim(config);
}

Dataset SmallCora() {
  datagen::CoraConfig config;
  config.num_papers = 30;
  config.num_citations = 300;
  config.num_authors = 60;
  config.num_venue_series = 12;
  return datagen::GenerateCora(config);
}

void SweepKernelIdentity(const Dataset& dataset, const std::string& name) {
  ScopedSimdLevel restore;
  const strsim::SimdLevel detected = strsim::DetectedSimdLevel();
  for (const int threads : {1, 4}) {
    ReconcilerOptions options;
    options.num_threads = threads;
    strsim::SetSimdLevel(detected);
    const ReconcileResult on = Reconciler(options).Run(dataset);
    strsim::SetSimdLevel(strsim::SimdLevel::kScalar);
    const ReconcileResult off = Reconciler(options).Run(dataset);
    const std::string what = name + " threads=" + std::to_string(threads);
    EXPECT_EQ(off.cluster, on.cluster) << what;
    EXPECT_EQ(off.merged_pairs, on.merged_pairs) << what;
    EXPECT_EQ(off.stats.num_merges, on.stats.num_merges) << what;
    EXPECT_EQ(off.stats.num_folds, on.stats.num_folds) << what;
  }
}

TEST(KernelIdentityTest, PimBByteIdenticalAcrossThreads) {
  SweepKernelIdentity(SmallPimB(), "pim-b");
}

TEST(KernelIdentityTest, CoraByteIdenticalAcrossThreads) {
  SweepKernelIdentity(SmallCora(), "cora");
}

TEST(KernelIdentityTest, PrefilterCountersReportedAndGatedOffAtScalar) {
  ScopedSimdLevel restore;
  const Dataset dataset = SmallPimB();
  const ReconcilerOptions options;

  strsim::SetSimdLevel(strsim::SimdLevel::kScalar);
  const ReconcileResult off = Reconciler(options).Run(dataset);
  EXPECT_EQ(0, off.stats.num_prefilter_skips);
  EXPECT_EQ(0, off.stats.num_prefilter_exact);
  EXPECT_STREQ("scalar", off.stats.simd_dispatch);

  const strsim::SimdLevel detected = strsim::DetectedSimdLevel();
  if (detected == strsim::SimdLevel::kScalar) {
    GTEST_SKIP() << "no non-scalar dispatch level on this CPU";
  }
  strsim::SetSimdLevel(detected);
  const ReconcileResult on = Reconciler(options).Run(dataset);
  EXPECT_EQ(off.cluster, on.cluster);
  // PIM B has an article class with title evidence, so the prefilter must
  // have looked at title pairs (skipped + exact covers all of them), and
  // the title signatures must be accounted.
  EXPECT_GT(on.stats.num_prefilter_skips + on.stats.num_prefilter_exact, 0);
  EXPECT_GT(on.stats.signature_bytes, 0);
  EXPECT_STREQ(strsim::SimdLevelName(detected), on.stats.simd_dispatch);
}

// ---- SimMemo key regression: the old single-uint64 packing XORed the
// evidence channel into bits 58+, so a ValueId >= 2^26 (whose bit 26
// lands at bit 58 after the << 32 shift) could collide with a different
// evidence channel's entry. The widened key must keep them distinct.

TEST(SimMemoKeyTest, OldPackingCollisionStaysDistinct) {
  // Under the old packing: key(ev=0, lo=2^26, hi) == key(ev=1, lo=0, hi).
  const ValueId lo_a = ValueId{1} << 26;
  const ValueId lo_b = 0;
  const ValueId hi = ValueId{1} << 27;
  const MemoKey a = SimMemo::MakeKey(/*evidence=*/0, lo_a, hi);
  const MemoKey b = SimMemo::MakeKey(/*evidence=*/1, lo_b, hi);
  EXPECT_FALSE(a == b);

  SimMemo memo;
  memo.set_max_bytes(1 << 20);
  int64_t hits = 0, misses = 0;
  const float first =
      memo.LookupOrCompute(0, lo_a, hi, [] { return 0.25; }, &hits, &misses);
  const float second =
      memo.LookupOrCompute(1, lo_b, hi, [] { return 0.75; }, &hits, &misses);
  EXPECT_FLOAT_EQ(0.25f, first);
  EXPECT_FLOAT_EQ(0.75f, second);  // A collision would have returned 0.25.
  EXPECT_EQ(0, hits);
  EXPECT_EQ(2, misses);
  // Reading both back hits the memo without recompute.
  EXPECT_FLOAT_EQ(
      0.25f, memo.LookupOrCompute(0, lo_a, hi, [] { return -1.0; }, &hits,
                                  &misses));
  EXPECT_FLOAT_EQ(
      0.75f, memo.LookupOrCompute(1, lo_b, hi, [] { return -1.0; }, &hits,
                                  &misses));
  EXPECT_EQ(2, hits);
}

TEST(SimMemoKeyTest, KeyIsOrderNormalized) {
  EXPECT_TRUE(SimMemo::MakeKey(3, 7, 9) == SimMemo::MakeKey(3, 9, 7));
  EXPECT_FALSE(SimMemo::MakeKey(3, 7, 9) == SimMemo::MakeKey(4, 7, 9));
}

}  // namespace
}  // namespace recon
