// The Myers bit-parallel Levenshtein kernels (DESIGN.md §16) must be
// invisible in every output:
//   - they agree with the scalar row-DP reference bit-for-bit over
//     randomized ASCII / UTF-8 / empty / long inputs, directly and through
//     the public entry point;
//   - full reconciliation output is byte-identical at one and four
//     threads, on PIM and Cora shapes, and passes the partition
//     invariants (tests/invariants.h);
//   - the widened SimMemo key keeps triples distinct that the old packed
//     key collided (ValueId >= 2^26 bleeding into the evidence bits).
// Runs under AddressSanitizer and ThreadSanitizer via the ctest `asan` /
// `tsan` labels.

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "core/reconciler.h"
#include "datagen/cora_generator.h"
#include "datagen/pim_generator.h"
#include "invariants.h"
#include "model/dataset.h"
#include "sim/value_store.h"
#include "strsim/bitparallel.h"
#include "strsim/edit_distance.h"

namespace recon {
namespace {

namespace strsim = recon::strsim;

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

TEST(BitParallelLevenshteinTest, WordBoundaryPatternLengths) {
  // Patterns of exactly one, two and three 64-bit words, and one byte
  // either side, read the last row from a different bit or block. Spread
  // substitutions plus one appended byte give a known distance.
  for (const int m : {1, 63, 64, 65, 127, 128, 129, 192}) {
    const std::string pattern(m, 'x');
    for (const int subs : {0, 1, 3}) {
      std::string text = pattern;
      for (int i = 0; i < subs && i < m; ++i) text[i * (m - 1) / 2] = 'y';
      const int changed =
          static_cast<int>(std::count(text.begin(), text.end(), 'y'));
      text.push_back('z');
      SCOPED_TRACE("m=" + std::to_string(m) + " subs=" + std::to_string(subs));
      EXPECT_EQ(changed + 1, strsim::MyersLevenshteinDistance(pattern, text));
      EXPECT_EQ(changed + 1, strsim::MyersLevenshteinDistance(text, pattern));
      EXPECT_EQ(strsim::ScalarLevenshteinDistance(pattern, text),
                strsim::MyersLevenshteinDistance(pattern, text));
    }
  }
}

TEST(BitParallelLevenshteinTest, PublicEntryPointsMatchScalar) {
  std::mt19937 rng(4242);
  for (int trial = 0; trial < 200; ++trial) {
    const std::string a = RandomString(rng, 120, "abcdef ");
    const std::string b = RandomString(rng, 120, "abcdef ");
    const int want = strsim::ScalarLevenshteinDistance(a, b);
    ASSERT_EQ(want, strsim::LevenshteinDistance(a, b));
  }
}

// ---- End-to-end byte identity across thread counts, plus the partition
// invariants on each result.

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
  std::vector<ReconcileResult> results;
  for (const int threads : {1, 4}) {
    ReconcilerOptions options;
    options.num_threads = threads;
    results.push_back(Reconciler(options).Run(dataset));
    EXPECT_EQ(std::vector<std::string>{},
              invariants::CheckPartition(dataset, options, results.back()))
        << name << " threads=" << threads;
  }
  const ReconcileResult& one = results[0];
  const ReconcileResult& four = results[1];
  EXPECT_EQ(one.cluster, four.cluster) << name;
  EXPECT_EQ(one.merged_pairs, four.merged_pairs) << name;
  EXPECT_EQ(one.stats.num_merges, four.stats.num_merges) << name;
  EXPECT_EQ(one.stats.num_folds, four.stats.num_folds) << name;
}

TEST(KernelIdentityTest, PimBByteIdenticalAcrossThreads) {
  SweepKernelIdentity(SmallPimB(), "pim-b");
}

TEST(KernelIdentityTest, CoraByteIdenticalAcrossThreads) {
  SweepKernelIdentity(SmallCora(), "cora");
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
