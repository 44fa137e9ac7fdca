#include <algorithm>
#include <atomic>
#include <map>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include <deque>

#include "util/atomic_shared_ptr.h"
#include "util/json.h"
#include "util/random.h"
#include "util/ring_buffer.h"
#include "util/status.h"
#include "util/string_util.h"
#include "util/union_find.h"

namespace recon {
namespace {

// ---- Status --------------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  const Status status = Status::InvalidArgument("bad schema");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(status.ToString(), "INVALID_ARGUMENT: bad schema");
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> result(42);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value(), 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> result(Status::NotFound("missing"));
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

// ---- String utilities -----------------------------------------------------

TEST(StringUtilTest, ToLowerUpper) {
  EXPECT_EQ(ToLower("MiXeD 123"), "mixed 123");
  EXPECT_EQ(ToUpper("MiXeD 123"), "MIXED 123");
}

TEST(StringUtilTest, Trim) {
  EXPECT_EQ(Trim("  hello \t\n"), "hello");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
}

TEST(StringUtilTest, SplitKeepsEmptyFields) {
  const std::vector<std::string> parts = Split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(StringUtilTest, SplitWhitespaceDropsEmpty) {
  const std::vector<std::string> parts = SplitWhitespace("  a \t b\nc ");
  EXPECT_EQ(parts, (std::vector<std::string>{"a", "b", "c"}));
}

TEST(StringUtilTest, TokenizeLowercasesAndSplitsOnPunct) {
  EXPECT_EQ(Tokenize("Dong, X.-L. (2005)"),
            (std::vector<std::string>{"dong", "x", "l", "2005"}));
  EXPECT_TRUE(Tokenize("...").empty());
}

TEST(StringUtilTest, JoinRoundTrip) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
}

TEST(StringUtilTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("stonebraker", "stone"));
  EXPECT_FALSE(StartsWith("stone", "stonebraker"));
  EXPECT_TRUE(EndsWith("mit.edu", ".edu"));
  EXPECT_FALSE(EndsWith("edu", "mit.edu"));
}

TEST(StringUtilTest, IsDigits) {
  EXPECT_TRUE(IsDigits("1978"));
  EXPECT_FALSE(IsDigits(""));
  EXPECT_FALSE(IsDigits("19a"));
}

TEST(StringUtilTest, StrFormat) {
  EXPECT_EQ(StrFormat("%.3f/%d", 0.5, 7), "0.500/7");
  EXPECT_EQ(StrFormat("%s", ""), "");
}

// ---- Random ----------------------------------------------------------------

TEST(RandomTest, DeterministicAcrossInstances) {
  Random a(123);
  Random b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextUint64(), b.NextUint64());
  }
}

TEST(RandomTest, DifferentSeedsDiffer) {
  Random a(1);
  Random b(2);
  int differences = 0;
  for (int i = 0; i < 10; ++i) {
    if (a.NextUint64() != b.NextUint64()) ++differences;
  }
  EXPECT_GT(differences, 5);
}

TEST(RandomTest, BoundedStaysInRange) {
  Random rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
}

TEST(RandomTest, NextIntInclusiveRange) {
  Random rng(9);
  std::set<int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const int64_t v = rng.NextInt(-2, 3);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 6u);  // All values hit with 2000 draws.
}

TEST(RandomTest, NextDoubleInUnitInterval) {
  Random rng(11);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.NextDouble();
    ASSERT_GE(v, 0.0);
    ASSERT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(RandomTest, WeightedRespectsZeroWeights) {
  Random rng(13);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(rng.NextWeighted({0.0, 1.0, 0.0}), 1);
  }
}

TEST(RandomTest, ShuffleIsPermutation) {
  Random rng(17);
  std::vector<int> items{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> shuffled = items;
  rng.Shuffle(shuffled);
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, items);
}

TEST(ZipfSamplerTest, HeadIsMoreLikelyThanTail) {
  Random rng(19);
  ZipfSampler sampler(100, 1.0);
  std::map<int, int> counts;
  for (int i = 0; i < 20000; ++i) ++counts[sampler.Sample(rng)];
  EXPECT_GT(counts[0], counts[50] * 5);
}

TEST(ZipfSamplerTest, CoversSupport) {
  Random rng(23);
  ZipfSampler sampler(5, 0.5);
  std::set<int> seen;
  for (int i = 0; i < 5000; ++i) seen.insert(sampler.Sample(rng));
  EXPECT_EQ(seen.size(), 5u);
}

// ---- UnionFind --------------------------------------------------------------

TEST(UnionFindTest, SingletonsInitially) {
  UnionFind uf(5);
  EXPECT_EQ(uf.num_sets(), 5);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(uf.Find(i), i);
}

TEST(UnionFindTest, UnionMergesAndCounts) {
  UnionFind uf(6);
  uf.Union(0, 1);
  uf.Union(2, 3);
  EXPECT_EQ(uf.num_sets(), 4);
  EXPECT_TRUE(uf.Connected(0, 1));
  EXPECT_FALSE(uf.Connected(1, 2));
  uf.Union(1, 3);
  EXPECT_TRUE(uf.Connected(0, 2));
  EXPECT_EQ(uf.num_sets(), 3);
}

TEST(UnionFindTest, UnionReturnsLargerSetsRep) {
  UnionFind uf(10);
  uf.Union(0, 1);
  uf.Union(0, 2);
  // {0,1,2} vs {9}: the large set's representative must win.
  const int rep = uf.Union(9, 0);
  EXPECT_EQ(rep, uf.Find(1));
  EXPECT_EQ(uf.SetSize(9), 4);
}

TEST(UnionFindTest, IdempotentUnion) {
  UnionFind uf(4);
  uf.Union(1, 2);
  const int sets = uf.num_sets();
  uf.Union(2, 1);
  EXPECT_EQ(uf.num_sets(), sets);
}

TEST(UnionFindTest, GroupsAreSortedPartitions) {
  UnionFind uf(7);
  uf.Union(5, 2);
  uf.Union(2, 6);
  uf.Union(0, 3);
  const auto groups = uf.Groups();
  ASSERT_EQ(groups.size(), 4u);
  EXPECT_EQ(groups[0], (std::vector<int>{0, 3}));
  EXPECT_EQ(groups[1], (std::vector<int>{1}));
  EXPECT_EQ(groups[2], (std::vector<int>{2, 5, 6}));
  EXPECT_EQ(groups[3], (std::vector<int>{4}));
}

// Property: after any sequence of unions, Find is consistent with
// Connected and group sizes sum to n.
TEST(UnionFindTest, PropertyRandomUnions) {
  Random rng(31);
  for (int trial = 0; trial < 20; ++trial) {
    const int n = 30;
    UnionFind uf(n);
    for (int i = 0; i < 25; ++i) {
      uf.Union(static_cast<int>(rng.NextBounded(n)),
               static_cast<int>(rng.NextBounded(n)));
    }
    const auto groups = uf.Groups();
    EXPECT_EQ(static_cast<int>(groups.size()), uf.num_sets());
    int total = 0;
    for (const auto& g : groups) {
      total += static_cast<int>(g.size());
      for (int member : g) {
        EXPECT_EQ(uf.Find(member), uf.Find(g.front()));
      }
    }
    EXPECT_EQ(total, n);
  }
}

// ---- RingDeque -----------------------------------------------------------

TEST(RingDequeTest, StartsEmpty) {
  RingDeque<int> q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
  EXPECT_EQ(q.capacity(), 0u);
}

TEST(RingDequeTest, FifoOrder) {
  RingDeque<int> q;
  for (int i = 0; i < 100; ++i) q.push_back(i);
  EXPECT_EQ(q.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(q.pop_front(), i);
  EXPECT_TRUE(q.empty());
}

TEST(RingDequeTest, PushFrontJumpsTheQueue) {
  RingDeque<int> q;
  q.push_back(1);
  q.push_back(2);
  q.push_front(0);
  EXPECT_EQ(q[0], 0);
  EXPECT_EQ(q[1], 1);
  EXPECT_EQ(q[2], 2);
  EXPECT_EQ(q.pop_front(), 0);
  EXPECT_EQ(q.pop_front(), 1);
  EXPECT_EQ(q.pop_front(), 2);
}

TEST(RingDequeTest, IndexingIsFrontRelative) {
  RingDeque<int> q;
  for (int i = 0; i < 8; ++i) q.push_back(i);
  for (int i = 0; i < 5; ++i) q.pop_front();
  ASSERT_EQ(q.size(), 3u);
  EXPECT_EQ(q[0], 5);
  EXPECT_EQ(q[2], 7);
}

TEST(RingDequeTest, GrowsAcrossWrapAround) {
  // Force the head to sit mid-buffer before growth so relinearization has
  // to copy a wrapped range.
  RingDeque<int> q(16);
  ASSERT_EQ(q.capacity(), 16u);
  for (int i = 0; i < 12; ++i) q.push_back(i);
  for (int i = 0; i < 12; ++i) q.pop_front();
  for (int i = 0; i < 17; ++i) q.push_back(i);  // Wraps, then doubles.
  EXPECT_EQ(q.capacity(), 32u);
  for (int i = 0; i < 17; ++i) EXPECT_EQ(q.pop_front(), i);
}

TEST(RingDequeTest, InitialCapacityRoundsUpToPowerOfTwo) {
  RingDeque<int> q(100);
  EXPECT_EQ(q.capacity(), 128u);
  RingDeque<int> tiny(3);
  EXPECT_EQ(tiny.capacity(), 16u);  // kMinCapacity floor.
}

TEST(RingDequeTest, ClearKeepsCapacity) {
  RingDeque<int> q;
  for (int i = 0; i < 50; ++i) q.push_back(i);
  const size_t capacity = q.capacity();
  q.clear();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.capacity(), capacity);
  q.push_back(7);
  EXPECT_EQ(q.pop_front(), 7);
}

TEST(RingDequeTest, PropertyMatchesStdDeque) {
  // Random interleaving of operations against the reference container.
  Random rng(20260806);
  RingDeque<int> q;
  std::deque<int> ref;
  for (int step = 0; step < 20000; ++step) {
    const uint64_t op = rng.NextBounded(4);
    if (op == 0 || (op == 1 && ref.size() < 4)) {
      q.push_back(step);
      ref.push_back(step);
    } else if (op == 1) {
      q.push_front(step);
      ref.push_front(step);
    } else if (op == 2 && !ref.empty()) {
      ASSERT_EQ(q.pop_front(), ref.front());
      ref.pop_front();
    } else if (!ref.empty()) {
      const size_t i = static_cast<size_t>(rng.NextBounded(ref.size()));
      ASSERT_EQ(q[i], ref[i]);
    }
    ASSERT_EQ(q.size(), ref.size());
  }
  while (!ref.empty()) {
    ASSERT_EQ(q.pop_front(), ref.front());
    ref.pop_front();
  }
  EXPECT_TRUE(q.empty());
}

// ---- AtomicSharedPtr -----------------------------------------------------

TEST(AtomicSharedPtrTest, LoadPinsWhileStoreReplaces) {
  AtomicSharedPtr<const int> cell(std::make_shared<const int>(0));
  std::atomic<bool> done{false};
  std::atomic<int> regressions{0};
  std::thread reader([&] {
    int last = 0;
    while (!done.load(std::memory_order_acquire)) {
      const std::shared_ptr<const int> pinned = cell.Load();
      if (*pinned < last) ++regressions;  // Values only move forward.
      last = *pinned;
    }
  });
  for (int i = 1; i <= 1000; ++i) {
    cell.Store(std::make_shared<const int>(i));
  }
  done.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(regressions.load(), 0);
  EXPECT_EQ(*cell.Load(), 1000);
}

// ---- JSON ----------------------------------------------------------------

TEST(JsonTest, WriterEscapesEverythingRfc8259Requires) {
  json::Value doc = json::Value::Object();
  doc.Set("k", std::string("quote\" backslash\\ newline\n tab\t bell\x07"));
  EXPECT_EQ(doc.Dump(),
            "{\"k\":\"quote\\\" backslash\\\\ newline\\n tab\\t "
            "bell\\u0007\"}");
}

TEST(JsonTest, RoundTripsNumbersExactly) {
  json::Value doc = json::Value::Array();
  doc.Append(int64_t{9007199254740993});  // Not representable as double.
  doc.Append(0.1);
  doc.Append(-2.5e-7);
  const auto parsed = json::Parse(doc.Dump());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().items()[0].AsInt(), 9007199254740993);
  EXPECT_DOUBLE_EQ(parsed.value().items()[1].AsDouble(), 0.1);
  EXPECT_DOUBLE_EQ(parsed.value().items()[2].AsDouble(), -2.5e-7);
  EXPECT_EQ(json::Parse(doc.Dump()).value().Dump(), doc.Dump());
}

TEST(JsonTest, ParserHandlesEscapesAndSurrogates) {
  const auto doc = json::Parse(R"({"s": "a\"b\\c\ndé😀"})");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc.value().at("s").AsString(),
            "a\"b\\c\nd\xC3\xA9\xF0\x9F\x98\x80");
}

TEST(JsonTest, ParserPreservesMemberOrderAndLastDuplicateWins) {
  const auto doc = json::Parse(R"({"z": 1, "a": 2, "z": 3})");
  ASSERT_TRUE(doc.ok());
  ASSERT_EQ(doc.value().members().size(), 2u);
  EXPECT_EQ(doc.value().members()[0].first, "z");
  EXPECT_EQ(doc.value().at("z").AsInt(), 3);
}

TEST(JsonTest, ParserRejectsMalformedInput) {
  EXPECT_FALSE(json::Parse("").ok());
  EXPECT_FALSE(json::Parse("{").ok());
  EXPECT_FALSE(json::Parse("[1,]").ok());
  EXPECT_FALSE(json::Parse("{} trailing").ok());
  EXPECT_FALSE(json::Parse("\"unterminated").ok());
  EXPECT_FALSE(json::Parse("nul").ok());
  // Depth cap: 70 nested arrays exceed the 64 limit.
  EXPECT_FALSE(json::Parse(std::string(70, '[') + std::string(70, ']')).ok());
  // Errors carry a byte offset.
  EXPECT_NE(json::Parse("[1, oops]").status().message().find("byte"),
            std::string::npos);
}

TEST(JsonTest, LooseAccessorsDefaultOnMismatch) {
  const json::Value v = 42;
  EXPECT_EQ(v.AsInt(), 42);
  EXPECT_EQ(v.AsDouble(), 42.0);  // Ints read as doubles.
  EXPECT_EQ(v.AsString(), "");
  EXPECT_TRUE(v.items().empty());
  EXPECT_TRUE(json::Value().at("missing").is_null());
}

}  // namespace
}  // namespace recon
