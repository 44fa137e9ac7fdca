// Tests for candidate generation (blocking) and the incremental
// CandidateIndex.

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/candidates.h"
#include "core/graph_builder.h"
#include "core/incremental.h"
#include "datagen/cora_generator.h"
#include "datagen/pim_generator.h"
#include "ingest_replay.h"
#include "model/dataset.h"
#include "sim/value_store.h"

namespace recon {
namespace {

class CandidatesTest : public ::testing::Test {
 protected:
  CandidatesTest() : data_(BuildPimSchema()) {
    binding_ = SchemaBinding::Resolve(data_.schema());
  }

  RefId Person(const std::string& name, const std::string& email = "") {
    const int person = binding_.person;
    const RefId id = data_.NewReference(person, 0);
    if (!name.empty()) {
      data_.mutable_reference(id).AddAtomicValue(binding_.person_name, name);
    }
    if (!email.empty()) {
      data_.mutable_reference(id).AddAtomicValue(binding_.person_email,
                                                 email);
    }
    return id;
  }

  bool ArePaired(RefId a, RefId b, const CandidateList& list) {
    return std::find(list.begin(), list.end(),
                     std::make_pair(std::min(a, b), std::max(a, b))) !=
           list.end();
  }

  Dataset data_;
  SchemaBinding binding_;
  ReconcilerOptions options_;
};

TEST_F(CandidatesTest, LastNamesShareABlock) {
  const RefId a = Person("Robert S. Epstein");
  const RefId b = Person("Epstein, R.S.");
  const auto list = GenerateCandidates(data_, binding_, options_);
  EXPECT_TRUE(ArePaired(a, b, list));
}

TEST_F(CandidatesTest, NameMeetsEmailAccount) {
  const RefId a = Person("Stonebraker, M.");
  const RefId b = Person("", "stonebraker@csail.mit.edu");
  const auto list = GenerateCandidates(data_, binding_, options_);
  EXPECT_TRUE(ArePaired(a, b, list));
}

TEST_F(CandidatesTest, PatternAccountsMeetLastNames) {
  // "repstein" (first-initial + last) and "robert.epstein" must land next
  // to "Epstein".
  const RefId name_only = Person("Epstein, R.S.");
  const RefId flast = Person("", "repstein@cs.wisc.edu");
  const RefId dotted = Person("", "robert.epstein@gmail.com");
  const auto list = GenerateCandidates(data_, binding_, options_);
  EXPECT_TRUE(ArePaired(name_only, flast, list));
  EXPECT_TRUE(ArePaired(name_only, dotted, list));
}

TEST_F(CandidatesTest, NicknameMeetsCanonicalAccount) {
  const RefId nick = Person("mike");
  const RefId account = Person("", "michael@x.edu");
  const auto list = GenerateCandidates(data_, binding_, options_);
  EXPECT_TRUE(ArePaired(nick, account, list));
}

TEST_F(CandidatesTest, TypoedLastNamesShareAPrefixBlock) {
  const RefId clean = Person("Norman Bradford");
  const RefId typoed = Person("Norman Bradfodr");
  const auto list = GenerateCandidates(data_, binding_, options_);
  EXPECT_TRUE(ArePaired(clean, typoed, list));
}

TEST_F(CandidatesTest, UnrelatedNamesDoNotPair) {
  const RefId a = Person("Eugene Wong");
  const RefId b = Person("Robert Epstein");
  const auto list = GenerateCandidates(data_, binding_, options_);
  EXPECT_FALSE(ArePaired(a, b, list));
}

TEST_F(CandidatesTest, OversizedBlocksAreSkipped) {
  options_.max_block_size = 5;
  for (int i = 0; i < 10; ++i) Person("Alice Zimmerman");
  const auto list = GenerateCandidates(data_, binding_, options_);
  EXPECT_TRUE(list.empty());
}

TEST_F(CandidatesTest, MaxBlockSizeIsInclusive) {
  // A block of exactly `max_block_size` members is kept whole; one more
  // member than the cap drops it.
  for (int i = 0; i < 10; ++i) Person("Alice Zimmerman");
  options_.max_block_size = 10;
  EXPECT_EQ(GenerateCandidates(data_, binding_, options_).size(),
            10u * 9 / 2);
  options_.max_block_size = 9;
  EXPECT_TRUE(GenerateCandidates(data_, binding_, options_).empty());
}

TEST_F(CandidatesTest, DroppedBlocksCountOnlyBlocksOverTheCap) {
  // "Zimmerman" fills its name and prefix blocks exactly to the cap;
  // "Hollander" overflows both of its blocks by one.
  options_.max_block_size = 3;
  for (int i = 0; i < 3; ++i) Person("Alice Zimmerman");
  for (int i = 0; i < 4; ++i) Person("Bob Hollander");
  int64_t dropped = -1;
  const CandidateList list =
      GenerateCandidates(data_, binding_, options_, /*budget=*/nullptr,
                         /*pool=*/nullptr, /*store=*/nullptr, &dropped);
  EXPECT_EQ(dropped, 2);
  EXPECT_EQ(list.size(), 3u);

  // The index counts each block once, in the batch that overflows it:
  // the first batch holds three of each name, the second the fourth
  // Hollander, and a third batch joining the dropped blocks adds nothing.
  Dataset replay(data_.schema());
  CandidateIndex index(binding_, options_);
  auto add = [&](RefId id) { replay.AddReference(data_.reference(id), -1); };
  for (const RefId id : {0, 1, 2, 3, 4, 5}) add(id);
  index.AddReferences(replay, 0);
  EXPECT_EQ(index.num_dropped_blocks(), 0);
  add(6);
  index.AddReferences(replay, 6);
  EXPECT_EQ(index.num_dropped_blocks(), 2);
  add(6);
  EXPECT_TRUE(index.AddReferences(replay, 7).empty());
  EXPECT_EQ(index.num_dropped_blocks(), 2);
}

TEST_F(CandidatesTest, DroppedBlocksSameAtEveryThreadCount) {
  const Dataset data = datagen::GeneratePim(
      datagen::ScaleConfig(datagen::PimConfigA(), 0.02));
  const SchemaBinding binding = SchemaBinding::Resolve(data.schema());
  ReconcilerOptions options;
  options.max_block_size = 20;
  int64_t dropped_one = -1;
  options.num_threads = 1;
  const CandidateList one = GenerateCandidates(
      data, binding, options, nullptr, nullptr, nullptr, &dropped_one);
  int64_t dropped_four = -1;
  options.num_threads = 4;
  const CandidateList four = GenerateCandidates(
      data, binding, options, nullptr, nullptr, nullptr, &dropped_four);
  EXPECT_GT(dropped_one, 0);
  EXPECT_EQ(dropped_one, dropped_four);
  EXPECT_EQ(one, four);
}

TEST_F(CandidatesTest, IncrementalDroppedBlocksMatchBatchAfterReplay) {
  const Dataset full = replay::ShuffledPimB();
  ReconcilerOptions options;
  options.max_block_size = 20;
  constexpr int kFlushes = 8;
  int64_t incremental = -1;
  int64_t batch = -1;
  replay::ReplayIngest(
      full, options, kFlushes, [&](IncrementalReconciler& reconciler, int f) {
        if (f < kFlushes) return;
        incremental = reconciler.result().stats.num_dropped_blocks;
        const Dataset& replayed = reconciler.dataset();
        GenerateCandidates(replayed, SchemaBinding::Resolve(replayed.schema()),
                           options, nullptr, nullptr, nullptr, &batch);
      });
  EXPECT_GT(batch, 0);
  EXPECT_EQ(incremental, batch);
}

TEST_F(CandidatesTest, PairsAreCanonicalAndUnique) {
  for (int i = 0; i < 8; ++i) Person("Alice Zimmerman", "az@x.edu");
  const auto list = GenerateCandidates(data_, binding_, options_);
  std::set<std::pair<RefId, RefId>> seen;
  for (const auto& [a, b] : list) {
    EXPECT_LT(a, b);
    EXPECT_TRUE(seen.insert({a, b}).second);
  }
  EXPECT_EQ(list.size(), 8u * 7 / 2);
}

TEST_F(CandidatesTest, IndexBatchesCoverBatchGeneration) {
  // Two-batch insertion yields the same pair set (oversized-block skips
  // can differ at the margin; this dataset stays under the cap).
  datagen::PimConfig config = datagen::PimConfigA();
  config = datagen::ScaleConfig(config, 0.015);
  const Dataset data = datagen::GeneratePim(config);
  const SchemaBinding binding = SchemaBinding::Resolve(data.schema());
  const ReconcilerOptions options;

  const CandidateList batch = GenerateCandidates(data, binding, options);

  // Replay: a dataset prefix, then the rest.
  CandidateIndex index(binding, options);
  Dataset replay(data.schema());
  const RefId cut = data.num_references() / 2;
  for (RefId id = 0; id < cut; ++id) {
    Reference copy(data.reference(id).class_id(),
                   data.reference(id).num_attributes());
    for (int attr = 0; attr < copy.num_attributes(); ++attr) {
      for (const auto& v : data.reference(id).atomic_values(attr)) {
        copy.AddAtomicValue(attr, v);
      }
    }
    replay.AddReference(std::move(copy), data.gold_entity(id));
  }
  CandidateList merged = index.AddReferences(replay, 0);
  for (RefId id = cut; id < data.num_references(); ++id) {
    Reference copy(data.reference(id).class_id(),
                   data.reference(id).num_attributes());
    for (int attr = 0; attr < copy.num_attributes(); ++attr) {
      for (const auto& v : data.reference(id).atomic_values(attr)) {
        copy.AddAtomicValue(attr, v);
      }
    }
    replay.AddReference(std::move(copy), data.gold_entity(id));
  }
  const CandidateList second = index.AddReferences(replay, cut);
  merged.insert(merged.end(), second.begin(), second.end());
  std::sort(merged.begin(), merged.end());

  EXPECT_EQ(merged, batch);
}

TEST_F(CandidatesTest, BlockingCoversMostGoldPairs) {
  // Blocking is the only candidate generator, so the gold pairs it misses
  // can only be recovered through transitive closure. Pin its per-class
  // pair completeness on PIM A.
  const Dataset data = datagen::GeneratePim(
      datagen::ScaleConfig(datagen::PimConfigA(), 0.03));
  const SchemaBinding binding = SchemaBinding::Resolve(data.schema());
  const CandidateList list = GenerateCandidates(data, binding, options_);
  const std::set<std::pair<RefId, RefId>> candidates(list.begin(),
                                                     list.end());
  // Measured: person 0.965, article 1.000, venue 0.763. The venue pairs
  // blocking misses are left to propagation from their articles.
  const std::pair<int, double> kFloors[] = {{binding.person, 0.95},
                                            {binding.article, 0.99},
                                            {binding.venue, 0.70}};
  for (const auto& [class_id, floor] : kFloors) {
    int64_t gold = 0;
    int64_t covered = 0;
    for (RefId a = 0; a < data.num_references(); ++a) {
      if (data.reference(a).class_id() != class_id) continue;
      if (data.gold_entity(a) < 0) continue;
      for (RefId b = a + 1; b < data.num_references(); ++b) {
        if (data.gold_entity(b) != data.gold_entity(a)) continue;
        if (data.reference(b).class_id() != class_id) continue;
        ++gold;
        covered += candidates.count({a, b});
      }
    }
    SCOPED_TRACE(data.schema().class_def(class_id).name);
    ASSERT_GT(gold, 0);
    EXPECT_GE(static_cast<double>(covered) / static_cast<double>(gold), floor)
        << covered << " of " << gold << " gold pairs";
  }
}

TEST_F(CandidatesTest, BlockingKeysAreClassAppropriate) {
  const Dataset data = datagen::GeneratePim(
      datagen::ScaleConfig(datagen::PimConfigA(), 0.01));
  const SchemaBinding binding = SchemaBinding::Resolve(data.schema());
  for (RefId id = 0; id < data.num_references(); ++id) {
    const auto keys = BlockingKeys(data, id, binding);
    const int class_id = data.reference(id).class_id();
    for (const std::string& key : keys) {
      if (class_id == binding.article) {
        EXPECT_EQ(key.substr(0, 2), "t:");
      } else if (class_id == binding.venue) {
        EXPECT_EQ(key.substr(0, 2), "v:");
      } else {
        EXPECT_TRUE(key.substr(0, 2) == "n:" || key.substr(0, 2) == "e:" ||
                    key.substr(0, 3) == "p4:")
            << key;
      }
    }
  }
}

/// Asserts that every reference's keys read from the graph's value store
/// equal the keys analyzed from its raw values with no store at all.
void ExpectStoreKeysMatchAnalyzedKeys(const Dataset& data) {
  const BuiltGraph built =
      BuildDependencyGraph(data, ReconcilerOptions::DepGraph());
  ASSERT_GT(built.feature_store->size(), 0);
  for (RefId id = 0; id < data.num_references(); ++id) {
    EXPECT_EQ(BlockingKeys(data, id, built.binding, &built.values,
                           built.feature_store.get()),
              BlockingKeys(data, id, built.binding))
        << "reference " << id;
  }
}

TEST(BlockingKeysTest, StoreKeysMatchAnalyzedKeysOnPim) {
  ExpectStoreKeysMatchAnalyzedKeys(datagen::GeneratePim(
      datagen::ScaleConfig(datagen::PimConfigA(), 0.03)));
}

TEST(BlockingKeysTest, StoreKeysMatchAnalyzedKeysOnCora) {
  ExpectStoreKeysMatchAnalyzedKeys(
      datagen::GenerateCora(datagen::CoraConfig()));
}

TEST(BlockingKeysTest, PartlySyncedStoreKeysMatchAnalyzedKeys) {
  // A store synced over the first half of the references' values: the
  // second half's values are interned after the Sync (not covered) or not
  // interned at all (not found), and both misses are analyzed from the raw
  // value.
  const Dataset data = datagen::GeneratePim(
      datagen::ScaleConfig(datagen::PimConfigA(), 0.03));
  const SchemaBinding binding = SchemaBinding::Resolve(data.schema());
  ValuePool pool;
  ValueStore store(MakeValueKindSchema(binding));
  const RefId half = data.num_references() / 2;
  const auto intern = [&](RefId first, RefId last) {
    for (RefId id = first; id < last; ++id) {
      const Reference& r = data.reference(id);
      for (int attr = 0; attr < r.num_attributes(); ++attr) {
        for (const std::string& raw : r.atomic_values(attr)) {
          pool.Intern(ValueDomain{r.class_id(), attr}, raw);
        }
      }
    }
  };
  intern(0, half);
  store.Sync(pool);
  intern(half, half + half / 2);
  ASSERT_GT(pool.size(), store.size());
  for (RefId id = 0; id < data.num_references(); ++id) {
    EXPECT_EQ(BlockingKeys(data, id, binding, &pool, &store),
              BlockingKeys(data, id, binding))
        << "reference " << id;
  }
}

TEST(BlockingKeysTest, PrecomputedFeatureKeysMatchAnalyzedKeys) {
  // The snapshot's overload: full, partial and absent feature tables all
  // give the keys the dataset overload analyzes from the raw values.
  const Dataset data = datagen::GeneratePim(
      datagen::ScaleConfig(datagen::PimConfigA(), 0.03));
  const SchemaBinding binding = SchemaBinding::Resolve(data.schema());
  const ValueKindSchema kinds = MakeValueKindSchema(binding);
  for (RefId id = 0; id < data.num_references(); ++id) {
    const Reference& r = data.reference(id);
    std::vector<std::vector<ValueFeatures>> full(
        static_cast<size_t>(r.num_attributes()));
    for (int attr = 0; attr < r.num_attributes(); ++attr) {
      for (const std::string& raw : r.atomic_values(attr)) {
        full[static_cast<size_t>(attr)].push_back(
            AnalyzeValue(raw, kinds.KindOf(ValueDomain{r.class_id(), attr})));
      }
    }
    // Only the first analysis of each attribute.
    std::vector<std::vector<ValueFeatures>> partial = full;
    for (auto& values : partial) {
      if (values.size() > 1) values.resize(1);
    }
    const std::vector<std::string> expected = BlockingKeys(data, id, binding);
    EXPECT_EQ(BlockingKeys(r, binding, full), expected) << "reference " << id;
    EXPECT_EQ(BlockingKeys(r, binding, partial), expected)
        << "reference " << id;
    EXPECT_EQ(BlockingKeys(r, binding, {}), expected) << "reference " << id;
  }
}

/// Asserts that GenerateCandidates with the graph's pool and store, as the
/// graph build calls it, returns the pairs and dropped-block count it
/// returns without them, as Fellegi-Sunter calls it.
void ExpectStoreCandidatesMatchAnalyzedCandidates(const Dataset& data) {
  const ReconcilerOptions options = ReconcilerOptions::DepGraph();
  const BuiltGraph built = BuildDependencyGraph(data, options);
  int64_t dropped_with_store = -1;
  int64_t dropped_without = -1;
  const CandidateList with_store = GenerateCandidates(
      data, built.binding, options, nullptr, &built.values,
      built.feature_store.get(), &dropped_with_store);
  const CandidateList without =
      GenerateCandidates(data, built.binding, options, nullptr, nullptr,
                         nullptr, &dropped_without);
  EXPECT_GT(with_store.size(), 0u);
  EXPECT_EQ(with_store, without);
  EXPECT_EQ(dropped_with_store, dropped_without);
}

TEST(BlockingKeysTest, StoreCandidatesMatchAnalyzedCandidates) {
  ExpectStoreCandidatesMatchAnalyzedCandidates(datagen::GeneratePim(
      datagen::ScaleConfig(datagen::PimConfigA(), 0.03)));
  ExpectStoreCandidatesMatchAnalyzedCandidates(
      datagen::GenerateCora(datagen::CoraConfig()));
}

}  // namespace
}  // namespace recon
