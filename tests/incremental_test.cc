// Tests for incremental reconciliation (paper §7 future work) and for the
// key-attribute pre-merge optimization (§3.4).
//
// The flush sweep at the bottom pins incremental output with golden
// fingerprints. Regenerating them after an *intended* output change:
//   RECON_REGEN_GOLDENS=1 build/tests/incremental_test | grep '    {'
// and paste the printed rows over kFlushGolden below.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <numeric>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/incremental.h"
#include "core/premerge.h"
#include "core/reconciler.h"
#include "datagen/cora_generator.h"
#include "datagen/pim_generator.h"
#include "eval/metrics.h"
#include "ingest_replay.h"
#include "model/subset.h"

namespace recon {
namespace {

using replay::kFlushBatch;
using replay::ReplayIngest;
using replay::Shuffled;
using replay::ShuffledCora;
using replay::ShuffledPimB;

datagen::PimConfig SmallPim(uint64_t seed) {
  datagen::PimConfig config = datagen::PimConfigA();
  config = datagen::ScaleConfig(config, 0.04);
  config.seed = seed;
  return config;
}

// ---- Pre-merge --------------------------------------------------------------

TEST(PremergeTest, GroupsEqualEmails) {
  Dataset data(BuildPimSchema());
  const int person = data.schema().RequireClass("Person");
  const int email = data.schema().RequireAttribute(person, "email");
  const int name = data.schema().RequireAttribute(person, "name");
  const RefId a = data.NewReference(person, 0);
  data.mutable_reference(a).AddAtomicValue(email, "x@y.edu");
  data.mutable_reference(a).AddAtomicValue(name, "Xavier Young");
  const RefId b = data.NewReference(person, 0);
  data.mutable_reference(b).AddAtomicValue(email, "X@Y.EDU");  // Case diff.
  data.mutable_reference(b).AddAtomicValue(name, "X. Young");
  const RefId c = data.NewReference(person, 1);
  data.mutable_reference(c).AddAtomicValue(email, "z@y.edu");

  const SchemaBinding binding = SchemaBinding::Resolve(data.schema());
  const PremergeResult pre = PremergeEqualEmails(data, binding);
  EXPECT_EQ(pre.condensed.num_references(), 2);
  EXPECT_EQ(pre.condensed_of[a], pre.condensed_of[b]);
  EXPECT_NE(pre.condensed_of[a], pre.condensed_of[c]);
  // Values pooled.
  const Reference& merged = pre.condensed.reference(pre.condensed_of[a]);
  EXPECT_EQ(merged.atomic_values(name).size(), 2u);
  EXPECT_EQ(merged.atomic_values(email).size(), 2u);  // Case variants kept.
}

TEST(PremergeTest, RemapsAssociationsAndDropsSelfLinks) {
  Dataset data(BuildPimSchema());
  const int person = data.schema().RequireClass("Person");
  const int email = data.schema().RequireAttribute(person, "email");
  const int contact = data.schema().RequireAttribute(person, "emailContact");
  const RefId a = data.NewReference(person, 0);
  data.mutable_reference(a).AddAtomicValue(email, "a@s.edu");
  const RefId b = data.NewReference(person, 0);
  data.mutable_reference(b).AddAtomicValue(email, "a@s.edu");
  const RefId c = data.NewReference(person, 1);
  data.mutable_reference(c).AddAtomicValue(email, "c@s.edu");
  data.mutable_reference(a).AddAssociation(contact, c);
  data.mutable_reference(c).AddAssociation(contact, b);
  data.mutable_reference(a).AddAssociation(contact, b);  // Becomes self.

  const SchemaBinding binding = SchemaBinding::Resolve(data.schema());
  const PremergeResult pre = PremergeEqualEmails(data, binding);
  const Reference& ab = pre.condensed.reference(pre.condensed_of[a]);
  const Reference& cc = pre.condensed.reference(pre.condensed_of[c]);
  EXPECT_EQ(ab.associations(contact),
            (std::vector<RefId>{pre.condensed_of[c]}));
  EXPECT_EQ(cc.associations(contact),
            (std::vector<RefId>{pre.condensed_of[a]}));
}

TEST(PremergeTest, KeepApartReferencesJoinNoGroup) {
  Dataset data(BuildPimSchema());
  const int person = data.schema().RequireClass("Person");
  const int email = data.schema().RequireAttribute(person, "email");
  std::vector<RefId> ids;
  for (int i = 0; i < 3; ++i) {
    ids.push_back(data.NewReference(person, 0));
    data.mutable_reference(ids.back()).AddAtomicValue(email, "a@s.edu");
  }

  const SchemaBinding binding = SchemaBinding::Resolve(data.schema());
  // Out-of-range ids are ignored.
  const PremergeResult pre =
      PremergeEqualEmails(data, binding, {ids[0], ids[2], -1, 99});
  EXPECT_EQ(pre.condensed.num_references(), 3);
  EXPECT_NE(pre.condensed_of[ids[0]], pre.condensed_of[ids[1]]);
  EXPECT_NE(pre.condensed_of[ids[0]], pre.condensed_of[ids[2]]);
  EXPECT_NE(pre.condensed_of[ids[1]], pre.condensed_of[ids[2]]);
  EXPECT_EQ(PremergeEqualEmails(data, binding, {ids[0]})
                .condensed.num_references(),
            2);
}

TEST(PremergeTest, ExpandClustersIsCanonical) {
  const Dataset data = datagen::GeneratePim(SmallPim(71));
  const SchemaBinding binding = SchemaBinding::Resolve(data.schema());
  const PremergeResult pre = PremergeEqualEmails(data, binding);
  ASSERT_LT(pre.condensed.num_references(), data.num_references());

  // Identity clustering over the condensed space expands to the premerge
  // partition over the original space.
  std::vector<int> identity(pre.condensed.num_references());
  for (size_t i = 0; i < identity.size(); ++i) identity[i] = static_cast<int>(i);
  const std::vector<int> expanded = ExpandClusters(pre, identity);
  for (RefId id = 0; id < data.num_references(); ++id) {
    EXPECT_EQ(expanded[expanded[id]], expanded[id]);
    EXPECT_EQ(pre.condensed_of[expanded[id]], pre.condensed_of[id]);
  }
}

TEST(PremergeTest, PremergeDoesNotChangeQualityMuch) {
  // The key attribute would merge those pairs anyway; pre-merging is an
  // optimization, not a semantic change. Allow small drift (order effects).
  const Dataset data = datagen::GeneratePim(SmallPim(72));
  const int person = data.schema().RequireClass("Person");

  ReconcilerOptions with = ReconcilerOptions::DepGraph();
  ReconcilerOptions without = ReconcilerOptions::DepGraph();
  without.premerge_equal_emails = false;
  const PairMetrics m_with =
      EvaluateClass(data, Reconciler(with).Run(data).cluster, person);
  const PairMetrics m_without =
      EvaluateClass(data, Reconciler(without).Run(data).cluster, person);
  EXPECT_NEAR(m_with.f1, m_without.f1, 0.05);
  EXPECT_GE(m_with.recall, m_without.recall - 0.03);
}

// ---- Incremental reconciliation -----------------------------------------------

/// Feeding the whole dataset as one batch must reproduce the batch
/// reconciler exactly (premerge is a batch-only optimization, so compare
/// against a batch run without it): both build the graph through the same
/// extension step, and both label a cluster by its smallest member.
void ExpectOneFlushMatchesBatch(const Dataset& data) {
  for (const int threads : {1, 4}) {
    SCOPED_TRACE(testing::Message() << "threads " << threads);
    ReconcilerOptions options = ReconcilerOptions::DepGraph();
    options.premerge_equal_emails = false;
    options.num_threads = threads;
    const ReconcileResult batch = Reconciler(options).Run(data);
    IncrementalReconciler incremental(data, options);
    const ReconcileResult one_flush = incremental.result();

    EXPECT_EQ(one_flush.cluster, batch.cluster);
    auto sorted = [](std::vector<std::pair<RefId, RefId>> pairs) {
      std::sort(pairs.begin(), pairs.end());
      return pairs;
    };
    EXPECT_EQ(sorted(one_flush.merged_pairs), sorted(batch.merged_pairs));
    EXPECT_EQ(one_flush.stats.num_candidates, batch.stats.num_candidates);
    EXPECT_EQ(one_flush.stats.num_pair_comparisons,
              batch.stats.num_pair_comparisons);
    EXPECT_EQ(one_flush.stats.num_nodes, batch.stats.num_nodes);
    EXPECT_EQ(one_flush.stats.num_edges, batch.stats.num_edges);
  }
}

TEST(IncrementalTest, MatchesBatchOnWholeDataset) {
  ExpectOneFlushMatchesBatch(datagen::GeneratePim(SmallPim(73)));
}

TEST(IncrementalTest, MatchesBatchOnWholeCoraDataset) {
  ExpectOneFlushMatchesBatch(ShuffledCora());
}

TEST(IncrementalTest, AddingReferencesExtendsClusters) {
  Dataset data(BuildPimSchema());
  const int person = data.schema().RequireClass("Person");
  const int name = data.schema().RequireAttribute(person, "name");
  const int email = data.schema().RequireAttribute(person, "email");

  ReconcilerOptions options = ReconcilerOptions::DepGraph();
  options.premerge_equal_emails = false;
  IncrementalReconciler reconciler(std::move(data), options);

  auto add_person = [&](const std::string& n, const std::string& e) {
    Reference ref(person, 4);
    if (!n.empty()) ref.AddAtomicValue(name, n);
    if (!e.empty()) ref.AddAtomicValue(email, e);
    return reconciler.AddReference(std::move(ref));
  };

  const RefId p1 = add_person("Eugene Wong", "eugene@berkeley.edu");
  const RefId p2 = add_person("Eugene Wong", "");
  EXPECT_EQ(reconciler.clusters()[p1], reconciler.clusters()[p2]);

  // A later batch: the same email as p1 must join the existing cluster.
  const RefId p3 = add_person("", "eugene@berkeley.edu");
  const RefId p4 = add_person("Robert Epstein", "");
  EXPECT_EQ(reconciler.clusters()[p3], reconciler.clusters()[p1]);
  EXPECT_NE(reconciler.clusters()[p4], reconciler.clusters()[p1]);
}

TEST(IncrementalTest, DecisionsAreMonotone) {
  // Previously merged pairs stay merged after any number of insertions.
  const Dataset data = datagen::GeneratePim(SmallPim(74));
  ReconcilerOptions options = ReconcilerOptions::DepGraph();
  options.premerge_equal_emails = false;
  IncrementalReconciler reconciler(data, options);
  const std::vector<int> before = reconciler.clusters();

  const int person = data.schema().RequireClass("Person");
  const int name = data.schema().RequireAttribute(person, "name");
  for (int i = 0; i < 10; ++i) {
    Reference ref(person, 4);
    ref.AddAtomicValue(name, "Zebulon Quixote");
    reconciler.AddReference(std::move(ref));
  }
  const std::vector<int>& after = reconciler.clusters();
  for (RefId id = 0; id < data.num_references(); ++id) {
    for (RefId other = id + 1; other < data.num_references(); ++other) {
      if (before[id] == before[other]) {
        EXPECT_EQ(after[id], after[other])
            << "pair (" << id << "," << other << ") was unmerged";
      }
    }
  }
}

TEST(IncrementalTest, BatchedInsertionApproximatesBatchQuality) {
  const Dataset full = datagen::GeneratePim(SmallPim(75));
  const int person = full.schema().RequireClass("Person");

  ReconcilerOptions options = ReconcilerOptions::DepGraph();
  options.premerge_equal_emails = false;
  const PairMetrics batch =
      EvaluateClass(full, Reconciler(options).Run(full).cluster, person);

  // Split: first 60% of references, then the rest in one more batch.
  // (Keep association targets valid: links in the PIM generator always
  // point within the same extraction unit, and references are ordered by
  // unit, so a prefix cut is safe apart from a few dangling links we
  // filter.)
  const RefId cut = full.num_references() * 6 / 10;
  const Dataset head =
      FilterDataset(full, [&](RefId id) { return id < cut; });
  IncrementalReconciler reconciler(head, options);
  for (RefId id = cut; id < full.num_references(); ++id) {
    const Reference& ref = full.reference(id);
    Reference copy(ref.class_id(), ref.num_attributes());
    for (int attr = 0; attr < ref.num_attributes(); ++attr) {
      for (const auto& v : ref.atomic_values(attr)) {
        copy.AddAtomicValue(attr, v);
      }
      for (const RefId t : ref.associations(attr)) {
        if (t < full.num_references()) copy.AddAssociation(attr, t);
      }
    }
    reconciler.AddReference(std::move(copy), full.gold_entity(id),
                            full.provenance(id));
  }
  // Evaluate against the full dataset's gold labels.
  const std::vector<int>& clusters = reconciler.clusters();
  const PairMetrics incremental =
      EvaluateClass(reconciler.dataset(), clusters, person);

  EXPECT_GE(incremental.recall, batch.recall - 0.08);
  EXPECT_GE(incremental.precision, batch.precision - 0.05);
}

TEST(IncrementalTest, FlushIsIdempotent) {
  const Dataset data = datagen::GeneratePim(SmallPim(76));
  ReconcilerOptions options = ReconcilerOptions::DepGraph();
  options.premerge_equal_emails = false;
  IncrementalReconciler reconciler(data, options);
  reconciler.Flush();
  const std::vector<int> first = reconciler.clusters();
  reconciler.Flush();
  reconciler.Flush();
  EXPECT_EQ(reconciler.clusters(), first);
}

TEST(IncrementalTest, StatsAccumulate) {
  const Dataset data = datagen::GeneratePim(SmallPim(77));
  ReconcilerOptions options = ReconcilerOptions::DepGraph();
  options.premerge_equal_emails = false;
  IncrementalReconciler reconciler(data, options);
  const ReconcileResult result = reconciler.result();
  EXPECT_GT(result.stats.num_nodes, 0);
  EXPECT_GT(result.stats.num_merges, 0);
  EXPECT_FALSE(result.merged_pairs.empty());
}

TEST(IncrementalTest, StatsMatchResultAfterReplay) {
  // stats() and result().stats report the same graph, store and memo
  // counters: both are filled at the end of every flush.
  const Dataset full = replay::ShuffledPimB();
  ReconcilerOptions options;
  options.max_block_size = 20;
  replay::ReplayIngest(
      full, options, /*flushes=*/4,
      [](IncrementalReconciler& reconciler, int) {
        const ReconcileStats stats = reconciler.stats();
        const ReconcileStats result = reconciler.result().stats;
        EXPECT_GT(stats.num_nodes, 0);
        EXPECT_GT(stats.num_dropped_blocks, 0);
        EXPECT_EQ(stats.num_candidates, result.num_candidates);
        EXPECT_EQ(stats.num_nodes, result.num_nodes);
        EXPECT_EQ(stats.num_live_nodes, result.num_live_nodes);
        EXPECT_EQ(stats.num_edges, result.num_edges);
        EXPECT_EQ(stats.graph_bytes, result.graph_bytes);
        EXPECT_EQ(stats.graph_node_bytes, result.graph_node_bytes);
        EXPECT_EQ(stats.graph_edge_bytes, result.graph_edge_bytes);
        EXPECT_EQ(stats.graph_index_bytes, result.graph_index_bytes);
        EXPECT_EQ(stats.graph_compactions, result.graph_compactions);
        EXPECT_EQ(stats.num_non_merge_pairs, result.num_non_merge_pairs);
        EXPECT_EQ(stats.num_derived_non_merge_pairs,
                  result.num_derived_non_merge_pairs);
        EXPECT_EQ(stats.num_unmerged_pairs, result.num_unmerged_pairs);
        EXPECT_EQ(stats.num_pair_comparisons, result.num_pair_comparisons);
        EXPECT_EQ(stats.num_value_analyses, result.num_value_analyses);
        EXPECT_EQ(stats.num_sim_memo_hits, result.num_sim_memo_hits);
        EXPECT_EQ(stats.num_sim_memo_misses, result.num_sim_memo_misses);
        EXPECT_EQ(stats.sim_memo_bytes, result.sim_memo_bytes);
        EXPECT_EQ(stats.value_store_bytes, result.value_store_bytes);
        EXPECT_EQ(stats.num_dropped_blocks, result.num_dropped_blocks);
      });
}

// ---- Flush-by-flush goldens ---------------------------------------------------

uint64_t Fnv1a(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 0x100000001b3ull;
  }
  return h;
}

/// Chained over every flush: the partition and the merged-pair sequence
/// after each one, so a divergence at any flush changes the hash.
struct FlushFingerprint {
  uint64_t partition_hash = 0xcbf29ce484222325ull;
  uint64_t merged_hash = 0xcbf29ce484222325ull;
  int64_t merged_pairs = 0;  ///< After the last flush.
  int64_t merges = 0;        ///< Cumulative stats.num_merges.

  bool operator==(const FlushFingerprint&) const = default;
};

void AddFlush(IncrementalReconciler& reconciler, FlushFingerprint* fp) {
  const ReconcileResult result = reconciler.result();
  for (const int rep : result.cluster) {
    fp->partition_hash = Fnv1a(fp->partition_hash, static_cast<uint64_t>(rep));
  }
  for (const auto& [a, b] : result.merged_pairs) {
    fp->merged_hash =
        Fnv1a(fp->merged_hash,
              (static_cast<uint64_t>(a) << 32) | static_cast<uint64_t>(b));
  }
  fp->merged_pairs = static_cast<int64_t>(result.merged_pairs.size());
  fp->merges = result.stats.num_merges;
}

struct FlushGoldenRow {
  const char* dataset;
  bool constraints;
  FlushFingerprint want;
};

// Recorded at one thread; the sweep asserts every thread count
// reproduces these exactly.
constexpr FlushGoldenRow kFlushGolden[] = {
    {"PIM-B", true, {0x2a559dd39db38cc6ull, 0xf97af87a5a1f9dfbull, 1285, 1299}},
    {"PIM-B", false, {0xd95ea5192e016b57ull, 0xedba95868d00a4ceull, 1297, 1311}},
    {"Cora", true, {0xf4b993926d35053bull, 0x6793c34df0c15428ull, 1905, 2600}},
    {"Cora", false, {0xf4b993926d35053bull, 0x6793c34df0c15428ull, 1905, 2600}},
};

bool RegenMode() { return std::getenv("RECON_REGEN_GOLDENS") != nullptr; }

constexpr int kGoldenFlushes = 16;

void FlushSweep(const Dataset& full, const std::string& name) {
  for (const bool constraints : {true, false}) {
    ReconcilerOptions options = ReconcilerOptions::DepGraph();
    options.premerge_equal_emails = false;
    options.constraints = constraints;
    FlushFingerprint first;
    for (const int threads : {1, 2, 4}) {
      SCOPED_TRACE(name + " constraints=" + std::to_string(constraints) +
                   " threads=" + std::to_string(threads));
      options.num_threads = threads;
      FlushFingerprint fp;
      ReplayIngest(full, options, kGoldenFlushes,
                   [&](IncrementalReconciler& reconciler, int) {
                     AddFlush(reconciler, &fp);
                   });
      if (threads == 1) {
        first = fp;
        if (RegenMode()) {
          std::printf("    {\"%s\", %s, {0x%016llxull, 0x%016llxull, %lld, "
                      "%lld}},\n",
                      name.c_str(), constraints ? "true" : "false",
                      static_cast<unsigned long long>(fp.partition_hash),
                      static_cast<unsigned long long>(fp.merged_hash),
                      static_cast<long long>(fp.merged_pairs),
                      static_cast<long long>(fp.merges));
        } else {
          const FlushGoldenRow* golden = nullptr;
          for (const FlushGoldenRow& row : kFlushGolden) {
            if (name == row.dataset && constraints == row.constraints) {
              golden = &row;
            }
          }
          ASSERT_NE(golden, nullptr) << "no golden row for this config";
          EXPECT_EQ(golden->want.partition_hash, fp.partition_hash);
          EXPECT_EQ(golden->want.merged_hash, fp.merged_hash);
          EXPECT_EQ(golden->want.merged_pairs, fp.merged_pairs);
          EXPECT_EQ(golden->want.merges, fp.merges);
        }
      } else {
        EXPECT_EQ(first, fp);
      }
    }
  }
}

TEST(IncrementalGoldenTest, PimBFlushSweep) {
  FlushSweep(ShuffledPimB(), "PIM-B");
}

TEST(IncrementalGoldenTest, CoraFlushSweep) {
  FlushSweep(ShuffledCora(), "Cora");
}

// ---- Kept closure -------------------------------------------------------------

// Flushes whose partition split a cluster the previous flush published:
// some reference left the cluster of the smallest member it had before.
bool SplitsACluster(const std::vector<int>& before,
                    const std::vector<int>& after) {
  for (size_t r = 0; r < before.size(); ++r) {
    if (after[r] != after[static_cast<size_t>(before[r])]) return true;
  }
  return false;
}

// After every flush — splitting flushes included — the kept closure must
// equal a from-scratch closure over the same graph, partition and merged
// pairs alike. On the PIM B ingest negative propagation demotes merged
// pairs, so a flush splits a published cluster, and the unmerge counter
// says so. (The Cora ingest never demotes a merged pair.)
void ExpectKeptClosureExact(const Dataset& full, const std::string& name,
                            bool expect_split) {
  ReconcilerOptions options = ReconcilerOptions::DepGraph();
  options.premerge_equal_emails = false;
  for (const int threads : {1, 4}) {
    SCOPED_TRACE(name + " threads=" + std::to_string(threads));
    options.num_threads = threads;
    int splitting_flushes = 0;
    int64_t unmerged_pairs = 0;
    std::vector<int> before;
    ReplayIngest(full, options, kGoldenFlushes,
                 [&](IncrementalReconciler& reconciler, int flush) {
                   const ReconcileResult result = reconciler.result();
                   std::vector<std::pair<RefId, RefId>> fresh_pairs;
                   const std::vector<int> fresh =
                       reconciler.solver().Closure(&fresh_pairs);
                   EXPECT_EQ(result.cluster, fresh) << "flush " << flush;
                   EXPECT_EQ(result.merged_pairs, fresh_pairs)
                       << "flush " << flush;
                   if (SplitsACluster(before, result.cluster)) {
                     ++splitting_flushes;
                   }
                   before = result.cluster;
                   unmerged_pairs = result.stats.num_unmerged_pairs;
                 });
    if (expect_split) {
      EXPECT_GT(splitting_flushes, 0);
      EXPECT_GT(unmerged_pairs, 0);
    }
  }
}

TEST(IncrementalClosureTest, PimBKeptClosureMatchesFreshAfterEveryFlush) {
  // Shuffle 10 is the one among 1-14 whose 16 flushes split a cluster: a
  // later batch's constraint demotes a merged pair.
  ExpectKeptClosureExact(ShuffledPimB(/*seed=*/10), "PIM-B",
                         /*expect_split=*/true);
}

TEST(IncrementalClosureTest, CoraKeptClosureMatchesFreshAfterEveryFlush) {
  ExpectKeptClosureExact(ShuffledCora(), "Cora", /*expect_split=*/false);
}

// ---- Dirty-set negative propagation ---------------------------------------

// After every flush, a full negative-propagation pass (every reference
// dirty) must find nothing left to demote: the per-flush passes, which only
// revisit sources next to a change, reached the same fixpoint.
void ExpectNegativeFixpoint(const Dataset& full, const std::string& name) {
  ReconcilerOptions options = ReconcilerOptions::DepGraph();
  options.premerge_equal_emails = false;
  for (const int threads : {1, 2, 4}) {
    SCOPED_TRACE(name + " threads=" + std::to_string(threads));
    options.num_threads = threads;
    ReplayIngest(full, options, kGoldenFlushes,
                 [&](IncrementalReconciler& reconciler, int flush) {
                   EXPECT_EQ(reconciler.RecheckNegativeEvidence(), 0)
                       << "flush " << flush;
                 });
  }
}

TEST(IncrementalNegativeTest, PimBFixpointAfterEveryFlush) {
  ExpectNegativeFixpoint(ShuffledPimB(), "PIM-B");
}

TEST(IncrementalNegativeTest, CoraFixpointAfterEveryFlush) {
  ExpectNegativeFixpoint(ShuffledCora(), "Cora");
}

// What a flush costs must follow its batch, not the corpus. Over 64 flushes
// of 16 references the corpus grows by half and its non-merge pairs (each
// batch's constraints, and the derived pairs their triangles demote)
// several times over. A full pass examines every source among them; the
// dirty-set pass examines the ones next to a change, a share that must
// shrink as the corpus grows. Pool repacks are amortized: a pool is
// repacked only once its garbage outweighs its live data, so repacks stay
// well below one per flush.
TEST(IncrementalCostTest, NegpropSourcesAndCompactionsDoNotTrackTheCorpus) {
  const Dataset full = Shuffled(
      datagen::GeneratePim(datagen::ScaleConfig(datagen::PimConfigB(), 0.08)),
      /*seed=*/13);
  ReconcilerOptions options = ReconcilerOptions::DepGraph();
  options.premerge_equal_emails = false;
  constexpr int kFlushes = 64;
  std::vector<double> share;       // negprop_sources / num_non_merge_pairs.
  std::vector<int64_t> non_merge;
  std::vector<int64_t> compactions;
  ReplayIngest(full, options, kFlushes,
               [&](IncrementalReconciler& reconciler, int) {
                 // Exact on this longer ingest too.
                 EXPECT_EQ(reconciler.RecheckNegativeEvidence(), 0);
                 const ReconcileStats stats = reconciler.result().stats;
                 ASSERT_GT(stats.num_non_merge_pairs, 0);
                 non_merge.push_back(stats.num_non_merge_pairs);
                 share.push_back(
                     static_cast<double>(stats.negprop_sources) /
                     static_cast<double>(stats.num_non_merge_pairs));
                 compactions.push_back(stats.graph_compactions);
               });
  ASSERT_EQ(share.size(), static_cast<size_t>(kFlushes + 1));
  auto mean = [](const std::vector<double>& v, int from, int to) {
    double sum = 0;
    for (int i = from; i < to; ++i) sum += v[static_cast<size_t>(i)];
    return sum / (to - from);
  };
  // Flush 0 reconciles the initial dataset, where every pair is new.
  const double first = mean(share, 1, 9);
  const double last = mean(share, kFlushes - 7, kFlushes + 1);
  EXPECT_GT(non_merge[kFlushes], 4 * non_merge[1]);
  EXPECT_LT(last, first * 0.75) << "first eight " << first << ", last eight "
                                << last;
  // Repacks come at a non-rising rate, below one per two flushes.
  const int64_t first_half = compactions[kFlushes / 2] - compactions[0];
  const int64_t second_half = compactions[kFlushes] - compactions[kFlushes / 2];
  EXPECT_LE(second_half, first_half);
  EXPECT_LT(compactions[kFlushes] - compactions[0], kFlushes / 2);
}

}  // namespace
}  // namespace recon
