// The interned value store + similarity memo (DESIGN.md §11), the graph
// build's only scoring path. Every channel must score analyzed PIM and
// Cora values exactly as strsim's raw-string functions score the raw
// strings, so the analysis loses nothing those functions read; the memo's
// counters are deterministic across thread counts {1, 2, 4, 8}; and memo
// byte bounds down to bypass, alone or under a soft memory budget, leave
// partitions, merged pairs and stats unchanged on PIM and Cora data,
// across thread counts, constraints on/off, enrichment on/off, evidence
// levels and incremental flushes. Runs under
// ThreadSanitizer (ctest label `tsan`) because the memo is shared across
// staging lanes, and under AddressSanitizer (`asan`) because eviction and
// bypass exercise the degradation paths.

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/incremental.h"
#include "core/reconciler.h"
#include "datagen/cora_generator.h"
#include "datagen/pim_generator.h"
#include "eval/metrics.h"
#include "core/schema_binding.h"
#include "sim/evidence.h"
#include "sim/value_store.h"
#include "strsim/email.h"
#include "strsim/person_name.h"
#include "strsim/title.h"
#include "strsim/venue.h"
#include "util/string_util.h"

namespace recon {
namespace {

Dataset SmallPim() {
  datagen::PimConfig config = datagen::PimConfigA();
  config = datagen::ScaleConfig(config, 0.10);
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

/// Distinct raw values of one atomic attribute, in first-seen order,
/// capped so the all-pairs equivalence checks stay fast.
std::vector<std::string> DistinctValues(const Dataset& dataset, int class_id,
                                        int attr, size_t cap = 48) {
  std::vector<std::string> out;
  if (class_id < 0 || attr < 0) return out;
  for (RefId id = 0; id < dataset.num_references(); ++id) {
    const Reference& r = dataset.reference(id);
    if (r.class_id() != class_id) continue;
    for (const std::string& raw : r.atomic_values(attr)) {
      if (std::find(out.begin(), out.end(), raw) == out.end()) {
        out.push_back(raw);
        if (out.size() >= cap) return out;
      }
    }
  }
  return out;
}

// ---- Interning and analysis ----------------------------------------------

TEST(ValueStoreTest, SyncAnalyzesEachValueOnceAndCoversThePool) {
  ValuePool pool;
  const ValueDomain names{0, 0};
  const ValueDomain emails{0, 1};
  ValueKindSchema schema;
  schema.kinds.emplace_back(names, FeatureKind::kPersonName);
  schema.kinds.emplace_back(emails, FeatureKind::kEmail);

  const ValueId a = pool.Intern(names, "Alice Smith");
  const ValueId a2 = pool.Intern(names, "Alice Smith");
  const ValueId b = pool.Intern(names, "Bob Jones");
  const ValueId e = pool.Intern(emails, "alice@example.com");
  EXPECT_EQ(a, a2);  // Interning is idempotent per (domain, string).
  EXPECT_NE(a, b);

  ValueStore store(schema);
  store.Sync(pool);
  EXPECT_EQ(store.size(), pool.size());
  EXPECT_EQ(store.num_analyses(), static_cast<int64_t>(pool.size()));
  EXPECT_TRUE(store.Covers(a));
  EXPECT_TRUE(store.Covers(e));
  EXPECT_FALSE(store.Covers(kInvalidValue));

  const ValueFeatures& fa = store.features(a);
  EXPECT_EQ(fa.kind, FeatureKind::kPersonName);
  EXPECT_EQ(fa.lower, "alice smith");
  EXPECT_EQ(fa.name.last, "smith");
  const ValueFeatures& fe = store.features(e);
  EXPECT_EQ(fe.kind, FeatureKind::kEmail);
  EXPECT_EQ(fe.email.account, "alice");
  EXPECT_EQ(fe.email.server, "example.com");
  EXPECT_GT(store.approximate_bytes(), 0);

  // A second Sync over an extended pool analyzes only the new values.
  const ValueId c = pool.Intern(names, "Carol Mint");
  store.Sync(pool);
  EXPECT_EQ(store.num_analyses(), static_cast<int64_t>(pool.size()));
  EXPECT_EQ(store.features(c).name.last, "mint");
  // Previously analyzed features are untouched by the extension.
  EXPECT_EQ(store.features(a).lower, "alice smith");
}

TEST(ValueStoreTest, UnregisteredDomainsGetGenericFeatures) {
  ValueKindSchema schema;
  EXPECT_EQ(schema.KindOf(ValueDomain{3, 7}), FeatureKind::kGeneric);
  const ValueFeatures f = AnalyzeValue("Some Raw TEXT", FeatureKind::kGeneric);
  EXPECT_EQ(f.kind, FeatureKind::kGeneric);
  // Nothing reads a generic value, so not even a lowercase copy is kept.
  EXPECT_TRUE(f.lower.empty());
}

/// The kinds whose ValueFeatures fields `f` populates.
std::vector<FeatureKind> PopulatedKinds(const ValueFeatures& f) {
  std::vector<FeatureKind> kinds;
  if (!f.lower.empty() || !f.name.given.empty() || !f.name.last.empty()) {
    kinds.push_back(FeatureKind::kPersonName);
  }
  if (!f.email.empty()) kinds.push_back(FeatureKind::kEmail);
  if (!f.title.normalized.empty() || !f.title.tokens.empty()) {
    kinds.push_back(FeatureKind::kTitle);
  }
  if (!f.venue.lower.empty()) kinds.push_back(FeatureKind::kVenueName);
  if (!f.year.trimmed.empty()) kinds.push_back(FeatureKind::kYear);
  if (!f.pages.trimmed.empty()) kinds.push_back(FeatureKind::kPages);
  if (!f.location.lower.empty()) kinds.push_back(FeatureKind::kLocation);
  return kinds;
}

TEST(ValueStoreTest, AnalyzeValueFillsOnlyItsKindsFields) {
  const std::pair<FeatureKind, std::string> kSamples[] = {
      {FeatureKind::kGeneric, "Some Raw TEXT"},
      {FeatureKind::kPersonName, "Robert S. Epstein"},
      {FeatureKind::kEmail, "Epstein@MIT.edu"},
      {FeatureKind::kTitle, "Query Optimization in Databases"},
      {FeatureKind::kVenueName, "Proc. of the VLDB Conference"},
      {FeatureKind::kYear, " 1998 "},
      {FeatureKind::kPages, "12-24"},
      {FeatureKind::kLocation, "Austin, Texas"},
  };
  for (const auto& [kind, raw] : kSamples) {
    SCOPED_TRACE(raw);
    const ValueFeatures f = AnalyzeValue(raw, kind);
    EXPECT_EQ(f.kind, kind);
    // Only person names keep their lowercase form.
    EXPECT_EQ(f.lower, kind == FeatureKind::kPersonName ? ToLower(raw) : "");
    const std::vector<FeatureKind> expected =
        kind == FeatureKind::kGeneric ? std::vector<FeatureKind>{}
                                      : std::vector<FeatureKind>{kind};
    EXPECT_EQ(PopulatedKinds(f), expected);
  }
  // Empty input populates nothing, whatever its kind.
  for (const auto& [kind, raw] : kSamples) {
    const ValueFeatures f = AnalyzeValue("", kind);
    EXPECT_TRUE(f.lower.empty());
    EXPECT_TRUE(PopulatedKinds(f).empty()) << static_cast<int>(kind);
  }
}

TEST(ValueStoreTest, StoreBytesAreTheSumOfItsFeatures) {
  const Dataset dataset = SmallCora();
  const SchemaBinding binding = SchemaBinding::Resolve(dataset.schema());
  ValuePool pool;
  ValueStore store(MakeValueKindSchema(binding));
  const auto expect_sum = [&] {
    int64_t sum = 0;
    for (ValueId id = 0; id < store.size(); ++id) {
      sum += store.features(id).ApproximateBytes();
    }
    EXPECT_EQ(store.approximate_bytes(), sum);
  };
  // Two Syncs, so the second adds only the new values' records.
  const RefId half = dataset.num_references() / 2;
  for (const auto& [first, last] :
       {std::pair<RefId, RefId>{0, half},
        std::pair<RefId, RefId>{half, dataset.num_references()}}) {
    for (RefId id = first; id < last; ++id) {
      const Reference& r = dataset.reference(id);
      for (int attr = 0; attr < r.num_attributes(); ++attr) {
        for (const std::string& raw : r.atomic_values(attr)) {
          pool.Intern(ValueDomain{r.class_id(), attr}, raw);
        }
      }
    }
    store.Sync(pool);
    ASSERT_EQ(store.size(), pool.size());
    expect_sum();
  }
  // A kind's analysis adds its strings to the record's footprint.
  const std::string title = "Query Optimization in Relational Databases";
  EXPECT_LT(AnalyzeValue(title, FeatureKind::kGeneric).ApproximateBytes(),
            AnalyzeValue(title, FeatureKind::kTitle).ApproximateBytes());
}

// ---- Feature / raw comparator equivalence --------------------------------

// ---- The channel table ---------------------------------------------------

std::vector<int> EvidenceOf(std::span<const AtomicChannel> rows) {
  std::vector<int> out;
  for (const AtomicChannel& row : rows) out.push_back(row.evidence);
  return out;
}

TEST(AtomicChannelsTest, RowsInTableOrderWithUnboundAndHigherLevelsOmitted) {
  const SchemaBinding pim = SchemaBinding::Resolve(BuildPimSchema());
  const std::vector<AtomicChannel> table = AtomicChannels(pim);
  EXPECT_EQ(EvidenceOf(table),
            (std::vector<int>{kEvPersonName, kEvPersonEmail,
                              kEvPersonNameEmail, kEvArticleTitle,
                              kEvArticleYear, kEvArticlePages, kEvVenueName,
                              kEvVenueYear, kEvVenueLocation}));
  EXPECT_EQ(EvidenceOf(ClassChannels(table, pim.article)),
            (std::vector<int>{kEvArticleTitle, kEvArticleYear,
                              kEvArticlePages}));
  EXPECT_TRUE(ClassChannels(table, -1).empty());
  // The name~email row appears once, reads name against email, and only
  // from kNameEmail up.
  const AtomicChannel& ne = table[2];
  EXPECT_EQ(ne.attr_a, pim.person_name);
  EXPECT_EQ(ne.attr_b, pim.person_email);
  EXPECT_TRUE(ne.cross());
  EXPECT_EQ(ne.level, EvidenceLevel::kNameEmail);
  EXPECT_EQ(EvidenceOf(ClassChannels(
                AtomicChannels(pim, EvidenceLevel::kAttrWise),
                pim.person)),
            (std::vector<int>{kEvPersonName, kEvPersonEmail}));
  // Only names carry the zero rule and only venue names propagate merges;
  // years, pages and locations wait for the class's ungated rows.
  for (const AtomicChannel& row : table) {
    EXPECT_EQ(row.zero_when_dissimilar, row.evidence == kEvPersonName);
    EXPECT_EQ(row.propagate_merge, row.evidence == kEvVenueName);
    EXPECT_EQ(row.gated, row.evidence == kEvArticleYear ||
                             row.evidence == kEvArticlePages ||
                             row.evidence == kEvVenueYear ||
                             row.evidence == kEvVenueLocation);
  }
  // Cora binds no Person.email: its rows and the cross row go.
  const SchemaBinding cora = SchemaBinding::Resolve(BuildCoraSchema());
  EXPECT_EQ(EvidenceOf(ClassChannels(AtomicChannels(cora), cora.person)),
            (std::vector<int>{kEvPersonName}));
}

/// strsim's raw-string function for each atomic channel; it parses both
/// strings on every call.
double StrsimRawSimilarity(int evidence, const std::string& a,
                           const std::string& b) {
  switch (evidence) {
    case kEvPersonName:
      return strsim::PersonNameSimilarity(a, b);
    case kEvPersonEmail:
      return strsim::EmailSimilarity(a, b);
    case kEvPersonNameEmail:
      return strsim::NameEmailSimilarity(a, b);
    case kEvArticleTitle:
      return strsim::TitleSimilarity(a, b);
    case kEvArticleYear:
    case kEvVenueYear:
      return strsim::YearSimilarity(a, b);
    case kEvArticlePages:
      return strsim::PagesSimilarity(a, b);
    case kEvVenueName:
      return strsim::VenueNameSimilarity(a, b);
    case kEvVenueLocation:
      return strsim::LocationSimilarity(a, b);
    default:
      ADD_FAILURE() << "no strsim function for " << EvidenceName(evidence);
      return -1.0;
  }
}

/// The channel's score of two analyzed values. Person names are taken
/// before the field comparator's caps (ComparatorsTest covers those), the
/// form strsim's raw-string function returns.
double AnalyzedSimilarity(int evidence, const ValueFeatures& a,
                          const ValueFeatures& b) {
  if (evidence == kEvPersonName) {
    return strsim::PersonNameSimilarity(a.name, b.name);
  }
  return FeaturePairSimilarity(evidence, a, b);
}

/// Every channel row of the AtomicChannels table must score a pair of
/// analyzed values exactly as strsim scores the raw strings: AnalyzeValue
/// keeps everything the comparators read. A cross-attribute row is
/// checked with the features in both argument orders of the
/// kind-dispatching feature form.
void ExpectComparatorEquivalence(const Dataset& dataset,
                                 const std::string& label) {
  SCOPED_TRACE(label);
  const SchemaBinding binding = SchemaBinding::Resolve(dataset.schema());
  const ValueKindSchema kinds = MakeValueKindSchema(binding);
  const std::vector<AtomicChannel> table = AtomicChannels(binding);
  ASSERT_FALSE(table.empty());
  for (const AtomicChannel& row : table) {
    SCOPED_TRACE(EvidenceName(row.evidence));
    const size_t cap = row.cross() ? 24 : 48;
    const std::vector<std::string> values_a =
        DistinctValues(dataset, row.class_id, row.attr_a, cap);
    const std::vector<std::string> values_b =
        DistinctValues(dataset, row.class_id, row.attr_b, cap);
    EXPECT_FALSE(values_a.empty());
    auto analyze = [&](const std::vector<std::string>& values, int attr) {
      std::vector<ValueFeatures> features;
      for (const std::string& v : values) {
        features.push_back(
            AnalyzeValue(v, kinds.KindOf(ValueDomain{row.class_id, attr})));
      }
      return features;
    };
    const std::vector<ValueFeatures> features_a =
        analyze(values_a, row.attr_a);
    const std::vector<ValueFeatures> features_b =
        analyze(values_b, row.attr_b);
    for (size_t i = 0; i < values_a.size(); ++i) {
      // A same-attribute row is symmetric: each unordered pair once.
      for (size_t j = row.cross() ? 0 : i; j < values_b.size(); ++j) {
        const double raw = StrsimRawSimilarity(row.evidence, values_a[i],
                                               values_b[j]);
        ASSERT_EQ(raw, AnalyzedSimilarity(row.evidence, features_a[i],
                                          features_b[j]))
            << "\"" << values_a[i] << "\" vs \"" << values_b[j] << "\"";
        if (row.cross()) {
          ASSERT_EQ(raw, AnalyzedSimilarity(row.evidence, features_b[j],
                                            features_a[i]));
        }
      }
    }
  }
}

TEST(ValueStoreTest, ComparatorsMatchRawOnPim) {
  ExpectComparatorEquivalence(SmallPim(), "PIM-A");
}

TEST(ValueStoreTest, ComparatorsMatchRawOnCora) {
  ExpectComparatorEquivalence(SmallCora(), "Cora");
}

// ---- Memo determinism and degradation ------------------------------------

/// Runs `reference` and `options`, which differ only in the memo bound,
/// and asserts every observable output matches (the memo counters are
/// exempt — they exist precisely to differ).
void ExpectSameOutput(const Dataset& dataset,
                      const ReconcilerOptions& reference,
                      const ReconcilerOptions& options,
                      const std::string& label) {
  SCOPED_TRACE(label);
  const ReconcileResult want = Reconciler(reference).Run(dataset);
  const ReconcileResult got = Reconciler(options).Run(dataset);

  EXPECT_EQ(want.cluster, got.cluster);
  EXPECT_EQ(want.merged_pairs, got.merged_pairs);
  EXPECT_EQ(want.stats.num_candidates, got.stats.num_candidates);
  EXPECT_EQ(want.stats.num_nodes, got.stats.num_nodes);
  EXPECT_EQ(want.stats.num_live_nodes, got.stats.num_live_nodes);
  EXPECT_EQ(want.stats.num_edges, got.stats.num_edges);
  EXPECT_EQ(want.stats.num_recomputations, got.stats.num_recomputations);
  EXPECT_EQ(want.stats.num_merges, got.stats.num_merges);
  EXPECT_EQ(want.stats.num_folds, got.stats.num_folds);
  EXPECT_EQ(want.stats.num_pair_comparisons, got.stats.num_pair_comparisons);
  EXPECT_EQ(want.stats.stop_reason, got.stats.stop_reason);

  for (int c = 0; c < dataset.schema().num_classes(); ++c) {
    const PairMetrics m_want = EvaluateClass(dataset, want.cluster, c);
    const PairMetrics m_got = EvaluateClass(dataset, got.cluster, c);
    EXPECT_EQ(m_want.precision, m_got.precision);
    EXPECT_EQ(m_want.recall, m_got.recall);
    EXPECT_EQ(m_want.f1, m_got.f1);
    EXPECT_EQ(m_want.num_partitions, m_got.num_partitions);
  }
}

/// A copy of `options` whose memo is too small to hold an entry, so every
/// lookup recomputes the similarity from the store's features.
ReconcilerOptions Bypassed(ReconcilerOptions options) {
  options.sim_memo_max_bytes = 64;
  return options;
}

TEST(ValueStoreTest, PimSweep) {
  const Dataset dataset = SmallPim();
  for (const int threads : {1, 2, 4, 8}) {
    for (const bool constraints : {true, false}) {
      for (const bool enrichment : {true, false}) {
        ReconcilerOptions options = ReconcilerOptions::DepGraph();
        options.num_threads = threads;
        options.constraints = constraints;
        options.enrichment = enrichment;
        ExpectSameOutput(
            dataset, Bypassed(options), options,
            "PIM-A threads=" + std::to_string(threads) +
                " constraints=" + std::to_string(constraints) +
                " enrichment=" + std::to_string(enrichment));
      }
    }
  }
}

TEST(ValueStoreTest, CoraSweep) {
  const Dataset dataset = SmallCora();
  for (const int threads : {1, 2, 4, 8}) {
    ReconcilerOptions options = ReconcilerOptions::DepGraph();
    options.num_threads = threads;
    ExpectSameOutput(dataset, Bypassed(options), options,
                     "Cora threads=" + std::to_string(threads));
  }
}

TEST(ValueStoreTest, EvidenceLevelsMatch) {
  const Dataset dataset = SmallPim();
  for (const EvidenceLevel level :
       {EvidenceLevel::kAttrWise, EvidenceLevel::kNameEmail,
        EvidenceLevel::kArticle, EvidenceLevel::kContact}) {
    ReconcilerOptions options = ReconcilerOptions::DepGraph();
    options.evidence_level = level;
    ExpectSameOutput(dataset, Bypassed(options), options,
                     "level=" + std::to_string(static_cast<int>(level)));
  }
}

TEST(ValueStoreTest, IncrementalBatchesMatch) {
  // Incremental reconciliation interns, syncs and memoizes per flush; its
  // batches must be byte-identical with the memo shared or bypassed.
  const Dataset dataset = SmallPim();
  std::vector<ReconcileResult> results;
  for (const bool bypass : {true, false}) {
    ReconcilerOptions options = ReconcilerOptions::DepGraph();
    if (bypass) options = Bypassed(options);
    IncrementalReconciler inc(Dataset(dataset.schema()), options);
    for (RefId id = 0; id < dataset.num_references(); ++id) {
      inc.AddReference(dataset.reference(id), /*gold_entity=*/-1,
                       dataset.provenance(id));
      if (id % 97 == 0) inc.Flush();
    }
    const ReconcileResult result = inc.result();
    EXPECT_GT(result.stats.num_value_analyses, 0);
    if (bypass) {
      EXPECT_GT(result.stats.num_sim_memo_bypasses, 0);
      EXPECT_EQ(result.stats.num_sim_memo_hits, 0);
    } else {
      EXPECT_GT(result.stats.num_sim_memo_hits, 0);
      EXPECT_GT(result.stats.num_sim_memo_misses, 0);
    }
    results.push_back(result);
  }
  EXPECT_EQ(results[0].cluster, results[1].cluster);
  EXPECT_EQ(results[0].merged_pairs, results[1].merged_pairs);
  EXPECT_EQ(results[0].stats.num_merges, results[1].stats.num_merges);
  EXPECT_EQ(results[0].stats.num_pair_comparisons,
            results[1].stats.num_pair_comparisons);
}

TEST(ValueStoreTest, MemoCountersDeterministicAcrossThreadCounts) {
  const Dataset dataset = SmallPim();
  ReconcileResult first;
  for (const int threads : {1, 2, 4, 8}) {
    ReconcilerOptions options = ReconcilerOptions::DepGraph();
    options.num_threads = threads;
    const ReconcileResult result = Reconciler(options).Run(dataset);
    // Compute-under-lock: misses = distinct (evidence, v1, v2) keys, a
    // property of the candidate set, not of the schedule.
    if (threads == 1) {
      first = result;
      EXPECT_GT(first.stats.num_sim_memo_hits, 0);
      EXPECT_GT(first.stats.num_sim_memo_misses, 0);
      EXPECT_EQ(first.stats.num_sim_memo_evictions, 0);
      EXPECT_EQ(first.stats.num_sim_memo_bypasses, 0);
      EXPECT_GT(first.stats.sim_memo_bytes, 0);
      EXPECT_GT(first.stats.value_store_bytes, 0);
      continue;
    }
    SCOPED_TRACE("threads=" + std::to_string(threads));
    EXPECT_EQ(result.stats.num_pair_comparisons,
              first.stats.num_pair_comparisons);
    EXPECT_EQ(result.stats.num_value_analyses,
              first.stats.num_value_analyses);
    EXPECT_EQ(result.stats.num_sim_memo_hits, first.stats.num_sim_memo_hits);
    EXPECT_EQ(result.stats.num_sim_memo_misses,
              first.stats.num_sim_memo_misses);
    EXPECT_EQ(result.stats.sim_memo_bytes, first.stats.sim_memo_bytes);
  }
}

TEST(ValueStoreTest, AnalysesScaleWithDistinctValuesNotPairs) {
  // The point of the store: each distinct value is analyzed once, while
  // pair comparisons scale with the candidate cross products.
  const Dataset dataset = SmallPim();
  const ReconcilerOptions options = ReconcilerOptions::DepGraph();
  const ReconcileResult result = Reconciler(options).Run(dataset);
  EXPECT_GT(result.stats.num_pair_comparisons,
            5 * result.stats.num_value_analyses);
}

TEST(ValueStoreTest, PimBComparisonsOutnumberAnalysesFiveToOne) {
  // bench/perf_reconcile's value-store gate, at a scale that keeps the
  // suite fast: a full DepGraph run on PIM B analyzes each distinct value
  // once, so pair comparisons outnumber value analyses at least 5 to 1
  // (about 35 to 1 at 0.1x, 182 to 1 at 1x).
  const Dataset dataset = datagen::GeneratePim(
      datagen::ScaleConfig(datagen::PimConfigB(), 0.1));
  const ReconcileResult result =
      Reconciler(ReconcilerOptions::DepGraph()).Run(dataset);
  EXPECT_GE(result.stats.num_pair_comparisons,
            5 * result.stats.num_value_analyses);
}

TEST(ValueStoreTest, TinyMemoBoundDegradesWithoutChangingOutput) {
  const Dataset dataset = SmallPim();
  // Lookups (hits + misses) of the evicting run per thread count: one per
  // compared non-equal value pair, so the total is thread-independent even
  // where eviction timing moves the hit/miss split.
  std::vector<int64_t> evicting_lookups;
  for (const int threads : {1, 4}) {
    // Small enough to force shard evictions, large enough to stay active.
    ReconcilerOptions reference = ReconcilerOptions::DepGraph();
    reference.num_threads = threads;
    ReconcilerOptions options = reference;
    options.sim_memo_max_bytes = 64 * SimMemo::kEntryBytes * 10;
    ExpectSameOutput(dataset, reference, options,
                     "evicting threads=" + std::to_string(threads));
    const ReconcileResult evicting = Reconciler(options).Run(dataset);
    EXPECT_GT(evicting.stats.num_sim_memo_evictions, 0);
    EXPECT_LE(evicting.stats.sim_memo_bytes, options.sim_memo_max_bytes);
    evicting_lookups.push_back(evicting.stats.num_sim_memo_hits +
                               evicting.stats.num_sim_memo_misses);

    // Too small for even a handful of entries per shard: bypass.
    options.sim_memo_max_bytes = 64;
    ExpectSameOutput(dataset, reference, options,
                     "bypass threads=" + std::to_string(threads));
    const ReconcileResult bypassing = Reconciler(options).Run(dataset);
    EXPECT_GT(bypassing.stats.num_sim_memo_bypasses, 0);
    EXPECT_EQ(bypassing.stats.num_sim_memo_hits, 0);
    EXPECT_EQ(bypassing.stats.sim_memo_bytes, 0);
  }
  ASSERT_EQ(evicting_lookups.size(), 2u);
  EXPECT_EQ(evicting_lookups[0], evicting_lookups[1]);
}

TEST(ValueStoreTest, SoftMemoryBudgetShrinksMemoNotOutput) {
  // A soft memory budget below the default memo bound caps the memo; the
  // budget estimate counts the graph and the live staging window, never
  // the memo, so stops (and output) are identical to a run whose memo is
  // bypassed outright: the memo never moves a budget stop.
  const Dataset dataset = SmallPim();
  ReconcilerOptions options = ReconcilerOptions::DepGraph();
  options.budget.soft_max_memory_bytes = 256 << 10;
  ExpectSameOutput(dataset, Bypassed(options), options, "soft-budget");
}

}  // namespace
}  // namespace recon
