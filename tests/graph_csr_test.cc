// Determinism sweep for the CSR dependency graph: datasets × threads
// {1, 2, 4, 8} × {constraints, budgets} must produce
// byte-identical partitions and stats, equal to the golden fingerprints
// committed below. The goldens pin the output across commits: a change in
// CSR layout, the parallel build, or budget probing that alters any
// partition, merge order, or deterministic counter fails here even if it
// is self-consistent across thread counts.
//
// Runs under both sanitizers via the ctest `asan` and `tsan` labels
// (tools/check_asan.sh, tools/check_tsan.sh).
//
// Regenerating goldens after an *intended* output change:
//   RECON_REGEN_GOLDENS=1 build/tests/graph_csr_test | grep '    {'
// and paste the printed rows over kGolden below.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "baseline/fellegi_sunter.h"
#include "core/candidates.h"
#include "core/graph_builder.h"
#include "core/premerge.h"
#include "core/reconciler.h"
#include "core/schema_binding.h"
#include "datagen/cora_generator.h"
#include "datagen/pim_generator.h"
#include "invariants.h"
#include "model/dataset.h"
#include "sim/class_sim.h"
#include "sim/evidence.h"
#include "sim/params.h"
#include "sim/value_store.h"
#include "util/fault_injection.h"

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

/// Everything about a run that must be bit-stable: an order-sensitive hash
/// of the partition and the direct merge sequence, plus the deterministic
/// counters. Wall times and graph_bytes (padding- and platform-dependent)
/// are deliberately excluded.
struct Fingerprint {
  uint64_t hash = 0;
  int64_t merges = 0;
  int64_t folds = 0;
  int64_t recomputations = 0;
  int64_t nodes = 0;
  int64_t edges = 0;

  bool operator==(const Fingerprint&) const = default;
};

uint64_t Fnv1a(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 0x100000001b3ull;
  }
  return h;
}

Fingerprint FingerprintOf(const ReconcileResult& result) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (const int rep : result.cluster) {
    h = Fnv1a(h, static_cast<uint64_t>(rep));
  }
  // merged_pairs is the *direct* merge sequence in commit order, so the
  // hash also pins the canonical merge order, not just the final
  // partition.
  for (const auto& [a, b] : result.merged_pairs) {
    h = Fnv1a(h, (static_cast<uint64_t>(a) << 32) | static_cast<uint64_t>(b));
  }
  return {h,
          result.stats.num_merges,
          result.stats.num_folds,
          result.stats.num_recomputations,
          result.stats.num_nodes,
          result.stats.num_edges};
}

struct GoldenRow {
  const char* dataset;
  bool constraints;
  bool budget;
  Fingerprint want;
};

// The sweep asserts every thread count reproduces these exactly.
constexpr GoldenRow kGolden[] = {
    {"PIM-A", true, false, {0x1f9a6ccc9ffec150ull, 885, 6375, 2003, 9675, 6602}},
    {"PIM-A", true, true, {0x60874c104dc80798ull, 25, 550, 71, 9675, 15061}},
    {"PIM-A", false, false, {0xd59ecdb0c50dd522ull, 895, 6229, 2190, 9386, 7014}},
    {"PIM-A", false, true, {0x60874c104dc80798ull, 25, 550, 71, 9386, 15509}},
    {"Cora", true, false, {0xbb0a4a8b3e398b2dull, 2061, 29546, 4723, 34375, 14644}},
    {"Cora", true, true, {0x87c0ee777da2fef1ull, 25, 1250, 92, 34375, 54747}},
    {"Cora", false, false, {0xbb0a4a8b3e398b2dull, 2061, 28874, 4743, 33606, 14714}},
    {"Cora", false, true, {0x87c0ee777da2fef1ull, 25, 1250, 92, 33606, 55569}},
    {"PIM-B-0.5", true, false, {0x7e531ee940ff5e7cull, 6274, 142836, 21155, 190347, 91306}},
};

bool RegenMode() { return std::getenv("RECON_REGEN_GOLDENS") != nullptr; }

void PrintGoldenRow(const std::string& dataset, bool constraints,
                    bool budget, const Fingerprint& fp) {
  std::printf(
      "    {\"%s\", %s, %s, {0x%016llxull, %lld, %lld, %lld, %lld, "
      "%lld}},\n",
      dataset.c_str(), constraints ? "true" : "false",
      budget ? "true" : "false",
      static_cast<unsigned long long>(fp.hash),
      static_cast<long long>(fp.merges), static_cast<long long>(fp.folds),
      static_cast<long long>(fp.recomputations),
      static_cast<long long>(fp.nodes), static_cast<long long>(fp.edges));
}

const GoldenRow* FindGolden(const std::string& dataset, bool constraints,
                            bool budget) {
  for (const GoldenRow& row : kGolden) {
    if (dataset == row.dataset && constraints == row.constraints &&
        budget == row.budget) {
      return &row;
    }
  }
  return nullptr;
}

void ExpectFingerprint(const Fingerprint& want, const Fingerprint& got) {
  EXPECT_EQ(want.hash, got.hash);
  EXPECT_EQ(want.merges, got.merges);
  EXPECT_EQ(want.folds, got.folds);
  EXPECT_EQ(want.recomputations, got.recomputations);
  EXPECT_EQ(want.nodes, got.nodes);
  EXPECT_EQ(want.edges, got.edges);
}

void SweepDataset(const Dataset& dataset, const std::string& dataset_name) {
  for (const bool constraints : {true, false}) {
    for (const bool budget : {false, true}) {
      ReconcilerOptions options = ReconcilerOptions::DepGraph();
      options.constraints = constraints;
      if (budget) {
        // Deterministic limits only (merge + iteration budgets probe at
        // fixed pop boundaries); a deadline would make the stop point
        // depend on wall time. Small enough to bind on both datasets.
        options.budget.max_merges = 25;
        options.budget.max_solver_iterations = 3000;
      }

      SCOPED_TRACE(dataset_name + " constraints=" +
                   std::to_string(constraints) +
                   " budget=" + std::to_string(budget));

      options.num_threads = 1;
      const ReconcileResult reference = Reconciler(options).Run(dataset);
      const Fingerprint reference_fp = FingerprintOf(reference);
      if (RegenMode()) {
        PrintGoldenRow(dataset_name, constraints, budget, reference_fp);
      } else {
        const GoldenRow* golden = FindGolden(dataset_name, constraints, budget);
        ASSERT_NE(golden, nullptr) << "no golden row for this config";
        ExpectFingerprint(golden->want, reference_fp);
      }
      if (budget) {
        EXPECT_EQ(reference.stats.num_merges, options.budget.max_merges);
      }

      for (const int threads : {2, 4, 8}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        options.num_threads = threads;
        const ReconcileResult run = Reconciler(options).Run(dataset);
        // Byte-identical partitions, merge sequence, and stats — against
        // one thread AND (transitively) the golden.
        EXPECT_EQ(reference.cluster, run.cluster);
        EXPECT_EQ(reference.merged_pairs, run.merged_pairs);
        ExpectFingerprint(reference_fp, FingerprintOf(run));
        EXPECT_EQ(reference.stats.num_live_nodes, run.stats.num_live_nodes);
        EXPECT_EQ(reference.stats.num_inedge_scans,
                  run.stats.num_inedge_scans);
        EXPECT_EQ(reference.stats.num_delta_pushes,
                  run.stats.num_delta_pushes);
        EXPECT_EQ(reference.stats.stop_reason, run.stats.stop_reason);
      }
    }
  }
}

TEST(GraphCsrTest, PimGoldenSweep) { SweepDataset(SmallPim(), "PIM-A"); }

TEST(GraphCsrTest, CoraGoldenSweep) { SweepDataset(SmallCora(), "Cora"); }

// ---- Staging windows -------------------------------------------------------
//
// The build stages and applies candidates kStageWindow at a time. The
// corpora above never fill one window; PIM B 0.5x seeds about five, so a
// pair lost, repeated or reordered at a window boundary shows here.

Dataset PimBHalf() {
  return datagen::GeneratePim(
      datagen::ScaleConfig(datagen::PimConfigB(), 0.5));
}

TEST(GraphCsrTest, PimBWindowedBuildGolden) {
  const Dataset dataset = PimBHalf();
  const GoldenRow* golden = FindGolden("PIM-B-0.5", true, false);
  ASSERT_NE(golden, nullptr);
  ReconcilerOptions options = ReconcilerOptions::DepGraph();
  for (const int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    options.num_threads = threads;
    const ReconcileResult run = Reconciler(options).Run(dataset);
    EXPECT_GE(run.stats.num_candidates, 3 * kStageWindow);
    if (RegenMode()) {
      PrintGoldenRow("PIM-B-0.5", true, false, FingerprintOf(run));
    } else {
      ExpectFingerprint(golden->want, FingerprintOf(run));
    }
  }
}

TEST(GraphCsrTest, BuildStopInSecondWindowIsValidAndDeterministic) {
  // The first kBuild probe of the second window: the graph holds exactly
  // the first window's pairs (and the constraint and feedback nodes, which
  // always run in full).
  const int64_t fire_at = kStageWindow / kBuildChunk;
  const Dataset dataset = PimBHalf();
  ReconcilerOptions options = ReconcilerOptions::DepGraph();
  const ReconcileResult full = Reconciler(options).Run(dataset);
  std::vector<ReconcileResult> runs;
  for (const int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    options.num_threads = threads;
    auto injector = std::make_shared<FaultInjector>(
        ProbePoint::kBuild, fire_at, StopReason::kDeadline);
    options.probe_hook = injector;
    runs.push_back(Reconciler(options).Run(dataset));
    const ReconcileResult& run = runs.back();
    EXPECT_EQ(injector->fired(), 1);
    EXPECT_EQ(run.stats.stop_reason, StopReason::kDeadline);
    EXPECT_EQ(invariants::CheckPartition(dataset, options, run),
              std::vector<std::string>{});
    EXPECT_GT(run.stats.num_nodes, 0);
    EXPECT_LT(run.stats.num_nodes, full.stats.num_nodes);
  }
  EXPECT_EQ(runs[0].cluster, runs[1].cluster);
  EXPECT_EQ(runs[0].merged_pairs, runs[1].merged_pairs);
  ExpectFingerprint(FingerprintOf(runs[0]), FingerprintOf(runs[1]));
}

TEST(GraphCsrTest, MemoryStopInSecondWindowIsValidAndDeterministic) {
  // The soft-memory estimate counts the graph plus the staged window. It
  // peaks near 13.6 MB at the end of the first window; a 14 MB budget
  // binds after the second window is staged. Staging spreads the window
  // over the lanes by schedule, so the estimate, and the probe it stops
  // at, must not depend on how many lanes there are.
  const int64_t probes_per_window = kStageWindow / kBuildChunk;
  const Dataset dataset = PimBHalf();
  ReconcilerOptions options = ReconcilerOptions::DepGraph();
  options.budget.soft_max_memory_bytes = 14'000'000;
  std::vector<ReconcileResult> runs;
  for (const int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    options.num_threads = threads;
    auto recorder = std::make_shared<ProbeRecorder>();
    options.probe_hook = recorder;
    runs.push_back(Reconciler(options).Run(dataset));
    const ReconcileResult& run = runs.back();
    EXPECT_EQ(run.stats.stop_reason, StopReason::kMemoryBudget);
    // The stopping probe is the last one recorded: past the second
    // window's first probe (made before it is staged), inside the window.
    EXPECT_GT(recorder->seen(ProbePoint::kBuild), probes_per_window + 1);
    EXPECT_LE(recorder->seen(ProbePoint::kBuild), 2 * probes_per_window);
    EXPECT_EQ(invariants::CheckPartition(dataset, options, run),
              std::vector<std::string>{});
  }
  EXPECT_EQ(runs[0].cluster, runs[1].cluster);
  EXPECT_EQ(runs[0].merged_pairs, runs[1].merged_pairs);
  ExpectFingerprint(FingerprintOf(runs[0]), FingerprintOf(runs[1]));
}

/// Runs Run's layers one at a time, as the benchmark driver times them:
/// premerge, candidate generation, a build seeded with those candidates
/// through BuildOverrides, RunOnGraph, and the expansion back to the
/// original references. The partition and merge count must equal Run's.
void ExpectStagedMatchesRun(const Dataset& dataset) {
  for (const int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ReconcilerOptions options = ReconcilerOptions::DepGraph();
    options.num_threads = threads;
    const Reconciler reconciler(options);
    const ReconcileResult run = reconciler.Run(dataset);

    const SchemaBinding binding = SchemaBinding::Resolve(dataset.schema());
    const PremergeResult premerge = PremergeEqualEmails(dataset, binding);
    const CandidateList candidates =
        GenerateCandidates(premerge.condensed, binding, options);
    BuildOverrides overrides;
    overrides.candidates = &candidates;
    BuiltGraph built = BuildDependencyGraph(premerge.condensed, options,
                                            nullptr, overrides);
    EXPECT_EQ(built.num_candidates, static_cast<int>(candidates.size()));
    const ReconcileResult condensed =
        reconciler.RunOnGraph(premerge.condensed, built);
    EXPECT_EQ(ExpandClusters(premerge, condensed.cluster), run.cluster);
    EXPECT_EQ(condensed.stats.num_merges, run.stats.num_merges);
    EXPECT_EQ(condensed.stats.stop_reason, run.stats.stop_reason);
  }
}

TEST(StagedRunTest, PimStagedLayersMatchRun) {
  ExpectStagedMatchesRun(SmallPim());
}

TEST(StagedRunTest, CoraStagedLayersMatchRun) {
  ExpectStagedMatchesRun(SmallCora());
}

// ---- Pair staging on hand-built pairs --------------------------------------
//
// §3.1 step 1 for single candidate pairs: which channel rows are compared,
// how often, and which evidence they leave on the pair's node.

class StagingTest : public ::testing::Test {
 protected:
  StagingTest() : data_(BuildPimSchema()) {
    const Schema& s = data_.schema();
    person_ = s.RequireClass("Person");
    article_ = s.RequireClass("Article");
    p_name_ = s.RequireAttribute(person_, "name");
    p_email_ = s.RequireAttribute(person_, "email");
    a_title_ = s.RequireAttribute(article_, "title");
    a_year_ = s.RequireAttribute(article_, "year");
  }

  RefId Person(const std::vector<std::string>& names,
               const std::vector<std::string>& emails) {
    const RefId id = data_.NewReference(person_, -1);
    for (const std::string& n : names) {
      data_.mutable_reference(id).AddAtomicValue(p_name_, n);
    }
    for (const std::string& e : emails) {
      data_.mutable_reference(id).AddAtomicValue(p_email_, e);
    }
    return id;
  }

  RefId Article(const std::string& title, const std::string& year) {
    const RefId id = data_.NewReference(article_, -1);
    data_.mutable_reference(id).AddAtomicValue(a_title_, title);
    data_.mutable_reference(id).AddAtomicValue(a_year_, year);
    return id;
  }

  /// Builds the graph over exactly the candidate pair (r1, r2).
  BuiltGraph Build(RefId r1, RefId r2,
                   EvidenceLevel level = EvidenceLevel::kContact) {
    ReconcilerOptions options = ReconcilerOptions::DepGraph();
    options.evidence_level = level;
    const CandidateList candidates = {{r1, r2}};
    BuildOverrides overrides;
    overrides.candidates = &candidates;
    return BuildDependencyGraph(data_, options, nullptr, overrides);
  }

  /// The static evidence of `evidence` on node m, or -1 when it has none.
  static double StaticOf(const BuiltGraph& built, NodeId m, int evidence) {
    for (const StaticReal& s : built.graph->static_real(m)) {
      if (s.type == evidence) return s.sim;
    }
    return -1.0;
  }

  Dataset data_;
  int person_ = -1;
  int article_ = -1;
  int p_name_ = -1;
  int p_email_ = -1;
  int a_title_ = -1;
  int a_year_ = -1;
};

TEST_F(StagingTest, UnrelatedTitlesGateTheYear) {
  const RefId a = Article("Reference reconciliation in complex spaces", "2005");
  const RefId b = Article("Bitmap indexes for warehouse queries", "2005");
  const BuiltGraph built = Build(a, b);
  EXPECT_EQ(built.graph->FindRefPair(a, b), kInvalidNode);
  // Only the title was compared; the equal year was never looked at.
  EXPECT_EQ(built.num_pair_comparisons, 1);
}

TEST_F(StagingTest, SimilarTitlesEarnTheYear) {
  const RefId a = Article("Reference reconciliation in complex spaces", "2005");
  const RefId b = Article("Reference reconciliation in complex space", "2005");
  const BuiltGraph built = Build(a, b);
  const NodeId m = built.graph->FindRefPair(a, b);
  ASSERT_NE(m, kInvalidNode);
  EXPECT_EQ(built.num_pair_comparisons, 2);
  EXPECT_EQ(StaticOf(built, m, kEvArticleYear), 1.0);
  bool title_node = false;
  for (const Edge& e : built.graph->in_edges(m)) {
    title_node |= e.evidence == kEvArticleTitle;
  }
  EXPECT_TRUE(title_node);
}

TEST_F(StagingTest, DissimilarNamesOfferAnExplicitZero) {
  const RefId a = Person({"Alice Smith"}, {"shared@example.org"});
  const RefId b = Person({"Robert Jones"}, {"shared@example.org"});
  const BuiltGraph built = Build(a, b);
  const NodeId m = built.graph->FindRefPair(a, b);
  ASSERT_NE(m, kInvalidNode);
  EXPECT_EQ(StaticOf(built, m, kEvPersonName), 0.0);
  EXPECT_EQ(StaticOf(built, m, kEvPersonEmail), 1.0);
  // A shared email lifts constraints 2 and 3.
  EXPECT_NE(built.graph->node(m).state, NodeState::kNonMerge);
}

TEST_F(StagingTest, NameEmailRowComparesBothDirections) {
  const RefId a =
      Person({"Alice Smith", "A. Smith"}, {"asmith@example.org"});
  const RefId b = Person({"Alice Smyth"},
                         {"alice@example.com", "smyth@example.net"});
  // Names 2x1, emails 1x2, name~email 2x2 + 1x1.
  EXPECT_EQ(Build(a, b).num_pair_comparisons, 2 + 2 + 5);
  EXPECT_EQ(Build(a, b, EvidenceLevel::kAttrWise).num_pair_comparisons,
            2 + 2);
}

TEST_F(StagingTest, IndepDecScoresTitlesThroughTheMemoFloat) {
  // A pair from PIM A 0.3x (generator seed 13). The titles score 11/14 and
  // the years are equal, so with the title score in double the article
  // S_rv is exactly the merge threshold. The evidence summary holds it as
  // a float, as the similarity memo stores it, and that puts the pair just
  // below the threshold: IndepDec keeps the two articles apart.
  const std::string title_a = "Scalable with indexing views";
  const std::string title_b = "Scalable with indexing";
  const RefId a = Article(title_a, "2000");
  const RefId b = Article(title_b, "2000");

  const double title = FeaturePairSimilarity(
      kEvArticleTitle, AnalyzeValue(title_a, FeatureKind::kTitle),
      AnalyzeValue(title_b, FeatureKind::kTitle));
  EXPECT_EQ(title, 11.0 / 14.0);
  const auto sims = MakeClassSimilarities(
      data_.schema(), SchemaBinding::Resolve(data_.schema()));
  EvidenceSummary evidence;
  evidence.Offer(kEvArticleTitle, static_cast<float>(title));
  evidence.Offer(kEvArticleYear, 1.0f);
  EXPECT_LT(sims[article_]->Compute(evidence), kSimParams.merge_threshold);

  const ReconcileResult result =
      Reconciler(ReconcilerOptions::IndepDec()).Run(data_);
  EXPECT_EQ(result.stats.num_candidates, 1);
  EXPECT_EQ(result.stats.num_merges, 0);
  EXPECT_NE(result.cluster[a], result.cluster[b]);
}

// ---- Baseline goldens ------------------------------------------------------
//
// IndepDec (the Reconciler in its attribute-wise, one-pass mode) and
// Fellegi-Sunter read the same per-class channel table as the graph
// build. These rows pin their exact partitions, merge sequences and
// counters on PIM A 0.04x and Cora.

Dataset TinyPim() {
  return datagen::GeneratePim(
      datagen::ScaleConfig(datagen::PimConfigA(), 0.04));
}

struct BaselineGolden {
  const char* run;
  Fingerprint want;
};

constexpr BaselineGolden kBaselineGolden[] = {
    {"IndepDec PIM-A", {0x524877e1d6976c04ull, 792, 0, 1862, 2351, 2533}},
    {"IndepDec Cora", {0x760674c3b0d5b30full, 13194, 0, 30182, 33606, 35594}},
    {"FellegiSunter PIM-A", {0x129035f47af49a2full, 3982, 0, 13291, 0, 0}},
    {"FellegiSunter Cora", {0x890316c400354368ull, 2319, 0, 41640, 0, 0}},
};

void ExpectBaselineGolden(const std::string& run,
                          const ReconcileResult& result) {
  const Fingerprint fp = FingerprintOf(result);
  if (RegenMode()) {
    std::printf(
        "    {\"%s\", {0x%016llxull, %lld, %lld, %lld, %lld, %lld}},\n",
        run.c_str(), static_cast<unsigned long long>(fp.hash),
        static_cast<long long>(fp.merges), static_cast<long long>(fp.folds),
        static_cast<long long>(fp.recomputations),
        static_cast<long long>(fp.nodes), static_cast<long long>(fp.edges));
    return;
  }
  for (const BaselineGolden& row : kBaselineGolden) {
    if (run == row.run) {
      ExpectFingerprint(row.want, fp);
      return;
    }
  }
  ADD_FAILURE() << "no golden row for " << run;
}

TEST(BaselineGoldenTest, IndepDecPim) {
  ExpectBaselineGolden(
      "IndepDec PIM-A",
      Reconciler(ReconcilerOptions::IndepDec()).Run(TinyPim()));
}

TEST(BaselineGoldenTest, IndepDecCora) {
  ExpectBaselineGolden(
      "IndepDec Cora",
      Reconciler(ReconcilerOptions::IndepDec()).Run(SmallCora()));
}

TEST(BaselineGoldenTest, FellegiSunterPim) {
  ExpectBaselineGolden("FellegiSunter PIM-A", FellegiSunter().Run(TinyPim()));
}

TEST(BaselineGoldenTest, FellegiSunterCora) {
  ExpectBaselineGolden("FellegiSunter Cora",
                       FellegiSunter().Run(SmallCora()));
}

}  // namespace
}  // namespace recon
