// The delta-propagated evidence cache (DESIGN.md §8) is the solver's only
// scoring path, so it is checked against its invariant instead of against
// a second implementation: a valid cache equals a fresh rescan of the
// node's in-edges (FixedPointSolver::RecheckEvidenceCaches). The check runs
// after the drain and after negative propagation on PIM and Cora data,
// across thread counts, constraints on/off, enrichment on/off and every
// evidence level, and after every flush of an incremental replay. Runs
// under ThreadSanitizer via the ctest `tsan` label alongside the runtime
// tests.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "core/graph_builder.h"
#include "core/incremental.h"
#include "core/reconciler.h"
#include "core/solver.h"
#include "datagen/cora_generator.h"
#include "datagen/pim_generator.h"
#include "model/dataset.h"

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

/// Builds the graph and solves it the way Reconciler::Run does, asserting
/// the cache invariant after the drain and after negative propagation.
void ExpectCachesExact(const Dataset& dataset,
                       const ReconcilerOptions& options,
                       const std::string& label) {
  SCOPED_TRACE(label);
  ReconcileStats stats;
  BuiltGraph built = BuildDependencyGraph(dataset, options);
  FixedPointSolver solver(dataset, built, options, &stats);
  solver.EnqueueNodes(built.initial_queue);
  solver.Run();
  EXPECT_GT(stats.num_merges, 0);
  EXPECT_EQ(solver.RecheckEvidenceCaches(), 0);
  if (options.constraints) {
    solver.PropagateNegativeEvidence();
    EXPECT_EQ(solver.RecheckEvidenceCaches(), 0);
  }
}

void SweepOptions(const Dataset& dataset, const std::string& dataset_name) {
  for (const int threads : {1, 4}) {
    for (const bool constraints : {true, false}) {
      for (const bool enrichment : {true, false}) {
        ReconcilerOptions options = ReconcilerOptions::DepGraph();
        options.num_threads = threads;
        options.constraints = constraints;
        options.enrichment = enrichment;
        ExpectCachesExact(
            dataset, options,
            dataset_name + " threads=" + std::to_string(threads) +
                " constraints=" + std::to_string(constraints) +
                " enrichment=" + std::to_string(enrichment));
      }
    }
  }
}

TEST(SolverCacheTest, PimSweep) { SweepOptions(SmallPim(), "PIM-A"); }

TEST(SolverCacheTest, CoraSweep) { SweepOptions(SmallCora(), "Cora"); }

TEST(SolverCacheTest, EvidenceLevels) {
  const Dataset dataset = SmallPim();
  for (const EvidenceLevel level :
       {EvidenceLevel::kAttrWise, EvidenceLevel::kNameEmail,
        EvidenceLevel::kArticle, EvidenceLevel::kContact}) {
    ReconcilerOptions options = ReconcilerOptions::DepGraph();
    options.evidence_level = level;
    ExpectCachesExact(dataset, options,
                      "level=" + std::to_string(static_cast<int>(level)));
  }
}

TEST(SolverCacheTest, RecheckDetectsACorruptCache) {
  // The check is not vacuous: one raised channel maximum in one valid
  // reference-pair cache is one differing node.
  const Dataset dataset = SmallPim();
  const ReconcilerOptions options = ReconcilerOptions::DepGraph();
  ReconcileStats stats;
  BuiltGraph built = BuildDependencyGraph(dataset, options);
  FixedPointSolver solver(dataset, built, options, &stats);
  solver.EnqueueNodes(built.initial_queue);
  solver.Run();
  ASSERT_EQ(solver.RecheckEvidenceCaches(), 0);
  DependencyGraph& graph = *built.graph;
  NodeId victim = kInvalidNode;
  for (NodeId id = 0; id < graph.num_nodes(); ++id) {
    const Node& node = graph.node(id);
    if (!node.dead && node.IsRefPair() && node.cache_valid) {
      victim = id;
      break;
    }
  }
  ASSERT_NE(victim, kInvalidNode);
  EvidenceSummary& cache = graph.mutable_node(victim).cache;
  cache.best[0] += 0.5f;
  EXPECT_EQ(solver.RecheckEvidenceCaches(), 1);
  cache.best[0] -= 0.5f;
  ++cache.weak_merged;
  EXPECT_EQ(solver.RecheckEvidenceCaches(), 1);
}

TEST(SolverCacheTest, CacheActuallyFires) {
  // The invariant proves the cache exact; this proves it is doing work —
  // hub nodes wake up repeatedly, so most recomputations should be served
  // without rescanning in-edges.
  const Dataset dataset = SmallPim();
  const ReconcileResult result =
      Reconciler(ReconcilerOptions::DepGraph()).Run(dataset);
  EXPECT_GT(result.stats.num_cache_rebuilds, 0);
  EXPECT_GT(result.stats.num_delta_pushes, 0);
  EXPECT_GT(result.stats.num_inedge_scans_avoided, 0);
}

TEST(SolverCacheTest, ScanReductionAtLeastTwoOnEveryPimConfig) {
  // bench/perf_fixedpoint's gate, at a scale that keeps the suite fast:
  // every recomputation a valid cache serves would have rescanned its
  // in-edges without one, so (scans + avoided) / scans is the factor the
  // cache saves. It must reach 2 on each PIM configuration (54x to 129x
  // at 0.1x).
  const datagen::PimConfig configs[] = {
      datagen::PimConfigA(), datagen::PimConfigB(), datagen::PimConfigC(),
      datagen::PimConfigD()};
  const ReconcilerOptions options = ReconcilerOptions::DepGraph();
  for (const datagen::PimConfig& config : configs) {
    SCOPED_TRACE(config.name);
    const Dataset dataset =
        datagen::GeneratePim(datagen::ScaleConfig(config, 0.1));
    BuiltGraph built = BuildDependencyGraph(dataset, options);
    const ReconcileStats stats =
        Reconciler(options).RunOnGraph(dataset, built).stats;
    const double reduction =
        static_cast<double>(stats.num_inedge_scans +
                            stats.num_inedge_scans_avoided) /
        static_cast<double>(std::max<int64_t>(1, stats.num_inedge_scans));
    EXPECT_GE(reduction, 2.0);
  }
}

TEST(SolverCacheTest, IncrementalFlushes) {
  // Incremental reconciliation re-enters the solver after graph surgery
  // and constraint demotion; the invalidation hooks must keep every cache
  // exact after every flush. Without constraints a flush ends with the
  // drain, so both halves of a flush are covered.
  const Dataset dataset = SmallPim();
  for (const bool constraints : {true, false}) {
    SCOPED_TRACE("constraints=" + std::to_string(constraints));
    ReconcilerOptions options = ReconcilerOptions::DepGraph();
    options.constraints = constraints;
    IncrementalReconciler inc(Dataset(dataset.schema()), options);
    int flushes = 0;
    for (RefId id = 0; id < dataset.num_references(); ++id) {
      inc.AddReference(dataset.reference(id), /*gold_entity=*/-1,
                       dataset.provenance(id));
      if (id % 97 == 0 || id + 1 == dataset.num_references()) {
        inc.Flush();
        ++flushes;
        ASSERT_EQ(inc.solver().RecheckEvidenceCaches(), 0)
            << "flush " << flushes << " at reference " << id;
      }
    }
    EXPECT_GT(inc.stats().num_merges, 0);
  }
}

}  // namespace
}  // namespace recon
