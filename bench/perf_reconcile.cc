// End-to-end reconciliation throughput at several dataset scales, plus the
// cost split between graph construction and the fixed point.

#include <benchmark/benchmark.h>

#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"

#include "core/premerge.h"
#include "core/reconciler.h"
#include "datagen/pim_generator.h"

namespace {

recon::Dataset MakeDataset(double scale) {
  recon::datagen::PimConfig config = recon::datagen::PimConfigA();
  config = recon::datagen::ScaleConfig(config, scale);
  return recon::datagen::GeneratePim(config);
}

void BM_DepGraphReconcile(benchmark::State& state) {
  const double scale = static_cast<double>(state.range(0)) / 100.0;
  const recon::Dataset dataset = MakeDataset(scale);
  const recon::Reconciler reconciler(recon::ReconcilerOptions::DepGraph());
  int64_t pairs_scored = 0;
  int64_t refs_processed = 0;
  for (auto _ : state) {
    const recon::ReconcileResult result = reconciler.Run(dataset);
    pairs_scored += result.stats.num_candidates;
    refs_processed += dataset.num_references();
    benchmark::DoNotOptimize(result);
  }
  state.counters["refs"] = dataset.num_references();
  // Candidate pairs scored per second of wall time — directly comparable
  // to the pairs/sec column of bench/perf_scaling.
  state.counters["pairs/s"] = benchmark::Counter(
      static_cast<double>(pairs_scored), benchmark::Counter::kIsRate);
  // End-to-end throughput in input references per second.
  state.counters["references_per_sec"] = benchmark::Counter(
      static_cast<double>(refs_processed), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_DepGraphReconcile)->Arg(2)->Arg(5)->Arg(10)
    ->Unit(benchmark::kMillisecond);

// Raw graph construction *without* the key-attribute pre-merge — this is
// why it costs more than the full Run() above, which condenses the
// dataset first (see bench/ablation_blocking for the full comparison).
void BM_GraphBuildOnly(benchmark::State& state) {
  const double scale = static_cast<double>(state.range(0)) / 100.0;
  const recon::Dataset dataset = MakeDataset(scale);
  const recon::ReconcilerOptions options;
  int64_t pairs_scored = 0;
  for (auto _ : state) {
    const recon::BuiltGraph built =
        recon::BuildDependencyGraph(dataset, options);
    pairs_scored += built.num_candidates;
    benchmark::DoNotOptimize(built);
  }
  state.counters["refs"] = dataset.num_references();
  state.counters["pairs/s"] = benchmark::Counter(
      static_cast<double>(pairs_scored), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_GraphBuildOnly)->Arg(2)->Arg(5)->Arg(10)
    ->Unit(benchmark::kMillisecond);

void BM_PremergeOnly(benchmark::State& state) {
  const double scale = static_cast<double>(state.range(0)) / 100.0;
  const recon::Dataset dataset = MakeDataset(scale);
  const recon::SchemaBinding binding =
      recon::SchemaBinding::Resolve(dataset.schema());
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        recon::PremergeEqualEmails(dataset, binding));
  }
  state.counters["refs"] = dataset.num_references();
}
BENCHMARK(BM_PremergeOnly)->Arg(2)->Arg(10)
    ->Unit(benchmark::kMillisecond);

}  // namespace

namespace {

/// Scoring-phase gate (DESIGN.md §11): on PIM B the value store must
/// analyze each distinct value once — at least 5x fewer analyses than
/// pairwise comparisons. Returns 0 on success, 1 (with a FATAL line) on
/// violation.
int RunValueStoreGate() {
  recon::datagen::PimConfig config = recon::datagen::PimConfigB();
  const double scale = recon::bench::BenchScale();
  if (scale < 1.0) config = recon::datagen::ScaleConfig(config, scale);
  const recon::Dataset dataset = recon::datagen::GeneratePim(config);

  const recon::ReconcilerOptions options =
      recon::bench::WithBenchThreads(recon::ReconcilerOptions::DepGraph());
  const recon::ReconcileResult result =
      recon::Reconciler(options).Run(dataset);
  const recon::ReconcileStats& s = result.stats;
  std::cout << "\nValue-store gate (PIM B, " << dataset.num_references()
            << " refs): " << s.num_pair_comparisons << " pair comparisons, "
            << s.num_value_analyses << " value analyses; memo "
            << s.num_sim_memo_hits << " hits / " << s.num_sim_memo_misses
            << " misses, " << s.sim_memo_bytes << " B; store "
            << s.value_store_bytes << " B\n";

  if (s.num_pair_comparisons < 5 * s.num_value_analyses) {
    std::cerr << "FATAL: value store analyzed too often on PIM B: "
              << s.num_value_analyses << " analyses for "
              << s.num_pair_comparisons << " comparisons (< 5x reduction)\n";
    return 1;
  }
  return 0;
}

}  // namespace

// Custom main: `--json <path>` is this repo's common bench flag; rewrite
// it into google-benchmark's --benchmark_out flags before Initialize.
int main(int argc, char** argv) {
  std::vector<std::string> storage;
  std::vector<char*> args =
      recon::bench::TranslateGBenchJsonFlag(argc, argv, &storage);
  int new_argc = static_cast<int>(args.size());
  benchmark::Initialize(&new_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(new_argc, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return RunValueStoreGate();
}
