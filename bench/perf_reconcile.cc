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
#include "strsim/simd_dispatch.h"

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
  std::cout << "Kernels: " << s.simd_dispatch << " dispatch; prefilter "
            << s.num_prefilter_skips << " skipped / "
            << s.num_prefilter_exact << " exact title comparisons; "
            << "signatures " << s.signature_bytes << " B\n";

  if (s.num_pair_comparisons < 5 * s.num_value_analyses) {
    std::cerr << "FATAL: value store analyzed too often on PIM B: "
              << s.num_value_analyses << " analyses for "
              << s.num_pair_comparisons << " comparisons (< 5x reduction)\n";
    return 1;
  }
  return 0;
}

/// Kernel-identity gate (DESIGN.md §16): the bit-parallel kernels and the
/// signature prefilter must leave the reconcile output byte-identical to
/// the scalar reference path on PIM B. Returns 0 on success (including a
/// trivial pass when no non-scalar level is available), 1 on divergence.
int RunKernelGate() {
  namespace strsim = recon::strsim;
  const strsim::SimdLevel active = strsim::ActiveSimdLevel();
  if (active == strsim::SimdLevel::kScalar) {
    std::cout << "\nKernel gate: dispatch is scalar (detected "
              << strsim::SimdLevelName(strsim::DetectedSimdLevel())
              << "); identity holds trivially, skipping\n";
    return 0;
  }

  recon::datagen::PimConfig config = recon::datagen::PimConfigB();
  const double scale = recon::bench::BenchScale();
  if (scale < 1.0) config = recon::datagen::ScaleConfig(config, scale);
  const recon::Dataset dataset = recon::datagen::GeneratePim(config);
  const recon::ReconcilerOptions options =
      recon::bench::WithBenchThreads(recon::ReconcilerOptions::DepGraph());

  const recon::ReconcileResult on = recon::Reconciler(options).Run(dataset);
  strsim::SetSimdLevel(strsim::SimdLevel::kScalar);
  const recon::ReconcileResult off = recon::Reconciler(options).Run(dataset);
  strsim::SetSimdLevel(active);

  const bool identical =
      off.cluster == on.cluster && off.merged_pairs == on.merged_pairs &&
      off.stats.num_merges == on.stats.num_merges &&
      off.stats.num_folds == on.stats.num_folds;
  std::cout << "\nKernel gate (PIM B, " << dataset.num_references()
            << " refs): " << strsim::SimdLevelName(active)
            << " vs scalar dispatch; prefilter skipped "
            << on.stats.num_prefilter_skips << " of "
            << on.stats.num_prefilter_skips + on.stats.num_prefilter_exact
            << " title comparisons; output "
            << (identical ? "identical" : "MISMATCH") << "\n";
  if (!identical) {
    std::cerr << "FATAL: simd kernels changed the output on PIM B\n";
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
  const int store_rc = RunValueStoreGate();
  const int kernel_rc = RunKernelGate();
  return store_rc != 0 ? store_rc : kernel_rc;
}
