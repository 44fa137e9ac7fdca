// The batch phase of every workload: one Reconciler::Run over a generated
// PIM B corpus.
//
//   pimb      PIM B 1x, DepGraph defaults, 4 threads. Pair scoring and the
//             fixed-point solve carry the run.
//   scale_1m  PIM B 26x (about 1M references), max_block_size=100,
//             4 threads. Premerge and candidate generation carry weight;
//             the block cap drops every venue block, which shows as a low
//             bcubed_f1_venue and candidates.gold_recall.venue.
//
// The --seed shuffles the corpus's reference order (see GenerateCorpus).
// The timed run starts one child process per Run, so every Run is cold as a
// CLI call is, and reports the medians of the CPU time of set-up (data
// generation) and of the Run, of the Run's peak RSS, and B-cubed F1; every
// child must converge to the same valid partition. The traced run calls the
// layers Run is made of one by one (premerge, candidates, build,
// RunOnGraph, expand) and checks that their partition equals Run's.

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "common.h"
#include "core/candidates.h"
#include "core/graph_builder.h"
#include "core/premerge.h"
#include "core/reconciler.h"
#include "core/schema_binding.h"
#include "workloads.h"

namespace perfbench {

namespace {

using recon::Dataset;
using recon::ReconcileResult;
using recon::Reconciler;
using recon::ReconcilerOptions;
using Clock = std::chrono::steady_clock;

ReconcilerOptions OptionsOf(const WorkloadSpec& spec) {
  ReconcilerOptions options = ReconcilerOptions::DepGraph();
  options.num_threads = 4;
  options.max_block_size = spec.max_block_size;
  return options;
}

/// Why a Run's outcome is wrong, or "" when it converged to a valid
/// partition.
std::string RunProblem(const Dataset& dataset, const ReconcileResult& run) {
  if (run.stats.stop_reason != recon::StopReason::kConverged) {
    return std::string("Run stopped: ") +
           recon::StopReasonToString(run.stats.stop_reason);
  }
  const std::string problem = CheckPartition(dataset, run.cluster);
  return problem.empty() ? "" : "Run partition invalid: " + problem;
}

/// Counts one Run as an operation and records its problem, if any.
void CheckRun(const Dataset& dataset, const ReconcileResult& run,
              Result& result) {
  const std::string problem = RunProblem(dataset, run);
  result.Attempt(problem.empty());
  if (!problem.empty()) result.Fail(problem);
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Gold-pair coverage of the candidate list, per class, in the condensed
/// reference space. Gold pairs are counted from entity sizes.
void AddCandidateQuality(const Dataset& condensed,
                         const recon::SchemaBinding& binding,
                         const recon::CandidateList& candidates,
                         Result& result) {
  const std::pair<const char*, int> classes[] = {
      {"person", binding.person},
      {"article", binding.article},
      {"venue", binding.venue}};
  int64_t gold_candidates_total = 0;
  for (const auto& [name, class_id] : classes) {
    std::vector<int64_t> entity_size;
    for (recon::RefId ref = 0; ref < condensed.num_references(); ++ref) {
      if (condensed.reference(ref).class_id() != class_id) continue;
      const int gold = condensed.gold_entity(ref);
      if (gold < 0) continue;
      if (gold >= static_cast<int>(entity_size.size())) {
        entity_size.resize(gold + 1, 0);
      }
      ++entity_size[gold];
    }
    int64_t gold_pairs = 0;
    for (const int64_t n : entity_size) gold_pairs += n * (n - 1) / 2;
    int64_t gold_candidates = 0;
    for (const auto& [a, b] : candidates) {
      if (condensed.reference(a).class_id() != class_id) continue;
      const int gold = condensed.gold_entity(a);
      if (gold >= 0 && gold == condensed.gold_entity(b)) ++gold_candidates;
    }
    gold_candidates_total += gold_candidates;
    result.Add(std::string("candidates.gold_recall.") + name,
               gold_pairs > 0 ? Ratio(gold_candidates, gold_pairs) : 1.0,
               "ratio");
  }
  result.Add("candidates.gold_precision",
             Ratio(gold_candidates_total, candidates.size()), "ratio");
}

/// Copies `text` into a fixed-size report field, truncating.
template <size_t N>
void CopyText(const std::string& text, char (&field)[N]) {
  std::snprintf(field, N, "%s", text.c_str());
}

/// What one cold-run child process sends back to the parent.
struct ColdRunReport {
  double setup_s = 0;  ///< CPU time.
  double setup_wall_s = 0;
  double reconcile_s = 0;
  double reconcile_cpu_s = 0;
  double peak_rss_mb = 0;
  std::array<double, 3> f1 = {};
  uint64_t partition_hash = 0;
  int32_t references = 0;
  bool ok = false;
  bool rss_reset = false;
  char simd_dispatch[16] = {};
  char failure[240] = {};
};

/// Generates the corpus and, if `run`, times one Run in this (fresh)
/// process. Only the first Run scores quality: the partition hash shows the
/// others agree. The corpus and result are left to the child's exit to
/// release.
ColdRunReport ColdRun(const Args& args, const WorkloadSpec& spec, bool run_it,
                      bool evaluate) {
  ColdRunReport report;
  // A short set-up is repeated (for at most half a second) for its median.
  std::vector<double> setup_s;
  std::vector<double> setup_wall_s;
  const Dataset* generated = nullptr;
  const Clock::time_point setup_start = Clock::now();
  do {
    delete generated;
    const double cpu_start = CpuSeconds();
    const Clock::time_point start = Clock::now();
    generated =
        new Dataset(GenerateCorpus(spec.batch_factor * args.scale, args));
    setup_wall_s.push_back(SecondsSince(start));
    setup_s.push_back(CpuSeconds() - cpu_start);
  } while (SecondsSince(setup_start) < 0.5 && setup_s.size() < 9);
  const Dataset& dataset = *generated;
  report.setup_s = Median(setup_s);
  report.setup_wall_s = Median(setup_wall_s);
  report.references = dataset.num_references();
  report.ok = true;
  if (!run_it) return report;

  const Reconciler reconciler(OptionsOf(spec));
  report.rss_reset = ResetPeakRss();
  const double cpu_start = CpuSeconds();
  const Clock::time_point start = Clock::now();
  const ReconcileResult& run = *new ReconcileResult(reconciler.Run(dataset));
  report.reconcile_s = SecondsSince(start);
  report.reconcile_cpu_s = CpuSeconds() - cpu_start;
  report.peak_rss_mb = PeakRssMb();

  const std::string failure = RunProblem(dataset, run);
  report.ok = failure.empty();
  CopyText(failure, report.failure);
  CopyText(run.stats.simd_dispatch, report.simd_dispatch);
  if (evaluate) report.f1 = BCubedF1(dataset, run.cluster);
  uint64_t hash = 1469598103934665603ULL;  // FNV-1a over the partition.
  for (const int c : run.cluster) {
    hash = (hash ^ static_cast<uint32_t>(c)) * 1099511628211ULL;
  }
  report.partition_hash = hash;
  return report;
}

/// Every timed Run happens in a fresh child process, because the first Run
/// in a process pays for heap growth that later ones do not, and the CLI
/// pays it on every call. Children run one at a time until the measuring
/// time is spent (at least kMinRuns). Each also sets up the corpus, and
/// set-up-only children top the set-up samples up to kMinSetups.
void RunTimed(const Args& args, const WorkloadSpec& spec, Result& result) {
  constexpr size_t kMinRuns = 2;
  constexpr size_t kMinSetups = 3;
  std::vector<ColdRunReport> runs;
  std::vector<double> setup_s;
  std::vector<double> setup_wall_s;
  const Clock::time_point start = Clock::now();
  double last_s = 0;
  const HostCpu host_start = HostCpu::Now();
  while (runs.size() < kMinRuns || setup_s.size() < kMinSetups ||
         SecondsSince(start) + last_s <= args.seconds) {
    const bool run_it = runs.size() < kMinRuns ||
                        SecondsSince(start) + last_s <= args.seconds;
    const Clock::time_point child_start = Clock::now();
    ColdRunReport report;
    if (!RunInChild(
            [&] { return ColdRun(args, spec, run_it, runs.empty()); },
            &report)) {
      result.Attempt(false);
      result.Fail("a cold-run child process failed");
      return;
    }
    setup_s.push_back(report.setup_s);
    setup_wall_s.push_back(report.setup_wall_s);
    if (!run_it) continue;
    last_s = SecondsSince(child_start);
    result.Attempt(report.ok);
    if (!report.ok) result.Fail(report.failure);
    if (!runs.empty() && report.partition_hash != runs.front().partition_hash) {
      result.Fail("Run produced different partitions in two processes");
    }
    runs.push_back(report);
  }

  std::vector<double> reconcile_s;
  std::vector<double> reconcile_cpu_s;
  std::vector<double> peak_mb;
  for (const ColdRunReport& r : runs) {
    reconcile_s.push_back(r.reconcile_s);
    reconcile_cpu_s.push_back(r.reconcile_cpu_s);
    peak_mb.push_back(r.peak_rss_mb);
  }
  result.Info("references", runs.front().references);
  result.Info("simd_dispatch", runs.front().simd_dispatch);
  result.Info("peak_rss_reset",
              runs.front().rss_reset ? "clear_refs" : "unavailable");
  result.Info("reconcile", "cold: one Run per child process");
  result.Info("cold_runs", static_cast<double>(runs.size()));
  result.Info("setup_children", static_cast<double>(setup_s.size()));
  result.Info("host_steal_share", HostCpu::Now().StealShareSince(host_start));
  // On a shared host, wall times follow the CPU time the hypervisor
  // steals: over two sets of ten seeds on PIM B 1x, 4 vCPUs, the Run's
  // median wall time went from 4.5 s to 5.8 s as steal rose from about 4%
  // to 10% of CPU time, while its CPU time stayed within 5.7-6.3 s over
  // five runs with 4-9% steal. Stolen time is not the process's CPU time,
  // so set-up and Run are reported as CPU time, the wall times in the run
  // line.
  result.Info("setup_wall_s", Median(setup_wall_s));
  result.Info("reconcile_wall_s", Median(reconcile_s));
  result.Add("setup_s", Median(setup_s), "s");
  result.Add("reconcile_cpu_s", Median(reconcile_cpu_s), "s");
  result.Add("peak_rss_mb", Median(peak_mb), "MiB");
  AddBCubed(runs.front().f1, result);
}

void RunTraced(const Args& args, const WorkloadSpec& spec, Trace& trace,
               Result& result) {
  const Dataset dataset =
      GenerateCorpus(spec.batch_factor * args.scale, args);
  const ReconcilerOptions options = OptionsOf(spec);
  const Reconciler reconciler(options);

  // The untimed reference run; it also takes the process's cold cost.
  const ReconcileResult reference = reconciler.Run(dataset);
  CheckRun(dataset, reference, result);

  // The same sequence Run performs, one public call per layer.
  double traced_ms = 0;
  std::vector<int> traced_cluster;
  std::optional<recon::PremergeResult> premerge;
  recon::CandidateList candidates;
  std::optional<recon::BuiltGraph> built;
  ReconcileResult condensed;
  recon::SchemaBinding binding;
  {
    Trace::Scope run(trace, "run", 0);
    {
      Trace::Scope span(trace, "premerge", 0);
      binding = recon::SchemaBinding::Resolve(dataset.schema());
      premerge.emplace(recon::PremergeEqualEmails(dataset, binding));
    }
    {
      Trace::Scope span(trace, "candidates", 0);
      candidates =
          recon::GenerateCandidates(premerge->condensed, binding, options);
    }
    {
      Trace::Scope span(trace, "builder", 0);
      recon::BuildOverrides overrides;
      overrides.candidates = &candidates;
      built.emplace(recon::BuildDependencyGraph(premerge->condensed, options,
                                                nullptr, overrides));
    }
    {
      Trace::Scope span(trace, "solver", 0);
      condensed = reconciler.RunOnGraph(premerge->condensed, *built);
    }
    {
      Trace::Scope span(trace, "expand", 0);
      traced_cluster = recon::ExpandClusters(*premerge, condensed.cluster);
    }
    traced_ms = run.ElapsedMs();
  }
  const bool same = traced_cluster == reference.cluster;
  if (!same) result.Fail("traced layers' partition differs from Run's");
  if (condensed.stats.stop_reason != recon::StopReason::kConverged) {
    result.Fail("traced solve did not converge");
  }
  result.Attempt(same);

  // A second plain Run, warm like the traced layers, prices the tracing.
  const Clock::time_point start = Clock::now();
  const ReconcileResult warm = reconciler.Run(dataset);
  const double warm_ms = MillisSince(start);
  CheckRun(dataset, warm, result);
  if (warm.cluster != reference.cluster) {
    result.Fail("repeated Run produced a different partition");
  }

  const recon::ReconcileStats& stats = condensed.stats;
  const double condensed_refs = premerge->condensed.num_references();
  result.Add("premerge.s", trace.TotalMs("premerge") / 1e3, "s");
  result.Add("premerge.condense_ratio",
             Ratio(condensed_refs, dataset.num_references()), "ratio");
  result.Add("candidates.s", trace.TotalMs("candidates") / 1e3, "s");
  result.Add("candidates.per_ref", Ratio(candidates.size(), condensed_refs),
             "count");
  AddCandidateQuality(premerge->condensed, binding, candidates, result);
  result.Add("builder.s", trace.TotalMs("builder") / 1e3, "s");
  result.Add("builder.comparisons",
             static_cast<double>(built->num_pair_comparisons), "count");
  result.Add("builder.memo_hit_ratio",
             Ratio(built->num_sim_memo_hits,
                   built->num_sim_memo_hits + built->num_sim_memo_misses),
             "ratio");
  result.Add("builder.prefilter_skip_ratio",
             Ratio(built->num_prefilter_skips,
                   built->num_prefilter_skips + built->num_prefilter_exact),
             "ratio");
  result.Add("graph.bytes_mb", stats.graph_bytes / (1024.0 * 1024.0), "MiB");
  result.Add("graph.live_node_ratio",
             Ratio(stats.num_live_nodes, stats.num_nodes), "ratio");
  result.Add("solver.s", trace.TotalMs("solver") / 1e3, "s");
  result.Add("solver.iterations", static_cast<double>(stats.solver_iterations),
             "count");
  result.Add("solver.merges", static_cast<double>(stats.num_merges), "count");
  result.Add("solver.parallel_discard_ratio",
             Ratio(stats.num_score_discards, stats.num_parallel_scored),
             "ratio");
  const double coverage = Ratio(trace.ChildrenMs("run"), traced_ms);
  if (coverage < 0.95) result.Fail("traced phases cover under 95% of Run");
  result.Add("trace.coverage", coverage, "ratio");
  result.Add("trace.overhead_ratio", Ratio(traced_ms, warm_ms), "ratio");
  result.Info("simd_dispatch", stats.simd_dispatch);
  result.Info("references", dataset.num_references());
}

}  // namespace

void RunBatchPhase(const Args& args, const WorkloadSpec& spec, Trace* trace,
                   Result& result) {
  if (trace != nullptr) {
    RunTraced(args, spec, *trace, result);
  } else {
    RunTimed(args, spec, result);
  }
}

}  // namespace perfbench
