// Shared helpers for the table-reproduction harnesses.

#ifndef RECON_BENCH_BENCH_COMMON_H_
#define RECON_BENCH_BENCH_COMMON_H_

#include <string>
#include <vector>

#include "core/reconciler.h"
#include "datagen/cora_generator.h"
#include "datagen/pim_generator.h"
#include "eval/metrics.h"
#include "eval/report.h"
#include "model/dataset.h"
#include "util/json.h"

namespace recon::bench {

/// The four PIM configurations in order (A, B, C, D).
std::vector<datagen::PimConfig> AllPimConfigs();

/// Reads RECON_BENCH_SCALE (a float in (0, 1], default 1) so slow machines
/// can shrink the datasets while keeping the shapes.
double BenchScale();

/// Threads for the parallel phases of every run a bench performs. Defaults
/// to 1 so published table numbers stay on the serial path; override with
/// `--threads N` (via ParseArgs) or RECON_BENCH_THREADS. 0 = all hardware
/// threads. Output is identical for every value — only wall time changes.
int BenchThreads();

/// Parses the shared bench flags (currently `--threads N`); call at the
/// top of main. Unknown flags are left alone for the bench's own parsing.
void ParseArgs(int argc, char** argv);

/// `options` with num_threads set from BenchThreads().
ReconcilerOptions WithBenchThreads(ReconcilerOptions options);

/// AllPimConfigs() scaled by BenchScale().
std::vector<datagen::PimConfig> ScaledPimConfigs();

/// Runs DepGraph and IndepDec on `dataset` and returns the metrics for
/// `class_id`.
struct Comparison {
  PairMetrics indep;
  PairMetrics depgraph;
};
Comparison CompareOnClass(const Dataset& dataset, int class_id);

/// Prints a standard header naming the experiment.
void PrintHeader(const std::string& title, const std::string& paper_ref);

// ---- Machine-readable results (`--json <path>`) --------------------------

/// Value of a `--json <path>` flag, or "" when absent. Every perf bench
/// accepts the flag so tools/run_benches.sh can track perf trajectories.
std::string JsonPathFromArgs(int argc, char** argv);

/// Tiny bench-result log: flat rows of key -> number/string, written as a
/// JSON array of objects via util/json (which escapes correctly — quotes,
/// backslashes, and control characters included).
class JsonLog {
 public:
  /// Starts a new result row; Add() calls land in the latest row.
  void BeginRow();
  void Add(const std::string& key, double value);
  void Add(const std::string& key, int64_t value);
  void Add(const std::string& key, int value) {
    Add(key, static_cast<int64_t>(value));
  }
  void Add(const std::string& key, const std::string& value);

  /// Writes the rows to `path`, prepended with one machine-context row
  /// (hardware_concurrency, nprocs_online, bench threads/scale) so recorded
  /// numbers can be judged against the hardware that produced them — e.g.
  /// "speedup ~1x" results from a 1-CPU container are machine-checkable.
  /// No-op when `path` is empty; returns false (with a note on stderr) when
  /// the file cannot be written.
  bool Write(const std::string& path) const;

 private:
  std::vector<json::Value> rows_;
};

/// Rewrites a `--json <path>` flag into google-benchmark's
/// --benchmark_out/--benchmark_out_format flags, passing everything else
/// through. `storage` backs the returned pointers; keep it alive across
/// benchmark::Initialize.
std::vector<char*> TranslateGBenchJsonFlag(int argc, char** argv,
                                           std::vector<std::string>* storage);

}  // namespace recon::bench

#endif  // RECON_BENCH_BENCH_COMMON_H_
