// Thread-scaling of the graph build at 1 / 2 / 4 / 8 threads: candidate
// generation plus dependency-graph construction (which contains the
// initial pairwise similarity scoring) on a Table-1-scale PIM A dataset.
// Reports wall time, speedup over the serial path, and candidate pairs
// scored per second. The fixed-point solve is sequential and is timed by
// perf_fixedpoint instead.
//
// At every thread count the partition is checked against the one-thread
// run, and the binary exits non-zero on any difference: parallelism must
// never change the output.

#include <iostream>
#include <string>

#include "bench_common.h"
#include "runtime/thread_pool.h"
#include "util/timer.h"

int main(int argc, char** argv) {
  using namespace recon;
  bench::ParseArgs(argc, argv);
  bench::PrintHeader("Perf: thread scaling of the graph build",
                     "runtime/ subsystem (beyond the paper)");
  std::cout << "hardware threads: "
            << runtime::ThreadPool::HardwareConcurrency() << "\n";

  bench::JsonLog json;

  datagen::PimConfig config = datagen::PimConfigA();
  const double scale = bench::BenchScale();
  if (scale < 1.0) config = datagen::ScaleConfig(config, scale);
  const Dataset dataset = datagen::GeneratePim(config);
  std::cout << "\nGraph build, PIM A: " << dataset.num_references()
            << " references\n\n";

  ReconcilerOptions options = ReconcilerOptions::DepGraph();
  options.num_threads = 1;
  const std::vector<int> serial_cluster =
      Reconciler(options).Run(dataset).cluster;

  TablePrinter table({"Threads", "Build s", "Speedup", "Pairs/s", "Output"});
  double serial_seconds = 0;
  for (const int threads : {1, 2, 4, 8}) {
    options.num_threads = threads;
    // Best of three: thread-scaling numbers are noisy on shared machines.
    double best_seconds = 0;
    int num_candidates = 0;
    for (int rep = 0; rep < 3; ++rep) {
      Timer timer;
      const BuiltGraph built = BuildDependencyGraph(dataset, options);
      const double seconds = timer.ElapsedSeconds();
      if (rep == 0 || seconds < best_seconds) best_seconds = seconds;
      num_candidates = built.num_candidates;
    }
    if (threads == 1) serial_seconds = best_seconds;
    const bool identical =
        Reconciler(options).Run(dataset).cluster == serial_cluster;
    table.AddRow(
        {std::to_string(threads), TablePrinter::Num(best_seconds, 3),
         TablePrinter::Num(serial_seconds / best_seconds, 2) + "x",
         TablePrinter::Num(num_candidates / best_seconds, 0),
         identical ? "identical" : "MISMATCH"});
    json.BeginRow();
    json.Add("section", std::string("build"));
    json.Add("threads", threads);
    json.Add("build_seconds", best_seconds);
    json.Add("speedup", serial_seconds / best_seconds);
    json.Add("candidates_per_sec", num_candidates / best_seconds);
    json.Add("references_per_sec", dataset.num_references() / best_seconds);
    json.Add("identical",
             identical ? std::string("true") : std::string("false"));
    if (!identical) {
      std::cerr << "FATAL: build output at " << threads
                << " threads differs from serial\n";
      return 1;
    }
  }
  table.Print(std::cout);

  json.Write(bench::JsonPathFromArgs(argc, argv));
  std::cout << "\nSpeedup is bounded by the hardware thread count above; "
               "output stays\nbyte-identical at every thread count, checked "
               "above.\n";
  return 0;
}
