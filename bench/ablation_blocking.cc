// Ablation (ours): the graph-pruning design choices of §3.1/§3.4 —
// inverted-index blocking and key-attribute pre-merging — measured by
// graph size, wall time, and accuracy on a mid-sized PIM dataset.

#include <iostream>

#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace recon;
  bench::ParseArgs(argc, argv);
  bench::PrintHeader(
      "Ablation: blocking and key-attribute pre-merge",
      "design choices of paper §3.1 (blocking) and §3.4 (pre-merge)");

  datagen::PimConfig config = datagen::PimConfigA();
  config = datagen::ScaleConfig(config, 0.12 * bench::BenchScale());
  const Dataset dataset = datagen::GeneratePim(config);
  const int person = dataset.schema().RequireClass("Person");
  std::cout << dataset.num_references() << " references.\n\n";

  TablePrinter table({"Variant", "Candidates", "Nodes", "Build s",
                      "Solve s", "Person P/R"});
  struct Variant {
    const char* name;
    bool blocking;
    bool premerge;
  };
  for (const Variant v : {Variant{"full pruning", true, true},
                          Variant{"no pre-merge", true, false},
                          Variant{"no blocking", false, true},
                          Variant{"neither", false, false}}) {
    ReconcilerOptions options =
        bench::WithBenchThreads(ReconcilerOptions::DepGraph());
    options.use_blocking = v.blocking;
    options.premerge_equal_emails = v.premerge;
    const Reconciler reconciler(options);
    const ReconcileResult result = reconciler.Run(dataset);
    const PairMetrics m = EvaluateClass(dataset, result.cluster, person);
    table.AddRow({v.name, std::to_string(result.stats.num_candidates),
                  std::to_string(result.stats.num_nodes),
                  TablePrinter::Num(result.stats.build_seconds, 2),
                  TablePrinter::Num(result.stats.solve_seconds, 2),
                  TablePrinter::PrecRecall(m.precision, m.recall)});
  }
  table.Print(std::cout);
  std::cout << "\nExpected shape: pruning shrinks candidates/nodes and time "
               "by an order of magnitude at (nearly) unchanged accuracy — "
               "the paper's claim that careful pruning does not lose "
               "important nodes.\n";
  return 0;
}
