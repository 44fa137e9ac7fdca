// Extension experiment (ours): three generations of reconciliation on one
// personal dataset — classical unsupervised Fellegi-Sunter (the model the
// paper's related work frames everything against), the attribute-wise
// IndepDec baseline, and the paper's DepGraph.

#include <iostream>

#include "baseline/fellegi_sunter.h"
#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace recon;
  bench::ParseArgs(argc, argv);
  bench::PrintHeader(
      "Baseline comparison: Fellegi-Sunter vs IndepDec vs DepGraph",
      "extension of the paper's §5.2 comparison (FS = references [17],[36])");

  datagen::PimConfig config = datagen::PimConfigA();
  config = datagen::ScaleConfig(config, 0.25 * bench::BenchScale());
  const Dataset dataset = datagen::GeneratePim(config);
  std::cout << dataset.num_references() << " references.\n\n";

  TablePrinter table({"Class", "FellegiSunter P/R (F)", "IndepDec P/R (F)",
                      "DepGraph P/R (F)"});

  const FellegiSunter fs(
      bench::WithBenchThreads(ReconcilerOptions::IndepDec()));
  const Reconciler indep(
      bench::WithBenchThreads(ReconcilerOptions::IndepDec()));
  const Reconciler dep(bench::WithBenchThreads(ReconcilerOptions::DepGraph()));
  const auto c_fs = fs.Run(dataset).cluster;
  const auto c_in = indep.Run(dataset).cluster;
  const auto c_dg = dep.Run(dataset).cluster;

  auto cell = [&](const std::vector<int>& cluster, int class_id) {
    const PairMetrics m = EvaluateClass(dataset, cluster, class_id);
    return TablePrinter::PrecRecall(m.precision, m.recall) + " (" +
           TablePrinter::Num(m.f1) + ")";
  };
  for (const char* cls : {"Person", "Article", "Venue"}) {
    const int id = dataset.schema().RequireClass(cls);
    table.AddRow({cls, cell(c_fs, id), cell(c_in, id), cell(c_dg, id)});
  }
  table.Print(std::cout);
  std::cout
      << "\nExpected shape: the unsupervised Fellegi-Sunter linker adapts "
         "its field weights to the data and is competitive attribute-wise, "
         "but neither classical model can exploit associations — DepGraph "
         "leads on recall wherever references are information-poor "
         "(persons, venues).\n";
  return 0;
}
