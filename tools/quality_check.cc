// Developer tool: IndepDec vs DepGraph quality, class by class, on one PIM
// dataset. Usage: quality_check [A|B|C|D] [scale]

#include <cstdio>
#include <cstdlib>

#include "core/reconciler.h"
#include "datagen/pim_generator.h"
#include "eval/metrics.h"

int main(int argc, char** argv) {
  using namespace recon;
  datagen::PimConfig config = datagen::PimConfigA();
  if (argc > 1) {
    switch (argv[1][0]) {
      case 'B': config = datagen::PimConfigB(); break;
      case 'C': config = datagen::PimConfigC(); break;
      case 'D': config = datagen::PimConfigD(); break;
      default: break;
    }
  }
  if (argc > 2) {
    const double scale = atof(argv[2]);
    if (scale > 0 && scale < 1) config = datagen::ScaleConfig(config, scale);
  }
  const Dataset data = datagen::GeneratePim(config);

  const Reconciler indep(ReconcilerOptions::IndepDec());
  const ReconcileResult ri = indep.Run(data);
  const Reconciler dep(ReconcilerOptions::DepGraph());
  const ReconcileResult rd = dep.Run(data);
  for (const char* cls : {"Person", "Article", "Venue"}) {
    const int id = data.schema().RequireClass(cls);
    const PairMetrics mi = EvaluateClass(data, ri.cluster, id);
    const PairMetrics md = EvaluateClass(data, rd.cluster, id);
    std::printf(
        "%-8s indep P=%.3f R=%.3f F=%.3f (par %d/%d)   "
        "dep P=%.3f R=%.3f F=%.3f (par %d)\n",
        cls, mi.precision, mi.recall, mi.f1, mi.num_partitions,
        mi.num_entities, md.precision, md.recall, md.f1, md.num_partitions);
  }
  std::printf("dep graph: %lld nodes, %lld edges, %lld merges, %lld folds, "
              "build %.2fs solve %.2fs\n",
              static_cast<long long>(rd.stats.num_nodes),
              static_cast<long long>(rd.stats.num_edges),
              static_cast<long long>(rd.stats.num_merges),
              static_cast<long long>(rd.stats.num_folds),
              rd.stats.build_seconds, rd.stats.solve_seconds);
  return 0;
}
