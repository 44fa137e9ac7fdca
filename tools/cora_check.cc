// Developer tool: IndepDec vs DepGraph per class on the Cora generator,
// plus venue-mention diagnostics. Usage: cora_check [num_papers] [cites]

#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>

#include "core/reconciler.h"
#include "datagen/cora_generator.h"
#include "eval/metrics.h"

int main(int argc, char** argv) {
  using namespace recon;
  datagen::CoraConfig config;
  if (argc > 1) config.num_papers = atoi(argv[1]);
  if (argc > 2) config.num_citations = atoi(argv[2]);
  const Dataset data = datagen::GenerateCora(config);

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

  // Show the venue strings of the largest gold venue entity to eyeball
  // the rendering diversity.
  const int venue = data.schema().RequireClass("Venue");
  std::map<int, std::set<std::string>> strings_of;
  std::map<int, int> count_of;
  const int name_attr = data.schema().RequireAttribute(venue, "name");
  for (const RefId id : data.ReferencesOfClass(venue)) {
    strings_of[data.gold_entity(id)].insert(
        data.reference(id).FirstValue(name_attr));
    ++count_of[data.gold_entity(id)];
  }
  int best = -1;
  for (const auto& [gold, n] : count_of) {
    if (best < 0 || n > count_of[best]) best = gold;
  }
  std::printf("\nLargest venue entity (%d mentions) rendered as:\n",
              count_of[best]);
  int shown = 0;
  for (const auto& s : strings_of[best]) {
    if (shown++ >= 10) break;
    std::printf("  '%s'\n", s.c_str());
  }
  return 0;
}
