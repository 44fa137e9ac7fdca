// Developer tool: prints wrongly merged reference pairs with their
// evidence breakdown. Usage:
//   debug_merges [A|B|C|D] [scale] [Person|Article|Venue] [dep|indep]

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/reconciler.h"
#include "datagen/pim_generator.h"
#include "sim/evidence.h"

using namespace recon;

int main(int argc, char** argv) {
  const char dataset_id = argc > 1 ? argv[1][0] : 'A';
  const double scale = argc > 2 ? atof(argv[2]) : 0.3;
  const std::string class_name = argc > 3 ? argv[3] : "Person";
  const bool use_indep = argc > 4 && strcmp(argv[4], "indep") == 0;

  datagen::PimConfig config = datagen::PimConfigA();
  if (dataset_id == 'B') config = datagen::PimConfigB();
  if (dataset_id == 'C') config = datagen::PimConfigC();
  if (dataset_id == 'D') config = datagen::PimConfigD();
  if (scale < 1.0) config = datagen::ScaleConfig(config, scale);
  const Dataset data = datagen::GeneratePim(config);
  const int class_id = data.schema().RequireClass(class_name);

  auto describe = [&](RefId id) {
    const Reference& r = data.reference(id);
    std::string out = "ref " + std::to_string(id) + " gold " +
                      std::to_string(data.gold_entity(id)) + ":";
    for (int attr = 0; attr < r.num_attributes(); ++attr) {
      for (const auto& v : r.atomic_values(attr)) {
        out += " '" + v + "'";
      }
    }
    return out;
  };

  if (use_indep) {
    const Reconciler indep(ReconcilerOptions::IndepDec());
    const ReconcileResult result = indep.Run(data);
    int shown = 0;
    for (const auto& [r1, r2] : result.merged_pairs) {
      if (data.reference(r1).class_id() != class_id) continue;
      if (data.gold_entity(r1) == data.gold_entity(r2)) continue;
      if (shown++ >= 12) break;
      printf("WRONG DIRECT MERGE:\n  %s\n  %s\n", describe(r1).c_str(),
             describe(r2).c_str());
    }
    printf("(%d wrong direct merges total)\n", [&] {
      int count = 0;
      for (const auto& [r1, r2] : result.merged_pairs) {
        if (data.reference(r1).class_id() == class_id &&
            data.gold_entity(r1) != data.gold_entity(r2)) {
          ++count;
        }
      }
      return count;
    }());
    return 0;
  }

  ReconcilerOptions opt = ReconcilerOptions::DepGraph();
  BuiltGraph built = BuildDependencyGraph(data, opt);
  const Reconciler rec(opt);
  rec.RunOnGraph(data, built);
  const auto& g = *built.graph;
  int shown = 0;
  for (NodeId id = 0; id < g.num_nodes(); ++id) {
    const Node& n = g.node(id);
    if (n.dead || !n.IsRefPair() || n.state != NodeState::kMerged) continue;
    if (n.class_id != class_id) continue;
    const int ga = data.gold_entity(n.a);
    const int gb = data.gold_entity(n.b);
    if (ga == gb || shown++ >= 8) continue;
    printf("WRONG MERGE sim=%.3f\n  %s\n  %s\n", n.sim,
           describe(n.a).c_str(), describe(n.b).c_str());
    for (const auto& [t, s] : g.static_real(id)) {
      printf("  static ev=%s sim=%.2f\n", EvidenceName(t), s);
    }
    int strong = 0;
    int weak = 0;
    for (const auto& e : g.in_edges(id)) {
      const Node& src = g.node(e.node);
      if (e.kind == DependencyKind::kRealValued) {
        printf("  in ev=%s sim=%.2f%s\n", EvidenceName(e.evidence), src.sim,
               src.state == NodeState::kMerged ? " (merged)" : "");
      } else if (src.state == NodeState::kMerged) {
        (e.kind == DependencyKind::kStrongBoolean ? strong : weak) += 1;
      }
    }
    printf("  merged strong=%d weak=%d static_strong=%d static_weak=%d\n",
           strong, weak, n.static_strong, n.static_weak);
  }
  return 0;
}
