// Quality gate for incremental reconciliation over a long ingest: PIM B
// 0.25x replayed as 128 flushes of 16 references (the service phase of the
// repository benchmark), once per shuffled reference order. The final
// partition must be about as good as a batch run on the same references,
// and negative propagation may undo only a small share of the merges it
// finds (DESIGN.md §5, §17).

#include <cstdint>
#include <string>

#include <gtest/gtest.h>

#include "core/incremental.h"
#include "core/reconciler.h"
#include "datagen/pim_generator.h"
#include "eval/metrics.h"
#include "ingest_replay.h"

namespace recon {
namespace {

class IncrementalQualityTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(IncrementalQualityTest, LongIngestKeepsBatchQuality) {
  const Dataset full = replay::Shuffled(
      datagen::GeneratePim(datagen::ScaleConfig(datagen::PimConfigB(), 0.25)),
      GetParam());
  ReconcilerOptions options = ReconcilerOptions::DepGraph();
  options.premerge_equal_emails = false;
  options.num_threads = 2;
  constexpr int kFlushes = 128;

  double incremental_f1 = 0;
  double batch_f1 = 0;
  ReconcileStats stats;
  replay::ReplayIngest(
      full, options, kFlushes,
      [&](IncrementalReconciler& reconciler, int flush) {
        if (flush < kFlushes) return;
        const ReconcileResult result = reconciler.result();
        stats = result.stats;
        // The final dataset drops the associations a replayed reference had
        // to later references, so the batch run reads that dataset too.
        const Dataset& final_data = reconciler.dataset();
        const int person = final_data.schema().RequireClass("Person");
        incremental_f1 =
            EvaluateBCubed(final_data, result.cluster, person).f1;
        batch_f1 = EvaluateBCubed(final_data,
                                  Reconciler(options).Run(final_data).cluster,
                                  person)
                       .f1;
      });
  EXPECT_NEAR(incremental_f1, batch_f1, 0.01);
  ASSERT_GT(stats.num_merges, 0);
  EXPECT_LE(static_cast<double>(stats.num_unmerged_pairs),
            0.02 * static_cast<double>(stats.num_merges))
      << stats.num_unmerged_pairs << " of " << stats.num_merges
      << " merges undone";
}

INSTANTIATE_TEST_SUITE_P(
    ShuffleSeeds, IncrementalQualityTest,
    ::testing::Values(uint64_t{1}, uint64_t{2}, uint64_t{3}, uint64_t{4},
                      uint64_t{5}),
    [](const ::testing::TestParamInfo<uint64_t>& info) {
      return "Seed" + std::to_string(info.param);
    });

}  // namespace
}  // namespace recon
