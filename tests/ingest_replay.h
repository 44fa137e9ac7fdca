// Shared by the incremental tests: shuffled corpora, and a replay of a
// corpus as an incremental ingest of fixed-size flushes.

#ifndef RECON_TESTS_INGEST_REPLAY_H_
#define RECON_TESTS_INGEST_REPLAY_H_

#include <cstdint>
#include <numeric>
#include <random>
#include <string>
#include <vector>

#include "core/incremental.h"
#include "datagen/cora_generator.h"
#include "datagen/pim_generator.h"
#include "model/subset.h"
#include "util/logging.h"

namespace recon::replay {

/// `data` with its reference order shuffled by `seed` (associations
/// remapped), so every batch mixes classes and extraction units.
inline Dataset Shuffled(const Dataset& data, uint64_t seed) {
  const int n = data.num_references();
  std::vector<RefId> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::mt19937_64 rng(seed);
  std::shuffle(order.begin(), order.end(), rng);
  std::vector<RefId> new_id(n);
  for (int i = 0; i < n; ++i) new_id[order[i]] = i;
  Dataset out(data.schema());
  for (const RefId old_id : order) {
    const Reference& src = data.reference(old_id);
    Reference ref(src.class_id(), src.num_attributes());
    for (int attr = 0; attr < src.num_attributes(); ++attr) {
      for (const std::string& v : src.atomic_values(attr)) {
        ref.AddAtomicValue(attr, v);
      }
      for (const RefId target : src.associations(attr)) {
        ref.AddAssociation(attr, new_id[target]);
      }
    }
    out.AddReference(std::move(ref), data.gold_entity(old_id),
                     data.provenance(old_id));
  }
  return out;
}

/// PIM B at 0.025x, shuffled by `seed`.
inline Dataset ShuffledPimB(uint64_t seed = 13) {
  return Shuffled(datagen::GeneratePim(
                      datagen::ScaleConfig(datagen::PimConfigB(), 0.025)),
                  seed);
}

inline Dataset ShuffledCora() {
  datagen::CoraConfig config;
  config.num_papers = 30;
  config.num_citations = 300;
  config.num_authors = 60;
  config.num_venue_series = 12;
  return Shuffled(datagen::GenerateCora(config), /*seed=*/17);
}

inline constexpr int kFlushBatch = 16;

/// Replays `full` as an incremental ingest: the references before the
/// last `flushes` batches form the initial dataset, then each batch of
/// kFlushBatch references is added (keeping only associations to
/// references that already exist) and flushed. `after_flush` runs after
/// the initial reconcile (flush 0) and after every batch.
template <typename AfterFlush>
void ReplayIngest(const Dataset& full, const ReconcilerOptions& options,
                  int flushes, AfterFlush after_flush) {
  const RefId split = full.num_references() - flushes * kFlushBatch;
  RECON_CHECK_GT(split, 0);
  IncrementalReconciler reconciler(
      FilterDataset(full, [&](RefId id) { return id < split; }), options);
  reconciler.Flush();
  after_flush(reconciler, 0);
  for (int f = 0; f < flushes; ++f) {
    for (int i = 0; i < kFlushBatch; ++i) {
      const RefId id = split + f * kFlushBatch + i;
      const Reference& src = full.reference(id);
      Reference ref(src.class_id(), src.num_attributes());
      for (int attr = 0; attr < src.num_attributes(); ++attr) {
        for (const std::string& v : src.atomic_values(attr)) {
          ref.AddAtomicValue(attr, v);
        }
        for (const RefId target : src.associations(attr)) {
          if (target < id) ref.AddAssociation(attr, target);
        }
      }
      reconciler.AddReference(std::move(ref), full.gold_entity(id),
                              full.provenance(id));
    }
    reconciler.Flush();
    after_flush(reconciler, f + 1);
  }
}

}  // namespace recon::replay

#endif  // RECON_TESTS_INGEST_REPLAY_H_
