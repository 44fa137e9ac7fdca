// The reconciliation service core: a long-lived reconciler behind an
// atomically swapped snapshot (DESIGN.md §12).
//
// Concurrency contract (snapshot isolation):
//   * Readers call snapshot() — one atomic shared_ptr pin (a few atomic
//     instructions, util/atomic_shared_ptr.h), no mutex — and answer every
//     query of a batch against that one pinned snapshot.
//     A reader never blocks on ingest, and a response always reports the
//     generation it was answered from.
//   * Writers (ingest/flush) serialize on one mutex, stage references
//     through IncrementalReconciler::AddReference, run Flush() (one budget
//     epoch, PR-4), build the next Snapshot on the ingesting thread, and
//     publish it with one atomic store. Readers holding the old snapshot
//     keep it alive through their shared_ptr until they finish.

#ifndef RECON_SERVICE_SERVICE_H_
#define RECON_SERVICE_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/incremental.h"
#include "service/checkpoint.h"
#include "service/snapshot.h"
#include "service/wal.h"
#include "util/atomic_shared_ptr.h"
#include "util/status.h"

namespace recon::service {

struct ServiceOptions {
  /// Options for the underlying incremental reconciler (threads, flush
  /// budget, value store, ...). The budget applies per Flush(), as always.
  ReconcilerOptions reconciler;
  /// Per-request wall-clock deadline for query scoring; 0 = unlimited.
  /// Overloaded queries degrade to partial candidate lists (DESIGN.md §10
  /// semantics applied per request), never to stalls.
  double query_deadline_ms = 0;
  /// WAL + checkpoint configuration (DESIGN.md §15). Only honored through
  /// ReconService::Open(); the plain constructor requires it unset.
  DurabilityOptions durability;
};

/// Durability-subsystem telemetry (all under the ingest mutex).
struct DurabilityStats {
  bool enabled = false;
  /// Last generation whose flush record is durable per the fsync policy.
  uint64_t durable_generation = 0;
  int64_t wal_records = 0;
  int64_t wal_bytes = 0;
  int64_t checkpoints_written = 0;
  uint64_t checkpoint_generation = 0;  ///< Generation of the newest one.
  /// Failed checkpoint attempts (service continues on the old WAL).
  int64_t checkpoint_failures = 0;
  bool recovered = false;        ///< This process recovered from disk.
  bool recovered_clean = false;  ///< ... and the WAL carried a seal.
  int64_t replayed_epochs = 0;
  int64_t replayed_references = 0;
  int64_t wal_truncated_bytes = 0;  ///< Torn tail dropped during recovery.
  /// Sticky: a WAL write or sync failed; ingest is rejected (503), queries
  /// keep serving the last published snapshot.
  bool write_failed = false;
};

/// Monotonically increasing service counters (all thread-safe).
struct ServiceCounters {
  std::atomic<int64_t> query_batches{0};
  std::atomic<int64_t> queries{0};
  std::atomic<int64_t> degraded_queries{0};
  std::atomic<int64_t> candidates_scored{0};
  std::atomic<int64_t> ingested_references{0};
  std::atomic<int64_t> flushes{0};
  /// The reconciler's ReconcileStats::negprop_sources (latest flush) and
  /// graph_compactions (cumulative), as of the latest ingest flush.
  std::atomic<int64_t> negprop_sources{0};
  std::atomic<int64_t> graph_compactions{0};
  /// The reconciler's ReconcileStats::num_unmerged_pairs (cumulative):
  /// merged pairs a later flush demoted, splitting a published cluster.
  std::atomic<int64_t> unmerged_pairs{0};
  /// The reconciler's ReconcileStats::num_derived_non_merge_pairs: pairs
  /// the triangle rule demoted, which are not negative-evidence sources.
  std::atomic<int64_t> derived_non_merge_pairs{0};
  /// The reconciler's ReconcileStats::num_dropped_blocks (cumulative):
  /// blocking-key blocks over max_block_size, which yield no candidates.
  std::atomic<int64_t> dropped_blocks{0};
  /// The latest publish: wall time of its closure update plus snapshot
  /// build, and the entities whose EntityInfo it built rather than shared
  /// with the previous snapshot.
  std::atomic<double> publish_ms{0};
  std::atomic<int64_t> snapshot_entities_rebuilt{0};
};

/// Result of answering one query batch against one pinned snapshot.
struct BatchAnswer {
  /// The snapshot every result in this batch was computed from.
  std::shared_ptr<const Snapshot> snapshot;
  std::vector<QueryResult> results;
  /// True when the per-request budget truncated any query in the batch.
  bool degraded = false;
};

/// What an ingest call did.
struct IngestReport {
  int added = 0;             ///< References staged by this call.
  int staged_total = 0;      ///< References staged but not yet flushed.
  bool flushed = false;      ///< Whether this call ran a flush.
  uint64_t generation = 0;   ///< Snapshot generation after this call.
};

class ReconService {
 public:
  /// Reconciles `initial` in full and publishes snapshot generation 0.
  /// In-memory only: options.durability.data_dir must be empty (use Open()
  /// for a durable service).
  ReconService(Dataset initial, ServiceOptions options);

  /// Opens a durable service (or an in-memory one when
  /// options.durability.data_dir is empty).
  ///
  ///   * Fresh data dir (or none yet): reconciles `initial`, publishes
  ///     generation 0, writes checkpoint-0 and starts wal-0.
  ///   * Existing state: `initial` is IGNORED except for sanity checks —
  ///     the service rebuilds from the newest valid checkpoint by
  ///     replaying its epoch table through the normal incremental staging
  ///     path, then replays the WAL tail (same path), truncating any torn
  ///     tail. The rebuilt clusters are verified against the checkpoint's
  ///     stored clusters; divergence or corruption beyond recovery fails
  ///     with kFailedPrecondition (callers map this to a distinct exit
  ///     code).
  static StatusOr<std::unique_ptr<ReconService>> Open(Dataset initial,
                                                      ServiceOptions options);

  ReconService(const ReconService&) = delete;
  ReconService& operator=(const ReconService&) = delete;

  /// The current snapshot: one atomic pin, never a mutex, never null.
  std::shared_ptr<const Snapshot> snapshot() const {
    return snapshot_.Load();
  }

  /// Answers a query batch against one pinned snapshot under one
  /// per-request budget (ServiceOptions::query_deadline_ms, overridable
  /// per call with `deadline_ms` > 0). Lock-free with respect to ingest.
  BatchAnswer Reconcile(const std::vector<ReconQuery>& queries,
                        double deadline_ms = 0) const;

  /// Stages references (associations may target any RefId that already
  /// exists or precedes the reference within this batch) and, when
  /// `flush` is set, reconciles them and publishes a new snapshot.
  /// `golds` is parallel to `refs` (-1 = unlabeled) or empty.
  ///
  /// With durability on, the batch (and the flush boundary) is appended to
  /// the WAL — fsync'd per policy — *before* anything is staged in memory:
  /// an acknowledged call is replayable, a failed one left no memory-only
  /// state. After a WAL failure the service is read-only and ingest
  /// returns kFailedPrecondition (handlers map it to 503).
  StatusOr<IngestReport> Ingest(std::vector<Reference> refs,
                                std::vector<int> golds, bool flush);

  /// Flushes staged references (if any) and publishes a new snapshot.
  /// Returns the generation afterwards. Serializes with Ingest. Fails
  /// only when durability is on and the WAL is (or goes) unusable.
  StatusOr<uint64_t> Flush();

  /// Appends the clean-shutdown seal to the WAL and syncs it (graceful
  /// drain). No-op without durability.
  Status Seal();

  /// Schema of the served dataset (fixed for the service lifetime).
  const Schema& schema() const { return schema_; }
  const ServiceOptions& options() const { return options_; }
  const ServiceCounters& counters() const { return counters_; }
  /// References staged but not yet reconciled into a snapshot.
  int staged_references() const;
  /// Durability telemetry (locks; safe from any thread).
  DurabilityStats durability_stats() const;

 private:
  /// Flushes, builds the next snapshot from the current one (rebuilding
  /// only the entities the flush changed) and publishes it, then writes a
  /// checkpoint + rotates the WAL every checkpoint_every generations.
  /// Caller must hold ingest_mu_.
  uint64_t PublishLocked();
  /// One flush epoch without a snapshot build or checkpoint — the replay
  /// fast path. Caller must hold ingest_mu_.
  void ReplayEpochLocked();
  /// Fresh data dir: writes checkpoint-<generation_> and starts a WAL.
  Status InitFreshDurabilityLocked();
  /// Existing data dir: rebuild from checkpoint + WAL tail (see Open()).
  Status RecoverLocked(const DataDirState& dir_state);
  /// Serializes current state into a checkpoint, rotates the WAL, removes
  /// stale files. Failures leave the old WAL in service.
  Status WriteCheckpointLocked();

  ServiceOptions options_;
  Schema schema_;
  mutable ServiceCounters counters_;  // Monotone telemetry, logically const.

  mutable std::mutex ingest_mu_;
  IncrementalReconciler reconciler_;  // Guarded by ingest_mu_.
  uint64_t generation_ = 0;           // Guarded by ingest_mu_.

  // ---- Durability (all guarded by ingest_mu_) ----
  std::unique_ptr<WriteAheadLog> wal_;  ///< Null = in-memory service.
  /// epoch_refs_[g] = references flushed as of generation g — the epoch
  /// table checkpoints persist and recovery replays.
  std::vector<int64_t> epoch_refs_;
  bool wal_failed_ = false;   ///< Sticky; see Ingest().
  std::string wal_error_;     ///< First failure, for error messages.
  DurabilityStats durability_stats_storage_;

  AtomicSharedPtr<const Snapshot> snapshot_;
};

}  // namespace recon::service

#endif  // RECON_SERVICE_SERVICE_H_
