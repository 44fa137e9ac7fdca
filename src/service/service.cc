#include "service/service.h"

#include <sys/stat.h>
#include <sys/types.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "model/text_io.h"
#include "util/timer.h"

namespace recon::service {
namespace {

/// mkdir that tolerates an existing directory.
Status EnsureDir(const std::string& dir) {
  if (::mkdir(dir.c_str(), 0755) == 0 || errno == EEXIST) return Status::Ok();
  return Status::FailedPrecondition("data dir " + dir + ": " +
                                    std::string(std::strerror(errno)));
}

}  // namespace

ReconService::ReconService(Dataset initial, ServiceOptions options)
    : options_(std::move(options)),
      schema_(initial.schema()),
      reconciler_(std::move(initial), options_.reconciler) {
  RECON_CHECK(options_.durability.data_dir.empty())
      << "durable services must be constructed via ReconService::Open()";
  std::lock_guard<std::mutex> lock(ingest_mu_);
  // Initial load is generation 0; PublishLocked would bump to 1.
  snapshot_.Store(BuildSnapshot(reconciler_.dataset(), reconciler_.clusters(),
                                options_.reconciler, /*generation=*/0));
  epoch_refs_.push_back(reconciler_.flushed_until());
}

StatusOr<std::unique_ptr<ReconService>> ReconService::Open(
    Dataset initial, ServiceOptions options) {
  const DurabilityOptions durability = options.durability;
  if (durability.data_dir.empty()) {
    return std::make_unique<ReconService>(std::move(initial),
                                          std::move(options));
  }
  RECON_RETURN_IF_ERROR(EnsureDir(durability.data_dir));
  StatusOr<DataDirState> dir_state = ScanDataDir(durability.data_dir);
  if (!dir_state.ok()) return dir_state.status();

  // The constructor must not see durability options (it asserts them
  // empty); they are re-attached before the durable init below.
  ServiceOptions ctor_options = options;
  ctor_options.durability = DurabilityOptions();

  if (dir_state.value().empty()) {
    // Fresh start: reconcile `initial` in memory first, then make it
    // durable as checkpoint-0 + an empty WAL. A crash in between leaves
    // an empty dir and the next start redoes this from the CLI dataset.
    auto service = std::make_unique<ReconService>(std::move(initial),
                                                  std::move(ctor_options));
    std::lock_guard<std::mutex> lock(service->ingest_mu_);
    service->options_.durability = durability;
    RECON_RETURN_IF_ERROR(service->InitFreshDurabilityLocked());
    return service;
  }

  // Recovery: `initial` only contributes a schema sanity check; state
  // comes from the surviving files. Start the reconciler empty — the
  // checkpoint's epoch 0 is replayed like every other epoch.
  Dataset empty(initial.schema());
  auto service = std::make_unique<ReconService>(std::move(empty),
                                                std::move(ctor_options));
  std::lock_guard<std::mutex> lock(service->ingest_mu_);
  service->options_.durability = durability;
  RECON_RETURN_IF_ERROR(service->RecoverLocked(dir_state.value()));
  return service;
}

Status ReconService::InitFreshDurabilityLocked() {
  // checkpoint-0 + wal-0: the initial dataset becomes durable here, so a
  // later start can omit the dataset argument entirely.
  return WriteCheckpointLocked();
}

Status ReconService::RecoverLocked(const DataDirState& dir_state) {
  const DurabilityOptions& durability = options_.durability;
  if (dir_state.checkpoint_paths.empty()) {
    return Status::FailedPrecondition(
        "data dir " + durability.data_dir +
        " has WAL segments but no checkpoint: corrupt beyond recovery");
  }

  // Newest valid checkpoint wins; older ones only survive on disk when a
  // crash interrupted the post-checkpoint cleanup, and serve as fallbacks
  // if the newest file is damaged.
  CheckpointData checkpoint;
  size_t chosen = dir_state.checkpoint_paths.size();
  std::string first_error;
  for (size_t i = 0; i < dir_state.checkpoint_paths.size(); ++i) {
    StatusOr<CheckpointData> loaded =
        ReadCheckpointFile(dir_state.checkpoint_paths[i]);
    if (loaded.ok()) {
      checkpoint = std::move(loaded).value();
      chosen = i;
      break;
    }
    if (first_error.empty()) first_error = loaded.status().message();
  }
  if (chosen == dir_state.checkpoint_paths.size()) {
    return Status::FailedPrecondition("no usable checkpoint in " +
                                      durability.data_dir + ": " +
                                      first_error);
  }
  // A WAL segment newer than every readable checkpoint has lost its base
  // state; refusing is the only honest option.
  for (const uint64_t wal_generation : dir_state.wal_generations) {
    if (wal_generation > checkpoint.generation) {
      return Status::FailedPrecondition(
          "wal segment at generation " + std::to_string(wal_generation) +
          " outlives every usable checkpoint (newest " +
          std::to_string(checkpoint.generation) + "): corrupt beyond recovery");
    }
  }

  StatusOr<Dataset> full = ParseDataset(checkpoint.dataset_text);
  if (!full.ok()) {
    return Status::FailedPrecondition("checkpoint dataset unparsable: " +
                                      full.status().message());
  }
  if (full.value().num_references() !=
      static_cast<int>(checkpoint.clusters.size())) {
    return Status::FailedPrecondition(
        "checkpoint dataset/cluster size mismatch");
  }

  // ---- Replay the checkpoint's epochs through normal staging. ----
  // The reconciler's result is a deterministic function of (batches, epoch
  // boundaries) — PR-8's canonical commit order makes this thread-count
  // invariant — so re-running the recorded epochs reproduces the exact
  // pre-crash partition, which the stored clusters then verify.
  DurabilityStats& stats = durability_stats_storage_;
  stats.recovered = true;
  const Dataset& source = full.value();
  int64_t next_ref = 0;
  for (size_t g = 0; g < checkpoint.epoch_refs.size(); ++g) {
    const int64_t until = checkpoint.epoch_refs[g];
    if (until < next_ref || until > source.num_references()) {
      return Status::FailedPrecondition("checkpoint epoch table out of range");
    }
    for (; next_ref < until; ++next_ref) {
      const RefId id = static_cast<RefId>(next_ref);
      reconciler_.AddReference(source.reference(id), source.gold_entity(id),
                               source.provenance(id));
    }
    if (g == 0) {
      // Epoch 0 is the initial load: one flush, still generation 0 —
      // exactly what the fresh-start constructor produces.
      reconciler_.clusters();
      epoch_refs_[0] = reconciler_.flushed_until();
    } else {
      ReplayEpochLocked();
    }
    ++stats.replayed_epochs;
  }
  stats.replayed_references = next_ref;
  if (generation_ != checkpoint.generation) {
    return Status::Internal("replayed generation " +
                            std::to_string(generation_) +
                            " != checkpoint generation " +
                            std::to_string(checkpoint.generation));
  }
  // Integrity gate: the replayed partition must be byte-identical to what
  // the pre-crash service published at this generation.
  const std::vector<int>& replayed = reconciler_.clusters();
  if (replayed.size() != checkpoint.clusters.size()) {
    return Status::FailedPrecondition("checkpoint cluster verification failed "
                                      "(size mismatch): corrupt beyond recovery");
  }
  for (size_t i = 0; i < replayed.size(); ++i) {
    if (replayed[i] != checkpoint.clusters[i]) {
      return Status::FailedPrecondition(
          "checkpoint cluster verification failed at reference " +
          std::to_string(i) + ": corrupt beyond recovery");
    }
  }
  stats.checkpoint_generation = checkpoint.generation;

  // ---- Replay the WAL tail for this checkpoint, if it survived. ----
  std::string wal_path;
  WalContents tail;
  for (size_t i = 0; i < dir_state.wal_generations.size(); ++i) {
    if (dir_state.wal_generations[i] == checkpoint.generation) {
      wal_path = dir_state.wal_paths[i];
      break;
    }
  }
  if (!wal_path.empty()) {
    StatusOr<WalContents> contents = ReadWalFile(wal_path);
    if (!contents.ok()) {
      // Unreadable header: the segment never got a durable header write.
      // Its base checkpoint carries the full durable state; recreate.
      wal_path.clear();
      stats.wal_truncated_bytes = 0;
    } else {
      tail = std::move(contents).value();
      if (tail.base_generation != checkpoint.generation) {
        return Status::FailedPrecondition(
            "wal " + wal_path + " base generation mismatch: corrupt");
      }
      stats.wal_truncated_bytes = static_cast<int64_t>(tail.truncated_bytes);
      stats.recovered_clean = tail.sealed;
    }
  }

  // Replay the tail in two halves around its last flush boundary: batch
  // records after it were staged but never flushed pre-crash, and they
  // must come back *staged* — folding them into the published snapshot
  // here would both expose unflushed references at the old generation and
  // run a flush epoch the WAL never recorded, so the next replay of this
  // WAL would see different epoch boundaries and diverge.
  size_t flushed_prefix = 0;
  for (size_t i = 0; i < tail.records.size(); ++i) {
    if (tail.records[i].type == WalRecord::kFlush) flushed_prefix = i + 1;
  }
  const auto replay_record = [&](const WalRecord& record) -> Status {
    if (record.type == WalRecord::kBatch) {
      for (size_t i = 0; i < record.refs.size(); ++i) {
        reconciler_.AddReference(record.refs[i], record.golds[i],
                                 record.provenances[i]);
      }
      stats.replayed_references += static_cast<int64_t>(record.refs.size());
    } else if (record.type == WalRecord::kFlush) {
      ReplayEpochLocked();
      ++stats.replayed_epochs;
      if (generation_ != record.generation) {
        return Status::Internal(
            "wal replay generation " + std::to_string(generation_) +
            " != flush record generation " +
            std::to_string(record.generation));
      }
    }
    return Status::Ok();
  };
  for (size_t i = 0; i < flushed_prefix; ++i) {
    RECON_RETURN_IF_ERROR(replay_record(tail.records[i]));
  }

  // Publish the recovered snapshot at the recovered generation (no bump:
  // this is the pre-crash state, not a new flush). Nothing is staged at
  // this point, so clusters() is a cached read, not a new epoch.
  snapshot_.Store(BuildSnapshot(reconciler_.dataset(), reconciler_.clusters(),
                                options_.reconciler, generation_));

  // Now re-stage the unflushed tail; the next Flush() will both record
  // and apply it, exactly as if the crash had never happened.
  for (size_t i = flushed_prefix; i < tail.records.size(); ++i) {
    RECON_RETURN_IF_ERROR(replay_record(tail.records[i]));
  }

  // Reopen (or recreate) the WAL for append. Everything replayed came off
  // disk, so the durable generation is the recovered one.
  const std::string expected_path = options_.durability.data_dir + "/" +
                                    WalFileName(checkpoint.generation);
  StatusOr<std::unique_ptr<WriteAheadLog>> wal =
      !wal_path.empty()
          ? WriteAheadLog::OpenForAppend(
                wal_path, checkpoint.generation, tail.append_offset,
                generation_, options_.durability.fsync,
                options_.durability.io_fault)
          : WriteAheadLog::Create(options_.durability.data_dir, expected_path,
                                  checkpoint.generation,
                                  options_.durability.fsync,
                                  options_.durability.io_fault);
  if (!wal.ok()) return wal.status();
  wal_ = std::move(wal).value();

  // Only now that the recovered pair is in service: delete stale files
  // (older checkpoints, orphan WAL segments, tmp leftovers). Best-effort;
  // a failure here never loses data, the next recovery retries.
  for (size_t i = 0; i < dir_state.checkpoint_paths.size(); ++i) {
    if (i == chosen) continue;
    (void)wal_internal::RemoveFile(dir_state.checkpoint_paths[i],
                                   options_.durability.io_fault.get());
  }
  for (size_t i = 0; i < dir_state.wal_paths.size(); ++i) {
    if (dir_state.wal_paths[i] == wal_->path()) continue;
    (void)wal_internal::RemoveFile(dir_state.wal_paths[i],
                                   options_.durability.io_fault.get());
  }
  for (const std::string& tmp : dir_state.tmp_paths) {
    (void)wal_internal::RemoveFile(tmp, options_.durability.io_fault.get());
  }
  return Status::Ok();
}

BatchAnswer ReconService::Reconcile(const std::vector<ReconQuery>& queries,
                                    double deadline_ms) const {
  BatchAnswer answer;
  // Pin one snapshot for the whole batch: every query of a request is
  // answered from the same reconciled state, whatever ingest does
  // meanwhile.
  answer.snapshot = snapshot();

  // One budget epoch per request, shared across the batch's queries —
  // exactly the per-run semantics of DESIGN.md §10, scoped to a request.
  Budget budget;
  budget.deadline_ms =
      deadline_ms > 0 ? deadline_ms : options_.query_deadline_ms;
  BudgetTracker tracker(budget);

  answer.results.reserve(queries.size());
  for (const ReconQuery& query : queries) {
    QueryResult result = answer.snapshot->Query(query, &tracker);
    counters_.queries.fetch_add(1, std::memory_order_relaxed);
    counters_.candidates_scored.fetch_add(result.num_scored,
                                          std::memory_order_relaxed);
    if (result.degraded) {
      counters_.degraded_queries.fetch_add(1, std::memory_order_relaxed);
      answer.degraded = true;
    }
    answer.results.push_back(std::move(result));
  }
  counters_.query_batches.fetch_add(1, std::memory_order_relaxed);
  return answer;
}

StatusOr<IngestReport> ReconService::Ingest(std::vector<Reference> refs,
                                            std::vector<int> golds,
                                            bool flush) {
  if (!golds.empty() && golds.size() != refs.size()) {
    return Status::InvalidArgument("golds must be empty or match refs");
  }
  std::lock_guard<std::mutex> lock(ingest_mu_);
  const RefId base = reconciler_.dataset().num_references();
  // Validate association targets before mutating anything: a reference may
  // link to any existing reference or to an earlier one of this batch.
  for (size_t i = 0; i < refs.size(); ++i) {
    const RefId bound = base + static_cast<RefId>(i);
    for (int attr = 0; attr < refs[i].num_attributes(); ++attr) {
      for (const RefId target : refs[i].associations(attr)) {
        if (target < 0 || target >= bound) {
          return Status::InvalidArgument(
              "association target " + std::to_string(target) +
              " out of range (must be < " + std::to_string(bound) + ")");
        }
      }
    }
  }

  // Write-intent ordering: the batch (and its flush boundary) must be in
  // the WAL before any in-memory effect, so a crash between the two only
  // ever loses unacknowledged work. A WAL failure rejects the call with
  // the in-memory state untouched and the service goes read-only.
  if (wal_ != nullptr) {
    if (wal_failed_) {
      return Status::FailedPrecondition(
          "durability failed, ingest disabled (" + wal_error_ + ")");
    }
    Status st = wal_->AppendBatch(refs, golds);
    if (st.ok() && flush) st = wal_->AppendFlush(generation_ + 1);
    if (!st.ok()) {
      wal_failed_ = true;
      wal_error_ = st.message();
      return Status::FailedPrecondition("wal append failed: " + st.message());
    }
  }

  IngestReport report;
  for (size_t i = 0; i < refs.size(); ++i) {
    const int gold = golds.empty() ? -1 : golds[i];
    reconciler_.AddReference(std::move(refs[i]), gold);
    ++report.added;
  }
  counters_.ingested_references.fetch_add(report.added,
                                          std::memory_order_relaxed);
  if (flush) {
    report.generation = PublishLocked();
    report.flushed = true;
    report.staged_total = 0;
    if (wal_failed_) {
      // A checkpoint attempt crashed mid-publish (simulated kill): the
      // flush itself is durable, but a dead process acknowledges nothing.
      return Status::FailedPrecondition("durability failed during publish: " +
                                        wal_error_);
    }
  } else {
    report.generation = generation_;
    report.staged_total =
        reconciler_.dataset().num_references() - reconciler_.flushed_until();
  }
  return report;
}

StatusOr<uint64_t> ReconService::Flush() {
  std::lock_guard<std::mutex> lock(ingest_mu_);
  if (wal_ != nullptr) {
    if (wal_failed_) {
      return Status::FailedPrecondition(
          "durability failed, flush disabled (" + wal_error_ + ")");
    }
    const Status st = wal_->AppendFlush(generation_ + 1);
    if (!st.ok()) {
      wal_failed_ = true;
      wal_error_ = st.message();
      return Status::FailedPrecondition("wal append failed: " + st.message());
    }
  }
  const uint64_t generation = PublishLocked();
  if (wal_failed_) {
    return Status::FailedPrecondition("durability failed during publish: " +
                                      wal_error_);
  }
  return generation;
}

Status ReconService::Seal() {
  std::lock_guard<std::mutex> lock(ingest_mu_);
  if (wal_ == nullptr) return Status::Ok();
  if (wal_failed_) {
    return Status::FailedPrecondition("durability failed, wal not sealed (" +
                                      wal_error_ + ")");
  }
  const Status st = wal_->AppendSeal(generation_);
  if (!st.ok()) {
    wal_failed_ = true;
    wal_error_ = st.message();
  }
  return st;
}

int ReconService::staged_references() const {
  std::lock_guard<std::mutex> lock(ingest_mu_);
  return reconciler_.dataset().num_references() - reconciler_.flushed_until();
}

DurabilityStats ReconService::durability_stats() const {
  std::lock_guard<std::mutex> lock(ingest_mu_);
  DurabilityStats stats = durability_stats_storage_;
  stats.enabled = wal_ != nullptr;
  stats.write_failed = wal_failed_;
  if (wal_ != nullptr) {
    stats.durable_generation = wal_->durable_generation();
    stats.wal_records = wal_->appended_records();
    stats.wal_bytes = wal_->appended_bytes();
  }
  return stats;
}

void ReconService::ReplayEpochLocked() {
  // One budget epoch, same as PublishLocked, but no snapshot build and no
  // checkpoint: recovery publishes once at the end.
  reconciler_.clusters();
  ++generation_;
  epoch_refs_.push_back(reconciler_.flushed_until());
}

uint64_t ReconService::PublishLocked() {
  // One budget epoch, then the closure update and the snapshot build, on
  // the ingesting thread. The next snapshot shares every entity the flush
  // left alone with the current one, which readers may still hold: it is
  // only read. Readers keep serving the current snapshot until the single
  // atomic store below, and keep it alive through their pins.
  reconciler_.Flush();
  const Timer publish_timer;
  const std::vector<int>& clusters = reconciler_.clusters();
  ++generation_;
  epoch_refs_.push_back(reconciler_.flushed_until());
  std::shared_ptr<const Snapshot> next =
      BuildSnapshot(reconciler_.dataset(), clusters, options_.reconciler,
                    generation_, snapshot_.Load().get());
  counters_.publish_ms.store(publish_timer.ElapsedMillis(),
                             std::memory_order_relaxed);
  counters_.snapshot_entities_rebuilt.store(next->entities_rebuilt(),
                                            std::memory_order_relaxed);
  snapshot_.Store(std::move(next));
  counters_.flushes.fetch_add(1, std::memory_order_relaxed);
  counters_.negprop_sources.store(reconciler_.stats().negprop_sources,
                                  std::memory_order_relaxed);
  counters_.graph_compactions.store(reconciler_.stats().graph_compactions,
                                    std::memory_order_relaxed);
  counters_.unmerged_pairs.store(reconciler_.stats().num_unmerged_pairs,
                                 std::memory_order_relaxed);
  counters_.derived_non_merge_pairs.store(
      reconciler_.stats().num_derived_non_merge_pairs,
      std::memory_order_relaxed);
  counters_.dropped_blocks.store(reconciler_.stats().num_dropped_blocks,
                                 std::memory_order_relaxed);

  if (wal_ != nullptr && !wal_failed_ &&
      options_.durability.checkpoint_every > 0 &&
      generation_ %
              static_cast<uint64_t>(options_.durability.checkpoint_every) ==
          0) {
    const Status st = WriteCheckpointLocked();
    if (!st.ok()) {
      ++durability_stats_storage_.checkpoint_failures;
      // A transient failure (ENOSPC-style) is survivable: the old WAL
      // keeps extending and the next boundary retries. But if the WAL
      // itself died during rotation, Ingest's caller sees the sticky
      // failure.
    }
  }
  return generation_;
}

Status ReconService::WriteCheckpointLocked() {
  const DurabilityOptions& durability = options_.durability;
  IoFaultHook* hook = durability.io_fault.get();

  CheckpointData data;
  data.generation = generation_;
  data.epoch_refs = epoch_refs_;
  data.dataset_text = SerializeDataset(reconciler_.dataset());
  const std::vector<int>& clusters = reconciler_.clusters();
  data.clusters.assign(clusters.begin(), clusters.end());
  RECON_CHECK(reconciler_.num_staged() == 0)
      << "checkpoints only happen at flush boundaries";

  RECON_RETURN_IF_ERROR(
      WriteCheckpointFile(durability.data_dir, data, hook, nullptr));

  // Rotate: new segment based at this generation, then retire the old one
  // and older checkpoints. A crash leaves extra files that recovery
  // treats as stale; the renamed checkpoint is already the source of
  // truth for everything the old WAL held.
  const std::string old_wal_path = wal_ != nullptr ? wal_->path() : "";
  StatusOr<std::unique_ptr<WriteAheadLog>> fresh = WriteAheadLog::Create(
      durability.data_dir,
      durability.data_dir + "/" + WalFileName(generation_), generation_,
      durability.fsync, durability.io_fault);
  if (!fresh.ok()) {
    // The old WAL (if any) is still valid and still open; stay on it. But
    // if this was a simulated crash, the injector has poisoned all
    // subsequent I/O and the next append will surface it.
    if (wal_ == nullptr) {
      wal_failed_ = true;
      wal_error_ = fresh.status().message();
    }
    return fresh.status();
  }
  wal_ = std::move(fresh).value();

  DurabilityStats& stats = durability_stats_storage_;
  ++stats.checkpoints_written;
  stats.checkpoint_generation = generation_;

  if (!old_wal_path.empty()) {
    (void)wal_internal::RemoveFile(old_wal_path, hook);
  }
  if (stats.checkpoints_written > 1 || durability_stats_storage_.recovered) {
    // Remove every older checkpoint file (best effort).
    StatusOr<DataDirState> scan = ScanDataDir(durability.data_dir);
    if (scan.ok()) {
      for (size_t i = 0; i < scan.value().checkpoint_paths.size(); ++i) {
        if (scan.value().checkpoint_generations[i] == generation_) continue;
        (void)wal_internal::RemoveFile(scan.value().checkpoint_paths[i], hook);
      }
    }
  }
  return Status::Ok();
}

}  // namespace recon::service
