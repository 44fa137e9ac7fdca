// Deterministic fault injection.
//
// Two layers share this header:
//   * The budget layer (FaultInjector / ProbeRecorder):
//     tests-only, installed via ReconcilerOptions::probe_hook, fires a
//     chosen StopReason at a chosen pipeline probe (DESIGN.md §10).
//   * The durable-I/O layer (IoFaultHook / IoFaultInjector): threaded
//     through every WAL and checkpoint write of the service durability
//     subsystem (DESIGN.md §15) via DurabilityOptions::io_fault, so crash
//     recovery is testable at every individual I/O operation — torn tails,
//     short writes, failed fsyncs, crashes mid-checkpoint — without
//     actually killing the process. Production leaves the hook null; the
//     fast path is one pointer test per durable op.

#ifndef RECON_UTIL_FAULT_INJECTION_H_
#define RECON_UTIL_FAULT_INJECTION_H_

#include <cstdint>

#include "util/budget.h"

namespace recon {

/// Fires a chosen StopReason at the Nth probe of a chosen probe point:
/// deterministic by construction, because probe indices depend only on the
/// input and the configuration, never on wall time or scheduling (the
/// probe-point contract, DESIGN.md §10).
class FaultInjector : public ProbeHook {
 public:
  /// Fire `reason` at the `fire_at`-th probe (0-based) of `point`. Sticky:
  /// every later probe of `point` fires too, so the pipeline stops at the
  /// first one it actually reaches.
  FaultInjector(ProbePoint point, int64_t fire_at, StopReason reason)
      : point_(point), fire_at_(fire_at), reason_(reason) {}

  StopReason OnProbe(ProbePoint point, int64_t index) override {
    ++seen_[static_cast<int>(point)];
    if (point == point_ && index >= fire_at_) {
      ++fired_;
      return reason_;
    }
    return StopReason::kConverged;
  }

  /// Times the injected fault was returned (the tracker stops the run at
  /// the first, so this is normally 0 or 1).
  int64_t fired() const { return fired_; }
  /// Probes observed at `point` (for asserting a phase was reached).
  int64_t seen(ProbePoint point) const {
    return seen_[static_cast<int>(point)];
  }

 private:
  const ProbePoint point_;
  const int64_t fire_at_;
  const StopReason reason_;
  int64_t fired_ = 0;
  int64_t seen_[kNumProbePoints] = {};
};

/// Records probe traffic without ever injecting: for asserting which
/// phases probe (and how often) on a healthy run.
class ProbeRecorder : public ProbeHook {
 public:
  StopReason OnProbe(ProbePoint point, int64_t index) override {
    (void)index;
    ++seen_[static_cast<int>(point)];
    return StopReason::kConverged;
  }

  int64_t seen(ProbePoint point) const {
    return seen_[static_cast<int>(point)];
  }

 private:
  int64_t seen_[kNumProbePoints] = {};
};

// ---------------------------------------------------------------------------
// Durable-I/O fault layer (service WAL + checkpoints, DESIGN.md §15).
// ---------------------------------------------------------------------------

/// Every durable-storage operation the WAL and checkpoint writers perform.
/// All durable I/O happens on the ingest thread under the service's ingest
/// mutex, so for a given workload the op sequence — and therefore each op's
/// global index — is deterministic: a fault sweep over indices 0..N-1
/// exercises every crash point exactly once.
enum class IoOp {
  kWalCreate = 0,      ///< Create a WAL segment and write its header.
  kWalAppend,          ///< Append one WAL record frame.
  kWalSync,            ///< fsync the WAL file.
  kCheckpointWrite,    ///< Write the checkpoint temp file.
  kCheckpointSync,     ///< fsync the checkpoint temp file.
  kCheckpointRename,   ///< Atomically rename the temp file into place.
  kDirSync,            ///< fsync the data directory (persist renames/links).
  kRemove,             ///< Unlink a stale WAL segment or checkpoint.
};
inline constexpr int kNumIoOps = 8;

inline const char* IoOpName(IoOp op) {
  switch (op) {
    case IoOp::kWalCreate: return "wal-create";
    case IoOp::kWalAppend: return "wal-append";
    case IoOp::kWalSync: return "wal-sync";
    case IoOp::kCheckpointWrite: return "checkpoint-write";
    case IoOp::kCheckpointSync: return "checkpoint-sync";
    case IoOp::kCheckpointRename: return "checkpoint-rename";
    case IoOp::kDirSync: return "dir-sync";
    case IoOp::kRemove: return "remove";
  }
  return "unknown";
}

/// What the hook tells the I/O layer to do for one operation.
enum class IoFault {
  kNone = 0,    ///< Perform the op normally.
  kCrash,       ///< Simulated crash *before* the op: nothing reaches disk.
  kTornWrite,   ///< Write roughly half the payload, then simulated crash —
                ///< the on-disk tail is torn mid-record.
  kError,       ///< The op fails (EIO-style: short write, failed fsync)
                ///< but the process lives. Not sticky at the hook.
};

/// Consulted before every durable I/O op. Return kNone to proceed.
class IoFaultHook {
 public:
  virtual ~IoFaultHook() = default;
  virtual IoFault OnIo(IoOp op) = 0;
};

/// Fires a chosen IoFault at the `fire_at`-th durable I/O op (0-based,
/// counted across all op kinds). Crash-kind faults are sticky: once a
/// simulated crash fires, every later op also "crashes", because a dead
/// process performs no I/O — the service degrades to rejecting writes and
/// the test restarts from the surviving files. kError fires exactly once.
class IoFaultInjector : public IoFaultHook {
 public:
  IoFaultInjector(IoFault fault, int64_t fire_at)
      : fault_(fault), fire_at_(fire_at) {}

  IoFault OnIo(IoOp op) override {
    const int64_t index = ops_++;
    ++seen_[static_cast<int>(op)];
    if (crashed_) return IoFault::kCrash;
    if (index == fire_at_ && fault_ != IoFault::kNone) {
      ++fired_;
      if (fault_ == IoFault::kCrash || fault_ == IoFault::kTornWrite) {
        crashed_ = true;
      }
      return fault_;
    }
    return IoFault::kNone;
  }

  /// Total durable ops observed — run once with fault kNone to size a
  /// crash sweep (every index in [0, ops()) is a distinct fault point).
  int64_t ops() const { return ops_; }
  /// Times the configured fault was injected (0 or 1).
  int64_t fired() const { return fired_; }
  /// Ops observed of one kind (for asserting a path was reached).
  int64_t seen(IoOp op) const { return seen_[static_cast<int>(op)]; }
  /// True once a crash-kind fault has fired.
  bool crashed() const { return crashed_; }

 private:
  const IoFault fault_;
  const int64_t fire_at_;
  int64_t ops_ = 0;
  int64_t fired_ = 0;
  bool crashed_ = false;
  int64_t seen_[kNumIoOps] = {};
};

}  // namespace recon

#endif  // RECON_UTIL_FAULT_INJECTION_H_
