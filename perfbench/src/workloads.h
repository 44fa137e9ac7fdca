// The benchmark's workloads (README.md in this directory says why each
// exists). Every workload runs the same two phases, so each reports every
// metric: a batch phase (Reconciler::Run on the workload's corpus) and a
// service phase (a durable ReconService on PIM B 0.25x under mixed ingest
// and query traffic), both with the workload's reconciler configuration.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "common.h"

namespace perfbench {

struct WorkloadSpec {
  /// PIM B scale factor of the batch phase's corpus.
  double batch_factor;
  /// ReconcilerOptions::max_block_size of both phases.
  int max_block_size;
};

/// Reconciler::Run on the workload's corpus. With `trace` null, times cold
/// Runs in child processes (set-up, Run CPU time, peak RSS, B-cubed F1);
/// otherwise calls the layers Run is made of one by one into `trace`. Runs
/// before any thread is started: it forks.
void RunBatchPhase(const Args& args, const WorkloadSpec& spec, Trace* trace,
                   Result& result);

/// A durable ReconService under closed-loop ingest beside scheduled query
/// batches, driven through ServiceHandler::Handle. With `trace` null, times
/// the requests (query reply time, ingest CPU time); otherwise performs the
/// same traffic through the functions the service is made of, into `trace`.
void RunServicePhase(const Args& args, const WorkloadSpec& spec, Trace* trace,
                     Result& result);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
