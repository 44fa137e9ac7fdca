// Blocked parallel loops over index ranges, with grain-size control.
//
// Model: a range [begin, end) is cut into fixed-size blocks of `grain`
// indices; up to `num_threads` lanes claim blocks from an atomic counter.
// Which lane executes which block is nondeterministic, but the block
// decomposition itself depends only on (range, grain) — so output written
// to per-index slots is equal to the serial result regardless of thread
// count.
//
// num_threads follows ReconcilerOptions::num_threads: 0 = all hardware
// threads, 1 = run inline on the calling thread (no pool involved), n > 1 =
// n lanes. Lanes beyond the first are tasks on ThreadPool::Global(); the
// calling thread is always lane 0 and helps drain the pool while waiting,
// which makes nested parallel loops deadlock-free.
//
// The first exception thrown by a body cancels the remaining blocks (each
// lane stops claiming new ones) and is rethrown on the calling thread.

#ifndef RECON_RUNTIME_PARALLEL_H_
#define RECON_RUNTIME_PARALLEL_H_

#include <cstdint>
#include <type_traits>

#include "runtime/thread_pool.h"

namespace recon::runtime {

/// Resolves a user-facing thread count: 0 (or negative) = all hardware
/// threads, otherwise the value itself.
int ResolveNumThreads(int num_threads);

/// One contiguous chunk of a blocked loop.
struct Block {
  int64_t begin = 0;
  int64_t end = 0;
  /// Executing lane in [0, ResolveNumThreads(num_threads)). Two blocks with
  /// the same lane never run concurrently, so per-lane scratch (caches)
  /// needs no locking — but the block -> lane assignment is
  /// nondeterministic, so lane-indexed state must never determine output
  /// contents or order.
  size_t lane = 0;
};

namespace internal {

using BlockFn = void (*)(void* ctx, const Block& block);

/// Type-erased core: runs `fn(ctx, block)` for every block of
/// [begin, end) cut at `grain`.
void RunBlocked(int num_threads, int64_t begin, int64_t end, int64_t grain,
                void* ctx, BlockFn fn);

}  // namespace internal

/// Runs `body(block)` over every block of [begin, end). grain <= 0 picks a
/// default that yields several blocks per lane (for load balance).
template <typename Body>
void ParallelForBlocked(int num_threads, int64_t begin, int64_t end,
                        int64_t grain, Body&& body) {
  using Fn = std::remove_reference_t<Body>;
  internal::RunBlocked(num_threads, begin, end, grain,
                       const_cast<Fn*>(&body),
                       [](void* ctx, const Block& block) {
                         (*static_cast<Fn*>(ctx))(block);
                       });
}

/// Runs `body(i)` for every i in [begin, end), blocked by `grain`.
template <typename Body>
void ParallelFor(int num_threads, int64_t begin, int64_t end, int64_t grain,
                 Body&& body) {
  ParallelForBlocked(num_threads, begin, end, grain,
                     [&body](const Block& block) {
                       for (int64_t i = block.begin; i < block.end; ++i) {
                         body(i);
                       }
                     });
}

}  // namespace recon::runtime

#endif  // RECON_RUNTIME_PARALLEL_H_
