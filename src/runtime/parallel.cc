#include "runtime/parallel.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>

namespace recon::runtime {

int ResolveNumThreads(int num_threads) {
  if (num_threads <= 0) return ThreadPool::HardwareConcurrency();
  return num_threads;
}

namespace internal {

namespace {

/// State shared by the lanes of one blocked loop.
struct LoopState {
  std::atomic<size_t> next_block{0};
  std::atomic<int> live_tasks{0};
  std::atomic<bool> cancelled{false};
  std::mutex error_mu;
  std::exception_ptr error;
};

}  // namespace

void RunBlocked(int num_threads, int64_t begin, int64_t end, int64_t grain,
                void* ctx, BlockFn fn) {
  const int num_lanes = ResolveNumThreads(num_threads);
  const int64_t n = std::max<int64_t>(0, end - begin);
  if (grain <= 0) {
    // Several blocks per lane so a slow block does not strand the others,
    // without degenerating into per-index scheduling overhead.
    grain = std::max<int64_t>(1, n / (8 * num_lanes));
  }
  const size_t num_blocks = static_cast<size_t>((n + grain - 1) / grain);
  if (num_blocks == 0) return;
  auto run_block = [&](size_t index, size_t lane) {
    Block block;
    block.begin = begin + static_cast<int64_t>(index) * grain;
    block.end = std::min(end, block.begin + grain);
    block.lane = lane;
    fn(ctx, block);
  };

  const int lanes =
      std::min<int64_t>(num_lanes, static_cast<int64_t>(num_blocks));
  if (lanes <= 1) {
    // Serial path: no pool, no atomics, exceptions propagate directly.
    for (size_t b = 0; b < num_blocks; ++b) run_block(b, 0);
    return;
  }

  LoopState state;
  auto drain = [&](size_t lane) {
    for (;;) {
      if (state.cancelled.load(std::memory_order_relaxed)) return;
      const size_t b =
          state.next_block.fetch_add(1, std::memory_order_relaxed);
      if (b >= num_blocks) return;
      try {
        run_block(b, lane);
      } catch (...) {
        {
          std::lock_guard<std::mutex> lock(state.error_mu);
          if (!state.error) state.error = std::current_exception();
        }
        state.cancelled.store(true, std::memory_order_relaxed);
        return;
      }
    }
  };

  ThreadPool& pool = ThreadPool::Global();
  const int spawned = lanes - 1;
  state.live_tasks.store(spawned, std::memory_order_relaxed);
  for (int i = 0; i < spawned; ++i) {
    // The task only touches `state`/`drain`, which outlive it: RunBlocked
    // does not return until live_tasks drops to zero.
    pool.Submit([&state, &drain, lane = static_cast<size_t>(i) + 1] {
      drain(lane);
      state.live_tasks.fetch_sub(1, std::memory_order_release);
    });
  }
  drain(0);
  // Help the pool while our lanes finish: this thread may pick up our own
  // not-yet-started lane tasks or anything else queued (including tasks of
  // a nested loop), so waiting always makes progress.
  while (state.live_tasks.load(std::memory_order_acquire) != 0) {
    if (!pool.RunOneTask()) std::this_thread::yield();
  }
  if (state.error) std::rethrow_exception(state.error);
}

}  // namespace internal

}  // namespace recon::runtime
