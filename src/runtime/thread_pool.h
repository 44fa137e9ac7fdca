// Thread pool: the execution substrate for the blocked parallel loops in
// runtime/parallel.h and for the HTTP server's connection tasks.
//
// One mutex-guarded FIFO queue feeds every worker. Its submitters are few
// (a blocked loop queues one task per extra lane, the server one per
// accepted connection), so per-worker queues would buy nothing. External
// threads participate through RunOneTask(), which is what makes nested
// parallel loops deadlock-free: a thread waiting for a loop to finish
// keeps executing queued tasks instead of blocking.

#ifndef RECON_RUNTIME_THREAD_POOL_H_
#define RECON_RUNTIME_THREAD_POOL_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace recon::runtime {

class ThreadPool {
 public:
  /// Starts `num_workers` worker threads (clamped to >= 1).
  explicit ThreadPool(int num_workers);

  /// Drains every queued task, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues `task` for execution on some worker (or on any thread that
  /// calls RunOneTask before a worker gets to it).
  void Submit(std::function<void()> task);

  /// Runs the oldest queued task on the calling thread; returns false when
  /// the queue was empty. Safe to call from workers and external threads
  /// alike.
  bool RunOneTask();

  /// Process-wide pool, created on first use with HardwareConcurrency()
  /// workers. Parallel loops draw lanes from this pool no matter how few
  /// they need, so repeated loops never pay thread startup.
  static ThreadPool& Global();

  /// std::thread::hardware_concurrency(), but never 0.
  static int HardwareConcurrency();

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable wake_cv_;
  std::deque<std::function<void()>> tasks_;  // Guarded by mu_.
  bool stopping_ = false;                    // Guarded by mu_.
  std::vector<std::thread> workers_;
};

}  // namespace recon::runtime

#endif  // RECON_RUNTIME_THREAD_POOL_H_
