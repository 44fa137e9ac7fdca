#include "runtime/thread_pool.h"

#include <algorithm>
#include <utility>

namespace recon::runtime {

ThreadPool::ThreadPool(int num_workers) {
  const int n = std::max(1, num_workers);
  workers_.reserve(n);
  for (int i = 0; i < n; ++i) workers_.emplace_back([this] { WorkerLoop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  wake_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    tasks_.push_back(std::move(task));
  }
  wake_cv_.notify_one();
}

bool ThreadPool::RunOneTask() {
  std::function<void()> task;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (tasks_.empty()) return false;
    task = std::move(tasks_.front());
    tasks_.pop_front();
  }
  task();
  return true;
}

void ThreadPool::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    wake_cv_.wait(lock, [this] { return stopping_ || !tasks_.empty(); });
    // Stop only once the queue is drained, so every submitted task runs.
    if (tasks_.empty()) return;
    std::function<void()> task = std::move(tasks_.front());
    tasks_.pop_front();
    lock.unlock();
    task();
    lock.lock();
  }
}

ThreadPool& ThreadPool::Global() {
  static ThreadPool* pool = new ThreadPool(HardwareConcurrency());
  return *pool;
}

int ThreadPool::HardwareConcurrency() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

}  // namespace recon::runtime
