// Fixed-size worker pool for batch-parallel helper work.
//
// The pool runs *batches*: RunAll() submits a set of independent jobs and
// blocks until every one of them has finished, so the caller gets a full
// barrier — everything the jobs wrote happens-before RunAll() returns
// (release/acquire through the pool mutex). Jobs are dispatched FIFO (the
// order they were submitted in) and each submission wakes at most one
// worker per job, so a small batch does not stampede a large pool.
//
// Every parallel simulator run is a batch on it: RunMany
// (scenario/scenario.h) runs one config per job, RunMultiCellScenario
// (scenario/multi_cell.h) one cell per job.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace flare {

class ThreadPool {
 public:
  /// Spawns `workers` threads (clamped to >= 1).
  explicit ThreadPool(int workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int size() const { return static_cast<int>(threads_.size()); }

  /// Run every job on the pool, FIFO, and block until all of them
  /// completed. Jobs must not call RunAll() recursively. If a job throws,
  /// the batch still runs to completion (every job executes exactly once,
  /// every worker survives) and the *first* exception, in completion
  /// order, is rethrown to the caller once the batch has drained.
  void RunAll(std::vector<std::function<void()>> jobs);

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable work_cv_;   // signals workers: job or stop
  std::condition_variable done_cv_;   // signals RunAll: batch drained
  std::deque<std::function<void()>> pending_;  // FIFO: pop from the front
  std::size_t in_flight_ = 0;
  std::exception_ptr first_error_;  // first job failure of the batch
  bool stop_ = false;
  std::vector<std::thread> threads_;
};

}  // namespace flare
