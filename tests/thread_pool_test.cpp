// ThreadPool contract tests (FIFO dispatch, batch reuse, exception
// safety, clean teardown) plus a runtime-cost smoke check of the
// multi-cell runtime built on it: running 8 workers on the 8-cell
// determinism scenario must stay within 15% of the serial wall clock
// even on a single-core machine — the "parallel mode is never pure
// overhead" guarantee that bench_fig9_scaling gates in CI.
#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <thread>
#include <vector>

#include "scenario/multi_cell.h"
#include "util/thread_pool.h"

namespace flare {
namespace {

TEST(ThreadPool, RunsEveryJobExactlyOnce) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  std::vector<std::function<void()>> jobs;
  for (int i = 0; i < 100; ++i) {
    jobs.push_back([&count] { count.fetch_add(1); });
  }
  pool.RunAll(std::move(jobs));
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, DispatchesJobsInSubmissionOrder) {
  // With a single worker, execution order == dispatch order, so a LIFO
  // queue (the old pending_.back() bug) reverses this sequence.
  ThreadPool pool(1);
  std::vector<int> order;
  std::vector<std::function<void()>> jobs;
  for (int i = 0; i < 16; ++i) {
    jobs.push_back([&order, i] { order.push_back(i); });
  }
  pool.RunAll(std::move(jobs));
  ASSERT_EQ(order.size(), 16u);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(ThreadPool, IsReusableAcrossBatches) {
  ThreadPool pool(3);
  std::atomic<int> count{0};
  for (int batch = 0; batch < 5; ++batch) {
    std::vector<std::function<void()>> jobs;
    for (int i = 0; i < 10; ++i) {
      jobs.push_back([&count] { count.fetch_add(1); });
    }
    pool.RunAll(std::move(jobs));
    EXPECT_EQ(count.load(), (batch + 1) * 10);
  }
}

TEST(ThreadPool, ThrowingJobDoesNotDeadlockAndPropagates) {
  // Regression: WorkerLoop used to skip the in_flight_ decrement when a
  // job threw, so RunAll waited forever. Now the batch completes, the
  // first exception is rethrown to the caller, and the pool stays usable.
  ThreadPool pool(2);
  std::atomic<int> survivors{0};
  std::vector<std::function<void()>> jobs;
  jobs.push_back([] { throw std::runtime_error("job failed"); });
  for (int i = 0; i < 8; ++i) {
    jobs.push_back([&survivors] { survivors.fetch_add(1); });
  }
  EXPECT_THROW(pool.RunAll(std::move(jobs)), std::runtime_error);
  // Every non-throwing job of the batch still ran exactly once.
  EXPECT_EQ(survivors.load(), 8);
  // The pool survives the failed batch.
  std::vector<std::function<void()>> again;
  again.push_back([&survivors] { survivors.fetch_add(1); });
  pool.RunAll(std::move(again));
  EXPECT_EQ(survivors.load(), 9);
}

TEST(ThreadPool, DestructsCleanlyWithIdleWorkers) {
  // No jobs ever submitted: destruction must wake and join all workers.
  ThreadPool pool(8);
  EXPECT_EQ(pool.size(), 8);
}

/// The 8-cell determinism scenario (the churn harness of
/// tests/determinism_test.cpp, shortened): 8 worker threads must cost at
/// most 15% wall clock over serial, regardless of how many hardware
/// threads this machine has. Min-of-3 on both sides filters scheduler
/// noise; results are bit-identical either way, so only time differs.
MultiCellConfig OverheadConfig(int workers) {
  MultiCellConfig multi;
  multi.cell = TestbedPreset(Scheme::kFlare);
  multi.cell.duration_s = 10.0;
  multi.cell.seed = 7;
  multi.cell.oneapi.deterministic_timing = true;
  multi.cell.n_video = 2;
  multi.cell.churn.enabled = true;
  multi.cell.churn.arrival_rate_per_s = 0.4;
  multi.cell.churn.mean_hold_s = 8.0;
  multi.n_cells = 8;
  multi.workers = workers;
  return multi;
}

double MinWallMs(int workers, int reps) {
  double best = 0.0;
  for (int r = 0; r < reps; ++r) {
    const MultiCellResult result = RunMultiCellScenario(OverheadConfig(workers));
    if (r == 0 || result.wall_ms < best) best = result.wall_ms;
  }
  return best;
}

#if defined(__SANITIZE_THREAD__)
#define FLARE_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define FLARE_TSAN 1
#endif
#endif

TEST(MultiCell, EightWorkerOverheadStaysUnderFifteenPercent) {
#ifdef FLARE_TSAN
  GTEST_SKIP() << "wall-clock bound is meaningless under TSan "
                  "instrumentation; the suite still runs the pool's "
                  "synchronization under TSan via the other tests";
#endif
  const double serial_ms = MinWallMs(/*workers=*/0, /*reps=*/3);
  const double parallel_ms = MinWallMs(/*workers=*/8, /*reps=*/3);
  ASSERT_GT(serial_ms, 0.0);
  EXPECT_LE(parallel_ms, serial_ms * 1.15)
      << "workers=8 wall " << parallel_ms << " ms vs serial " << serial_ms
      << " ms on " << std::thread::hardware_concurrency()
      << " hardware thread(s)";
}

}  // namespace
}  // namespace flare
