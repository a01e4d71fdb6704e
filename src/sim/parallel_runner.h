// Sharded parallel simulation runtime.
//
// A multi-cell deployment decomposes into per-cell *event domains*: one
// Simulator per cell plus everything that only that cell touches (flows,
// players, transport hosts, the cell's OneAPI controller and PCRF shard).
// Domains share no mutable state and exchange nothing: FLARE computes
// bitrates independently for each cell. That makes the runtime
// *embarrassingly deterministic*: whether the domains advance
// sequentially on one thread (workers = 0) or concurrently on persistent
// workers, every domain sees exactly the same inputs at exactly the same
// simulated times, so parallel execution is bit-identical to serial
// execution — same BAI trace bytes, same metrics JSON, same QoE numbers
// (tests/determinism_test.cpp holds the runtime to this).
//
// Execution model: each worker thread owns a static, id-ordered partition
// of the domains for the whole run. The workers are spawned once, at the
// first RunUntil, so every domain must be added before it. Epochs are
// released through a generation counter — the coordinator publishes the
// epoch bounds, bumps the generation, and every worker advances its own
// partition; the last arrival wakes the coordinator. No per-epoch
// closures are built, no job queue is contended, and the one notify_all
// per epoch wakes only threads that all have work.
//
// Epoch protocol, repeated until the horizon:
//   1. advance every domain's Simulator to the epoch end (each worker
//      runs its partition in domain-id order; workers = 0 runs all
//      domains inline);
//   2. barrier (the coordinator blocks until every worker's partition
//      arrived — the mutex handoff is the happens-before edge);
//   3. run the barrier hook on the coordinator thread, the one moment
//      every domain is quiescent (live telemetry publishes from here).
// Aligning the epoch with the BAI keeps the synchronization cost at one
// barrier per control-loop interval.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/span_trace.h"
#include "sim/simulator.h"
#include "util/time.h"

namespace flare {

/// One isolated event timeline. Created via ParallelRunner::AddDomain();
/// everything scheduled on sim() runs on whichever thread executes this
/// domain's epochs.
class EventDomain {
 public:
  Simulator& sim() { return sim_; }

  /// Attach this domain's span-tracer shard (null detaches): each epoch
  /// records an "advance" span (the domain's own wall-clock) and a
  /// "barrier.wait" span (idle time until the slowest domain arrived).
  /// The shard is written by whichever worker advances the domain and by
  /// the coordinator at barriers — never concurrently (the epoch barrier
  /// is the handoff), matching the metrics-shard threading model.
  void SetSpanTracer(SpanTracer* tracer) { tracer_ = tracer; }

 private:
  friend class ParallelRunner;
  EventDomain() = default;

  /// Advance sim() to `until`, timing the advance when traced.
  void Advance(SimTime until, SimTime epoch_start);

  Simulator sim_;
  SpanTracer* tracer_ = nullptr;
  double last_advance_wall_us_ = 0.0;
};

class ParallelRunner {
 public:
  struct Options {
    /// Worker threads; 0 runs every domain inline on the calling thread
    /// (the serial reference execution — same code path, same results).
    int workers = 0;
    /// Barrier period; aligned with the BAI, so live telemetry sees every
    /// cell at the same simulated instant once per control-loop interval.
    SimTime epoch = kSecond;
  };

  explicit ParallelRunner(const Options& options);
  ~ParallelRunner();

  ParallelRunner(const ParallelRunner&) = delete;
  ParallelRunner& operator=(const ParallelRunner&) = delete;

  /// Create the next domain, domain(NumDomains() - 1). Domains live as
  /// long as the runner. Throws std::logic_error once RunUntil has
  /// run: the worker partitions are fixed at the first run.
  EventDomain& AddDomain();

  /// Run all domains to `horizon` with an epoch barrier every
  /// `options.epoch`. If a domain's events throw, the epoch still
  /// completes on every worker and the first exception (in domain-id
  /// order within a partition) is rethrown here.
  void RunUntil(SimTime horizon);

  std::size_t NumDomains() const { return domains_.size(); }
  EventDomain& domain(std::size_t i) { return *domains_[i]; }

  std::uint64_t epochs() const { return epochs_; }

  /// Attach coordinator-side observability (either may be null): the
  /// registry gets runner.epoch_ms / runner.barrier_wait_ms histograms
  /// and the runner.epochs counter; the tracer gets a per-epoch "epoch"
  /// span (pid 0 by convention). With `deterministic` every wall-clock
  /// read is skipped and durations record as 0, keeping run bytes
  /// independent of thread scheduling.
  void SetObservers(MetricsRegistry* registry, SpanTracer* tracer,
                    bool deterministic);

  /// Hook run on the coordinator thread at the end of every epoch, after
  /// the barrier — the one moment every domain is quiescent and the
  /// coordinator owns all shard state. The telemetry publisher hangs
  /// here; the hook must be read-only with respect to simulation state
  /// (the determinism suite runs with it attached). Null clears it; when
  /// unset the cost is one predicted branch per epoch.
  void SetBarrierHook(std::function<void(SimTime)> hook) {
    barrier_hook_ = std::move(hook);
  }

 private:
  /// Spawn the workers, once. Each worker owns a contiguous domain id
  /// range for the runner's lifetime.
  void SpawnWorkers();
  /// Release one epoch to the persistent workers and block until every
  /// partition has advanced to `until`. Rethrows the first worker error.
  void RunEpochOnWorkers(SimTime until, SimTime epoch_start);
  /// Advance domains [begin, end) once per generation until stopped.
  void WorkerLoop(std::size_t begin, std::size_t end);

  Options options_;
  std::vector<std::unique_ptr<EventDomain>> domains_;
  std::function<void(SimTime)> barrier_hook_;
  std::uint64_t epochs_ = 0;
  bool started_ = false;  // RunUntil has run; no more domains

  // --- Persistent epoch workers (empty in serial mode). All handshake
  // state is guarded by barrier_mu_; workers idle between generations.
  std::vector<std::thread> workers_;
  std::mutex barrier_mu_;
  std::condition_variable epoch_cv_;  // coordinator -> workers: new gen/stop
  std::condition_variable done_cv_;   // last worker -> coordinator
  std::uint64_t generation_ = 0;
  SimTime epoch_until_ = 0;
  SimTime epoch_start_ = 0;
  std::size_t workers_remaining_ = 0;
  std::exception_ptr worker_error_;
  bool stop_workers_ = false;

  SpanTracer* tracer_ = nullptr;
  bool deterministic_ = false;
  HistogramHandle epoch_ms_metric_;
  HistogramHandle barrier_wait_ms_metric_;
  CounterHandle epochs_metric_;
};

}  // namespace flare
