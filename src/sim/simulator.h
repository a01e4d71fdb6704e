// Discrete-event simulator.
//
// All model components (eNodeB TTI loop, HAS players, OneAPI server BAI
// timer) schedule callbacks here. Time never moves backwards; scheduling in
// the past is clamped to "now" so stale timers fire immediately rather than
// corrupting the clock.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "sim/event_queue.h"
#include "util/time.h"

namespace flare {

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  SimTime Now() const { return now_; }

  /// Schedule `fn` at absolute simulated time `at` (clamped to >= Now()).
  /// Any void() callable; small lambdas are stored without allocating.
  template <typename F>
  void At(SimTime at, F&& fn) {
    queue_.Push(std::max(at, now_), std::forward<F>(fn));
  }

  /// Schedule `fn` after a relative delay (clamped to >= 0).
  template <typename F>
  void After(SimTime delay, F&& fn) {
    At(now_ + std::max<SimTime>(delay, 0), std::forward<F>(fn));
  }

  /// Schedule `fn` every `period` starting at `start`, until the run ends.
  /// The callback receives no arguments; use a lambda capture for state.
  /// The simulator owns `fn` until it is destroyed; each occurrence queues
  /// the next one after `fn` returns, so events `fn` schedules for the
  /// same instant run before that next occurrence.
  void Every(SimTime start, SimTime period, EventFn fn);

  /// Run until the event queue drains or the clock passes `until`
  /// (events exactly at `until` still run).
  void RunUntil(SimTime until);

  /// Stop the current RunUntil after the in-flight event completes.
  void Stop() { stopped_ = true; }

  std::uint64_t events_processed() const { return events_processed_; }
  /// Sequence number of the next scheduled event: unchanged between two
  /// reads means nothing was scheduled in between.
  std::uint64_t next_seq() const { return queue_.NextSeq(); }
  std::size_t queue_depth() const { return queue_.Size(); }

  /// Attach a metrics registry (null detaches): exports the event rate
  /// ("sim.events") and pending-queue depth ("sim.queue_depth").
  void SetMetrics(MetricsRegistry* registry);

 private:
  struct Recurring {
    EventFn fn;
    SimTime period;
  };
  /// One queued occurrence of a recurring task: runs it, then queues the
  /// next occurrence. Trivially copyable and 16 bytes, so it is stored
  /// inline in the event record.
  struct Tick {
    Simulator* sim;
    Recurring* task;
    void operator()() const {
      task->fn();
      sim->At(sim->now_ + task->period, *this);
    }
  };

  // Declared before queue_ so queued ticks never outlive their task.
  std::vector<std::unique_ptr<Recurring>> recurring_;
  EventQueue queue_;
  SimTime now_ = 0;
  bool stopped_ = false;
  std::uint64_t events_processed_ = 0;
  CounterHandle events_metric_;
  GaugeHandle queue_depth_metric_;
};

}  // namespace flare
