// Pairs every rate assignment a benchmark client receives with the BAI
// tick that produced it, and times its fan-out from that tick's due time.
//
// The wire protocol carries no tick number, so pairing rests on what the
// service promises and the benchmark checks: each tick sends every session
// exactly one assignment, in tick order, over the session's own TCP
// stream. The k-th assignment a session receives therefore answers tick k.
// An assignment is never paired with "the next frame after my report":
// that rule pairs a lagging client's queued assignment with the report it
// just sent and yields impossible latencies.
//
// Ticks are due on a fixed schedule (open loop): tick k is due at
// start + k * period whether or not tick k-1 has finished. Fan-out is
// measured from the due time, so a stalled tick delays every later
// assignment's latency instead of hiding it.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

namespace perfbench {

class FanoutLedger {
 public:
  enum class Outcome {
    kPaired,     // k-th assignment of the session, tick k already triggered
    kWrongFlow,  // names another session's flow
    kUnpaired,   // more assignments than ticks triggered so far
    kLate,       // received after the next tick was due
  };

  /// `flows[s]` is the flow id session s was admitted under.
  FanoutLedger(std::vector<std::uint64_t> flows, std::size_t ticks,
               double start_us, double period_us);

  double DueUs(std::size_t tick) const {
    return start_us_ + static_cast<double>(tick) * period_us_;
  }

  /// Tick-generator thread: tick `tick` is being triggered now. Ticks are
  /// triggered in order.
  void OnTickTriggered(std::size_t tick);

  /// Client thread: session `session` received an assignment naming
  /// `flow` at `recv_us` (same clock as the due times). Paired and late
  /// assignments record a fan-out sample and return their tick in *tick.
  Outcome OnAssignment(std::size_t session, std::uint64_t flow,
                       double recv_us, std::size_t* tick);

  /// Expected assignments (sessions x ticks) not received.
  std::uint64_t Missing() const;
  /// Fan-out samples in µs, per tick, in arrival order.
  const std::vector<std::vector<double>>& fanout_us() const {
    return fanout_us_;
  }

 private:
  std::vector<std::uint64_t> flows_;
  std::size_t ticks_;
  double start_us_;
  double period_us_;
  std::atomic<std::size_t> triggered_{0};
  // Client-thread state.
  std::vector<std::size_t> received_;
  std::vector<std::vector<double>> fanout_us_;
};

}  // namespace perfbench
