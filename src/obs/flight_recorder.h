// Black-box flight recorder: a bounded per-domain ring of recent
// structured events, dumped post-mortem when something goes wrong.
//
// The span trace answers "what happened over the whole run" at the cost of
// unbounded memory; the flight recorder answers "what happened *just
// before* the alarm" at fixed cost. Producers (DecisionSinks for the
// OneAPI server's rung changes, GBR pushes and admission verdicts, player
// stall edges, watchdogs, the daemon's slow-request exemplars) record
// the last `capacity` events per event domain; when a RunHealthMonitor
// alarm fires the ring is latched into a snapshot, and the scenario runner
// dumps everything as JSON on `fail_on_unhealthy=` aborts or on a fatal
// signal.
//
// Threading/determinism model matches the other obs sinks: one recorder
// per cell, no locking, merged post-run in cell order with
// AbsorbShard + SortMergedEvents. The disabled path is a null pointer at
// every producer — one predicted branch, no argument construction (string
// args are built inside the `if (flight != nullptr)` guard).
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "lte/types.h"

namespace flare {

struct FlightEvent {
  double t_s = 0.0;
  int cell = 0;
  /// Monotone per recorder; preserves intra-cell order across ring wraps
  /// and breaks (t_s, cell) ties deterministically after a merge.
  std::uint64_t seq = 0;
  /// Event kind; must point at a string with static lifetime.
  const char* kind = "";
  FlowId flow = kInvalidFlow;
  int client = -1;
  double value = 0.0;
  /// Extra fields, pre-rendered as a JSON object ("{...}") or empty.
  std::string args;
};

class FlightRecorder {
 public:
  static constexpr std::size_t kDefaultCapacity = 512;

  explicit FlightRecorder(std::size_t capacity = kDefaultCapacity);

  void set_cell(int cell) { cell_ = cell; }
  std::size_t capacity() const { return capacity_; }
  /// Events ever recorded / evicted from the ring.
  std::uint64_t recorded() const { return recorded_; }
  std::uint64_t dropped() const { return dropped_; }

  void Record(double t_s, const char* kind, FlowId flow = kInvalidFlow,
              int client = -1, double value = 0.0, std::string args = {});

  /// Latch the current ring into the post-mortem snapshot. Only the first
  /// alarm latches (later alarms would overwrite the interesting context);
  /// `reason` must have static lifetime or outlive the recorder.
  void TriggerSnapshot(const char* reason, double t_s);
  bool triggered() const { return triggered_; }
  const std::string& trigger_reason() const { return trigger_reason_; }
  double trigger_t_s() const { return trigger_t_s_; }

  /// Ring contents oldest-first (after a merge: the absorbed events).
  std::vector<FlightEvent> RecentEvents() const;
  /// Append still-ringed events with seq >= `from_seq` (oldest-first) to
  /// `out`, restamped with `cell` like AbsorbShard would. Returns the
  /// next unseen seq (pass it back as the next `from_seq`; start at 0).
  /// Read-only: the telemetry publisher tails shards with this between
  /// BAI slices.
  std::uint64_t CollectEventsSince(std::uint64_t from_seq, int cell,
                                   std::vector<FlightEvent>* out) const;
  const std::vector<FlightEvent>& snapshot() const { return snapshot_; }

  /// Fold a shard's ring and snapshot in, restamped with `cell`. The
  /// merged recorder keeps everything (it is a sink, not a ring); the
  /// earliest trigger by (t_s, cell) wins the trigger metadata.
  void AbsorbShard(const FlightRecorder& shard, int cell);
  /// Order merged events and snapshot by (t_s, cell, seq).
  void SortMergedEvents();

  void WriteJson(std::ostream& out, const std::string& reason = {}) const;
  /// Dump a post-mortem document to `path`; false when unwritable.
  bool DumpPostmortem(const std::string& path,
                      const std::string& reason) const;

 private:
  void WriteEventJson(std::ostream& out, const FlightEvent& event) const;

  std::size_t capacity_;
  int cell_ = 0;
  std::vector<FlightEvent> ring_;
  std::size_t next_ = 0;
  std::uint64_t recorded_ = 0;
  std::uint64_t dropped_ = 0;
  bool merged_ = false;  // AbsorbShard was called: ring_ is unbounded
  bool triggered_ = false;
  std::string trigger_reason_;
  double trigger_t_s_ = 0.0;
  int trigger_cell_ = 0;
  std::vector<FlightEvent> snapshot_;
};

/// Best-effort fatal-signal hook (SIGSEGV/SIGABRT/SIGFPE): dumps the
/// recorder to `path` from the handler. Not async-signal-safe in the
/// strict sense — acceptable for a post-mortem of last resort, which is
/// attempted exactly once. Pass nullptr to uninstall.
void InstallFatalSignalPostmortem(const FlightRecorder* recorder,
                                  std::string path);

}  // namespace flare
