// Causal span tracing for the FLARE control loop.
//
// A SpanTracer collects Chrome trace-event records — complete spans
// ("X"), instant events ("i") and counter tracks ("C") — and writes them
// as trace-event JSON loadable in Perfetto (https://ui.perfetto.dev) or
// chrome://tracing. Timestamps are *simulated* microseconds (SimTime is
// already an integral microsecond count), so the trace timeline is the
// experiment timeline; durations are wall-clock microseconds, showing
// where real CPU time goes inside each simulated interval.
//
// Cost model follows MetricsRegistry: every record site takes a
// `SpanTracer*` that is null by default, so the disabled path is one
// predicted branch (bench_optimizer's BM_ObsOverhead pins this down).
//
// Threading model follows the sharded runtime (DESIGN.md §5d): a tracer
// is NOT internally synchronized. Each event domain records into its own
// per-cell shard (only the one worker advancing that domain touches it
// within an epoch; handoff happens at the pool barrier), and the
// coordinator's tracer is only touched between epochs. Shards are merged
// post-run in cell order with AbsorbShard() + SortMergedEvents(), which
// keeps the merged file byte-stable for any worker count.
//
// Determinism: with set_deterministic(true) (mirrors
// OneApiConfig::deterministic_timing) record sites skip the steady clock
// entirely and every duration is written as 0, so the emitted JSON is
// bit-identical across runs and worker counts.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace flare {

// Lane (Chrome "tid") assignments within a process (= cell). Fixed small
// integers so every cell's trace lines up the same way in the UI.
inline constexpr int kLaneControl = 0;  // OneAPI BAI ticks, solver, decisions
inline constexpr int kLaneMac = 1;      // Cell TTI-loop windows
inline constexpr int kLanePlayer = 2;   // player stall/switch/segment instants
inline constexpr int kLaneRunner = 3;   // epochs, barriers, mailbox drains

/// One trace-event record. `cat` and `name` must be string literals (or
/// otherwise outlive the tracer): they are stored unowned so a record
/// site costs one push_back, no allocation. `args`, when non-empty, is a
/// pre-rendered JSON object (use JsonQuote for embedded strings).
struct TraceEvent {
  double ts_us = 0.0;
  double dur_us = 0.0;  // "X" events only
  char ph = 'X';        // 'X' complete span, 'i' instant, 'C' counter
  int pid = 0;          // process = cell (+1); 0 = coordinator/runner
  int tid = kLaneControl;
  const char* cat = "";
  const char* name = "";
  double value = 0.0;  // 'C' events only
  std::string args;    // rendered JSON object, "" = none
};

/// Escape + quote `text` as a JSON string literal (including the quotes).
std::string JsonQuote(std::string_view text);

class SpanTracer {
 public:
  SpanTracer() = default;
  SpanTracer(const SpanTracer&) = delete;
  SpanTracer& operator=(const SpanTracer&) = delete;

  /// Clock used by SpanScope (and any site without direct simulator
  /// access) to stamp ts_us. ScenarioWorld binds this to its simulator's
  /// Now(); the binding is cleared when the world is destroyed.
  void SetClock(std::function<double()> now_us) { clock_ = std::move(now_us); }
  double now_us() const { return clock_ ? clock_() : 0.0; }

  /// Deterministic mode: record every wall-clock duration as 0 and never
  /// touch the steady clock, so trace bytes are reproducible.
  void set_deterministic(bool on) { deterministic_ = on; }
  bool deterministic() const { return deterministic_; }

  /// Process id stamped on subsequently recorded events. Convention:
  /// pid 0 = the parallel runner / coordinator, pid c+1 = cell c.
  void set_default_pid(int pid) { pid_ = pid; }

  void CompleteSpan(int lane, const char* cat, const char* name,
                    double ts_us, double dur_us, std::string args = {});
  void Instant(int lane, const char* cat, const char* name, double ts_us,
               std::string args = {});
  void Counter(int lane, const char* name, double ts_us, double value);

  std::size_t size() const { return events_.size(); }
  const std::vector<TraceEvent>& events() const { return events_; }
  void Clear() { events_.clear(); }

  /// Append another tracer's events verbatim (their pids were stamped at
  /// record time). Call in cell order, then SortMergedEvents().
  void AbsorbShard(const SpanTracer& shard);
  /// Stable sort by (ts, pid, tid) so the merged event order — and hence
  /// the exported bytes — is independent of worker count.
  void SortMergedEvents();

  /// Chrome trace-event JSON: {"displayTimeUnit":"ms","traceEvents":[...]}
  /// with process/thread-name metadata records first.
  void WriteJson(std::ostream& out) const;
  /// WriteJson to `path`; returns false (and logs) on I/O failure.
  bool ExportJson(const std::string& path) const;

 private:
  std::function<double()> clock_;
  bool deterministic_ = false;
  int pid_ = 0;
  std::vector<TraceEvent> events_;
};

/// RAII span: stamps ts from the tracer clock at construction, measures
/// wall-clock duration (0 in deterministic mode), records on destruction
/// or Close(). A null tracer makes every member a no-op.
class SpanScope {
 public:
  SpanScope(SpanTracer* tracer, int lane, const char* cat, const char* name);
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  ~SpanScope() { Close(); }

  bool enabled() const { return tracer_ != nullptr; }
  /// Attach a rendered-JSON args object to the span being recorded.
  void set_args(std::string args) { args_ = std::move(args); }
  /// Record now instead of at scope exit.
  void Close();

 private:
  SpanTracer* tracer_;
  int lane_;
  const char* cat_;
  const char* name_;
  double begin_ts_us_ = 0.0;
  std::int64_t wall_begin_ns_ = 0;
  std::string args_;
};

}  // namespace flare
