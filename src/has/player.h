// Client playout-buffer model.
//
// The buffer holds downloaded-but-unplayed video, measured in seconds of
// media. Playout drains it in real time once startup buffering completes;
// when it empties, the player stalls (rebuffers) until `resume_threshold_s`
// of media re-accumulates. State advances lazily — callers invoke
// AdvanceTo(now) (the session does this on every event) — so no per-frame
// simulation events are needed.
#pragma once

#include <cstdint>
#include <vector>

#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/qoe_analytics.h"
#include "obs/span_trace.h"
#include "util/time.h"

namespace flare {

struct PlayerConfig {
  /// Buffered media needed before initial playout starts.
  double startup_threshold_s = 2.0;
  /// Buffered media needed to resume after a stall.
  double resume_threshold_s = 1.0;
  /// Download is paused when the buffer exceeds this (segments are only
  /// requested while below it).
  double max_buffer_s = 60.0;
};

class VideoPlayer {
 public:
  explicit VideoPlayer(const PlayerConfig& config);

  /// Advance playout to `now`; accounts drain and stall time.
  void AdvanceTo(SimTime now);

  /// A whole segment finished downloading at `now`.
  void OnSegment(double duration_s, double bitrate_bps, SimTime now);

  double buffer_s() const { return buffer_s_; }
  bool playing() const { return state_ == State::kPlaying; }
  bool stalled() const { return state_ != State::kPlaying; }
  bool WantsMoreSegments() const { return buffer_s_ < config_.max_buffer_s; }

  /// Cumulative stall (underflow) time after initial startup.
  double rebuffer_time_s() const { return rebuffer_s_; }
  /// Stall events after initial startup.
  int rebuffer_events() const { return rebuffer_events_; }
  double played_s() const { return played_s_; }

  /// Per-segment bitrate history (for switch counting / average bitrate).
  const std::vector<double>& segment_bitrates() const {
    return segment_bitrates_;
  }

  /// Attach metrics (null = detach): stall events, rung switches, and a
  /// buffer-occupancy histogram sampled at each segment arrival. Shared
  /// across players — counters aggregate cell-wide.
  void SetMetrics(MetricsRegistry* registry);

  /// Attach a span tracer (null = detach): stall/resume/playout-start and
  /// per-segment/switch instants on the player lane, tagged with
  /// `client`. Stall instants are stamped at the exact underflow time
  /// even though the lazy model detects them at the next event.
  void SetSpanTracer(SpanTracer* tracer, int client);

  /// Attach the QoE/flight tier (either may be null): `qoe` receives the
  /// session's segments, stall edges and playout start under id
  /// `session`; `flight` records stall_begin/stall_end events. Stall
  /// begins use the same exact-underflow timestamps as the span tracer,
  /// so the engine's stall totals match rebuffer_time_s().
  void SetQoeAnalytics(QoeAnalytics* qoe, FlightRecorder* flight,
                       int session);

 private:
  enum class State { kStartup, kPlaying, kStalled };

  PlayerConfig config_;
  State state_ = State::kStartup;
  double buffer_s_ = 0.0;
  double rebuffer_s_ = 0.0;
  double played_s_ = 0.0;
  int rebuffer_events_ = 0;
  SimTime last_update_ = 0;
  std::vector<double> segment_bitrates_;

  CounterHandle stalls_metric_;
  CounterHandle switches_metric_;
  HistogramHandle buffer_metric_;
  SpanTracer* span_trace_ = nullptr;
  int span_client_ = -1;
  QoeAnalytics* qoe_ = nullptr;
  FlightRecorder* flight_ = nullptr;
  int qoe_session_ = -1;
};

}  // namespace flare
