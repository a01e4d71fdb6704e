#include "has/player.h"

#include <algorithm>
#include <string>

#include "util/csv.h"

namespace flare {
namespace {

std::string ClientArgs(int client, double buffer_s) {
  return "{\"client\":" + std::to_string(client) +
         ",\"buffer_s\":" + FormatNumber(buffer_s) + "}";
}

}  // namespace

VideoPlayer::VideoPlayer(const PlayerConfig& config) : config_(config) {}

void VideoPlayer::AdvanceTo(SimTime now) {
  if (now <= last_update_) return;
  const double elapsed = ToSeconds(now - last_update_);
  last_update_ = now;

  switch (state_) {
    case State::kStartup:
    case State::kStalled:
      // Waiting on downloads; buffer only grows via OnSegment. Stall time
      // (after startup) accrues in real time.
      if (state_ == State::kStalled) rebuffer_s_ += elapsed;
      break;
    case State::kPlaying: {
      const double drained = std::min(buffer_s_, elapsed);
      buffer_s_ -= drained;
      played_s_ += drained;
      if (drained < elapsed) {
        // Ran dry mid-interval: the remainder was a stall.
        state_ = State::kStalled;
        ++rebuffer_events_;
        stalls_metric_.Add();
        rebuffer_s_ += elapsed - drained;
        // The buffer actually hit zero (elapsed - drained) seconds ago.
        const double underflow_s = ToSeconds(now) - (elapsed - drained);
        if (span_trace_ != nullptr) {
          span_trace_->Instant(kLanePlayer, "player", "stall",
                               underflow_s * 1e6,
                               ClientArgs(span_client_, 0.0));
        }
        if (qoe_ != nullptr) qoe_->OnStallBegin(qoe_session_, underflow_s);
        if (flight_ != nullptr) {
          flight_->Record(underflow_s, "stall_begin", kInvalidFlow,
                          qoe_session_);
        }
      }
      break;
    }
  }
}

void VideoPlayer::OnSegment(double duration_s, double bitrate_bps,
                            SimTime now) {
  AdvanceTo(now);
  buffer_s_ += duration_s;
  const bool switched =
      !segment_bitrates_.empty() && segment_bitrates_.back() != bitrate_bps;
  if (switched) switches_metric_.Add();
  if (span_trace_ != nullptr) {
    const double ts_us = static_cast<double>(now);
    span_trace_->Instant(
        kLanePlayer, "player", "segment", ts_us,
        "{\"client\":" + std::to_string(span_client_) +
            ",\"bitrate_kbps\":" + FormatNumber(bitrate_bps / 1000.0) +
            ",\"buffer_s\":" + FormatNumber(buffer_s_) + "}");
    if (switched) {
      span_trace_->Instant(
          kLanePlayer, "player", "switch", ts_us,
          "{\"client\":" + std::to_string(span_client_) +
              ",\"from_kbps\":" +
              FormatNumber(segment_bitrates_.back() / 1000.0) +
              ",\"to_kbps\":" + FormatNumber(bitrate_bps / 1000.0) + "}");
    }
  }
  segment_bitrates_.push_back(bitrate_bps);
  buffer_metric_.Observe(buffer_s_);
  if (qoe_ != nullptr) qoe_->OnSegment(qoe_session_, bitrate_bps, duration_s);
  if (state_ == State::kStartup && buffer_s_ >= config_.startup_threshold_s) {
    state_ = State::kPlaying;
    if (span_trace_ != nullptr) {
      span_trace_->Instant(kLanePlayer, "player", "playout_start",
                           static_cast<double>(now),
                           ClientArgs(span_client_, buffer_s_));
    }
    if (qoe_ != nullptr) qoe_->OnPlayoutStart(qoe_session_, ToSeconds(now));
  } else if (state_ == State::kStalled &&
             buffer_s_ >= config_.resume_threshold_s) {
    state_ = State::kPlaying;
    if (span_trace_ != nullptr) {
      span_trace_->Instant(kLanePlayer, "player", "resume",
                           static_cast<double>(now),
                           ClientArgs(span_client_, buffer_s_));
    }
    if (qoe_ != nullptr) qoe_->OnStallEnd(qoe_session_, ToSeconds(now));
    if (flight_ != nullptr) {
      flight_->Record(ToSeconds(now), "stall_end", kInvalidFlow,
                      qoe_session_, buffer_s_);
    }
  }
}

void VideoPlayer::SetSpanTracer(SpanTracer* tracer, int client) {
  span_trace_ = tracer;
  span_client_ = client;
}

void VideoPlayer::SetQoeAnalytics(QoeAnalytics* qoe, FlightRecorder* flight,
                                  int session) {
  qoe_ = qoe;
  flight_ = flight;
  qoe_session_ = session;
}

void VideoPlayer::SetMetrics(MetricsRegistry* registry) {
  stalls_metric_ = MakeCounterHandle(registry, "player.stalls");
  switches_metric_ = MakeCounterHandle(registry, "player.switches");
  buffer_metric_ = MakeHistogramHandle(registry, "player.buffer_s");
}

}  // namespace flare
