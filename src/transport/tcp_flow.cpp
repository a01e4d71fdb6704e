#include "transport/tcp_flow.h"

#include <algorithm>

#include "transport/transport_host.h"

namespace flare {

TcpFlow::TcpFlow(TransportHost& host, Simulator& sim, Cell& cell,
                 FlowId flow, const TcpConfig& config)
    : host_(host), sim_(sim), cell_(cell), flow_(flow), config_(config) {
  cwnd_bytes_ =
      static_cast<double>(config_.init_cwnd_segments) * config_.mss;
  ssthresh_bytes_ = config_.max_cwnd_bytes;
}

void TcpFlow::Send(std::uint64_t bytes) {
  app_pending_ += bytes;
  TryPush();
}

void TcpFlow::TryPush() {
  if (push_scheduled_ || app_pending_ == 0) return;
  const auto window = static_cast<std::uint64_t>(
      std::max(cwnd_bytes_, static_cast<double>(config_.mss)));
  if (inflight_bytes_ >= window) return;
  const std::uint64_t can_send =
      std::min<std::uint64_t>(window - inflight_bytes_, app_pending_);
  if (can_send == 0) return;

  // The push reaches the eNB queue after half an RTT of wired delay.
  push_scheduled_ = true;
  app_pending_ -= can_send;
  inflight_bytes_ += can_send;
  sim_.After(FromSeconds(config_.rtt_s / 2.0),
             [this, can_send, alive = std::weak_ptr<char>(alive_)] {
               if (alive.expired()) return;  // flow destroyed in flight
               push_scheduled_ = false;
               if (!cell_.HasFlow(flow_)) return;
               cell_.Enqueue(flow_, can_send);  // overflow -> HandleDrop
               TryPush();
             });
}

void TcpFlow::HandleDelivery(std::uint64_t bytes, SimTime now) {
  bytes_delivered_ += bytes;
  if (on_receive_) on_receive_(bytes, now);
  // ACK returns a full RTT after over-the-air transmission.
  host_.QueueAck(flow_, bytes, sim_.Now() + FromSeconds(config_.rtt_s));
}

void TcpFlow::HandleAck(std::uint64_t bytes, SimTime now) {
  inflight_bytes_ -= std::min(inflight_bytes_, bytes);

  // Westwood bandwidth estimate from the ACK arrival rate.
  if (last_ack_time_ > 0 && now > last_ack_time_) {
    const double dt = ToSeconds(now - last_ack_time_);
    const double sample = static_cast<double>(bytes) * 8.0 / dt;
    bwe_bps_ = bwe_bps_ <= 0.0 ? sample : 0.9 * bwe_bps_ + 0.1 * sample;
  }
  last_ack_time_ = now;

  if (cwnd_bytes_ < ssthresh_bytes_) {
    cwnd_bytes_ += static_cast<double>(bytes);  // slow start
  } else {
    cwnd_bytes_ += static_cast<double>(config_.mss) *
                   static_cast<double>(bytes) /
                   std::max(cwnd_bytes_, 1.0);  // congestion avoidance
  }
  cwnd_bytes_ = std::min(cwnd_bytes_, config_.max_cwnd_bytes);
  TryPush();
}

void TcpFlow::HandleDrop(std::uint64_t bytes) {
  // Dropped bytes will never be ACKed: take them out of flight and queue a
  // retransmission.
  inflight_bytes_ -= std::min(inflight_bytes_, bytes);
  app_pending_ += bytes;

  const SimTime now = sim_.Now();
  const SimTime min_gap = FromSeconds(config_.loss_reaction_interval_s);
  if (last_loss_reaction_ >= 0 && now - last_loss_reaction_ < min_gap) {
    TryPush();
    return;  // at most one backoff per window
  }
  last_loss_reaction_ = now;

  // Westwood: shrink to the estimated bandwidth-delay product instead of
  // halving, which keeps utilization high on the wireless bottleneck.
  const double bdp = bwe_bps_ / 8.0 * config_.rtt_s;
  const double floor_bytes = 2.0 * config_.mss;
  ssthresh_bytes_ = std::max(bdp, floor_bytes);
  cwnd_bytes_ = ssthresh_bytes_;
  TryPush();
}

}  // namespace flare
