// Downlink TCP flow model (Westwood flavour).
//
// The radio link is the bottleneck, so the model centres on the eNodeB RLC
// queue: the sender pushes min(cwnd - inflight, app backlog) into the queue
// (after half an RTT of wired delay), the cell drains it per-TTI, and ACKs
// return a full RTT after over-the-air delivery. Tail drops at the RLC
// queue trigger a Westwood backoff: cwnd and ssthresh collapse to the
// bandwidth-delay product estimated from the ACK rate, which is what makes
// greedy data flows settle near their scheduled share instead of halving
// blindly. Slow-start ramp-up is what client-side ABR throughput estimators
// actually observe, so modelling it matters for FESTIVE/GOOGLE fidelity.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "lte/cell.h"
#include "sim/simulator.h"
#include "util/time.h"

namespace flare {

class TransportHost;  // transport/transport_host.h

struct TcpConfig {
  double rtt_s = 0.06;  // wired core + radio round trip
  std::uint32_t mss = 1400;
  std::uint32_t init_cwnd_segments = 10;
  double max_cwnd_bytes = 4.0e6;
  /// Minimum gap between loss reactions (one backoff per window).
  double loss_reaction_interval_s = 0.06;
};

class TcpFlow {
 public:
  /// Receiver-side callback: bytes that arrived at the UE.
  using ReceiveFn = std::function<void(std::uint64_t bytes, SimTime now)>;

  /// Flows are made by TransportHost::CreateFlow, which owns them and
  /// carries their ACKs.
  TcpFlow(TransportHost& host, Simulator& sim, Cell& cell, FlowId flow,
          const TcpConfig& config);

  /// Queue application bytes for transfer (server-side send).
  void Send(std::uint64_t bytes);

  void SetOnReceive(ReceiveFn fn) { on_receive_ = std::move(fn); }

  /// Transport host plumbing: over-the-air delivery / RLC drop for this
  /// flow's id, and the ACK of a delivery, a full RTT later.
  void HandleDelivery(std::uint64_t bytes, SimTime now);
  void HandleDrop(std::uint64_t bytes);
  void HandleAck(std::uint64_t bytes, SimTime now);

  bool Idle() const {
    return app_pending_ == 0 && inflight_bytes_ == 0;
  }
  std::uint64_t pending_bytes() const { return app_pending_; }
  std::uint64_t inflight_bytes() const { return inflight_bytes_; }
  std::uint64_t bytes_delivered() const { return bytes_delivered_; }
  double cwnd_bytes() const { return cwnd_bytes_; }
  double bandwidth_estimate_bps() const { return bwe_bps_; }
  FlowId id() const { return flow_; }

 private:
  void TryPush();

  TransportHost& host_;
  Simulator& sim_;
  Cell& cell_;
  FlowId flow_;
  TcpConfig config_;

  std::uint64_t app_pending_ = 0;
  std::uint64_t inflight_bytes_ = 0;
  double cwnd_bytes_ = 0.0;
  double ssthresh_bytes_ = 0.0;
  double bwe_bps_ = 0.0;  // Westwood bandwidth estimate (ACK rate EWMA)
  SimTime last_ack_time_ = 0;
  SimTime last_loss_reaction_ = -1;
  std::uint64_t bytes_delivered_ = 0;
  bool push_scheduled_ = false;

  // Liveness token: simulator events capture a weak_ptr to it so callbacks
  // scheduled before the flow is destroyed become no-ops afterwards.
  std::shared_ptr<char> alive_ = std::make_shared<char>(0);

  ReceiveFn on_receive_;
};

}  // namespace flare
