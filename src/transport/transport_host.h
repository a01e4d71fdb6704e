// Transport host: owns all TCP flows over one cell and demultiplexes the
// cell's single delivery/drop callback pair to the per-flow objects.
// Also carries the flows' ACKs, one simulator event per batch of ACKs due
// at one instant (DESIGN.md §5m), and provides the greedy "iperf" source
// used for background data flows.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "lte/cell.h"
#include "transport/tcp_flow.h"

namespace flare {

class TransportHost {
 public:
  TransportHost(Simulator& sim, Cell& cell);

  TransportHost(const TransportHost&) = delete;
  TransportHost& operator=(const TransportHost&) = delete;

  /// Create a flow of `type` for UE `ue`; returns the TcpFlow (owned by the
  /// host; valid until DestroyFlow or host destruction).
  TcpFlow& CreateFlow(UeId ue, FlowType type,
                      const TcpConfig& config = TcpConfig{});

  void DestroyFlow(FlowId id);

  TcpFlow& flow(FlowId id);
  bool Has(FlowId id) const { return flows_.count(id) > 0; }

  /// Turn a flow into a greedy source: the application backlog is topped up
  /// whenever it drains (iperf-style bulk transfer).
  void MakeGreedy(FlowId id);

  /// Schedules `bytes` of `flow`'s ACK at `at`, as Simulator::At would. The
  /// ACK joins the open batch when that batch is due at the same instant
  /// and nothing was scheduled on the simulator since its event was
  /// pushed; otherwise it opens a new batch event. Either way it runs
  /// exactly where an event of its own pushed now would.
  void QueueAck(FlowId flow, std::uint64_t bytes, SimTime at);

 private:
  struct Ack {
    FlowId flow;
    std::uint64_t bytes;
  };
  static constexpr std::uint32_t kNoBatch = ~std::uint32_t{0};

  /// Runs batch `slot`'s ACKs in order (an ACK of a destroyed flow is a
  /// no-op; FlowIds are never reused) and recycles the slot.
  void RunAckBatch(std::uint32_t slot);

  void TopUpGreedy(FlowId id);
  /// Self-rescheduling top-up tick; the chain ends (and the captured
  /// callable dies) once the flow leaves greedy_, so a destroyed flow's
  /// timer does not tick for the rest of the run.
  void ScheduleGreedyTick(FlowId id);

  Simulator& sim_;
  Cell& cell_;
  std::map<FlowId, std::unique_ptr<TcpFlow>> flows_;
  std::set<FlowId> greedy_;

  /// ACK batches by slot; drained slots keep their capacity and are
  /// reused, so steady state allocates nothing.
  std::vector<std::vector<Ack>> ack_batches_;
  std::vector<std::uint32_t> free_ack_batches_;
  /// The batch new ACKs may join: its slot, due time, and the simulator's
  /// next_seq() right after its event was pushed.
  std::uint32_t open_batch_ = kNoBatch;
  SimTime open_at_ = 0;
  std::uint64_t open_next_seq_ = 0;

  // Liveness token (TcpFlow's pattern): host events capture a weak_ptr to
  // it, so an event that outlives the host is a no-op.
  std::shared_ptr<char> alive_ = std::make_shared<char>(0);
};

}  // namespace flare
