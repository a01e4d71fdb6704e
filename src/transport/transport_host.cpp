#include "transport/transport_host.h"

#include <stdexcept>

namespace flare {
namespace {
// Greedy sources keep this much application backlog queued at the sender.
constexpr std::uint64_t kGreedyChunkBytes = 1 << 20;
// Check/refill period for greedy sources.
constexpr SimTime kGreedyTopUpPeriod = 100 * kMillisecond;
}  // namespace

TransportHost::TransportHost(Simulator& sim, Cell& cell)
    : sim_(sim), cell_(cell) {
  cell_.SetDeliveryCallback(
      [this](FlowId id, std::uint64_t bytes, SimTime now) {
        const auto it = flows_.find(id);
        if (it != flows_.end()) it->second->HandleDelivery(bytes, now);
      });
  cell_.SetDropCallback([this](FlowId id, std::uint64_t bytes) {
    const auto it = flows_.find(id);
    if (it != flows_.end()) it->second->HandleDrop(bytes);
  });
}

TcpFlow& TransportHost::CreateFlow(UeId ue, FlowType type,
                                   const TcpConfig& config) {
  const FlowId id = cell_.AddFlow(ue, type);
  auto flow = std::make_unique<TcpFlow>(*this, sim_, cell_, id, config);
  TcpFlow& ref = *flow;
  flows_.emplace(id, std::move(flow));
  return ref;
}

void TransportHost::DestroyFlow(FlowId id) {
  flows_.erase(id);
  greedy_.erase(id);
  cell_.RemoveFlow(id);
}

TcpFlow& TransportHost::flow(FlowId id) {
  const auto it = flows_.find(id);
  if (it == flows_.end()) {
    throw std::out_of_range("TransportHost: unknown flow");
  }
  return *it->second;
}

void TransportHost::MakeGreedy(FlowId id) {
  if (greedy_.count(id) > 0) return;
  greedy_.insert(id);
  TopUpGreedy(id);
  ScheduleGreedyTick(id);
}

void TransportHost::ScheduleGreedyTick(FlowId id) {
  // NOT sim_.Every: an Every task is uncancellable and would keep firing
  // (and keep its captured state alive) for the whole run after the flow
  // is destroyed — with session churn that is an unbounded leak of dead
  // timers. The self-rescheduling chain stops at the first tick that
  // finds the flow gone.
  sim_.After(kGreedyTopUpPeriod,
             [this, id, alive = std::weak_ptr<char>(alive_)] {
    if (alive.expired() || greedy_.count(id) == 0) return;
    TopUpGreedy(id);
    ScheduleGreedyTick(id);
  });
}

void TransportHost::QueueAck(FlowId flow, std::uint64_t bytes, SimTime at) {
  // Joining is exact: had this ACK been pushed on its own, it would take
  // the seq right after the batch's last ACK, with the same `at`, so
  // nothing could run between them.
  if (open_batch_ == kNoBatch || at != open_at_ ||
      sim_.next_seq() != open_next_seq_) {
    std::uint32_t slot;
    if (free_ack_batches_.empty()) {
      slot = static_cast<std::uint32_t>(ack_batches_.size());
      ack_batches_.emplace_back();
    } else {
      slot = free_ack_batches_.back();
      free_ack_batches_.pop_back();
    }
    sim_.At(at, [this, slot, alive = std::weak_ptr<char>(alive_)] {
      if (!alive.expired()) RunAckBatch(slot);
    });
    open_batch_ = slot;
    open_at_ = at;
    open_next_seq_ = sim_.next_seq();
  }
  ack_batches_[open_batch_].push_back(Ack{flow, bytes});
}

void TransportHost::RunAckBatch(std::uint32_t slot) {
  // A running batch takes no more ACKs: one queued from here on has a
  // later seq than anything this batch could hold.
  if (open_batch_ == slot) open_batch_ = kNoBatch;
  const SimTime now = sim_.Now();
  std::vector<Ack>& acks = ack_batches_[slot];
  for (const Ack& ack : acks) {
    const auto it = flows_.find(ack.flow);
    if (it != flows_.end()) it->second->HandleAck(ack.bytes, now);
  }
  acks.clear();
  free_ack_batches_.push_back(slot);
}

void TransportHost::TopUpGreedy(FlowId id) {
  // find(), not operator[]: the old greedy_[id] lookup re-inserted a
  // default-constructed entry for every destroyed flow the stale timer
  // polled, quietly regrowing the map forever.
  const auto it = flows_.find(id);
  if (it == flows_.end() || greedy_.count(id) == 0) return;
  // Keep the sender saturated: refill before the application backlog runs
  // dry so the flow never starves between top-up ticks.
  if (it->second->pending_bytes() < kGreedyChunkBytes / 4) {
    it->second->Send(kGreedyChunkBytes);
  }
}

}  // namespace flare
