#include "ledger.h"

#include <utility>

namespace perfbench {

FanoutLedger::FanoutLedger(std::vector<std::uint64_t> flows,
                           std::size_t ticks, double start_us,
                           double period_us)
    : flows_(std::move(flows)),
      ticks_(ticks),
      start_us_(start_us),
      period_us_(period_us),
      received_(flows_.size(), 0),
      fanout_us_(ticks) {
  for (std::vector<double>& tick : fanout_us_) tick.reserve(flows_.size());
}

void FanoutLedger::OnTickTriggered(std::size_t tick) {
  triggered_.store(tick + 1, std::memory_order_release);
}

FanoutLedger::Outcome FanoutLedger::OnAssignment(std::size_t session,
                                                 std::uint64_t flow,
                                                 double recv_us,
                                                 std::size_t* tick) {
  if (session >= flows_.size() || flows_[session] != flow) {
    return Outcome::kWrongFlow;
  }
  const std::size_t k = received_[session];
  if (k >= ticks_ || k >= triggered_.load(std::memory_order_acquire)) {
    return Outcome::kUnpaired;
  }
  ++received_[session];
  *tick = k;
  fanout_us_[k].push_back(recv_us - DueUs(k));
  return recv_us > DueUs(k + 1) ? Outcome::kLate : Outcome::kPaired;
}

std::uint64_t FanoutLedger::Missing() const {
  std::uint64_t missing = 0;
  for (const std::size_t got : received_) {
    if (got < ticks_) missing += ticks_ - got;
  }
  return missing;
}

}  // namespace perfbench
