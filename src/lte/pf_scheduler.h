// Legacy schedulers: proportional fair and round robin.
//
// Proportional fair ranks flows by instantaneous-rate / average-throughput
// and is the phase-2 ("legacy") scheduler inside both the femtocell
// two-phase scheduler and the ns-3 Priority Set Scheduler. Round robin is a
// simple baseline used in tests and examples.
#pragma once

#include "lte/scheduler.h"

namespace flare {

class PfScheduler final : public Scheduler {
 public:
  const std::vector<SchedGrant>& Allocate(
      std::vector<SchedCandidate>& candidates, int n_rbs,
      Rng& rng) override;
  std::string Name() const override { return "pf"; }
};

class RoundRobinScheduler final : public Scheduler {
 public:
  const std::vector<SchedGrant>& Allocate(
      std::vector<SchedCandidate>& candidates, int n_rbs,
      Rng& rng) override;
  std::string Name() const override { return "rr"; }

 private:
  std::size_t next_ = 0;  // rotating start index across TTIs
};

}  // namespace flare
