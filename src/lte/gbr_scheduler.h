// FLARE femtocell Scheduler Module: two-phase GBR-based per-TTI scheduling.
//
// Phase 1 serves *video* flows up to their GBR (token-bucket credit); Phase
// 2 allocates the remaining RBs to both video and data flows with legacy
// proportional fair. Because data traffic is non-GBR, its RBs can be
// opportunistically borrowed by video flows when the OneAPI server's
// optimization lags wireless dynamics — the property the paper credits for
// FLARE's zero buffer underflow (§IV-A).
#pragma once

#include "lte/scheduler.h"

namespace flare {

class TwoPhaseGbrScheduler final : public Scheduler {
 public:
  const std::vector<SchedGrant>& Allocate(
      std::vector<SchedCandidate>& candidates, int n_rbs,
      Rng& rng) override;
  std::string Name() const override { return "two-phase-gbr"; }
};

}  // namespace flare
