// Priority Set Scheduler (PSS), after Monghal et al. [32] and the ns-3
// module the paper modified.
//
// Time domain: flows whose served rate is below their target/guaranteed bit
// rate form the priority set and are scheduled first, most-starved first
// (largest GBR token-bucket credit). Frequency domain: remaining RBs go to
// all flows under proportional fair. The paper's modification — MBR caps
// retrieved per flow — is enforced upstream via SchedCandidate::max_bytes.
#pragma once

#include "lte/scheduler.h"

namespace flare {

class PssScheduler final : public Scheduler {
 public:
  const std::vector<SchedGrant>& Allocate(
      std::vector<SchedCandidate>& candidates, int n_rbs,
      Rng& rng) override;
  std::string Name() const override { return "pss"; }
};

}  // namespace flare
