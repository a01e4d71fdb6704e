#include "lte/pss_scheduler.h"

namespace flare {

const std::vector<SchedGrant>& PssScheduler::Allocate(
    std::vector<SchedCandidate>& candidates, int n_rbs, Rng& /*rng*/) {
  BeginTti(candidates.size());
  if (n_rbs <= 0) return grants_;

  // --- Priority set: GBR flows still owed bytes this scheduling window.
  const int used = GbrDebtPass(candidates, n_rbs, &Scheduler::AnyFlow);
  tti_stats_.rbs_priority = used;

  // --- Frequency domain: leftover RBs under proportional fair, all flows.
  // As in the two-phase scheduler, a priority-set flow may be served again
  // here; its grant then grows, keeping the one-grant-per-flow contract.
  tti_stats_.rbs_shared = ProportionalFairPass(candidates, n_rbs - used);
  return grants_;
}

}  // namespace flare
