#include "lte/gbr_scheduler.h"

namespace flare {

const std::vector<SchedGrant>& TwoPhaseGbrScheduler::Allocate(
    std::vector<SchedCandidate>& candidates, int n_rbs, Rng& /*rng*/) {
  BeginTti(candidates.size());
  if (n_rbs <= 0) return grants_;

  // --- Phase 1: GBR-based scheduling of video flows, most starved first.
  const int used = GbrDebtPass(candidates, n_rbs, &Scheduler::VideoFlow);
  tti_stats_.rbs_priority = used;

  // --- Phase 2: legacy proportional fair over the remaining RBs. A video
  // flow already served in phase 1 may win further RBs here (that is the
  // opportunistic borrowing §IV-A credits for zero underflow); its grant
  // then grows, so callers still see one grant per flow.
  tti_stats_.rbs_shared = ProportionalFairPass(candidates, n_rbs - used);
  return grants_;
}

}  // namespace flare
