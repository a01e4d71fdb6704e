#include "lte/pf_scheduler.h"

#include <algorithm>

namespace flare {

const std::vector<SchedGrant>& PfScheduler::Allocate(
    std::vector<SchedCandidate>& candidates, int n_rbs, Rng& /*rng*/) {
  BeginTti(candidates.size());
  tti_stats_.rbs_shared = ProportionalFairPass(candidates, n_rbs);
  return grants_;
}

const std::vector<SchedGrant>& RoundRobinScheduler::Allocate(
    std::vector<SchedCandidate>& candidates, int n_rbs, Rng& /*rng*/) {
  BeginTti(candidates.size());
  if (candidates.empty() || n_rbs <= 0) return grants_;

  // Rotate the starting flow each TTI, then hand out RBs one flow at a
  // time in equal chunks until RBs or demand run out. Grant() folds each
  // flow's RBs into one grant, in first-service order.
  const std::size_t n = candidates.size();
  next_ %= n;
  int used = 0;
  bool progress = true;
  while (used < n_rbs && progress) {
    progress = false;
    for (std::size_t k = 0; k < n && used < n_rbs; ++k) {
      const std::size_t i = (next_ + k) % n;
      const SchedCandidate& c = candidates[i];
      const std::uint64_t got = granted_bytes(i);
      if (c.bytes_per_rb == 0 || got >= c.max_bytes) continue;
      const std::uint64_t bytes = std::min<std::uint64_t>(
          c.max_bytes - got, c.bytes_per_rb);
      Grant(candidates, i, 1, bytes);
      ++used;
      progress = true;
    }
  }
  ++next_;
  tti_stats_.rbs_shared = used;
  return grants_;
}

}  // namespace flare
