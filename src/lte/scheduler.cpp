#include "lte/scheduler.h"

#include <algorithm>

namespace flare {

int RbsForBytes(std::uint64_t bytes, std::uint32_t bytes_per_rb) {
  if (bytes == 0 || bytes_per_rb == 0) return 0;
  return static_cast<int>((bytes + bytes_per_rb - 1) / bytes_per_rb);
}

void Scheduler::BeginTti(std::size_t n) {
  tti_stats_ = SchedTtiStats{};
  grants_.clear();
  grant_index_.assign(n, -1);
}

void Scheduler::Grant(const std::vector<SchedCandidate>& candidates,
                      std::size_t i, int rbs, std::uint64_t bytes) {
  std::int32_t& index = grant_index_[i];
  if (index < 0) {
    index = static_cast<std::int32_t>(grants_.size());
    grants_.push_back(SchedGrant{candidates[i].flow, rbs, bytes});
  } else {
    grants_[static_cast<std::size_t>(index)].rbs += rbs;
    grants_[static_cast<std::size_t>(index)].bytes += bytes;
  }
}

std::uint64_t Scheduler::granted_bytes(std::size_t i) const {
  const std::int32_t index = grant_index_[i];
  return index < 0 ? 0 : grants_[static_cast<std::size_t>(index)].bytes;
}

std::size_t Scheduler::PopBest() {
  std::size_t best = 0;
  for (std::size_t j = 1; j < ranked_.size(); ++j) {
    const Ranked& a = ranked_[j];
    const Ranked& b = ranked_[best];
    if (a.key != b.key ? a.key > b.key : a.id < b.id) best = j;
  }
  const std::size_t index = ranked_[best].index;
  ranked_[best] = ranked_.back();
  ranked_.pop_back();
  return index;
}

int Scheduler::GbrDebtPass(const std::vector<SchedCandidate>& candidates,
                           int n_rbs, FlowFilter filter) {
  // Most starved first.
  ranked_.clear();
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    const FlowState& f = *candidates[i].flow;
    if (filter(f) && f.has_gbr() && f.gbr_credit_bytes > 0.0) {
      ranked_.push_back(Ranked{f.gbr_credit_bytes, f.id, i});
    }
  }

  int used = 0;
  while (used < n_rbs && !ranked_.empty()) {
    const std::size_t idx = PopBest();
    const SchedCandidate& c = candidates[idx];
    if (c.bytes_per_rb == 0) continue;
    const auto owed = static_cast<std::uint64_t>(
        std::max(c.flow->gbr_credit_bytes, 0.0));
    const std::uint64_t want = std::min<std::uint64_t>(owed, c.max_bytes);
    if (want == 0) continue;
    const int rbs = std::min(RbsForBytes(want, c.bytes_per_rb), n_rbs - used);
    if (rbs <= 0) continue;
    const std::uint64_t bytes = std::min<std::uint64_t>(
        want, static_cast<std::uint64_t>(rbs) * c.bytes_per_rb);
    Grant(candidates, idx, rbs, bytes);
    used += rbs;
  }
  return used;
}

int Scheduler::ProportionalFairPass(
    const std::vector<SchedCandidate>& candidates, int n_rbs) {
  if (n_rbs <= 0) return 0;

  // Wideband CQI: the PF metric of a flow is constant within the TTI, so
  // serving flows in descending metric order (greedy filling) is exact.
  ranked_.clear();
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    const SchedCandidate& c = candidates[i];
    const double metric = static_cast<double>(c.bytes_per_rb) /
                          std::max(c.flow->pf_avg_bps, 1e-9);
    ranked_.push_back(Ranked{metric, c.flow->id, i});
  }

  int used = 0;
  while (used < n_rbs && !ranked_.empty()) {
    const std::size_t idx = PopBest();
    const SchedCandidate& c = candidates[idx];
    if (c.bytes_per_rb == 0) continue;
    const std::uint64_t got = granted_bytes(idx);
    if (got >= c.max_bytes) continue;
    const std::uint64_t want = c.max_bytes - got;
    const int rbs = std::min(RbsForBytes(want, c.bytes_per_rb), n_rbs - used);
    if (rbs <= 0) continue;
    const std::uint64_t bytes = std::min<std::uint64_t>(
        want, static_cast<std::uint64_t>(rbs) * c.bytes_per_rb);
    Grant(candidates, idx, rbs, bytes);
    used += rbs;
  }
  return used;
}

}  // namespace flare
