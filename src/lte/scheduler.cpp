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

int Scheduler::GbrDebtPass(const std::vector<SchedCandidate>& candidates,
                           int n_rbs, FlowFilter filter) {
  order_.clear();
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    const FlowState& f = *candidates[i].flow;
    if (filter(f) && f.has_gbr() && f.gbr_credit_bytes > 0.0) {
      order_.push_back(i);
    }
  }
  std::sort(order_.begin(), order_.end(), [&](std::size_t a, std::size_t b) {
    const double ca = candidates[a].flow->gbr_credit_bytes;
    const double cb = candidates[b].flow->gbr_credit_bytes;
    if (ca != cb) return ca > cb;  // most starved first
    return candidates[a].flow->id < candidates[b].flow->id;
  });

  int used = 0;
  for (std::size_t idx : order_) {
    if (used >= n_rbs) break;
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
    const std::vector<SchedCandidate>& candidates, int n_rbs,
    FlowFilter filter) {
  if (n_rbs <= 0) return 0;

  // Wideband CQI: the PF metric of a flow is constant within the TTI, so a
  // single descending sort followed by greedy filling is exact.
  order_.clear();
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    if (filter(*candidates[i].flow)) order_.push_back(i);
  }
  std::sort(order_.begin(), order_.end(), [&](std::size_t a, std::size_t b) {
    const auto& ca = candidates[a];
    const auto& cb = candidates[b];
    const double ma = static_cast<double>(ca.bytes_per_rb) /
                      std::max(ca.flow->pf_avg_bps, 1e-9);
    const double mb = static_cast<double>(cb.bytes_per_rb) /
                      std::max(cb.flow->pf_avg_bps, 1e-9);
    if (ma != mb) return ma > mb;
    return ca.flow->id < cb.flow->id;  // deterministic tie-break
  });

  int used = 0;
  for (std::size_t idx : order_) {
    if (used >= n_rbs) break;
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
