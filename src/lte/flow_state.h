// Per-flow MAC-layer state kept by the eNodeB: the RLC queue, the GBR/MBR
// token buckets the schedulers consume, the proportional-fair average, and
// the byte/RB counters behind the RB & Rate Trace Module.
#pragma once

#include <cstdint>
#include <limits>

#include "lte/types.h"

namespace flare {

inline constexpr double kNoRateLimit = std::numeric_limits<double>::infinity();

struct FlowState {
  FlowId id = kInvalidFlow;
  UeId ue = 0;
  FlowType type = FlowType::kData;

  // --- Bearer QoS parameters (set by the Continuous GBR Updater / PCEF).
  double gbr_bps = 0.0;           // 0 => non-GBR bearer
  double mbr_bps = kNoRateLimit;  // infinity => uncapped

  // --- RLC downlink queue (bytes awaiting transmission at the eNB).
  std::uint64_t queued_bytes = 0;

  // --- Token buckets, in bytes. The GBR bucket accrues gbr_bps/8 per
  // second and is drained by phase-1/priority scheduling; the MBR bucket
  // gates all scheduling of the flow.
  double gbr_credit_bytes = 0.0;
  double mbr_credit_bytes = 0.0;

  // --- Proportional-fair average throughput (EWMA, bits/s). Starts at a
  // small positive value so new flows get immediate priority without
  // dividing by zero.
  double pf_avg_bps = 1.0;

  // --- RB & Rate Trace Module counters. `window_*` accumulate since the
  // last BAI snapshot; `total_*` since flow creation.
  std::uint64_t window_tx_bytes = 0;
  std::uint64_t window_rbs = 0;
  std::uint64_t total_tx_bytes = 0;
  std::uint64_t total_rbs = 0;

  // --- Bytes delivered in the TTI the cell is applying grants for; the
  // cell hands them to its delivery callback and resets them to 0 before
  // the TTI ends.
  std::uint64_t tti_tx_bytes = 0;

  bool has_gbr() const { return gbr_bps > 0.0; }
};

}  // namespace flare
