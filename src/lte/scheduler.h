// MAC downlink scheduler interface.
//
// Each TTI the cell builds one SchedCandidate per flow with pending data
// (and positive MBR credit) and asks the scheduler to distribute the TTI's
// resource blocks. Wideband CQI is assumed: every RB of a UE carries the
// same number of bytes in a given TTI.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "lte/flow_state.h"
#include "util/rng.h"

namespace flare {

struct SchedCandidate {
  FlowState* flow = nullptr;
  /// Bytes one RB carries for this UE this TTI (from its I_TBS).
  std::uint32_t bytes_per_rb = 0;
  /// Upper bound on bytes the flow may receive this TTI
  /// (min of queue and MBR credit).
  std::uint64_t max_bytes = 0;
};

struct SchedGrant {
  FlowState* flow = nullptr;
  int rbs = 0;
  std::uint64_t bytes = 0;
};

/// How the last Allocate split the TTI's RBs between its scheduling
/// phases. Single-phase schedulers report everything as `rbs_shared`.
struct SchedTtiStats {
  int rbs_priority = 0;  // GBR / priority-set phase
  int rbs_shared = 0;    // PF / round-robin (shared) phase
};

class Scheduler {
 public:
  virtual ~Scheduler() = default;

  /// Distribute `n_rbs` resource blocks over `candidates`, which name
  /// distinct flows (the cell builds one candidate per flow). Grants must
  /// not exceed each candidate's max_bytes (except for the final partially
  /// filled RB), the total RB count must not exceed n_rbs, and each flow
  /// appears in at most one grant (two-phase schedulers merge a flow's
  /// phase-1 and phase-2 service into a single aggregate grant). The
  /// returned buffer belongs to the scheduler and stays valid until the
  /// next Allocate call; it is reused, so steady-state TTIs allocate
  /// nothing.
  virtual const std::vector<SchedGrant>& Allocate(
      std::vector<SchedCandidate>& candidates, int n_rbs, Rng& rng) = 0;

  virtual std::string Name() const = 0;

  /// Phase breakdown of the most recent Allocate call.
  const SchedTtiStats& tti_stats() const { return tti_stats_; }

 protected:
  using FlowFilter = bool (*)(const FlowState&);
  static bool AnyFlow(const FlowState&) { return true; }
  static bool VideoFlow(const FlowState& f) {
    return f.type == FlowType::kVideo;
  }

  /// Starts an Allocate over `n` candidates: clears the grants, the
  /// per-candidate grant slots and the phase stats.
  void BeginTti(std::size_t n);

  /// Adds `rbs` and `bytes` to candidate `i`'s grant, appending the grant
  /// the first time the candidate is served: one grant per candidate, in
  /// first-service order.
  void Grant(const std::vector<SchedCandidate>& candidates, std::size_t i,
             int rbs, std::uint64_t bytes);

  /// Bytes granted to candidate `i` so far in this Allocate.
  std::uint64_t granted_bytes(std::size_t i) const;

  /// Priority phase: serves the GBR debt (token credit, bounded by
  /// max_bytes) of GBR candidates with positive credit that pass
  /// `filter`, most starved first. Returns RBs used.
  int GbrDebtPass(const std::vector<SchedCandidate>& candidates, int n_rbs,
                  FlowFilter filter);

  /// Proportional-fair pass: up to `n_rbs` RBs over the candidates that
  /// pass `filter`, topping up what earlier phases granted them. Returns
  /// RBs used.
  int ProportionalFairPass(const std::vector<SchedCandidate>& candidates,
                           int n_rbs, FlowFilter filter);

  SchedTtiStats tti_stats_;
  std::vector<SchedGrant> grants_;

 private:
  /// One pass's not-yet-visited candidate: its priority key (higher
  /// first), FlowId (lower first on a tie) and candidate index.
  struct Ranked {
    double key;
    FlowId id;
    std::size_t index;
  };

  /// Removes and returns the candidate index that ranks first in ranked_.
  /// A pass pops only until its RBs run out, so it never sorts the
  /// candidates it cannot serve.
  std::size_t PopBest();

  /// Index into grants_ of each candidate's grant; -1 = not yet served.
  std::vector<std::int32_t> grant_index_;
  /// The current pass's unvisited candidates, in no particular order.
  std::vector<Ranked> ranked_;
};

/// RBs needed to move `bytes` at `bytes_per_rb` per RB (ceiling division).
int RbsForBytes(std::uint64_t bytes, std::uint32_t bytes_per_rb);

}  // namespace flare
