// Algorithm 1: FLARE's per-BAI bitrate calculation with stability
// hysteresis.
//
// Each BAI the controller rebuilds problem (3)-(4) from the RB & Rate Trace
// observations (bits-per-RB per flow), solves it (greedy, the exact sweep
// or the continuous relaxation + round-down), and then applies the paper's
// stability rule: a recommended one-rung increase is only adopted after it
// has been recommended for delta * (L+1) consecutive BAIs (slower increases
// at higher rungs, after FESTIVE); decreases are adopted immediately
// (L_i = min(L_{i-1}, L*)). New flows start at the lowest rung.
#pragma once

#include <chrono>
#include <map>
#include <optional>
#include <vector>

#include "core/batch_solver.h"
#include "core/optimizer.h"
#include "lte/types.h"
#include "obs/span_trace.h"

namespace flare {

enum class SolverMode {
  /// Greedy single-rung ascent (SolveGreedy). The default for the paper
  /// figures, though not exact: on Fig 6/7-shaped problems it fell below
  /// the (3)-(4) optimum on 14.5% of instances, by up to 2.1% (see
  /// optimizer.h). It stays the default because the exact sweep changes
  /// rungs more often: with kBatchedSweep as the Fig 6/7 default,
  /// perfbench mobile_cell qoe_changes rose from 4.20 to 5.80 (seed 1),
  /// 4.29 to 5.55 (seed 2, +30%) and 4.29 to 5.96 (seed 3, +39%), beyond
  /// the benchmark's 15% bound, while qoe_bitrate_kbps fell 0.1-2.3%.
  kGreedyDiscrete,
  kContinuousRelaxation,
  /// Concave-envelope sweep (BatchSolver): exact on those problems,
  /// rebuilt from flat arrays every BAI. Churned FLARE cells and the
  /// daemon run it.
  kBatchedSweep,
};

struct FlareParams {
  double alpha = 1.0;  // data-vs-video weight (Table IV)
  int delta = 4;       // stability hysteresis (Table IV)
  VideoUtilityParams utility;  // beta = 10, theta = 0.2 Mbps (Table IV)
  SolverMode solver = SolverMode::kGreedyDiscrete;
  double max_video_fraction = 0.999;
};

/// Per-flow observation for one BAI.
struct FlowObservation {
  FlowId id = kInvalidFlow;
  /// Bits per RB this flow achieved over the last BAI (e_u = b_u / n_u).
  /// Callers fall back to the channel's nominal bits-per-RB when the flow
  /// transmitted nothing (new flow or idle gap).
  double bits_per_rb = 1.0;
  /// Client-info constraint: hard cap on the rung (e.g. device resolution
  /// or a data-cost limit sent by the plugin); nullopt = none.
  std::optional<int> client_max_level;
  /// Per-client utility override (clients may disclose screen size).
  std::optional<VideoUtilityParams> utility;
};

/// Why Algorithm 1 enforced the rung it did — the machine-readable label
/// on every BaiTraceRow and rung-change trace instant. Exactly one branch
/// of the stability rule produces each assignment.
enum class DecisionCause {
  kInit,               // flow's first BAI: adopt the (floor-capped) L*
  kHold,               // L* == L^{i-1}: nothing to do
  kSolverUp,           // one-rung increase adopted with no hysteresis wait
  kHysteresisAdopted,  // increase adopted after delta*(L+1) consecutive BAIs
  kStabilityCap,       // increase recommended but held pending hysteresis
  kCapacityDown,       // solver moved the flow down; drops apply immediately
  kInfeasibleFallback, // solver infeasible (over capacity at floor rungs)
};

const char* DecisionCauseName(DecisionCause cause);

/// Every DecisionCauseName() in enum order; lets reporting tools emit
/// stable, zero-filled cause tables even for causes that never fired.
const std::vector<const char*>& AllDecisionCauseNames();

struct RateAssignment {
  FlowId id = kInvalidFlow;
  /// Rung enforced after Algorithm 1's stability rule.
  int level = 0;
  double rate_bps = 0.0;
  /// The solver's recommendation L* before hysteresis (equals `level`
  /// except while an increase is pending adoption).
  int recommended_level = 0;
  /// Consecutive BAIs the solver has recommended a one-rung increase, as
  /// of this BAI (resets to 0 when the increase is adopted or abandoned).
  int consecutive_up = 0;
  /// Rung enforced by the previous BAI (-1 on the flow's first BAI).
  int previous_level = -1;
  /// Which stability-rule branch produced `level`.
  DecisionCause cause = DecisionCause::kInit;
};

struct BaiDecision {
  std::vector<RateAssignment> assignments;
  double video_fraction = 0.0;
  double objective = 0.0;
  bool feasible = true;
  /// Wall-clock time the solver took (the paper's Figure 9 metric).
  std::chrono::nanoseconds solve_time{0};
};

class FlareRateController {
 public:
  explicit FlareRateController(const FlareParams& params);

  /// Register a video flow with its ladder (from the MPD the plugin
  /// forwarded). Idempotent per id.
  void AddFlow(FlowId id, std::vector<double> ladder_bps);
  void RemoveFlow(FlowId id);
  bool HasFlow(FlowId id) const { return flows_.count(id) > 0; }
  std::size_t NumFlows() const { return flows_.size(); }

  /// Run one BAI: solve (3)-(4) over the registered flows and apply the
  /// stability rule. `rb_rate` is the cell RB budget per second.
  BaiDecision DecideBai(const std::vector<FlowObservation>& observations,
                        int n_data_flows, double rb_rate);

  /// Current rung of a flow (-1 before its first BAI).
  int CurrentLevel(FlowId id) const;

  const FlareParams& params() const { return params_; }
  void set_alpha(double alpha) { params_.alpha = alpha; }
  void set_delta(int delta) { params_.delta = delta; }
  void set_solver(SolverMode mode) { params_.solver = mode; }

  /// Attach a span tracer (null detaches): each DecideBai records a
  /// "solve" span plus the solver's internal phase spans on the control
  /// lane. Timestamps come from the tracer's clock.
  void SetSpanTracer(SpanTracer* tracer) { span_trace_ = tracer; }

 private:
  struct FlowCtl {
    std::vector<double> ladder;
    int last_level = -1;       // L^{i-1}, -1 before first assignment
    int consecutive_up = 0;    // BAIs in a row the solver recommended +1
  };

  FlareParams params_;
  std::map<FlowId, FlowCtl> flows_;
  /// Scratch-reusing SoA solver for kBatchedSweep (stateless between
  /// solves beyond reusable buffers, so flow-set changes need no sync).
  BatchSolver batch_;
  SpanTracer* span_trace_ = nullptr;
};

}  // namespace flare
