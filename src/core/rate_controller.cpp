#include "core/rate_controller.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "util/logging.h"

namespace flare {

const char* DecisionCauseName(DecisionCause cause) {
  switch (cause) {
    case DecisionCause::kInit:
      return "init";
    case DecisionCause::kHold:
      return "hold";
    case DecisionCause::kSolverUp:
      return "solver-up";
    case DecisionCause::kHysteresisAdopted:
      return "hysteresis-adopted";
    case DecisionCause::kStabilityCap:
      return "stability-cap";
    case DecisionCause::kCapacityDown:
      return "capacity-down";
    case DecisionCause::kInfeasibleFallback:
      return "infeasible-fallback";
  }
  return "unknown";
}

const std::vector<const char*>& AllDecisionCauseNames() {
  static const std::vector<const char*> names = {
      DecisionCauseName(DecisionCause::kInit),
      DecisionCauseName(DecisionCause::kHold),
      DecisionCauseName(DecisionCause::kSolverUp),
      DecisionCauseName(DecisionCause::kHysteresisAdopted),
      DecisionCauseName(DecisionCause::kStabilityCap),
      DecisionCauseName(DecisionCause::kCapacityDown),
      DecisionCauseName(DecisionCause::kInfeasibleFallback),
  };
  return names;
}

FlareRateController::FlareRateController(const FlareParams& params)
    : params_(params) {
  if (params_.delta < 0) {
    throw std::invalid_argument("FlareRateController: delta < 0");
  }
}

void FlareRateController::AddFlow(FlowId id, std::vector<double> ladder_bps) {
  if (ladder_bps.empty()) {
    throw std::invalid_argument("FlareRateController: empty ladder");
  }
  if (flows_.count(id) > 0) return;
  FlowCtl ctl;
  ctl.ladder = std::move(ladder_bps);
  flows_.emplace(id, std::move(ctl));
}

void FlareRateController::RemoveFlow(FlowId id) {
  flows_.erase(id);
}

int FlareRateController::CurrentLevel(FlowId id) const {
  const auto it = flows_.find(id);
  return it == flows_.end() ? -1 : it->second.last_level;
}

BaiDecision FlareRateController::DecideBai(
    const std::vector<FlowObservation>& observations, int n_data_flows,
    double rb_rate) {
  BaiDecision decision;
  if (observations.empty()) return decision;

  // --- Build problem (3)-(4).
  OptProblem problem;
  problem.n_data_flows = std::max(n_data_flows, 0);
  problem.alpha = params_.alpha;
  problem.rb_rate = rb_rate;
  problem.max_video_fraction = params_.max_video_fraction;

  std::vector<FlowCtl*> ctls;
  std::vector<FlowId> ids;
  for (const FlowObservation& obs : observations) {
    const auto it = flows_.find(obs.id);
    if (it == flows_.end()) {
      FLOG_WARN << "FlareRateController: observation for unknown flow "
                << obs.id;
      continue;
    }
    FlowCtl& ctl = it->second;
    OptFlow flow;
    flow.ladder_bps = ctl.ladder;
    flow.utility = obs.utility.value_or(params_.utility);
    flow.bits_per_rb = std::max(obs.bits_per_rb, 1.0);
    flow.min_level = 0;
    const int top = static_cast<int>(ctl.ladder.size()) - 1;
    // Stability constraint (4): at most one rung above the previous BAI.
    // New flows (last_level == -1) are capped at the lowest rung.
    int cap = ctl.last_level < 0 ? 0 : std::min(ctl.last_level + 1, top);
    if (obs.client_max_level) {
      cap = std::min(cap, std::clamp(*obs.client_max_level, 0, top));
    }
    flow.max_level = std::max(cap, 0);
    problem.flows.push_back(std::move(flow));
    ctls.push_back(&ctl);
    ids.push_back(obs.id);
  }
  if (problem.flows.empty()) return decision;

  // --- Solve (timed: this is Figure 9's measurement).
  problem.span_trace = span_trace_;
  SpanScope solve_span(span_trace_, kLaneControl, "solver", "solve");
  const auto start = std::chrono::steady_clock::now();
  OptResult solved;
  std::vector<int> recommended;
  if (params_.solver == SolverMode::kContinuousRelaxation) {
    solved = SolveContinuous(problem);
    recommended = DiscretizeDown(problem, solved.rates_bps);
  } else if (params_.solver == SolverMode::kBatchedSweep) {
    solved = batch_.Solve(problem);
    recommended = solved.levels;
  } else {
    solved = SolveGreedy(problem);
    recommended = solved.levels;
  }
  decision.solve_time = std::chrono::duration_cast<std::chrono::nanoseconds>(
      std::chrono::steady_clock::now() - start);
  decision.feasible = solved.feasible;
  decision.objective = solved.objective;
  if (solve_span.enabled()) {
    solve_span.set_args("{\"flows\":" +
                        std::to_string(problem.flows.size()) +
                        ",\"feasible\":" +
                        (solved.feasible ? "true" : "false") + "}");
    solve_span.Close();
  }

  // --- Algorithm 1's stability rule per flow.
  double video_rb_cost = 0.0;
  for (std::size_t u = 0; u < recommended.size(); ++u) {
    FlowCtl& ctl = *ctls[u];
    const int star = recommended[u];
    const int previous = ctl.last_level;
    int next;
    DecisionCause cause;
    if (ctl.last_level < 0) {
      // First assignment: take the solver's (lowest-rung-capped) choice.
      next = star;
      ctl.consecutive_up = 0;
      cause = DecisionCause::kInit;
    } else if (star == ctl.last_level + 1) {
      ++ctl.consecutive_up;
      // Threshold delta * (L^{i-1} + 1) with 1-based ladder indices; our
      // rungs are 0-based, so the target rung star has 1-based index
      // star + 1.
      const int threshold = params_.delta * (star + 1);
      if (ctl.consecutive_up >= threshold) {
        next = ctl.last_level + 1;
        ctl.consecutive_up = 0;
        cause = threshold <= 1 ? DecisionCause::kSolverUp
                               : DecisionCause::kHysteresisAdopted;
      } else {
        next = ctl.last_level;  // hold until the recommendation persists
        cause = DecisionCause::kStabilityCap;
      }
    } else {
      ctl.consecutive_up = 0;
      next = std::min(ctl.last_level, star);  // drops apply immediately
      if (next < ctl.last_level) {
        cause = solved.feasible ? DecisionCause::kCapacityDown
                                : DecisionCause::kInfeasibleFallback;
      } else {
        cause = DecisionCause::kHold;
      }
    }
    ctl.last_level = next;

    RateAssignment assignment;
    assignment.id = ids[u];
    assignment.level = next;
    assignment.rate_bps = ctl.ladder[static_cast<std::size_t>(next)];
    assignment.recommended_level = star;
    assignment.consecutive_up = ctl.consecutive_up;
    assignment.previous_level = previous;
    assignment.cause = cause;
    video_rb_cost += assignment.rate_bps / problem.flows[u].bits_per_rb;
    decision.assignments.push_back(assignment);
  }
  decision.video_fraction = rb_rate > 0.0 ? video_rb_cost / rb_rate : 0.0;
  return decision;
}

}  // namespace flare
