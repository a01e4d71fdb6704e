// Solvers for FLARE's per-BAI bitrate optimization, problem (3)-(4).
//
//   max   sum_u beta_u (1 - theta_u / R_u)  +  n alpha log(1 - r)
//   s.t.  sum_u R_u / e_u  <=  r * N_rate ,   lo_u <= R_u <= hi_u
//
// where e_u = bits-per-RB the flow achieved in the previous BAI (from the
// RB & Rate Trace Module; this is the paper's B*R/b * n <= rN constraint
// with the BAI length cancelled) and N_rate is the cell's RB budget per
// second (num_rbs * 1000 TTIs).
//
// Four solvers:
//  * SolveContinuous — the convex relaxation of Proposition 1. At the
//    optimum R_u(lambda) = clamp(sqrt(beta_u theta_u e_u / lambda), lo, hi)
//    with lambda = n alpha / (N - S); S(lambda) is monotone, so a scalar
//    bisection finds the global optimum. (This replaces the paper's KNITRO
//    dependency with a closed-form KKT solver for the same program.)
//  * SolveGreedy — discrete solver: start every flow at its lowest rung
//    and repeatedly apply the single-level upgrade with the best objective
//    gain while positive and feasible. Not exact: on 2000 seeded Fig
//    6/7-shaped problems (8 flows, simulation ladder, 25 RBs, n = 0,
//    stability caps) it fell below SolveExhaustive on 290 (14.5%), by up
//    to 2.1% of the objective, because with n = 0 its gain ignores RB
//    cost. The sweep matched the optimum on all 2000.
//  * SolveSweep — the concave-envelope sweep (see below); the reference
//    implementation of the production discrete solver, BatchSolver
//    (core/batch_solver.h), which must match it bit for bit.
//  * SolveExhaustive — brute force over all rung combinations; exponential,
//    for tests and small instances only.
#pragma once

#include <vector>

#include "core/utility.h"
#include "lte/types.h"
#include "obs/span_trace.h"

namespace flare {

struct OptFlow {
  std::vector<double> ladder_bps;  // ascending, non-empty
  VideoUtilityParams utility;
  /// Bits one RB carried for this flow in the previous BAI.
  double bits_per_rb = 1.0;
  /// Inclusive rung bounds (stability cap / client-info constraints),
  /// indices into ladder_bps.
  int min_level = 0;
  int max_level = 0;
};

struct OptProblem {
  std::vector<OptFlow> flows;
  int n_data_flows = 0;
  double alpha = 1.0;
  /// RB budget per second (num_rbs * 1000 for 1 ms TTIs).
  double rb_rate = 50'000.0;
  /// Cap on r so the data term stays finite (and data flows never starve
  /// completely) even with n = 0.
  double max_video_fraction = 0.999;
  /// Optional solver-phase span tracing on the control lane (not owned;
  /// null = disabled, the default — existing call sites are unaffected).
  SpanTracer* span_trace = nullptr;
};

struct OptResult {
  /// Chosen rung per flow (discrete solvers) — empty for SolveContinuous.
  std::vector<int> levels;
  /// Chosen rate per flow, bits/s (continuous: the un-rounded optimum).
  std::vector<double> rates_bps;
  /// Fraction r of RBs assigned to video.
  double video_fraction = 0.0;
  /// Objective value (2) at the solution.
  double objective = 0.0;
  /// False if even the all-minimum assignment violates capacity; the
  /// returned solution is then the all-minimum one.
  bool feasible = true;
};

/// Validate bounds/ladders; throws std::invalid_argument on bad input.
void ValidateProblem(const OptProblem& problem);
/// Per-flow half of ValidateProblem: why the solvers would reject `flow`,
/// or nullptr when they accept it. A valid flow has an ascending,
/// positive, finite ladder, level bounds inside it, and finite positive
/// bits_per_rb, beta and theta.
const char* FlowDefect(const OptFlow& flow);
/// Throws std::invalid_argument with FlowDefect's reason.
void ValidateFlow(const OptFlow& flow);

/// RB-rate cost of an assignment: sum R_u / e_u.
double RbRateCost(const OptProblem& problem,
                  const std::vector<double>& rates_bps);

/// Objective (2) for an assignment, -inf if capacity is violated.
double Objective(const OptProblem& problem,
                 const std::vector<double>& rates_bps);

OptResult SolveContinuous(const OptProblem& problem);
OptResult SolveGreedy(const OptProblem& problem);
OptResult SolveExhaustive(const OptProblem& problem);

/// Round a continuous solution down to ladder rungs (Algorithm 1's
/// discretization step: L* = max{k : r(k) <= R*}, floored at min_level).
std::vector<int> DiscretizeDown(const OptProblem& problem,
                                const std::vector<double>& rates_bps);

/// Concave-envelope sweep. Per flow, take the upper concave envelope of
/// the (RB-rate cost, utility) rung points within its level bounds; each
/// envelope edge is an upgrade step with marginal utility-per-RB ratio
/// rho. Sort all steps by (rho desc, flow index asc, to_level asc), start
/// every flow at its floor rung and sweep the steps in that order,
/// accepting a step while it fits the budget and its utility gain beats
/// the data term's marginal log-penalty; a rejected step blocks the rest
/// of that flow's chain (its later steps have strictly lower rho).
///
/// A plain cold implementation kept as the reference BatchSolver is
/// differentially tested against (tests/solver_differential_test.cpp).
OptResult SolveSweep(const OptProblem& problem);

}  // namespace flare
