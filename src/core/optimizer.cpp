#include "core/optimizer.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <stdexcept>

namespace flare {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

std::vector<double> RatesAtLevels(const OptProblem& problem,
                                  const std::vector<int>& levels) {
  std::vector<double> rates(levels.size());
  for (std::size_t u = 0; u < levels.size(); ++u) {
    rates[u] = problem.flows[u]
                   .ladder_bps[static_cast<std::size_t>(levels[u])];
  }
  return rates;
}

std::vector<VideoUtilityParams> UtilityParams(const OptProblem& problem) {
  std::vector<VideoUtilityParams> params;
  params.reserve(problem.flows.size());
  for (const OptFlow& f : problem.flows) params.push_back(f.utility);
  return params;
}

OptResult MakeResult(const OptProblem& problem, std::vector<int> levels,
                     bool feasible) {
  OptResult result;
  result.rates_bps = RatesAtLevels(problem, levels);
  result.levels = std::move(levels);
  result.video_fraction =
      problem.rb_rate > 0.0
          ? RbRateCost(problem, result.rates_bps) / problem.rb_rate
          : 1.0;
  result.feasible = feasible;
  const double r = std::min(result.video_fraction,
                            problem.max_video_fraction);
  result.objective = TotalUtility(result.rates_bps, UtilityParams(problem),
                                  problem.n_data_flows, problem.alpha, r);
  return result;
}

}  // namespace

const char* FlowDefect(const OptFlow& f) {
  if (f.ladder_bps.empty()) return "OptFlow: empty ladder";
  // Negated comparisons throughout, so NaN fails them too.
  double prev = 0.0;
  for (double rate : f.ladder_bps) {
    if (!(rate > prev) || !std::isfinite(rate)) {
      return "OptFlow: ladder not ascending/positive/finite";
    }
    prev = rate;
  }
  const int max_index = static_cast<int>(f.ladder_bps.size()) - 1;
  if (f.min_level < 0 || f.min_level > max_index || f.max_level < 0 ||
      f.max_level > max_index || f.min_level > f.max_level) {
    return "OptFlow: bad level bounds";
  }
  if (!(f.bits_per_rb > 0.0) || !std::isfinite(f.bits_per_rb)) {
    return "OptFlow: bits_per_rb not finite positive";
  }
  if (!(f.utility.theta_bps > 0.0) || !std::isfinite(f.utility.theta_bps) ||
      !(f.utility.beta > 0.0) || !std::isfinite(f.utility.beta)) {
    return "OptFlow: bad utility params";
  }
  return nullptr;
}

void ValidateFlow(const OptFlow& f) {
  if (const char* defect = FlowDefect(f)) {
    throw std::invalid_argument(defect);
  }
}

void ValidateProblem(const OptProblem& problem) {
  if (problem.rb_rate <= 0.0) {
    throw std::invalid_argument("OptProblem: rb_rate <= 0");
  }
  if (problem.max_video_fraction <= 0.0 ||
      problem.max_video_fraction > 1.0) {
    throw std::invalid_argument("OptProblem: bad max_video_fraction");
  }
  for (const OptFlow& f : problem.flows) ValidateFlow(f);
}

double RbRateCost(const OptProblem& problem,
                  const std::vector<double>& rates_bps) {
  double cost = 0.0;
  for (std::size_t u = 0; u < rates_bps.size(); ++u) {
    cost += rates_bps[u] / problem.flows[u].bits_per_rb;
  }
  return cost;
}

double Objective(const OptProblem& problem,
                 const std::vector<double>& rates_bps) {
  const double r = RbRateCost(problem, rates_bps) / problem.rb_rate;
  if (r > problem.max_video_fraction) return -kInf;
  return TotalUtility(rates_bps, UtilityParams(problem),
                      problem.n_data_flows, problem.alpha, r);
}

OptResult SolveContinuous(const OptProblem& problem) {
  SpanScope phase(problem.span_trace, kLaneControl, "solver",
                  "solve.continuous");
  ValidateProblem(problem);
  const std::size_t n_flows = problem.flows.size();
  const double budget = problem.rb_rate * problem.max_video_fraction;

  std::vector<double> lo(n_flows), hi(n_flows), eff(n_flows);
  for (std::size_t u = 0; u < n_flows; ++u) {
    const OptFlow& f = problem.flows[u];
    lo[u] = f.ladder_bps[static_cast<std::size_t>(f.min_level)];
    hi[u] = f.ladder_bps[static_cast<std::size_t>(f.max_level)];
    eff[u] = f.bits_per_rb;
  }

  // R_u(lambda): the unconstrained stationary point of the Lagrangian,
  // clamped to the box. lambda prices one RB/s of capacity.
  const auto rates_at = [&](double lambda) {
    std::vector<double> rates(n_flows);
    for (std::size_t u = 0; u < n_flows; ++u) {
      const OptFlow& f = problem.flows[u];
      const double unconstrained =
          std::sqrt(f.utility.beta * f.utility.theta_bps * eff[u] /
                    std::max(lambda, 1e-300));
      rates[u] = std::clamp(unconstrained, lo[u], hi[u]);
    }
    return rates;
  };

  OptResult result;
  result.feasible = true;

  const double min_cost = RbRateCost(problem, rates_at(kInf));
  if (min_cost >= budget) {
    // Even the floor violates capacity: report the floor, flag infeasible.
    std::vector<int> floor_levels(n_flows);
    for (std::size_t u = 0; u < n_flows; ++u) {
      floor_levels[u] = problem.flows[u].min_level;
    }
    OptResult floor = MakeResult(problem, floor_levels, /*feasible=*/false);
    floor.levels.clear();  // continuous solver reports rates only
    return floor;
  }

  // Residual whose root is the optimum:
  //   n > 0: g(lambda) = lambda - n*alpha / (N - S(lambda))   (fixed point)
  //   n = 0: g(lambda) = S(lambda) - budget                   (capacity)
  // Both are monotone in lambda (S is nonincreasing).
  const bool with_data = problem.n_data_flows > 0;
  const double n_alpha =
      static_cast<double>(problem.n_data_flows) * problem.alpha;

  const auto residual = [&](double lambda) {
    const double s = RbRateCost(problem, rates_at(lambda));
    if (with_data) {
      if (s >= problem.rb_rate) return -kInf;  // lambda too small
      return lambda - n_alpha / (problem.rb_rate - s);
    }
    return budget - s;  // want s <= budget; positive residual = feasible
  };

  // With n = 0 and capacity slack at the ceiling, take the ceiling.
  if (!with_data && RbRateCost(problem, rates_at(0.0)) <= budget) {
    result.rates_bps = rates_at(0.0);
  } else {
    SpanScope bisection(problem.span_trace, kLaneControl, "solver",
                        "solve.bisection");
    double lambda_lo = 1e-12;
    double lambda_hi = 1.0;
    while (residual(lambda_hi) < 0.0 && lambda_hi < 1e30) lambda_hi *= 4.0;
    while (residual(lambda_lo) > 0.0 && lambda_lo > 1e-290) {
      lambda_lo /= 4.0;
    }
    for (int iter = 0; iter < 200; ++iter) {
      const double mid = std::sqrt(lambda_lo * lambda_hi);  // log-bisection
      if (residual(mid) >= 0.0) {
        lambda_hi = mid;
      } else {
        lambda_lo = mid;
      }
    }
    result.rates_bps = rates_at(lambda_hi);
  }

  result.video_fraction =
      RbRateCost(problem, result.rates_bps) / problem.rb_rate;
  result.objective = TotalUtility(
      result.rates_bps, UtilityParams(problem), problem.n_data_flows,
      problem.alpha,
      std::min(result.video_fraction, problem.max_video_fraction));
  return result;
}

OptResult SolveGreedy(const OptProblem& problem) {
  SpanScope phase(problem.span_trace, kLaneControl, "solver",
                  "solve.greedy");
  ValidateProblem(problem);
  const std::size_t n_flows = problem.flows.size();

  std::vector<int> levels(n_flows);
  for (std::size_t u = 0; u < n_flows; ++u) {
    levels[u] = problem.flows[u].min_level;
  }
  std::vector<double> rates = RatesAtLevels(problem, levels);
  double current = Objective(problem, rates);
  if (current == -kInf) {
    // Floor violates capacity; nothing better exists under the bounds.
    return MakeResult(problem, std::move(levels), /*feasible=*/false);
  }

  // Greedy single-rung ascent: apply the best positive-gain upgrade until
  // none remains. Gains are evaluated incrementally in O(1) per candidate
  // (the data term depends only on the total RB-rate cost S), giving
  // O(U) per upgrade instead of re-evaluating the full objective.
  const double n_alpha =
      static_cast<double>(std::max(problem.n_data_flows, 0)) *
      problem.alpha;
  const double budget = problem.rb_rate * problem.max_video_fraction;
  double s = RbRateCost(problem, rates);

  const auto upgrade_gain = [&](std::size_t u) {
    const OptFlow& f = problem.flows[u];
    const double next_rate =
        f.ladder_bps[static_cast<std::size_t>(levels[u] + 1)];
    const double delta_s = (next_rate - rates[u]) / f.bits_per_rb;
    if (s + delta_s > budget) return -kInf;
    double gain = f.utility.beta * f.utility.theta_bps *
                  (1.0 / rates[u] - 1.0 / next_rate);
    if (n_alpha > 0.0) {
      gain += n_alpha * (std::log(problem.rb_rate - s - delta_s) -
                         std::log(problem.rb_rate - s));
    }
    return gain;
  };

  while (true) {
    double best_gain = 0.0;
    std::size_t best_u = n_flows;
    for (std::size_t u = 0; u < n_flows; ++u) {
      if (levels[u] >= problem.flows[u].max_level) continue;
      const double gain = upgrade_gain(u);
      if (gain > best_gain + 1e-12) {
        best_gain = gain;
        best_u = u;
      }
    }
    if (best_u == n_flows) break;
    const OptFlow& f = problem.flows[best_u];
    ++levels[best_u];
    const double next_rate =
        f.ladder_bps[static_cast<std::size_t>(levels[best_u])];
    s += (next_rate - rates[best_u]) / f.bits_per_rb;
    rates[best_u] = next_rate;
  }

  return MakeResult(problem, std::move(levels), /*feasible=*/true);
}

OptResult SolveExhaustive(const OptProblem& problem) {
  ValidateProblem(problem);
  const std::size_t n_flows = problem.flows.size();
  std::vector<int> levels(n_flows);
  for (std::size_t u = 0; u < n_flows; ++u) {
    levels[u] = problem.flows[u].min_level;
  }

  std::vector<int> best = levels;
  double best_obj = -kInf;
  // Odometer enumeration over the level boxes.
  while (true) {
    const double obj = Objective(problem, RatesAtLevels(problem, levels));
    if (obj > best_obj) {
      best_obj = obj;
      best = levels;
    }
    std::size_t u = 0;
    while (u < n_flows) {
      if (levels[u] < problem.flows[u].max_level) {
        ++levels[u];
        break;
      }
      levels[u] = problem.flows[u].min_level;
      ++u;
    }
    if (u == n_flows) break;
  }

  return MakeResult(problem, std::move(best), best_obj > -kInf);
}

OptResult SolveSweep(const OptProblem& problem) {
  SpanScope phase(problem.span_trace, kLaneControl, "solver", "solve.sweep");
  ValidateProblem(problem);
  const std::size_t n_flows = problem.flows.size();

  // Envelope edges of every flow. The FP expressions match BatchSolver's:
  // rung costs multiply by the reciprocal of bits_per_rb, while the floor
  // and result costs below divide by it.
  struct Step {
    double rho;
    std::size_t flow;
    int to_level;
    double dcost;
    double dutil;
  };
  struct Pt {
    int level;
    double cost;
    double util;
  };
  std::vector<Step> steps;
  std::vector<Pt> hull;
  for (std::size_t u = 0; u < n_flows; ++u) {
    const OptFlow& f = problem.flows[u];
    const double inv_e = 1.0 / f.bits_per_rb;
    // Monotone chain: a rung under the hull buys less utility per RB than
    // the edge skipping it, so the decreasing-rho sweep never wants it.
    hull.clear();
    for (int l = f.min_level; l <= f.max_level; ++l) {
      const double rate = f.ladder_bps[static_cast<std::size_t>(l)];
      const Pt p{l, rate * inv_e,
                 f.utility.beta * (1.0 - f.utility.theta_bps / rate)};
      while (hull.size() >= 2) {
        const Pt& a = hull[hull.size() - 2];
        const Pt& b = hull.back();
        if ((b.util - a.util) * (p.cost - b.cost) <=
            (p.util - b.util) * (b.cost - a.cost)) {
          hull.pop_back();
        } else {
          break;
        }
      }
      hull.push_back(p);
    }
    for (std::size_t j = 1; j < hull.size(); ++j) {
      const double dcost = hull[j].cost - hull[j - 1].cost;
      const double dutil = hull[j].util - hull[j - 1].util;
      steps.push_back({dutil / dcost, u, hull[j].level, dcost, dutil});
    }
  }
  std::sort(steps.begin(), steps.end(), [](const Step& a, const Step& b) {
    if (a.rho != b.rho) return a.rho > b.rho;
    if (a.flow != b.flow) return a.flow < b.flow;
    return a.to_level < b.to_level;
  });

  const double budget = problem.rb_rate * problem.max_video_fraction;
  const int n_data = std::max(problem.n_data_flows, 0);
  const double n_alpha = static_cast<double>(n_data) * problem.alpha;
  std::vector<int> levels(n_flows);
  std::vector<bool> blocked(n_flows, false);
  double s = 0.0;
  for (std::size_t u = 0; u < n_flows; ++u) {
    const OptFlow& f = problem.flows[u];
    levels[u] = f.min_level;
    s += f.ladder_bps[static_cast<std::size_t>(f.min_level)] / f.bits_per_rb;
  }

  const bool feasible = s <= budget;
  if (feasible) {
    for (const Step& st : steps) {
      if (blocked[st.flow]) continue;
      if (s + st.dcost > budget) {
        blocked[st.flow] = true;  // a cheaper later flow may still fit
        continue;
      }
      double gain = st.dutil;
      if (n_alpha > 0.0) {
        gain += n_alpha * (std::log(problem.rb_rate - s - st.dcost) -
                           std::log(problem.rb_rate - s));
      }
      if (gain > 0.0) {
        levels[st.flow] = st.to_level;
        s += st.dcost;
      } else {
        // This flow's remaining steps have strictly lower rho against an
        // only-growing marginal data penalty: the whole chain is done.
        blocked[st.flow] = true;
      }
    }
  }

  OptResult result;
  result.feasible = feasible;
  result.rates_bps = RatesAtLevels(problem, levels);
  result.levels = std::move(levels);
  result.video_fraction =
      RbRateCost(problem, result.rates_bps) / problem.rb_rate;
  result.objective = TotalUtility(
      result.rates_bps, UtilityParams(problem), n_data, problem.alpha,
      std::min(result.video_fraction, problem.max_video_fraction));
  return result;
}

std::vector<int> DiscretizeDown(const OptProblem& problem,
                                const std::vector<double>& rates_bps) {
  SpanScope phase(problem.span_trace, kLaneControl, "solver",
                  "solve.discretize");
  std::vector<int> levels(rates_bps.size());
  for (std::size_t u = 0; u < rates_bps.size(); ++u) {
    const OptFlow& f = problem.flows[u];
    int level = f.min_level;
    for (int k = f.min_level; k <= f.max_level; ++k) {
      if (f.ladder_bps[static_cast<std::size_t>(k)] <=
          rates_bps[u] + 1e-9) {
        level = k;
      }
    }
    levels[u] = level;
  }
  return levels;
}

}  // namespace flare
