#include "core/batch_solver.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstring>

#include "core/utility.h"

namespace flare {

void BatchSolver::BuildSteps(const OptProblem& problem) {
  const std::size_t n_flows = problem.flows.size();

  // --- Pass 1: rung kernel. Every (flow, rung-in-bounds) pair's RB-rate
  // cost and utility lands in one flat array; the inner loop is a pure
  // elementwise map over the ladder slice (vectorizable: no branches, one
  // multiply and one divide per lane, constants hoisted per flow).
  rung_begin_.clear();
  rung_begin_.reserve(n_flows + 1);
  std::size_t total_rungs = 0;
  rung_begin_.push_back(0);
  for (const OptFlow& f : problem.flows) {
    total_rungs += static_cast<std::size_t>(f.max_level - f.min_level) + 1;
    rung_begin_.push_back(total_rungs);
  }
  rung_cost_.resize(total_rungs);
  rung_util_.resize(total_rungs);
  for (std::size_t u = 0; u < n_flows; ++u) {
    const OptFlow& f = problem.flows[u];
    // Same expressions as SolveSweep's envelope: cost multiplies by the
    // reciprocal (not a division) and utility is beta * (1 - theta /
    // rate) — identical rounding, identical bits.
    const double inv_e = 1.0 / f.bits_per_rb;
    const double beta = f.utility.beta;
    const double theta = f.utility.theta_bps;
    const double* ladder = f.ladder_bps.data() + f.min_level;
    double* cost = rung_cost_.data() + rung_begin_[u];
    double* util = rung_util_.data() + rung_begin_[u];
    const std::size_t count = rung_begin_[u + 1] - rung_begin_[u];
    for (std::size_t k = 0; k < count; ++k) {
      cost[k] = ladder[k] * inv_e;
      util[k] = beta * (1.0 - theta / ladder[k]);
    }
  }

  // --- Pass 2: upper concave hull per flow (monotone chain over the flat
  // rung arrays), emitting envelope edges as flat step records.
  steps_.clear();
  if (steps_.capacity() < total_rungs) steps_.reserve(total_rungs);
  for (std::size_t u = 0; u < n_flows; ++u) {
    const OptFlow& f = problem.flows[u];
    const std::size_t begin = rung_begin_[u];
    const std::size_t count = rung_begin_[u + 1] - begin;
    hull_level_.clear();
    hull_cost_.clear();
    hull_util_.clear();
    for (std::size_t k = 0; k < count; ++k) {
      const double cost = rung_cost_[begin + k];
      const double util = rung_util_[begin + k];
      // Identical pop test to SolveSweep's: a rung under the hull
      // buys less utility per RB than the edge skipping it.
      while (hull_cost_.size() >= 2) {
        const std::size_t b = hull_cost_.size() - 1;
        const std::size_t a = b - 1;
        if ((hull_util_[b] - hull_util_[a]) * (cost - hull_cost_[b]) <=
            (util - hull_util_[b]) * (hull_cost_[b] - hull_cost_[a])) {
          hull_level_.pop_back();
          hull_cost_.pop_back();
          hull_util_.pop_back();
        } else {
          break;
        }
      }
      hull_level_.push_back(f.min_level + static_cast<std::int32_t>(k));
      hull_cost_.push_back(cost);
      hull_util_.push_back(util);
    }
    for (std::size_t j = 1; j < hull_cost_.size(); ++j) {
      Step s;
      s.flow = static_cast<std::uint32_t>(u);
      s.to_level = hull_level_[j];
      s.dcost = hull_cost_[j] - hull_cost_[j - 1];
      s.dutil = hull_util_[j] - hull_util_[j - 1];
      s.rho = s.dutil / s.dcost;
      steps_.push_back(s);
    }
  }

  // The strict total order SolveSweep sorts by is (rho desc, flow asc,
  // to_level asc). ValidateProblem makes every hull edge's rho positive
  // and finite-or-inf (never NaN, never -0): the ladder ascends strictly
  // so dcost >= 0, beta/theta > 0 so dutil > 0. For such doubles the
  // IEEE-754 bit pattern orders exactly like the value, so
  // sorting ~bit_cast<uint64>(rho) ascending is rho descending — and since
  // the steps above were emitted in (flow asc, to_level asc) order, a
  // STABLE sort on that single key reproduces the comparator's tie-break
  // verbatim. LSD radix (16-bit digits, stable by construction) beats the
  // comparator introsort ~3x at the 100k-step scale this solver targets.
  const std::size_t n_steps = steps_.size();
  sort_keys_.resize(n_steps);
  sort_tmp_.resize(n_steps);
  for (std::size_t i = 0; i < n_steps; ++i) {
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(double));
    std::memcpy(&bits, &steps_[i].rho, sizeof(bits));
    sort_keys_[i].key = ~bits;
    sort_keys_[i].idx = static_cast<std::uint32_t>(i);
  }
  // Below this the radix counters' cache footprint (4 x 256 KiB zero +
  // count passes) costs more than comparing: fall back to a comparator
  // sort of the same packed keys. (key asc, idx asc) is precisely the
  // order the stable radix produces, so the two paths are interchangeable.
  constexpr std::size_t kRadixMinSteps = 8192;
  if (n_steps < kRadixMinSteps) {
    std::sort(sort_keys_.begin(), sort_keys_.end(),
              [](const SortKey& a, const SortKey& b) {
                if (a.key != b.key) return a.key < b.key;
                return a.idx < b.idx;
              });
    return;
  }
  digit_count_.assign(std::size_t{1} << 16, 0);
  SortKey* src = sort_keys_.data();
  SortKey* dst = sort_tmp_.data();
  for (int pass = 0; pass < 4; ++pass) {
    const int shift = pass * 16;
    std::uint32_t* count = digit_count_.data();
    std::memset(count, 0, (std::size_t{1} << 16) * sizeof(std::uint32_t));
    for (std::size_t i = 0; i < n_steps; ++i) {
      ++count[(src[i].key >> shift) & 0xFFFF];
    }
    // All keys share this digit: the pass is the identity, skip the
    // scatter (common for the high exponent bytes of clustered rhos).
    if (n_steps > 0 &&
        count[(src[0].key >> shift) & 0xFFFF] == n_steps) {
      continue;
    }
    std::uint32_t sum = 0;
    for (std::size_t d = 0; d < (std::size_t{1} << 16); ++d) {
      const std::uint32_t c = count[d];
      count[d] = sum;
      sum += c;
    }
    for (std::size_t i = 0; i < n_steps; ++i) {
      dst[count[(src[i].key >> shift) & 0xFFFF]++] = src[i];
    }
    std::swap(src, dst);
  }
  if (src != sort_keys_.data()) {
    std::swap(sort_keys_, sort_tmp_);
  }
}

OptResult BatchSolver::Solve(const OptProblem& problem) {
  SpanScope phase(problem.span_trace, kLaneControl, "solver",
                  "solve.batch_sweep");
  ValidateProblem(problem);
  const std::size_t n_flows = problem.flows.size();

  BuildSteps(problem);

  const double budget = problem.rb_rate * problem.max_video_fraction;
  const double n_alpha =
      static_cast<double>(std::max(problem.n_data_flows, 0)) * problem.alpha;

  // Floor every flow in problem order; the floor-cost accumulation divides
  // by bits_per_rb (not the reciprocal multiply the envelope uses), because
  // that is the exact FP sequence SolveSweep runs.
  level_.resize(n_flows);
  blocked_.assign(n_flows, 0);
  double s = 0.0;
  for (std::size_t u = 0; u < n_flows; ++u) {
    const OptFlow& f = problem.flows[u];
    level_[u] = f.min_level;
    s += f.ladder_bps[static_cast<std::size_t>(f.min_level)] / f.bits_per_rb;
  }

  const bool feasible = s <= budget;
  if (feasible) {
    for (const SortKey& kv : sort_keys_) {
      const Step& st = steps_[kv.idx];
      if (blocked_[st.flow] != 0) continue;
      if (s + st.dcost > budget) {
        blocked_[st.flow] = 1;  // a cheaper later flow may still fit
        continue;
      }
      double gain = st.dutil;
      if (n_alpha > 0.0) {
        gain += n_alpha * (std::log(problem.rb_rate - s - st.dcost) -
                           std::log(problem.rb_rate - s));
      }
      if (gain > 0.0) {
        level_[st.flow] = st.to_level;
        s += st.dcost;
      } else {
        // The flow's remaining steps have strictly lower rho against an
        // only-growing marginal data penalty: the whole chain is done.
        blocked_[st.flow] = 1;
      }
    }
  }

  OptResult result;
  result.feasible = feasible;
  result.levels.resize(n_flows);
  result.rates_bps.resize(n_flows);
  std::vector<VideoUtilityParams> params(n_flows);
  double cost = 0.0;
  for (std::size_t u = 0; u < n_flows; ++u) {
    const OptFlow& f = problem.flows[u];
    result.levels[u] = level_[u];
    result.rates_bps[u] =
        f.ladder_bps[static_cast<std::size_t>(level_[u])];
    params[u] = f.utility;
    cost += result.rates_bps[u] / f.bits_per_rb;
  }
  result.video_fraction = cost / problem.rb_rate;
  result.objective = TotalUtility(
      result.rates_bps, params, std::max(problem.n_data_flows, 0),
      problem.alpha,
      std::min(result.video_fraction, problem.max_video_fraction));
  return result;
}

std::vector<OptResult> BatchSolver::SolveMany(
    std::span<const OptProblem> problems) {
  std::vector<OptResult> results;
  results.reserve(problems.size());
  for (const OptProblem& problem : problems) {
    results.push_back(Solve(problem));
  }
  return results;
}

}  // namespace flare
