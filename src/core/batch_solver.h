// Batched structure-of-arrays solver for FLARE's per-BAI problem (3)-(4),
// built for 10k+ flows per solve and many-cells-per-thread control planes.
//
// BatchSolver computes exactly what SolveSweep computes — the rho-sorted
// concave-envelope sweep of optimizer.h — but with a data layout rewrite
// instead of an algorithm change:
//
//  * No per-solve heap objects beyond the OptResult. Everything lives in
//    flat arrays that are reused across solves.
//  * A vectorizable envelope-evaluation kernel: rung RB-costs and
//    utilities for all flows are computed into flat per-rung arrays in one
//    tight pass (contiguous loads, no branches beyond the loop), then the
//    per-flow upper concave hulls are taken over those arrays.
//  * Flat per-step records (rho / flow index / target rung / cost & util
//    deltas) in one contiguous vector, ordered by the same strict total
//    order (rho desc, flow asc, to_level asc) SolveSweep sorts by — but
//    via a stable LSD radix sort over packed 64-bit keys instead of a
//    comparator sort. Validation guarantees rho > 0 (strict ladder ascent
//    and positive beta/theta make every hull edge gain utility), so the
//    IEEE-754 bit pattern of rho orders exactly like its value and
//    ~bit_cast<uint64>(rho) ascending is rho descending; steps are emitted
//    in (flow asc, to_level asc) order, so a *stable* sort on the rho key
//    alone reproduces the full tie-break. The sequence is therefore
//    identical to what std::sort with the three-way comparator produces,
//    at roughly a third of the cost at 10k flows.
//
// Equivalence contract (enforced by tests/solver_differential_test.cpp):
// for any valid OptProblem,
//
//     BatchSolver().Solve(p) == SolveSweep(p)
//
// bit for bit — levels, rates, video_fraction, objective and the feasible
// flag — because every floating-point expression here evaluates in the
// same order with the same operations as SolveSweep (including its
// quirks: floor costs divide by bits_per_rb while envelope costs
// multiply by the precomputed reciprocal).
//
// SolveMany() solves a batch of independent cell problems back to back on
// one thread, reusing the scratch arrays so consecutive small solves stay
// cache-hot; it is defined to return exactly what per-problem Solve()
// calls return.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/optimizer.h"

namespace flare {

class BatchSolver {
 public:
  BatchSolver() = default;
  // Purely scratch state; copying would only copy caches.
  BatchSolver(const BatchSolver&) = delete;
  BatchSolver& operator=(const BatchSolver&) = delete;

  /// Solve (3)-(4). Validates like SolveSweep (throws std::invalid_argument
  /// on bad input) and returns a bit-identical OptResult.
  OptResult Solve(const OptProblem& problem);

  /// Batched multi-cell entry point: one thread solves every problem in
  /// order, cache-hot, reusing this solver's scratch. Element i of the
  /// result is bit-identical to an independent Solve(problems[i]).
  std::vector<OptResult> SolveMany(std::span<const OptProblem> problems);

 private:
  // One envelope edge: upgrade some flow to `to_level` at RB-rate cost
  // `dcost` for utility gain `dutil`. Flat records — no pointers back into
  // per-flow state — sorted by (rho desc, flow asc, to_level asc).
  struct Step {
    double rho = 0.0;
    std::uint32_t flow = 0;
    std::int32_t to_level = 0;
    double dcost = 0.0;
    double dutil = 0.0;
  };

  void BuildSteps(const OptProblem& problem);

  // --- SoA scratch, reused across solves (capacity persists).
  // Rung kernel output: cost/util per (flow, rung) within [min,max]
  // bounds, flow f's rungs at [rung_begin_[f], rung_begin_[f + 1]).
  std::vector<double> rung_cost_;
  std::vector<double> rung_util_;
  std::vector<std::size_t> rung_begin_;
  // Per-flow hull scratch (monotone chain over the rung arrays).
  std::vector<std::int32_t> hull_level_;
  std::vector<double> hull_cost_;
  std::vector<double> hull_util_;
  // Step records in emission order plus the radix-sorted key/index pairs
  // that define sweep order; the sweep walks sort_keys_ and indexes
  // steps_.
  struct SortKey {
    std::uint64_t key = 0;  // ~bit_cast<uint64>(rho): ascending == rho desc
    std::uint32_t idx = 0;  // index into steps_ (emission order breaks ties)
    std::uint32_t pad = 0;
  };
  std::vector<Step> steps_;
  std::vector<SortKey> sort_keys_;
  std::vector<SortKey> sort_tmp_;
  std::vector<std::uint32_t> digit_count_;
  // Per-flow sweep state.
  std::vector<std::int32_t> level_;
  std::vector<std::uint8_t> blocked_;
};

}  // namespace flare
