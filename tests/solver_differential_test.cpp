// Differential test harness for the concave-envelope sweep: the
// production solver against its plain reference,
//
//     BatchSolver (SoA)  ==  SolveSweep (cold)
//
// A seeded random OptProblem generator covers the shapes that historically
// break solver rewrites — empty problems, single flows, duplicated flows
// (exactly tied rho step keys), near-equal-utility rung ladders, pinned
// GBR-style level boxes, zero-capacity cells and infeasible floor mixes —
// and every result is byte-compared through one canonical serialization
// (hexfloat, so a single ULP of drift in any rate, fraction or objective
// is a string diff), the same byte-compare discipline determinism_test
// applies to run artifacts. This suite is the license for any future
// data-layout or vectorization change to the batch path: if the bytes
// still match, the rewrite is exact.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/batch_solver.h"
#include "core/optimizer.h"
#include "has/mpd.h"
#include "util/rng.h"

namespace flare {
namespace {

// One canonical byte representation of an OptResult. Hexfloat round-trips
// doubles exactly, so string equality == bitwise equality of every field.
std::string CanonicalBytes(const OptResult& r) {
  std::ostringstream out;
  out << "feasible=" << (r.feasible ? 1 : 0) << "\nlevels=";
  for (int level : r.levels) out << level << ",";
  out << std::hexfloat;
  out << "\nrates=";
  for (double rate : r.rates_bps) out << rate << ",";
  out << "\nvideo_fraction=" << r.video_fraction;
  out << "\nobjective=" << r.objective << "\n";
  return out.str();
}

OptFlow RandomFlow(Rng& rng) {
  OptFlow f;
  switch (rng.UniformInt(0, 2)) {
    case 0:  // testbed ladder
      for (double kbps : {200, 310, 450, 790, 1100, 1320, 2280, 2750}) {
        f.ladder_bps.push_back(kbps * 1000.0);
      }
      break;
    case 1: {  // geometric ladder, random shape
      const int rungs = static_cast<int>(rng.UniformInt(1, 12));
      double rate = rng.Uniform(50e3, 400e3);
      const double ratio = rng.Uniform(1.15, 1.8);
      for (int l = 0; l < rungs; ++l) {
        f.ladder_bps.push_back(rate);
        rate *= ratio;
      }
      break;
    }
    default: {  // tightly packed rungs: near-equal utility per step, so
                // dutil/dcost is tiny and hull pops are frequent
      const int rungs = static_cast<int>(rng.UniformInt(2, 10));
      double rate = rng.Uniform(200e3, 2e6);
      for (int l = 0; l < rungs; ++l) {
        f.ladder_bps.push_back(rate);
        rate += rng.Uniform(100.0, 2000.0);
      }
      break;
    }
  }
  const int top = static_cast<int>(f.ladder_bps.size()) - 1;
  f.bits_per_rb = rng.Uniform(16.0, 712.0);
  if (rng.UniformInt(0, 3) == 0) {
    // Level box: GBR-style floor and/or cap, occasionally pinned.
    f.min_level = static_cast<int>(rng.UniformInt(0, top));
    f.max_level = static_cast<int>(rng.UniformInt(f.min_level, top));
  } else {
    f.min_level = 0;
    f.max_level = top;
  }
  if (rng.UniformInt(0, 1) == 0) {
    f.utility.beta = rng.Uniform(1.0, 20.0);
    f.utility.theta_bps = rng.Uniform(0.05e6, 1.0e6);
  }
  return f;
}

/// Seeded generator over the degenerate-shape corpus. `n_flows` fixes the
/// population; everything else (ladders, boxes, ties, capacity regime,
/// data mix) is drawn from `rng`.
OptProblem RandomProblem(Rng& rng, int n_flows) {
  OptProblem p;
  p.n_data_flows = static_cast<int>(rng.UniformInt(0, 8));
  p.alpha = rng.Uniform(0.25, 4.0);
  switch (rng.UniformInt(0, 3)) {
    case 0:
      p.max_video_fraction = 1.0;
      break;
    case 1:
      p.max_video_fraction = rng.Uniform(0.3, 0.9);
      break;
    default:
      p.max_video_fraction = 0.999;
      break;
  }
  for (int i = 0; i < n_flows; ++i) {
    if (i > 0 && rng.UniformInt(0, 3) == 0) {
      // Verbatim duplicate of an earlier flow: every envelope step of the
      // pair carries an exactly tied rho, so only the (flow, to_level)
      // tie-break orders the sweep.
      p.flows.push_back(
          p.flows[static_cast<std::size_t>(rng.UniformInt(0, i - 1))]);
    } else {
      p.flows.push_back(RandomFlow(rng));
    }
  }
  // Capacity regime relative to the floor cost: ample, binding, infeasible
  // or an (almost) zero-capacity cell.
  double floor_cost = 0.0;
  double top_cost = 0.0;
  for (const OptFlow& f : p.flows) {
    floor_cost +=
        f.ladder_bps[static_cast<std::size_t>(f.min_level)] / f.bits_per_rb;
    top_cost +=
        f.ladder_bps[static_cast<std::size_t>(f.max_level)] / f.bits_per_rb;
  }
  switch (rng.UniformInt(0, 3)) {
    case 0:
      p.rb_rate = std::max(top_cost * rng.Uniform(1.2, 3.0), 1.0);
      break;
    case 1:
      p.rb_rate = std::max(floor_cost * rng.Uniform(1.01, 2.0), 1.0);
      break;
    case 2:
      p.rb_rate = std::max(floor_cost * rng.Uniform(0.2, 0.99), 1e-3);
      break;
    default:
      p.rb_rate = 1e-3;  // zero-capacity cell (rb_rate must stay > 0)
      break;
  }
  return p;
}

int SizeForCase(int index) {
  if (index % 50 == 49) return 500;
  constexpr int kSizes[] = {0, 1, 2, 3, 5, 8, 16, 64};
  return kSizes[index % (sizeof(kSizes) / sizeof(kSizes[0]))];
}

// --- The differential corpus: >= 1000 seeded problems across the shape
// matrix, every one byte-compared across both sweeps.
TEST(SolverDifferential, CorpusIsBitExactAcrossBothSweeps) {
  BatchSolver batch;  // one instance: scratch reuse is inside the contract
  int feasible_count = 0;
  int infeasible_count = 0;
  int empty_count = 0;
  constexpr int kCases = 1000;
  for (int c = 0; c < kCases; ++c) {
    Rng rng(0xD1FF0000ULL + static_cast<std::uint64_t>(c));
    const OptProblem p = RandomProblem(rng, SizeForCase(c));
    const OptResult cold = SolveSweep(p);
    EXPECT_EQ(CanonicalBytes(batch.Solve(p)), CanonicalBytes(cold))
        << "case " << c;
    if (cold.feasible) {
      ++feasible_count;
    } else {
      ++infeasible_count;
    }
    if (p.flows.empty()) ++empty_count;
  }
  // The corpus genuinely covered both capacity regimes and the empty shape
  // (a generator regression would silently hollow the suite out).
  EXPECT_GT(feasible_count, kCases / 4);
  EXPECT_GT(infeasible_count, kCases / 10);
  EXPECT_GT(empty_count, 0);
}

TEST(SolverDifferential, FiveThousandFlowProblemIsBitExact) {
  Rng rng(0x5000);
  const OptProblem p = RandomProblem(rng, 5000);
  BatchSolver batch;
  EXPECT_EQ(CanonicalBytes(batch.Solve(p)), CanonicalBytes(SolveSweep(p)));
}

// --- Exactness where the figures run: problems shaped like Figs 6 and 7
// (8 flows on the simulation ladder, a 25-RB cell, no data flows, the
// stability cap one rung above a random previous rung). The production
// sweep must reach the exhaustive optimum on every one; greedy does not
// (it ignores RB cost when n = 0), which is why it is not graded here.
TEST(SolverDifferential, SweepMatchesExhaustiveOnFigureShapedProblems) {
  const std::vector<double> ladder_kbps = SimulationLadderKbps();
  const int top = static_cast<int>(ladder_kbps.size()) - 1;
  BatchSolver batch;
  int upgraded = 0;
  constexpr int kCases = 300;
  for (int c = 0; c < kCases; ++c) {
    Rng rng(0xF167ULL + static_cast<std::uint64_t>(c));
    OptProblem p;
    p.rb_rate = 25'000.0;
    p.n_data_flows = 0;
    for (int u = 0; u < 8; ++u) {
      OptFlow f;
      for (double kbps : ladder_kbps) f.ladder_bps.push_back(kbps * 1000.0);
      f.bits_per_rb = rng.Uniform(300.0, 600.0);
      const int previous = static_cast<int>(rng.UniformInt(0, top));
      f.max_level = std::min(previous + 1, top);
      p.flows.push_back(std::move(f));
    }
    const OptResult sweep = batch.Solve(p);
    const OptResult best = SolveExhaustive(p);
    ASSERT_TRUE(best.feasible) << "case " << c;
    EXPECT_NEAR(sweep.objective, best.objective,
                1e-9 * std::abs(best.objective))
        << "case " << c;
    for (int level : sweep.levels) upgraded += level > 0 ? 1 : 0;
  }
  // The budget binds somewhere above the floor: the corpus is not all
  // floor-pinned problems that any solver gets right.
  EXPECT_GT(upgraded, kCases);
}

// --- SolveMany: the batched multi-cell API is defined as exactly N
// independent solves, bit for bit, scratch reuse and size mixing included.
TEST(SolverBatchApi, SolveManyMatchesIndependentSolves) {
  std::vector<OptProblem> cells;
  for (int c = 0; c < 64; ++c) {
    Rng rng(0xCE11 + static_cast<std::uint64_t>(c));
    cells.push_back(RandomProblem(rng, SizeForCase(c)));
  }
  BatchSolver batched;
  const std::vector<OptResult> many = batched.SolveMany(cells);
  ASSERT_EQ(many.size(), cells.size());
  for (std::size_t c = 0; c < cells.size(); ++c) {
    BatchSolver fresh;
    EXPECT_EQ(CanonicalBytes(many[c]),
              CanonicalBytes(fresh.Solve(cells[c])))
        << "cell " << c;
  }
}

TEST(SolverBatchApi, ScratchSurvivesShrinkingAndGrowingProblems) {
  // Big -> small -> big on one solver: stale scratch from a larger solve
  // must never leak into a smaller one (and vice versa).
  Rng rng(0x51Ce);
  const OptProblem big = RandomProblem(rng, 500);
  const OptProblem small = RandomProblem(rng, 2);
  BatchSolver reused;
  reused.Solve(big);
  EXPECT_EQ(CanonicalBytes(reused.Solve(small)),
            CanonicalBytes(SolveSweep(small)));
  EXPECT_EQ(CanonicalBytes(reused.Solve(big)),
            CanonicalBytes(SolveSweep(big)));
}

// --- Solver invariants on randomized problems.
TEST(SolverInvariants, CapacityLevelBoxAndLadderMembership) {
  BatchSolver batch;
  for (int c = 0; c < 300; ++c) {
    Rng rng(0x1AB5 + static_cast<std::uint64_t>(c));
    const OptProblem p = RandomProblem(rng, SizeForCase(c));
    const OptResult r = batch.Solve(p);
    ASSERT_EQ(r.levels.size(), p.flows.size());
    ASSERT_EQ(r.rates_bps.size(), p.flows.size());
    for (std::size_t u = 0; u < p.flows.size(); ++u) {
      const OptFlow& f = p.flows[u];
      // Every per-flow result sits on its own rung ladder, inside its box.
      EXPECT_GE(r.levels[u], f.min_level) << "case " << c << " flow " << u;
      EXPECT_LE(r.levels[u], f.max_level) << "case " << c << " flow " << u;
      EXPECT_EQ(r.rates_bps[u],
                f.ladder_bps[static_cast<std::size_t>(r.levels[u])])
          << "case " << c << " flow " << u;
      if (!r.feasible) {
        EXPECT_EQ(r.levels[u], f.min_level)
            << "infeasible case " << c << " flow " << u;
      }
    }
    if (r.feasible) {
      // Total allocation within capacity (tolerance: the sweep tracks cost
      // via envelope deltas; the recomputation here re-sums from scratch).
      const double budget = p.rb_rate * p.max_video_fraction;
      EXPECT_LE(RbRateCost(p, r.rates_bps),
                budget * (1.0 + 1e-9) + 1e-9)
          << "case " << c;
    }
  }
}

TEST(SolverInvariants, ObjectiveMonotoneInCapacity) {
  BatchSolver batch;
  for (int c = 0; c < 200; ++c) {
    Rng rng(0xCAB0 + static_cast<std::uint64_t>(c));
    OptProblem p = RandomProblem(rng, 1 + static_cast<int>(
                                           rng.UniformInt(0, 31)));
    double previous_objective = 0.0;
    bool have_previous = false;
    for (const double scale : {1.0, 1.5, 2.5, 6.0}) {
      OptProblem scaled = p;
      scaled.rb_rate = p.rb_rate * scale;
      const OptResult r = batch.Solve(scaled);
      if (!r.feasible) continue;  // floor still over budget at this scale
      if (have_previous) {
        EXPECT_GE(r.objective,
                  previous_objective -
                      1e-9 * std::max(1.0, std::abs(previous_objective)))
            << "case " << c << " scale " << scale;
      }
      previous_objective = r.objective;
      have_previous = true;
    }
  }
}

// --- ValidateProblem edge-case audit: empty, single-flow and
// duplicate-rho inputs must produce defined, identical results in both
// sweeps (optimizer_test.cpp pins only the cold sweep's cousins); these
// are the regression pins for the shapes that disagree first when a
// rewrite cuts corners.
OptProblem TestbedLikeProblem(int n_flows, int n_data, double rb_rate) {
  OptProblem p;
  p.n_data_flows = n_data;
  p.rb_rate = rb_rate;
  for (int i = 0; i < n_flows; ++i) {
    OptFlow f;
    for (double kbps : {200, 310, 450, 790, 1100, 1320, 2280, 2750}) {
      f.ladder_bps.push_back(kbps * 1000.0);
    }
    f.max_level = static_cast<int>(f.ladder_bps.size()) - 1;
    f.bits_per_rb = 104.0;
    p.flows.push_back(std::move(f));
  }
  return p;
}

TEST(SolverEdgeCases, EmptyProblemIsDefinedInAllSolvers) {
  const OptProblem p = TestbedLikeProblem(0, 3, 50'000.0);
  BatchSolver batch;
  for (const OptResult& r : {SolveSweep(p), batch.Solve(p)}) {
    EXPECT_TRUE(r.feasible);
    EXPECT_TRUE(r.levels.empty());
    EXPECT_TRUE(r.rates_bps.empty());
    EXPECT_DOUBLE_EQ(r.video_fraction, 0.0);
    EXPECT_DOUBLE_EQ(r.objective, 0.0);  // n*alpha*log(1 - 0)
  }
  // The greedy reference solver agrees on the empty shape too.
  const OptResult greedy = SolveGreedy(p);
  EXPECT_TRUE(greedy.feasible);
  EXPECT_TRUE(greedy.levels.empty());
  EXPECT_DOUBLE_EQ(greedy.objective, 0.0);
}

TEST(SolverEdgeCases, SingleFlowAmpleCapacityTakesTopRung) {
  const OptProblem p = TestbedLikeProblem(1, 0, 1e9);
  BatchSolver batch;
  EXPECT_EQ(CanonicalBytes(batch.Solve(p)), CanonicalBytes(SolveSweep(p)));
  const OptResult r = batch.Solve(p);
  ASSERT_EQ(r.levels.size(), 1u);
  EXPECT_EQ(r.levels[0], 7);
  EXPECT_EQ(r.levels, SolveGreedy(p).levels);
}

TEST(SolverEdgeCases, DuplicateRhoTieBreaksByFlowIndex) {
  // Two identical flows, capacity for exactly one first upgrade
  // (200 -> 310 kbps costs (310-200)*1000/104 ≈ 1058 RB/s): the strict
  // step order (rho desc, flow asc, to_level asc) must hand it to flow 0
  // in every solver, every time.
  OptProblem p = TestbedLikeProblem(2, 0, 0.0);
  const double floor_cost = 2.0 * 200e3 / 104.0;
  const double upgrade_cost = (310e3 - 200e3) / 104.0;
  p.rb_rate = (floor_cost + upgrade_cost * 1.5) / p.max_video_fraction;
  BatchSolver batch;
  const OptResult cold = SolveSweep(p);
  ASSERT_EQ(cold.levels.size(), 2u);
  EXPECT_EQ(cold.levels[0], 1);
  EXPECT_EQ(cold.levels[1], 0);
  EXPECT_EQ(CanonicalBytes(batch.Solve(p)), CanonicalBytes(cold));
}

TEST(SolverEdgeCases, ZeroCapacityCellIsInfeasibleFloorEverywhere) {
  const OptProblem p = TestbedLikeProblem(4, 2, 1e-3);
  BatchSolver batch;
  const OptResult cold = SolveSweep(p);
  EXPECT_FALSE(cold.feasible);
  for (int level : cold.levels) EXPECT_EQ(level, 0);
  EXPECT_EQ(CanonicalBytes(batch.Solve(p)), CanonicalBytes(cold));
}

TEST(SolverEdgeCases, BatchSolverValidatesLikeSolveSweep) {
  BatchSolver batch;
  OptProblem p = TestbedLikeProblem(1, 0, 50'000.0);
  p.rb_rate = 0.0;
  EXPECT_THROW(batch.Solve(p), std::invalid_argument);
  p = TestbedLikeProblem(1, 0, 50'000.0);
  p.flows[0].ladder_bps = {2e5, 1e5};  // descending
  EXPECT_THROW(batch.Solve(p), std::invalid_argument);
  p = TestbedLikeProblem(1, 0, 50'000.0);
  p.max_video_fraction = 0.0;
  EXPECT_THROW(batch.Solve(p), std::invalid_argument);
  // Non-finite flow parameters: a NaN fails no plain `<= 0` test and an
  // infinite top rung still ascends, so both need their own rejection.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double bad : {nan, inf}) {
    for (int field = 0; field < 5; ++field) {
      p = TestbedLikeProblem(1, 0, 50'000.0);
      OptFlow& f = p.flows[0];
      switch (field) {
        case 0:
          f.ladder_bps[3] = bad;
          break;
        case 1:
          f.ladder_bps.back() = bad;
          break;
        case 2:
          f.bits_per_rb = bad;
          break;
        case 3:
          f.utility.beta = bad;
          break;
        default:
          f.utility.theta_bps = bad;
          break;
      }
      EXPECT_THROW(batch.Solve(p), std::invalid_argument)
          << "field " << field << " value " << bad;
      EXPECT_THROW(SolveSweep(p), std::invalid_argument)
          << "field " << field << " value " << bad;
      EXPECT_NE(FlowDefect(f), nullptr)
          << "field " << field << " value " << bad;
    }
  }
}

}  // namespace
}  // namespace flare
