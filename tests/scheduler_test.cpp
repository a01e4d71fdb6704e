// Tests for the MAC schedulers: RB conservation, GBR priority, PF fairness
// and the FLARE two-phase video-first behaviour.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "lte/gbr_scheduler.h"
#include "lte/pf_scheduler.h"
#include "lte/pss_scheduler.h"
#include "util/rng.h"

namespace flare {
namespace {

struct TestFlows {
  std::vector<FlowState> states;
  std::vector<SchedCandidate> candidates;
};

/// Build `n` candidates with uniform bytes_per_rb and big queues.
TestFlows MakeFlows(int n, std::uint32_t bytes_per_rb = 100,
                    std::uint64_t max_bytes = 1'000'000) {
  TestFlows f;
  f.states.resize(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    FlowState& s = f.states[static_cast<std::size_t>(i)];
    s.id = static_cast<FlowId>(i + 1);
    s.type = FlowType::kData;
    s.queued_bytes = max_bytes;
  }
  for (int i = 0; i < n; ++i) {
    SchedCandidate c;
    c.flow = &f.states[static_cast<std::size_t>(i)];
    c.bytes_per_rb = bytes_per_rb;
    c.max_bytes = max_bytes;
    f.candidates.push_back(c);
  }
  return f;
}

std::map<FlowId, std::uint64_t> BytesByFlow(
    const std::vector<SchedGrant>& grants) {
  std::map<FlowId, std::uint64_t> out;
  for (const SchedGrant& g : grants) out[g.flow->id] += g.bytes;
  return out;
}

int TotalRbs(const std::vector<SchedGrant>& grants) {
  int total = 0;
  for (const SchedGrant& g : grants) total += g.rbs;
  return total;
}

TEST(RbsForBytes, CeilingDivision) {
  EXPECT_EQ(RbsForBytes(0, 100), 0);
  EXPECT_EQ(RbsForBytes(1, 100), 1);
  EXPECT_EQ(RbsForBytes(100, 100), 1);
  EXPECT_EQ(RbsForBytes(101, 100), 2);
  EXPECT_EQ(RbsForBytes(100, 0), 0);
}

TEST(PfScheduler, NeverExceedsRbBudget) {
  PfScheduler sched;
  Rng rng(1);
  auto f = MakeFlows(4);
  const auto grants = sched.Allocate(f.candidates, 50, rng);
  EXPECT_LE(TotalRbs(grants), 50);
  EXPECT_EQ(TotalRbs(grants), 50);  // demand is ample, budget fully used
}

TEST(PfScheduler, RespectsMaxBytes) {
  PfScheduler sched;
  Rng rng(1);
  auto f = MakeFlows(2, 100, 250);  // only 250 bytes allowed each
  const auto grants = sched.Allocate(f.candidates, 50, rng);
  const auto bytes = BytesByFlow(grants);
  for (const auto& [id, b] : bytes) EXPECT_LE(b, 250u);
  // 3 RBs each (ceil(250/100)), so 6 RBs total.
  EXPECT_EQ(TotalRbs(grants), 6);
}

TEST(PfScheduler, PrefersHigherMetric) {
  PfScheduler sched;
  Rng rng(1);
  auto f = MakeFlows(2, 100, 400);
  f.states[0].pf_avg_bps = 1e6;  // well-served flow
  f.states[1].pf_avg_bps = 1e3;  // starved flow: much higher metric
  const auto grants = sched.Allocate(f.candidates, 4, rng);
  const auto bytes = BytesByFlow(grants);
  EXPECT_EQ(bytes.at(2), 400u);  // starved flow served first, fully
  EXPECT_EQ(bytes.count(1), 0u);
}

TEST(PfScheduler, ServesInFullSortOrderWithTies) {
  // Reference: sort every candidate by (PF metric desc, FlowId asc), then
  // fill greedily. Few distinct rates and averages force metric ties, and
  // FlowIds are shuffled against candidate order.
  Rng rng(7);
  PfScheduler sched;
  for (int trial = 0; trial < 500; ++trial) {
    const int n = static_cast<int>(rng.UniformInt(1, 12));
    auto f = MakeFlows(n);
    std::vector<FlowId> ids;
    for (int i = 0; i < n; ++i) ids.push_back(static_cast<FlowId>(i + 1));
    for (int i = n - 1; i > 0; --i) {
      std::swap(ids[static_cast<std::size_t>(i)],
                ids[static_cast<std::size_t>(rng.UniformInt(0, i))]);
    }
    for (std::size_t i = 0; i < f.states.size(); ++i) {
      f.states[i].id = ids[i];
      f.states[i].pf_avg_bps = rng.UniformInt(0, 1) == 0 ? 1e3 : 2e3;
      f.candidates[i].bytes_per_rb =
          static_cast<std::uint32_t>(50 * rng.UniformInt(0, 2));
      f.candidates[i].max_bytes =
          static_cast<std::uint64_t>(rng.UniformInt(1, 600));
    }
    const int n_rbs = static_cast<int>(rng.UniformInt(0, 25));

    std::vector<SchedCandidate> order = f.candidates;
    std::sort(order.begin(), order.end(),
              [](const SchedCandidate& a, const SchedCandidate& b) {
                const double ma = a.bytes_per_rb / a.flow->pf_avg_bps;
                const double mb = b.bytes_per_rb / b.flow->pf_avg_bps;
                if (ma != mb) return ma > mb;
                return a.flow->id < b.flow->id;
              });
    std::vector<SchedGrant> expected;
    int used = 0;
    for (const SchedCandidate& c : order) {
      if (used >= n_rbs) break;
      if (c.bytes_per_rb == 0) continue;
      const int rbs =
          std::min(RbsForBytes(c.max_bytes, c.bytes_per_rb), n_rbs - used);
      expected.push_back(SchedGrant{
          c.flow, rbs,
          std::min<std::uint64_t>(c.max_bytes,
                                  static_cast<std::uint64_t>(rbs) *
                                      c.bytes_per_rb)});
      used += rbs;
    }

    const auto& grants = sched.Allocate(f.candidates, n_rbs, rng);
    ASSERT_EQ(grants.size(), expected.size()) << "trial " << trial;
    for (std::size_t i = 0; i < grants.size(); ++i) {
      EXPECT_EQ(grants[i].flow, expected[i].flow) << "trial " << trial;
      EXPECT_EQ(grants[i].rbs, expected[i].rbs) << "trial " << trial;
      EXPECT_EQ(grants[i].bytes, expected[i].bytes) << "trial " << trial;
    }
  }
}

TEST(PfScheduler, FairOverManyTtisWithEwma) {
  // Emulate the cell's EWMA update loop and check long-run fairness
  // between two equally-capable backlogged flows.
  PfScheduler sched;
  Rng rng(1);
  auto f = MakeFlows(2, 100, 5'000);
  std::map<FlowId, double> total;
  for (int tti = 0; tti < 2000; ++tti) {
    for (auto& c : f.candidates) c.max_bytes = 5'000;
    const auto grants = sched.Allocate(f.candidates, 50, rng);
    std::map<FlowId, std::uint64_t> served = BytesByFlow(grants);
    for (FlowState& s : f.states) {
      const double rate = served.count(s.id) > 0
                              ? static_cast<double>(served[s.id]) * 8000.0
                              : 0.0;
      s.pf_avg_bps = 0.99 * s.pf_avg_bps + 0.01 * rate;
      total[s.id] += static_cast<double>(served[s.id]);
    }
  }
  const double ratio = total[1] / total[2];
  EXPECT_GT(ratio, 0.9);
  EXPECT_LT(ratio, 1.1);
}

TEST(PfScheduler, ProportionalFairFavoursGoodChannelProportionally) {
  // Flow 1 has 2x the spectral efficiency; PF should give it roughly 2x
  // the bytes while sharing RBs roughly equally.
  PfScheduler sched;
  Rng rng(1);
  auto f = MakeFlows(2, 100, 1'000'000);
  f.candidates[0].bytes_per_rb = 200;
  std::map<FlowId, double> bytes_total;
  std::map<FlowId, double> rbs_total;
  for (int tti = 0; tti < 4000; ++tti) {
    const auto grants = sched.Allocate(f.candidates, 50, rng);
    for (const SchedGrant& g : grants) {
      bytes_total[g.flow->id] += static_cast<double>(g.bytes);
      rbs_total[g.flow->id] += g.rbs;
    }
    const std::map<FlowId, std::uint64_t> served = BytesByFlow(grants);
    for (FlowState& s : f.states) {
      const auto it = served.find(s.id);
      const double rate = it != served.end()
                              ? static_cast<double>(it->second) * 8000.0
                              : 0.0;
      s.pf_avg_bps = 0.99 * s.pf_avg_bps + 0.01 * rate;
    }
  }
  EXPECT_NEAR(rbs_total[1] / rbs_total[2], 1.0, 0.15);
  EXPECT_NEAR(bytes_total[1] / bytes_total[2], 2.0, 0.3);
}

TEST(RoundRobin, SplitsEvenlyWithEqualDemand) {
  RoundRobinScheduler sched;
  Rng rng(1);
  auto f = MakeFlows(5, 100);
  const auto grants = sched.Allocate(f.candidates, 50, rng);
  const auto bytes = BytesByFlow(grants);
  for (const auto& [id, b] : bytes) EXPECT_EQ(b, 1000u);  // 10 RBs each
}

TEST(RoundRobin, RotatesStartAcrossTtis) {
  RoundRobinScheduler sched;
  Rng rng(1);
  auto f = MakeFlows(3, 100);
  // 1 RB per TTI: the single grant should rotate across flows.
  std::map<FlowId, int> wins;
  for (int tti = 0; tti < 9; ++tti) {
    const auto grants = sched.Allocate(f.candidates, 1, rng);
    ASSERT_EQ(grants.size(), 1u);
    ++wins[grants[0].flow->id];
  }
  EXPECT_EQ(wins[1], 3);
  EXPECT_EQ(wins[2], 3);
  EXPECT_EQ(wins[3], 3);
}

TEST(PssScheduler, GbrFlowsServedFirst) {
  PssScheduler sched;
  Rng rng(1);
  auto f = MakeFlows(3, 100);
  // Flow 1 has a GBR debt; flows 2-3 are best-effort with huge PF metric.
  f.states[0].gbr_bps = 1e6;
  f.states[0].gbr_credit_bytes = 2000.0;
  f.states[1].pf_avg_bps = 1.0;
  f.states[2].pf_avg_bps = 1.0;
  const auto grants = sched.Allocate(f.candidates, 25, rng);
  const auto bytes = BytesByFlow(grants);
  EXPECT_GE(bytes.at(1), 2000u);  // GBR debt fully covered first
}

TEST(PssScheduler, GbrDebtCapsPhase1Service) {
  PssScheduler sched;
  Rng rng(1);
  auto f = MakeFlows(1, 100);
  f.states[0].gbr_bps = 1e6;
  f.states[0].gbr_credit_bytes = 300.0;  // only 3 RBs owed
  const auto grants = sched.Allocate(f.candidates, 50, rng);
  // Phase 1 grants 3 RBs; phase 2 (PF) then fills the rest since the
  // queue still has data.
  EXPECT_EQ(TotalRbs(grants), 50);
}

TEST(PssScheduler, WithoutGbrDegeneratesToPf) {
  PssScheduler pss;
  PfScheduler pf;
  Rng rng1(1);
  Rng rng2(1);
  auto f1 = MakeFlows(4);
  auto f2 = MakeFlows(4);
  for (int i = 0; i < 4; ++i) {
    f1.states[static_cast<std::size_t>(i)].pf_avg_bps = 100.0 * (i + 1);
    f2.states[static_cast<std::size_t>(i)].pf_avg_bps = 100.0 * (i + 1);
  }
  const auto a = BytesByFlow(pss.Allocate(f1.candidates, 50, rng1));
  const auto b = BytesByFlow(pf.Allocate(f2.candidates, 50, rng2));
  EXPECT_EQ(a, b);
}

TEST(TwoPhaseGbr, VideoGbrBeatsDataEvenWhenStarved) {
  TwoPhaseGbrScheduler sched;
  Rng rng(1);
  auto f = MakeFlows(2, 100);
  f.states[0].type = FlowType::kVideo;
  f.states[0].gbr_bps = 1e6;
  f.states[0].gbr_credit_bytes = 4000.0;
  f.states[0].pf_avg_bps = 1e9;  // video "over-served" by PF standards
  f.states[1].type = FlowType::kData;
  f.states[1].pf_avg_bps = 1.0;  // data maximally starved
  const auto grants = sched.Allocate(f.candidates, 50, rng);
  const auto bytes = BytesByFlow(grants);
  EXPECT_GE(bytes.at(1), 4000u);  // GBR served despite PF disadvantage
  EXPECT_GT(bytes.at(2), 0u);     // leftover RBs go to data in phase 2
}

TEST(TwoPhaseGbr, DataGbrDoesNotGetPhase1) {
  // Phase 1 is video-only: a data flow with (mis)configured GBR credit
  // must not jump the queue.
  TwoPhaseGbrScheduler sched;
  Rng rng(1);
  auto f = MakeFlows(2, 100);
  f.states[0].type = FlowType::kData;
  f.states[0].gbr_bps = 1e6;
  f.states[0].gbr_credit_bytes = 4000.0;
  f.states[0].pf_avg_bps = 1e9;
  f.states[1].type = FlowType::kVideo;
  f.states[1].pf_avg_bps = 1.0;
  const auto grants = sched.Allocate(f.candidates, 10, rng);
  const auto bytes = BytesByFlow(grants);
  // Without phase-1 priority the PF pass serves the starved video flow.
  EXPECT_GT(bytes.at(2), 0u);
  EXPECT_EQ(bytes.count(1), 0u);
}

TEST(TwoPhaseGbr, MultipleVideoFlowsMostStarvedFirst) {
  TwoPhaseGbrScheduler sched;
  Rng rng(1);
  auto f = MakeFlows(2, 100);
  for (auto& s : f.states) {
    s.type = FlowType::kVideo;
    s.gbr_bps = 1e6;
  }
  f.states[0].gbr_credit_bytes = 500.0;
  f.states[1].gbr_credit_bytes = 2000.0;
  // Only 5 RBs: the flow with the larger debt wins them all.
  const auto grants = sched.Allocate(f.candidates, 5, rng);
  const auto bytes = BytesByFlow(grants);
  EXPECT_EQ(bytes.at(2), 500u);
  EXPECT_EQ(bytes.count(1), 0u);
}

TEST(PssScheduler, EqualGbrDebtServesLowerFlowIdFirst) {
  PssScheduler sched;
  Rng rng(1);
  auto f = MakeFlows(3, 100);
  for (auto& s : f.states) {
    s.gbr_bps = 1e6;
    s.gbr_credit_bytes = 500.0;
  }
  f.states[0].id = 9;
  f.states[1].id = 4;
  f.states[2].id = 6;
  // 5 RBs cover one flow's debt: the tie goes to the lowest FlowId.
  const auto grants = sched.Allocate(f.candidates, 5, rng);
  ASSERT_EQ(grants.size(), 1u);
  EXPECT_EQ(grants[0].flow->id, 4u);
  EXPECT_EQ(grants[0].bytes, 500u);
}

TEST(TwoPhaseGbr, VideoOnlyPhase2ExcludesData) {
  TwoPhaseGbrScheduler sched(/*video_only_phase2=*/true);
  Rng rng(1);
  auto f = MakeFlows(2, 100);
  f.states[0].type = FlowType::kVideo;
  f.states[1].type = FlowType::kData;
  const auto grants = sched.Allocate(f.candidates, 50, rng);
  const auto bytes = BytesByFlow(grants);
  EXPECT_GT(bytes.at(1), 0u);
  EXPECT_EQ(bytes.count(2), 0u);
}

// Regression: a video flow with a small GBR debt and a deep queue used to
// receive two grants per TTI (one in the GBR phase, one in the PF phase).
// The documented contract is now: phase-2 opportunistic borrowing is
// allowed, but callers see exactly one coalesced grant per flow.
TEST(TwoPhaseGbr, OneGrantPerFlowAcrossPhases) {
  TwoPhaseGbrScheduler sched;
  Rng rng(1);
  auto f = MakeFlows(2, 100);
  f.states[0].type = FlowType::kVideo;
  f.states[0].gbr_bps = 1e6;
  f.states[0].gbr_credit_bytes = 300.0;  // 3 RBs owed, 47 left over
  f.states[1].type = FlowType::kData;
  const auto grants = sched.Allocate(f.candidates, 50, rng);
  std::map<FlowId, int> multiplicity;
  for (const SchedGrant& g : grants) ++multiplicity[g.flow->id];
  for (const auto& [id, n] : multiplicity) {
    EXPECT_EQ(n, 1) << "flow " << id << " got " << n << " grants";
  }
  // The video flow was served in both phases (debt + borrowed RBs), so
  // its single grant must exceed the phase-1 debt.
  EXPECT_GT(BytesByFlow(grants).at(1), 300u);
  EXPECT_LE(TotalRbs(grants), 50);
  EXPECT_EQ(sched.tti_stats().rbs_priority, 3);
  EXPECT_EQ(sched.tti_stats().rbs_shared, 47);
}

TEST(TwoPhaseGbr, BorrowingNeverExceedsMaxBytesOrBudget) {
  TwoPhaseGbrScheduler sched;
  Rng rng(1);
  auto f = MakeFlows(3, 100, /*max_bytes=*/800);
  for (auto& s : f.states) {
    s.type = FlowType::kVideo;
    s.gbr_bps = 1e6;
    s.gbr_credit_bytes = 500.0;
  }
  const auto grants = sched.Allocate(f.candidates, 50, rng);
  std::map<FlowId, int> multiplicity;
  for (const SchedGrant& g : grants) ++multiplicity[g.flow->id];
  for (const auto& [id, n] : multiplicity) EXPECT_EQ(n, 1);
  for (const auto& [id, b] : BytesByFlow(grants)) {
    EXPECT_LE(b, 800u) << "flow " << id
                       << " exceeded max_bytes across phases";
  }
  EXPECT_LE(TotalRbs(grants), 50);
}

TEST(AllSchedulers, OneGrantPerFlowEverywhere) {
  Rng rng(1);
  for (int which = 0; which < 4; ++which) {
    std::unique_ptr<Scheduler> sched;
    switch (which) {
      case 0: sched = std::make_unique<PfScheduler>(); break;
      case 1: sched = std::make_unique<PssScheduler>(); break;
      case 2: sched = std::make_unique<TwoPhaseGbrScheduler>(); break;
      default: sched = std::make_unique<RoundRobinScheduler>(); break;
    }
    auto f = MakeFlows(4, 100);
    f.states[0].type = FlowType::kVideo;
    f.states[0].gbr_bps = 1e6;
    f.states[0].gbr_credit_bytes = 200.0;
    const auto grants = sched->Allocate(f.candidates, 50, rng);
    std::map<FlowId, int> multiplicity;
    for (const SchedGrant& g : grants) ++multiplicity[g.flow->id];
    for (const auto& [id, n] : multiplicity) {
      EXPECT_EQ(n, 1) << "scheduler " << which << ", flow " << id;
    }
  }
}

TEST(AllSchedulers, EmptyCandidatesYieldNoGrants) {
  std::vector<SchedCandidate> empty;
  Rng rng(1);
  EXPECT_TRUE(PfScheduler{}.Allocate(empty, 50, rng).empty());
  EXPECT_TRUE(PssScheduler{}.Allocate(empty, 50, rng).empty());
  EXPECT_TRUE(TwoPhaseGbrScheduler{}.Allocate(empty, 50, rng).empty());
  EXPECT_TRUE(RoundRobinScheduler{}.Allocate(empty, 50, rng).empty());
}

TEST(AllSchedulers, ZeroRbsYieldNoGrants) {
  Rng rng(1);
  auto f = MakeFlows(3);
  EXPECT_TRUE(PfScheduler{}.Allocate(f.candidates, 0, rng).empty());
  EXPECT_TRUE(PssScheduler{}.Allocate(f.candidates, 0, rng).empty());
  EXPECT_TRUE(TwoPhaseGbrScheduler{}.Allocate(f.candidates, 0, rng).empty());
}

// Property sweep: RB conservation and byte-vs-RB consistency across
// schedulers and loads.
class SchedulerProperty
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(SchedulerProperty, ConservationHolds) {
  const auto [which, n_flows, n_rbs] = GetParam();
  std::unique_ptr<Scheduler> sched;
  switch (which) {
    case 0:
      sched = std::make_unique<PfScheduler>();
      break;
    case 1:
      sched = std::make_unique<PssScheduler>();
      break;
    default:
      sched = std::make_unique<TwoPhaseGbrScheduler>();
      break;
  }
  Rng rng(static_cast<std::uint64_t>(which * 100 + n_flows));
  auto f = MakeFlows(n_flows, 80, 3'000);
  // Mix in GBR video flows.
  for (int i = 0; i < n_flows; i += 2) {
    f.states[static_cast<std::size_t>(i)].type = FlowType::kVideo;
    f.states[static_cast<std::size_t>(i)].gbr_bps = 5e5;
    f.states[static_cast<std::size_t>(i)].gbr_credit_bytes = 400.0;
  }
  const auto grants = sched->Allocate(f.candidates, n_rbs, rng);
  EXPECT_LE(TotalRbs(grants), n_rbs);
  const auto bytes = BytesByFlow(grants);
  for (const auto& [id, b] : bytes) {
    EXPECT_LE(b, 3'000u) << "flow " << id << " exceeded max_bytes";
  }
  for (const SchedGrant& g : grants) {
    EXPECT_LE(g.bytes,
              static_cast<std::uint64_t>(g.rbs) * 80u);  // TBS respected
    EXPECT_GT(g.rbs, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SchedulerProperty,
    ::testing::Combine(::testing::Values(0, 1, 2),
                       ::testing::Values(1, 3, 8, 16),
                       ::testing::Values(1, 6, 50, 100)));

}  // namespace
}  // namespace flare
