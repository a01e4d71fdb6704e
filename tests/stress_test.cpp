// Stress and kitchen-sink tests: fuzzed scheduler inputs, large optimizer
// instances, and feature-combination scenarios (VBR + BLER + conventional
// players at once).
#include <gtest/gtest.h>

#include <map>

#include "core/optimizer.h"
#include "lte/gbr_scheduler.h"
#include "lte/pf_scheduler.h"
#include "lte/pss_scheduler.h"
#include "scenario/scenario.h"
#include "util/rng.h"

namespace flare {
namespace {

TEST(SchedulerFuzz, RandomInputsNeverViolateInvariants) {
  Rng rng(77);
  PfScheduler pf;
  PssScheduler pss;
  TwoPhaseGbrScheduler two_phase;
  RoundRobinScheduler rr;
  Scheduler* schedulers[] = {&pf, &pss, &two_phase, &rr};

  for (int trial = 0; trial < 400; ++trial) {
    const int n = static_cast<int>(rng.UniformInt(0, 24));
    std::vector<FlowState> states(static_cast<std::size_t>(n));
    std::vector<SchedCandidate> candidates;
    for (int i = 0; i < n; ++i) {
      FlowState& s = states[static_cast<std::size_t>(i)];
      s.id = static_cast<FlowId>(i + 1);
      s.type = rng.Uniform() < 0.5 ? FlowType::kVideo : FlowType::kData;
      s.gbr_bps = rng.Uniform() < 0.4 ? rng.Uniform(1e5, 5e6) : 0.0;
      s.gbr_credit_bytes = rng.Uniform(0.0, 50'000.0);
      s.pf_avg_bps = rng.Uniform(1.0, 1e7);
      SchedCandidate c;
      c.flow = &s;
      c.bytes_per_rb = static_cast<std::uint32_t>(rng.UniformInt(0, 90));
      c.max_bytes = static_cast<std::uint64_t>(rng.UniformInt(0, 100'000));
      candidates.push_back(c);
    }
    const int n_rbs = static_cast<int>(rng.UniformInt(0, 110));

    for (Scheduler* sched : schedulers) {
      auto cands = candidates;  // schedulers may reorder their copy
      const auto grants = sched->Allocate(cands, n_rbs, rng);
      int rbs = 0;
      std::map<FlowId, std::uint64_t> bytes;
      for (const SchedGrant& g : grants) {
        ASSERT_NE(g.flow, nullptr);
        EXPECT_GT(g.rbs, 0);
        rbs += g.rbs;
        bytes[g.flow->id] += g.bytes;
      }
      EXPECT_LE(rbs, n_rbs) << sched->Name() << " trial " << trial;
      for (const SchedCandidate& c : candidates) {
        EXPECT_LE(bytes[c.flow->id], c.max_bytes)
            << sched->Name() << " trial " << trial;
      }
    }
  }
}

TEST(OptimizerStress, LargeInstancesStayConsistent) {
  Rng rng(88);
  for (int trial = 0; trial < 5; ++trial) {
    OptProblem p;
    p.n_data_flows = static_cast<int>(rng.UniformInt(0, 10));
    p.alpha = rng.Uniform(0.25, 4.0);
    p.rb_rate = 3'125.0 * 128.0;
    for (int i = 0; i < 128; ++i) {
      OptFlow f;
      for (double kbps : DenseLadderKbps()) {
        f.ladder_bps.push_back(kbps * 1000.0);
      }
      f.max_level = static_cast<int>(f.ladder_bps.size()) - 1;
      f.bits_per_rb = rng.Uniform(30.0, 700.0);
      p.flows.push_back(std::move(f));
    }
    const OptResult greedy = SolveGreedy(p);
    const OptResult cont = SolveContinuous(p);
    ASSERT_TRUE(greedy.feasible);
    ASSERT_TRUE(cont.feasible);
    EXPECT_LE(RbRateCost(p, greedy.rates_bps),
              p.rb_rate * p.max_video_fraction + 1e-6);
    // Relaxation upper-bounds the discrete solution.
    EXPECT_GE(cont.objective, greedy.objective - 1e-6);
    // Greedy must be close to its own relaxation bound on big instances.
    EXPECT_GE(greedy.objective, cont.objective - 0.05 *
                                   std::abs(cont.objective) - 1.0);
  }
}

TEST(KitchenSink, AllFeaturesCombinedStillBehave) {
  // VBR encoding + 10% BLER + conventional players + data flows + FLARE,
  // all at once — the configuration matrix's far corner.
  ScenarioConfig config = SimStaticPreset(Scheme::kFlare);
  config.duration_s = 300.0;
  config.n_video = 4;
  config.n_data = 2;
  config.n_conventional = 2;
  config.vbr_sigma = 0.2;
  config.target_bler = 0.1;
  config.seed = 42;
  const ScenarioResult r = RunScenario(config);

  ASSERT_EQ(r.video.size(), 4u);
  ASSERT_EQ(r.conventional.size(), 2u);
  ASSERT_EQ(r.data_throughput_bps.size(), 2u);
  for (const ClientMetrics& m : r.video) {
    EXPECT_GT(m.segments, 10);
    EXPECT_LT(m.rebuffer_time_s, 30.0);
    EXPECT_GE(m.qoe, -2.0);
  }
  EXPECT_GT(r.avg_data_throughput_bps, 0.0);
  EXPECT_GT(r.jain_avg_bitrate, 0.5);
}

TEST(KitchenSink, QoeOrderingFlareVsAvisMobile) {
  // FLARE's composite QoE beats AVIS's in the mobile preset (stable
  // selection + no stalls outweigh AVIS's flapping).
  ScenarioConfig flare_config = SimMobilePreset(Scheme::kFlare);
  ScenarioConfig avis_config = SimMobilePreset(Scheme::kAvis);
  flare_config.duration_s = avis_config.duration_s = 600.0;
  flare_config.seed = avis_config.seed = 100;
  const ScenarioResult flare = RunScenario(flare_config);
  const ScenarioResult avis = RunScenario(avis_config);
  double flare_qoe = 0.0;
  double avis_qoe = 0.0;
  for (const ClientMetrics& m : flare.video) flare_qoe += m.qoe;
  for (const ClientMetrics& m : avis.video) avis_qoe += m.qoe;
  EXPECT_GT(flare_qoe, avis_qoe);
}

}  // namespace
}  // namespace flare
