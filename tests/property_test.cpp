// Property-based sweeps: system-wide invariants that must hold for every
// scheme, channel model and seed — conservation laws, metric sanity, and
// capacity bounds, checked on full end-to-end runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <tuple>
#include <vector>

#include "core/rate_controller.h"
#include "lte/tbs_table.h"
#include "scenario/scenario.h"
#include "util/rng.h"

namespace flare {
namespace {

using Param = std::tuple<Scheme, ChannelKind, std::uint64_t>;

class ScenarioInvariants : public ::testing::TestWithParam<Param> {};

TEST_P(ScenarioInvariants, HoldOnFullRuns) {
  const auto [scheme, channel, seed] = GetParam();
  ScenarioConfig config;
  config.scheme = scheme;
  config.channel = channel;
  config.seed = seed;
  config.duration_s = 120.0;
  config.n_video = 3;
  config.n_data = 1;
  if (channel == ChannelKind::kPlacedStatic ||
      channel == ChannelKind::kMobile) {
    config.testbed = false;
    config.num_rbs = 25;
    config.ladder_kbps = SimulationLadderKbps();
    config.segment_duration_s = 10.0;
  } else {
    config.testbed = true;
    config.ladder_kbps = TestbedLadderKbps();
    config.segment_duration_s = 2.0;
  }

  const ScenarioResult r = RunScenario(config);

  // --- Per-client metric sanity.
  ASSERT_EQ(r.video.size(), 3u);
  const double top_bps = config.ladder_kbps.back() * 1000.0;
  for (const ClientMetrics& m : r.video) {
    EXPECT_GE(m.segments, 0);
    EXPECT_GE(m.avg_bitrate_bps, 0.0);
    EXPECT_LE(m.avg_bitrate_bps, top_bps + 1.0);
    EXPECT_GE(m.bitrate_changes, 0);
    if (m.segments > 0) {
      EXPECT_LT(m.bitrate_changes, m.segments);
      EXPECT_GE(m.avg_bitrate_bps, config.ladder_kbps.front() * 1000.0);
    }
    EXPECT_GE(m.rebuffer_time_s, 0.0);
    EXPECT_LE(m.rebuffer_time_s, config.duration_s);
    EXPECT_GE(m.rebuffer_events, 0);
  }

  // --- Fairness index well-formed.
  EXPECT_GE(r.jain_avg_bitrate, 1.0 / 3.0 - 1e-9);
  EXPECT_LE(r.jain_avg_bitrate, 1.0 + 1e-9);

  // --- Throughput bounded by the best possible cell rate.
  const double max_cell_bps = ItbsToCellRateBps(kMaxItbs, config.num_rbs);
  double total_bps = r.avg_data_throughput_bps *
                     static_cast<double>(r.data_throughput_bps.size());
  for (const ClientMetrics& m : r.video) total_bps += m.avg_bitrate_bps;
  EXPECT_LE(total_bps, max_cell_bps * 1.05);

  // --- FLARE-only: solver outputs well-formed.
  for (double ms : r.solve_times_ms) {
    EXPECT_GE(ms, 0.0);
    EXPECT_LT(ms, 1000.0);
  }
  for (double frac : r.video_fractions) {
    EXPECT_GE(frac, 0.0);
    EXPECT_LE(frac, 1.0 + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemesAndChannels, ScenarioInvariants,
    ::testing::Combine(
        ::testing::Values(Scheme::kFlare, Scheme::kFlareRelaxed,
                          Scheme::kFestive, Scheme::kGoogle, Scheme::kAvis,
                          Scheme::kFlareNetworkOnly),
        ::testing::Values(ChannelKind::kStaticItbs,
                          ChannelKind::kItbsTriangle,
                          ChannelKind::kPlacedStatic, ChannelKind::kMobile),
        ::testing::Values(1u, 17u)));

// Determinism across the whole matrix: same config, same result.
class ScenarioDeterminism
    : public ::testing::TestWithParam<std::tuple<Scheme, ChannelKind>> {};

TEST_P(ScenarioDeterminism, RunsAreReproducible) {
  const auto [scheme, channel] = GetParam();
  ScenarioConfig config;
  config.scheme = scheme;
  config.channel = channel;
  config.duration_s = 60.0;
  config.seed = 5;
  config.testbed = channel == ChannelKind::kStaticItbs ||
                   channel == ChannelKind::kItbsTriangle;
  if (!config.testbed) {
    config.num_rbs = 25;
    config.ladder_kbps = SimulationLadderKbps();
    config.segment_duration_s = 10.0;
  }
  const ScenarioResult a = RunScenario(config);
  const ScenarioResult b = RunScenario(config);
  ASSERT_EQ(a.video.size(), b.video.size());
  for (std::size_t i = 0; i < a.video.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.video[i].avg_bitrate_bps,
                     b.video[i].avg_bitrate_bps);
    EXPECT_EQ(a.video[i].bitrate_changes, b.video[i].bitrate_changes);
    EXPECT_DOUBLE_EQ(a.video[i].rebuffer_time_s,
                     b.video[i].rebuffer_time_s);
  }
  EXPECT_EQ(a.data_throughput_bps, b.data_throughput_bps);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, ScenarioDeterminism,
    ::testing::Combine(::testing::Values(Scheme::kFlare, Scheme::kFestive,
                                         Scheme::kAvis),
                       ::testing::Values(ChannelKind::kStaticItbs,
                                         ChannelKind::kMobile)));

// Property: Algorithm 1's per-BAI decisions, under randomized ladders and
// channel efficiencies, always (a) respect the capacity constraint — the
// video RB fraction stays within max_video_fraction whenever the solver
// reports the problem feasible — and (b) respect the stability cap: no
// flow's enforced rung ever rises by more than one per BAI, and the first
// assignment is always the lowest rung.
class DecideBaiProperty
    : public ::testing::TestWithParam<std::tuple<SolverMode, std::uint64_t>> {
};

TEST_P(DecideBaiProperty, CapacityAndStabilityInvariants) {
  const auto [solver, seed] = GetParam();
  Rng rng(seed);

  FlareParams params;
  params.solver = solver;
  params.delta = static_cast<int>(rng.Uniform(0.0, 4.0));
  FlareRateController controller(params);

  // Randomized population with per-flow randomized increasing ladders.
  const int n_flows = 2 + static_cast<int>(rng.Uniform(0.0, 7.0));
  for (FlowId id = 1; id <= static_cast<FlowId>(n_flows); ++id) {
    const int rungs = 2 + static_cast<int>(rng.Uniform(0.0, 8.0));
    std::vector<double> ladder;
    double rate = rng.Uniform(50e3, 400e3);
    for (int r = 0; r < rungs; ++r) {
      ladder.push_back(rate);
      rate *= rng.Uniform(1.3, 2.2);
    }
    controller.AddFlow(id, ladder);
  }

  std::vector<double> bits_per_rb(static_cast<std::size_t>(n_flows));
  for (double& e : bits_per_rb) e = rng.Uniform(16.0, 712.0);
  const double rb_rate = rng.Uniform(500.0, 4000.0) * n_flows;

  std::map<FlowId, int> last_level;
  for (int bai = 0; bai < 60; ++bai) {
    std::vector<FlowObservation> observations;
    for (int i = 0; i < n_flows; ++i) {
      auto& e = bits_per_rb[static_cast<std::size_t>(i)];
      e = std::clamp(e * rng.Uniform(0.8, 1.25), 16.0, 712.0);
      FlowObservation obs;
      obs.id = static_cast<FlowId>(i + 1);
      obs.bits_per_rb = e;
      observations.push_back(obs);
    }
    const int n_data = static_cast<int>(rng.Uniform(0.0, 4.0));
    const BaiDecision decision =
        controller.DecideBai(observations, n_data, rb_rate);
    ASSERT_EQ(decision.assignments.size(),
              static_cast<std::size_t>(n_flows));

    if (decision.feasible) {
      EXPECT_LE(decision.video_fraction,
                params.max_video_fraction + 1e-9)
          << "capacity violated at BAI " << bai;
    }
    for (const RateAssignment& a : decision.assignments) {
      const auto prev = last_level.find(a.id);
      if (prev == last_level.end()) {
        EXPECT_EQ(a.level, 0) << "new flow must start at the lowest rung";
      } else {
        EXPECT_LE(a.level, prev->second + 1)
            << "flow " << a.id << " jumped more than one rung at BAI "
            << bai;
      }
      EXPECT_GE(a.level, 0);
      EXPECT_GE(a.recommended_level, 0);
      EXPECT_GE(a.consecutive_up, 0);
      last_level[a.id] = a.level;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomizedLadders, DecideBaiProperty,
    ::testing::Combine(::testing::Values(SolverMode::kGreedyDiscrete,
                                         SolverMode::kContinuousRelaxation),
                       ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u)));

}  // namespace
}  // namespace flare
