// Integration tests: full scenarios through the scenario harness,
// asserting the qualitative results the paper reports (who wins, who
// oscillates, who rebuffers).
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "obs/flight_recorder.h"
#include "obs/qoe_analytics.h"
#include "scenario/experiment.h"
#include "scenario/scenario.h"

namespace flare {
namespace {

ScenarioConfig BaseTestbed(Scheme scheme, double duration_s = 180.0) {
  ScenarioConfig config;
  config.scheme = scheme;
  config.duration_s = duration_s;
  config.n_video = 3;
  config.n_data = 1;
  config.channel = ChannelKind::kStaticItbs;
  config.static_itbs = 7;
  config.testbed = true;
  config.seed = 11;
  return config;
}

TEST(ScenarioIntegration, FlareStaticConvergesAndHolds) {
  const ScenarioResult r = RunScenario(BaseTestbed(Scheme::kFlare));
  ASSERT_EQ(r.video.size(), 3u);
  for (const ClientMetrics& m : r.video) {
    EXPECT_LE(m.bitrate_changes, 6);      // ramp + hold
    EXPECT_EQ(m.rebuffer_events, 0);      // zero underflow
    EXPECT_GT(m.avg_bitrate_bps, 400e3);  // converges near 790 Kbps
  }
  EXPECT_GT(r.jain_avg_bitrate, 0.98);
  EXPECT_GT(r.avg_data_throughput_bps, 0.5e6);  // data not starved
  EXPECT_FALSE(r.solve_times_ms.empty());
}

TEST(ScenarioIntegration, FestiveOscillatesMoreThanFlare) {
  const ScenarioResult flare = RunScenario(BaseTestbed(Scheme::kFlare));
  const ScenarioResult festive =
      RunScenario(BaseTestbed(Scheme::kFestive));
  EXPECT_GT(festive.avg_bitrate_changes, flare.avg_bitrate_changes);
  // FESTIVE is conservative: data flow does well (paper Table I).
  EXPECT_GT(festive.avg_data_throughput_bps,
            0.8 * flare.avg_data_throughput_bps);
}

TEST(ScenarioIntegration, GoogleGrabsBandwidthFromData) {
  const ScenarioResult google = RunScenario(BaseTestbed(Scheme::kGoogle));
  const ScenarioResult festive =
      RunScenario(BaseTestbed(Scheme::kFestive));
  // GOOGLE's aggressive selection yields higher video bitrate and lower
  // data throughput than FESTIVE (paper Table I ordering).
  EXPECT_GT(google.avg_video_bitrate_bps, festive.avg_video_bitrate_bps);
  EXPECT_LT(google.avg_data_throughput_bps,
            festive.avg_data_throughput_bps);
}

TEST(ScenarioIntegration, DynamicScenarioFlareTracksWithoutUnderflow) {
  ScenarioConfig config = BaseTestbed(Scheme::kFlare, 300.0);
  config.channel = ChannelKind::kItbsTriangle;
  const ScenarioResult r = RunScenario(config);
  for (const ClientMetrics& m : r.video) {
    EXPECT_EQ(m.rebuffer_events, 0);  // paper: FLARE never underflows
    EXPECT_GT(m.bitrate_changes, 0);  // but it does adapt
  }
}

TEST(ScenarioIntegration, SimStaticFlareBeatsFestiveOnStability) {
  // Full Table III preset (1200 s, 8 clients); averaged over 2 seeds.
  ScenarioConfig flare_config = SimStaticPreset(Scheme::kFlare);
  ScenarioConfig festive_config = SimStaticPreset(Scheme::kFestive);
  flare_config.seed = festive_config.seed = 100;
  const PooledMetrics flare = Pool(RunMany(flare_config, 2));
  const PooledMetrics festive = Pool(RunMany(festive_config, 2));
  EXPECT_LT(flare.MeanChanges(), festive.MeanChanges());
  // Paper Fig. 6a ordering: FLARE's average bitrate at least on par.
  EXPECT_GT(flare.MeanBitrateKbps(), 0.9 * festive.MeanBitrateKbps());
}

TEST(ScenarioIntegration, AvisClientNetworkMismatchHurtsAvis) {
  ScenarioConfig avis_config = SimStaticPreset(Scheme::kAvis);
  ScenarioConfig flare_config = SimStaticPreset(Scheme::kFlare);
  avis_config.seed = flare_config.seed = 100;
  const PooledMetrics avis = Pool(RunMany(avis_config, 2));
  const PooledMetrics flare = Pool(RunMany(flare_config, 2));
  // Paper Fig. 6: FLARE's average bitrate exceeds AVIS's and FLARE
  // switches less.
  EXPECT_GT(flare.MeanBitrateKbps(), avis.MeanBitrateKbps());
  EXPECT_LE(flare.MeanChanges(), avis.MeanChanges() + 1.0);
}

TEST(ScenarioIntegration, MobileScenarioRuns) {
  ScenarioConfig config;
  config.testbed = false;
  config.channel = ChannelKind::kMobile;
  config.ladder_kbps = SimulationLadderKbps();
  config.segment_duration_s = 10.0;
  config.duration_s = 200.0;
  config.n_video = 4;
  config.n_data = 1;
  config.scheme = Scheme::kFlare;
  config.seed = 17;
  const ScenarioResult r = RunScenario(config);
  ASSERT_EQ(r.video.size(), 4u);
  for (const ClientMetrics& m : r.video) EXPECT_GT(m.segments, 5);
}

TEST(ScenarioIntegration, RelaxedSolverCloseToExact) {
  ScenarioConfig config;
  config.testbed = false;
  config.channel = ChannelKind::kPlacedStatic;
  config.ladder_kbps = DenseLadderKbps();
  config.segment_duration_s = 10.0;
  config.duration_s = 300.0;
  config.n_video = 4;
  config.n_data = 1;
  config.seed = 9;

  config.scheme = Scheme::kFlare;
  const ScenarioResult exact = RunScenario(config);
  config.scheme = Scheme::kFlareRelaxed;
  const ScenarioResult relaxed = RunScenario(config);
  // Paper Fig. 8: the relaxation costs <~15% average bitrate.
  EXPECT_GT(relaxed.avg_video_bitrate_bps,
            0.7 * exact.avg_video_bitrate_bps);
}

TEST(ScenarioIntegration, SeriesSamplerProducesConsistentSeries) {
  ScenarioConfig config = BaseTestbed(Scheme::kFlare, 60.0);
  config.sample_series = true;
  const ScenarioResult r = RunScenario(config);
  ASSERT_EQ(r.series.size(), 60u);
  for (const SeriesSample& s : r.series) {
    EXPECT_EQ(s.video_bitrate_bps.size(), 3u);
    EXPECT_EQ(s.video_buffer_s.size(), 3u);
    EXPECT_EQ(s.data_throughput_bps.size(), 1u);
    for (double b : s.video_buffer_s) {
      EXPECT_GE(b, 0.0);
      EXPECT_LE(b, config.max_buffer_s + config.segment_duration_s);
    }
  }
  // Time axis is 1 Hz.
  EXPECT_DOUBLE_EQ(r.series[0].t_s, 1.0);
  EXPECT_DOUBLE_EQ(r.series.back().t_s, 60.0);
}

TEST(ScenarioIntegration, DeterministicForFixedSeed) {
  const ScenarioResult a = RunScenario(BaseTestbed(Scheme::kFestive, 90.0));
  const ScenarioResult b = RunScenario(BaseTestbed(Scheme::kFestive, 90.0));
  ASSERT_EQ(a.video.size(), b.video.size());
  for (std::size_t i = 0; i < a.video.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.video[i].avg_bitrate_bps,
                     b.video[i].avg_bitrate_bps);
    EXPECT_EQ(a.video[i].bitrate_changes, b.video[i].bitrate_changes);
  }
  EXPECT_EQ(a.data_throughput_bps, b.data_throughput_bps);
}

TEST(ScenarioIntegration, DifferentSeedsDiffer) {
  // A seed-dependent channel (random placement + fading): different seeds
  // must lead to different realized metrics. (A static-iTbs testbed run
  // legitimately converges to identical numbers across seeds.)
  ScenarioConfig config = SimStaticPreset(Scheme::kFestive);
  config.duration_s = 300.0;
  config.seed = 1;
  const ScenarioResult a = RunScenario(config);
  config.seed = 99;
  const ScenarioResult b = RunScenario(config);
  bool any_diff = false;
  for (std::size_t i = 0; i < a.video.size(); ++i) {
    if (a.video[i].avg_bitrate_bps != b.video[i].avg_bitrate_bps ||
        a.video[i].bitrate_changes != b.video[i].bitrate_changes) {
      any_diff = true;
    }
  }
  EXPECT_TRUE(any_diff);
}

TEST(ScenarioIntegration, RunManyIncrementsSeeds) {
  ScenarioConfig config = BaseTestbed(Scheme::kFlare, 60.0);
  const auto runs = RunMany(config, 3);
  ASSERT_EQ(runs.size(), 3u);
  const PooledMetrics pooled = Pool(runs);
  EXPECT_EQ(pooled.avg_bitrate_kbps.count(), 9u);  // 3 runs x 3 clients
  EXPECT_EQ(pooled.data_throughput_kbps.count(), 3u);
  EXPECT_EQ(pooled.jain_per_run.size(), 3u);
}

void ExpectSameClient(const ClientMetrics& a, const ClientMetrics& b) {
  EXPECT_EQ(a.avg_bitrate_bps, b.avg_bitrate_bps);
  EXPECT_EQ(a.bitrate_changes, b.bitrate_changes);
  EXPECT_EQ(a.rebuffer_time_s, b.rebuffer_time_s);
  EXPECT_EQ(a.rebuffer_events, b.rebuffer_events);
  EXPECT_EQ(a.segments, b.segments);
  EXPECT_EQ(a.avg_throughput_bps, b.avg_throughput_bps);
  EXPECT_EQ(a.qoe, b.qoe);
}

void ExpectSameClients(const std::vector<ClientMetrics>& a,
                       const std::vector<ClientMetrics>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) ExpectSameClient(a[i], b[i]);
}

// Every ScenarioResult field but the solve times, which are wall clock:
// only their count is a function of the seed.
void ExpectSameResult(const ScenarioResult& a, const ScenarioResult& b) {
  ExpectSameClients(a.video, b.video);
  ExpectSameClients(a.conventional, b.conventional);
  EXPECT_EQ(a.data_throughput_bps, b.data_throughput_bps);
  EXPECT_EQ(a.jain_avg_bitrate, b.jain_avg_bitrate);
  EXPECT_EQ(a.avg_video_bitrate_bps, b.avg_video_bitrate_bps);
  EXPECT_EQ(a.avg_bitrate_changes, b.avg_bitrate_changes);
  EXPECT_EQ(a.avg_rebuffer_s, b.avg_rebuffer_s);
  EXPECT_EQ(a.avg_data_throughput_bps, b.avg_data_throughput_bps);
  EXPECT_EQ(a.solve_times_ms.size(), b.solve_times_ms.size());
  EXPECT_EQ(a.video_fractions, b.video_fractions);
  ASSERT_EQ(a.series.size(), b.series.size());
  for (std::size_t i = 0; i < a.series.size(); ++i) {
    EXPECT_EQ(a.series[i].t_s, b.series[i].t_s);
    EXPECT_EQ(a.series[i].video_bitrate_bps, b.series[i].video_bitrate_bps);
    EXPECT_EQ(a.series[i].video_buffer_s, b.series[i].video_buffer_s);
    EXPECT_EQ(a.series[i].data_throughput_bps,
              b.series[i].data_throughput_bps);
  }
  EXPECT_EQ(a.sessions_arrived, b.sessions_arrived);
  EXPECT_EQ(a.sessions_departed, b.sessions_departed);
  EXPECT_EQ(a.sessions_blocked, b.sessions_blocked);
  EXPECT_EQ(a.blocking_probability, b.blocking_probability);
  ExpectSameClients(a.churned, b.churned);
  EXPECT_EQ(a.avg_admitted_qoe, b.avg_admitted_qoe);
}

TEST(ScenarioIntegration, RunManyEqualsRunScenarioPerSeed) {
  // Seeds run concurrently; each result must be the one a serial
  // RunScenario on its seed gives, in seed order.
  ScenarioConfig config = BaseTestbed(Scheme::kFlare, 60.0);
  config.sample_series = true;
  config.churn.enabled = true;
  config.churn.arrival_rate_per_s = 0.3;
  config.churn.mean_hold_s = 10.0;
  const auto runs = RunMany(config, 3);
  ASSERT_EQ(runs.size(), 3u);
  for (std::size_t r = 0; r < runs.size(); ++r) {
    SCOPED_TRACE("run " + std::to_string(r));
    ScenarioConfig seeded = config;
    seeded.seed = config.seed + r;
    ExpectSameResult(runs[r], RunScenario(seeded));
  }
  EXPECT_GT(runs[0].sessions_arrived, 0u);
  EXPECT_TRUE(RunMany(config, 0).empty());
}

TEST(ScenarioIntegration, RunManyRejectsObservers) {
  QoeAnalytics qoe;
  FlightRecorder flight(16);
  ScenarioConfig config = BaseTestbed(Scheme::kFlare, 1.0);
  config.qoe = &qoe;
  EXPECT_THROW(RunMany(config, 2), std::invalid_argument);
  config.qoe = nullptr;
  config.flight = &flight;
  EXPECT_THROW(RunMany(config, 1), std::invalid_argument);
  EXPECT_EQ(RunMany(WithoutObservers(config), 1).size(), 1u);
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

struct ObservedOutput {
  std::string qoe_csv;
  std::string qoe_json;  // carries the summary
  std::string flight_json;
};

// scenario_runner's runs=<n> path: the first run carries the observers,
// the other n-1 seeds run through RunMany without them.
ObservedOutput RunObservingFirst(ScenarioConfig config, int runs) {
  QoeAnalytics qoe;
  FlightRecorder flight(256);
  config.qoe = &qoe;
  config.flight = &flight;
  RunScenario(config);
  if (runs > 1) {
    ScenarioConfig rest = WithoutObservers(config);
    rest.seed = config.seed + 1;
    RunMany(rest, runs - 1);
  }
  ObservedOutput out;
  const std::string path =
      ::testing::TempDir() + "qoe_runs_" + std::to_string(runs) + ".csv";
  EXPECT_TRUE(qoe.ExportCsv(path));
  out.qoe_csv = ReadFile(path);
  std::ostringstream qoe_json;
  qoe.WriteJson(qoe_json);
  out.qoe_json = qoe_json.str();
  std::ostringstream flight_json;
  flight.WriteJson(flight_json);
  out.flight_json = flight_json.str();
  return out;
}

TEST(ScenarioIntegration, ExtraRunsLeaveFirstRunObserversUntouched) {
  // Later seeds reuse the first run's session ids: fed into its QoE
  // engine they would merge into its sessions.
  ScenarioConfig config = SimMobilePreset(Scheme::kFlare);
  config.duration_s = 60.0;
  config.seed = 3;
  const ObservedOutput one = RunObservingFirst(config, 1);
  const ObservedOutput three = RunObservingFirst(config, 3);
  ASSERT_NE(one.qoe_csv.find('\n'), std::string::npos);
  EXPECT_EQ(one.qoe_csv, three.qoe_csv);
  EXPECT_EQ(one.qoe_json, three.qoe_json);
  EXPECT_EQ(one.flight_json, three.flight_json);
}

TEST(ScenarioIntegration, DisclosedScreenSizesShapeAssignments) {
  // Two clients disclose screens (one tiny, one large); under tight
  // capacity the large screen ends with the higher average bitrate.
  ScenarioConfig config = SimStaticPreset(Scheme::kFlare);
  config.duration_s = 400.0;
  config.n_video = 4;
  config.client_theta_bps = {0.02e6, 0.8e6};  // client 0 tiny, 1 large
  config.oneapi.params.delta = 2;
  config.seed = 100;
  const ScenarioResult r = RunScenario(config);
  ASSERT_EQ(r.video.size(), 4u);
  EXPECT_GT(r.video[1].avg_bitrate_bps, r.video[0].avg_bitrate_bps);
}

TEST(ScenarioIntegration, ClientMaxLevelCapsScenarioClient) {
  ScenarioConfig config = SimStaticPreset(Scheme::kFlare);
  config.duration_s = 300.0;
  config.n_video = 3;
  config.client_max_level = {1, -1, -1};  // client 0 capped at 250 Kbps
  config.oneapi.params.delta = 1;
  config.seed = 100;
  const ScenarioResult r = RunScenario(config);
  ASSERT_EQ(r.video.size(), 3u);
  EXPECT_LE(r.video[0].avg_bitrate_bps, 250e3 + 1.0);
  EXPECT_GT(r.video[1].avg_bitrate_bps, 250e3);
}

TEST(ScenarioIntegration, ConventionalPlayersCoexistWithoutGuarantees) {
  // Section V: non-FLARE players are serviced like data traffic; FLARE
  // clients keep their GBR-grade service next to them.
  ScenarioConfig config = SimStaticPreset(Scheme::kFlare);
  config.duration_s = 300.0;
  config.n_video = 4;
  config.n_conventional = 4;
  config.seed = 100;
  const ScenarioResult r = RunScenario(config);
  ASSERT_EQ(r.video.size(), 4u);
  ASSERT_EQ(r.conventional.size(), 4u);
  for (const ClientMetrics& m : r.video) {
    EXPECT_EQ(m.rebuffer_events, 0);  // GBR protection holds
    EXPECT_GT(m.segments, 0);
  }
  for (const ClientMetrics& m : r.conventional) {
    EXPECT_GT(m.segments, 0);  // best-effort service, but served
  }
}

TEST(ScenarioIntegration, AlphaTradesDataForVideo) {
  ScenarioConfig config;
  config.testbed = false;
  config.channel = ChannelKind::kPlacedStatic;
  config.ladder_kbps = DenseLadderKbps();
  config.segment_duration_s = 10.0;
  // Long enough to clear the delta-ramp (delta=2 => ~180 s to the top
  // rung) and observe the alpha-controlled steady state.
  config.duration_s = 600.0;
  config.n_video = 4;
  config.n_data = 4;
  config.scheme = Scheme::kFlare;
  config.seed = 23;
  config.oneapi.params.delta = 2;

  config.oneapi.params.alpha = 0.25;
  const ScenarioResult low = RunScenario(config);
  config.oneapi.params.alpha = 4.0;
  const ScenarioResult high = RunScenario(config);
  // Paper Fig. 11: higher alpha -> more data throughput, less video.
  EXPECT_GT(high.avg_data_throughput_bps, low.avg_data_throughput_bps);
  EXPECT_LE(high.avg_video_bitrate_bps, low.avg_video_bitrate_bps);
}

}  // namespace
}  // namespace flare
