// Tests for the handover manager and the full inter-cell migration
// choreography (flow teardown/recreate, session rebind, OneAPI
// re-registration), with a golden of the two-cell run's BAI traces and
// segment bitrates.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "golden_util.h"
#include "has/video_session.h"
#include "lte/amc.h"
#include "lte/gbr_scheduler.h"
#include "net/handover.h"
#include "net/oneapi_server.h"
#include "net/pcef.h"
#include "net/pcrf.h"
#include "obs/bai_trace.h"
#include "sim/simulator.h"
#include "transport/transport_host.h"
#include "util/csv.h"

namespace flare {
namespace {

/// A scripted straight drive from `from` to `to` over `duration`.
class LinearDrive final : public MobilityModel {
 public:
  LinearDrive(Position from, Position to, SimTime duration)
      : from_(from), to_(to), duration_(duration) {}
  Position At(SimTime now) override {
    const double frac =
        std::clamp(static_cast<double>(now) /
                       static_cast<double>(std::max<SimTime>(duration_, 1)),
                   0.0, 1.0);
    return Position{from_.x + (to_.x - from_.x) * frac,
                    from_.y + (to_.y - from_.y) * frac};
  }
  double MaxSpeedMps() const override {
    return std::hypot(to_.x - from_.x, to_.y - from_.y) /
           ToSeconds(std::max<SimTime>(duration_, 1));
  }

 private:
  Position from_;
  Position to_;
  SimTime duration_;
};

struct TwoCellFixture {
  Simulator sim;
  // Sites 1600 m apart; quiet radio (no shadowing/fading) for scripted
  // geometry.
  RadioConfig radio;
  std::shared_ptr<MobilityModel> drive;
  std::unique_ptr<FadedMobilityChannel> ch_a;
  std::unique_ptr<FadedMobilityChannel> ch_b;

  TwoCellFixture() {
    radio.shadowing_stddev_db = 0.0;
    radio.fading_stddev_db = 0.0;
    drive = std::make_shared<LinearDrive>(Position{-700.0, 0.0},
                                          Position{2300.0, 0.0},
                                          FromSeconds(100.0));
    ch_a = std::make_unique<FadedMobilityChannel>(
        drive, radio, Rng(1), Position{0.0, 0.0});
    ch_b = std::make_unique<FadedMobilityChannel>(
        drive, radio, Rng(2), Position{1600.0, 0.0});
  }
};

TEST(Handover, A3TriggersOnceDrivePassesMidpoint) {
  TwoCellFixture f;
  HandoverConfig config;
  HandoverManager manager(f.sim, config);
  const int ue = manager.AddUe({f.ch_a.get(), f.ch_b.get()}, 0);
  int fired_from = -1;
  int fired_to = -1;
  manager.SetOnHandover([&](int u, int from, int to) {
    EXPECT_EQ(u, ue);
    fired_from = from;
    fired_to = to;
  });
  manager.Start();
  f.sim.RunUntil(FromSeconds(30.0));  // still near cell A
  EXPECT_EQ(manager.ServingCell(ue), 0);
  f.sim.RunUntil(FromSeconds(80.0));  // well past the midpoint
  EXPECT_EQ(manager.ServingCell(ue), 1);
  EXPECT_EQ(fired_from, 0);
  EXPECT_EQ(fired_to, 1);
  EXPECT_EQ(manager.handovers_executed(), 1);
}

TEST(Handover, SharedDriveHoldsEachSitesItbs) {
  // Both sites' channels read the one drive; with its speed bound each
  // holds its I_TBS within a fading sample and still matches a fresh
  // mapping of its SINR at every TTI of the drive.
  TwoCellFixture f;
  std::uint64_t reads = 0;
  for (SimTime t = 0; t < FromSeconds(100.0); t += kTti) {
    for (FadedMobilityChannel* ch : {f.ch_a.get(), f.ch_b.get()}) {
      ASSERT_EQ(ch->ItbsAt(t), SinrDbToItbs(ch->SinrDbAt(t))) << "t=" << t;
    }
    ++reads;
  }
  EXPECT_LE(f.ch_a->evaluations() * 5, reads);
  EXPECT_LE(f.ch_b->evaluations() * 5, reads);
}

TEST(Handover, HysteresisPreventsPingPongAtMidpoint) {
  // A UE parked exactly between the two sites: equal SINR means the A3
  // offset is never cleared, so no handover ever fires.
  RadioConfig radio;
  radio.shadowing_stddev_db = 0.0;
  radio.fading_stddev_db = 0.0;
  auto park = std::make_shared<StaticMobility>(Position{800.0, 0.0});
  FadedMobilityChannel a(park, radio, Rng(1), Position{0.0, 0.0});
  FadedMobilityChannel b(park, radio, Rng(2), Position{1600.0, 0.0});
  Simulator sim;
  HandoverManager manager(sim, HandoverConfig{});
  const int ue = manager.AddUe({&a, &b}, 0);
  manager.Start();
  sim.RunUntil(FromSeconds(60.0));
  EXPECT_EQ(manager.ServingCell(ue), 0);
  EXPECT_EQ(manager.handovers_executed(), 0);
}

TEST(Handover, TimeToTriggerFiltersTransients) {
  TwoCellFixture f;
  HandoverConfig config;
  config.time_to_trigger = FromSeconds(30.0);  // longer than the episode
  HandoverManager manager(f.sim, config);
  // Drive crosses and comes back before TTT elapses.
  auto bounce = std::make_shared<LinearDrive>(
      Position{-200.0, 0.0}, Position{-200.0, 0.0}, FromSeconds(1.0));
  FadedMobilityChannel a(bounce, f.radio, Rng(1), Position{0.0, 0.0});
  FadedMobilityChannel b(bounce, f.radio, Rng(2), Position{1600.0, 0.0});
  const int ue = manager.AddUe({&a, &b}, 0);
  manager.Start();
  f.sim.RunUntil(FromSeconds(20.0));
  EXPECT_EQ(manager.ServingCell(ue), 0);
}

TEST(Handover, RejectsBadRegistrations) {
  Simulator sim;
  HandoverManager manager(sim, HandoverConfig{});
  TwoCellFixture f;
  EXPECT_THROW(manager.AddUe({f.ch_a.get()}, 0), std::invalid_argument);
  EXPECT_THROW(manager.AddUe({f.ch_a.get(), f.ch_b.get()}, 5),
               std::invalid_argument);
  EXPECT_THROW(manager.AddUe({f.ch_a.get(), nullptr}, 0),
               std::invalid_argument);
  EXPECT_THROW(manager.ServingCell(0), std::out_of_range);
}

/// What one run of the full migration choreography leaves behind.
struct MigrationRun {
  int segments_at_40s = 0;
  int segments = 0;
  int migrations = 0;
  int serving_cell = -1;
  int video_flows_a = -1;
  int video_flows_b = -1;
  double rebuffer_s = 0.0;
  std::vector<double> segment_bitrates;
};

/// The complete choreography: a FLARE video session survives a handover
/// between two cells, each with its own OneApiServer and PCEF over one
/// shared PCRF. With a `sink` both cells record their BAIs into it.
MigrationRun RunFullMigration(BaiTraceSink* sink) {
  MigrationRun run;
  Simulator sim;
  Pcrf pcrf;
  OneApiConfig oneapi_config;
  oneapi_config.bai = FromSeconds(1.0);
  oneapi_config.params.delta = 1;
  oneapi_config.deterministic_timing = true;

  RadioConfig radio;
  radio.shadowing_stddev_db = 0.0;
  radio.fading_stddev_db = 0.0;
  auto drive = std::make_shared<LinearDrive>(
      Position{-700.0, 0.0}, Position{2300.0, 0.0}, FromSeconds(120.0));

  // Cells + measurement channels (the cells own their *serving* channel
  // instances; the manager needs its own probes).
  Cell cell_a(sim, std::make_unique<TwoPhaseGbrScheduler>(), CellConfig{},
              Rng(1));
  Cell cell_b(sim, std::make_unique<TwoPhaseGbrScheduler>(), CellConfig{},
              Rng(2));
  Pcef pcef_a(sim, cell_a, oneapi_config.downlink_latency);
  Pcef pcef_b(sim, cell_b, oneapi_config.downlink_latency);
  OneApiConfig config_a = oneapi_config;
  config_a.cell_tag = 0;
  OneApiConfig config_b = oneapi_config;
  config_b.cell_tag = 1;
  OneApiServer server_a(sim, cell_a, pcrf, pcef_a, config_a);
  OneApiServer server_b(sim, cell_b, pcrf, pcef_b, config_b);
  server_a.SetObservers(nullptr, nullptr, {.bai_trace = sink});
  server_b.SetObservers(nullptr, nullptr, {.bai_trace = sink});
  const UeId ue_a = cell_a.AddUe(std::make_unique<FadedMobilityChannel>(
      drive, radio, Rng(3), Position{0.0, 0.0}));
  const UeId ue_b = cell_b.AddUe(std::make_unique<FadedMobilityChannel>(
      drive, radio, Rng(4), Position{1600.0, 0.0}));
  FadedMobilityChannel probe_a(drive, radio, Rng(5), Position{0.0, 0.0});
  FadedMobilityChannel probe_b(drive, radio, Rng(6),
                               Position{1600.0, 0.0});

  TransportHost host_a(sim, cell_a);
  TransportHost host_b(sim, cell_b);

  // Session starts in cell A.
  const Mpd mpd = MakeMpd(SimulationLadderKbps(), 2.0);
  TcpFlow& flow_a = host_a.CreateFlow(ue_a, FlowType::kVideo);
  auto http = std::make_unique<HttpClient>(sim, flow_a);
  auto plugin = std::make_unique<FlarePlugin>(flow_a.id());
  FlarePlugin* plugin_ptr = plugin.get();
  VideoSessionConfig vs_config;
  VideoSession session(sim, *http, mpd, std::move(plugin), vs_config);
  server_a.ConnectVideoClient(plugin_ptr, mpd);
  session.Start(0);

  // Handover choreography.
  HandoverManager manager(sim, HandoverConfig{});
  const int ho_ue = manager.AddUe({&probe_a, &probe_b}, 0);
  std::unique_ptr<HttpClient> next_http;
  std::unique_ptr<FlarePlugin> next_plugin;
  manager.SetOnHandover([&](int, int from, int to) {
    EXPECT_EQ(from, 0);
    EXPECT_EQ(to, 1);
    // 1. Network side: deregister from cell A, tear the old bearer down.
    server_a.DisconnectVideoClient(flow_a.id());
    host_a.DestroyFlow(flow_a.id());
    // 2. New bearer + HTTP path in cell B.
    TcpFlow& flow_b = host_b.CreateFlow(ue_b, FlowType::kVideo);
    next_http = std::make_unique<HttpClient>(sim, flow_b);
    // 3. Fresh plugin for the new flow id; reconnect through cell B.
    next_plugin = std::make_unique<FlarePlugin>(flow_b.id());
    server_b.ConnectVideoClient(next_plugin.get(), mpd);
    // 4. Rebind the session. (The old plugin keeps steering until the
    // new cell's first BAI assignment arrives — acceptable staleness.)
    session.RebindHttp(*next_http);
    ++run.migrations;
  });
  manager.Start();
  server_a.Start();
  server_b.Start();
  cell_a.Start();
  cell_b.Start();

  sim.RunUntil(FromSeconds(40.0));
  run.segments_at_40s = session.segments_completed();
  sim.RunUntil(FromSeconds(120.0));
  run.segments = session.segments_completed();
  run.serving_cell = manager.ServingCell(ho_ue);
  run.video_flows_a = pcrf.CountFlows(FlowType::kVideo, 0);
  run.video_flows_b = pcrf.CountFlows(FlowType::kVideo, 1);
  session.player().AdvanceTo(sim.Now());
  run.rebuffer_s = session.player().rebuffer_time_s();
  run.segment_bitrates = session.player().segment_bitrates();
  return run;
}

TEST(Handover, FullMigrationKeepsVideoStreaming) {
  const MigrationRun run = RunFullMigration(nullptr);
  EXPECT_GT(run.segments_at_40s, 5);
  EXPECT_EQ(run.migrations, 1);
  EXPECT_EQ(run.serving_cell, 1);
  // Streaming continued in cell B: many more segments completed.
  EXPECT_GT(run.segments, run.segments_at_40s + 10);
  // The new cell's server took over rate control.
  EXPECT_EQ(run.video_flows_a, 0);
  EXPECT_EQ(run.video_flows_b, 1);
  // The brief migration gap must not have wrecked playback.
  EXPECT_LT(run.rebuffer_s, 15.0);
}

// Golden: both cells' BAI traces and the session's segment bitrates over
// the migration, byte for byte.
TEST(Handover, FullMigrationGoldenTrace) {
  BaiTraceSink sink;
  const MigrationRun run = RunFullMigration(&sink);
  std::ostringstream trace;
  sink.WriteCsv(trace);
  CheckAgainstGolden("handover_two_cell_flare.csv", trace.str());
  std::string bitrates = "segment,bitrate_bps\n";
  for (std::size_t i = 0; i < run.segment_bitrates.size(); ++i) {
    bitrates += std::to_string(i) + "," +
                FormatNumber(run.segment_bitrates[i]) + "\n";
  }
  CheckAgainstGolden("handover_two_cell_segments.csv", bitrates);
}

}  // namespace
}  // namespace flare
