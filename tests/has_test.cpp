// Tests for the HAS substrate: MPD model + parser, playout buffer, video
// session loop, and QoE metrics.
#include <gtest/gtest.h>

#include "has/metrics.h"
#include "has/mpd.h"
#include "has/player.h"
#include "has/video_session.h"
#include "lte/cell.h"
#include "lte/pf_scheduler.h"
#include "sim/simulator.h"
#include "transport/transport_host.h"

namespace flare {
namespace {

TEST(Mpd, MakeMpdSortsAndIndexes) {
  const Mpd mpd = MakeMpd({500, 100, 250}, 2.0);
  ASSERT_EQ(mpd.NumRepresentations(), 3);
  EXPECT_DOUBLE_EQ(mpd.BitrateOf(0), 100'000.0);
  EXPECT_DOUBLE_EQ(mpd.BitrateOf(2), 500'000.0);
  EXPECT_TRUE(mpd.Valid());
}

TEST(Mpd, SegmentBytes) {
  const Mpd mpd = MakeMpd({800}, 10.0);
  // 800 Kbit/s * 10 s = 8 Mbit = 1 MB.
  EXPECT_EQ(mpd.SegmentBytes(0), 1'000'000u);
}

TEST(Mpd, HighestIndexBelow) {
  const Mpd mpd = MakeMpd({100, 250, 500}, 2.0);
  EXPECT_EQ(mpd.HighestIndexBelow(99e3), -1);
  EXPECT_EQ(mpd.HighestIndexBelow(100e3), 0);
  EXPECT_EQ(mpd.HighestIndexBelow(300e3), 1);
  EXPECT_EQ(mpd.HighestIndexBelow(1e9), 2);
}

TEST(Mpd, VbrSegmentSizesVaryDeterministically) {
  Mpd mpd = MakeMpd({800}, 10.0);
  mpd.vbr_sigma = 0.2;
  const std::uint64_t nominal = mpd.SegmentBytes(0);
  bool varied = false;
  double sum = 0.0;
  const int n = 200;
  for (int seg = 0; seg < n; ++seg) {
    const std::uint64_t a = mpd.SegmentBytesAt(0, seg);
    EXPECT_EQ(a, mpd.SegmentBytesAt(0, seg));  // deterministic
    // Bounded at +-2.5 sigma.
    EXPECT_GE(a, static_cast<std::uint64_t>(0.5 * nominal));
    EXPECT_LE(a, static_cast<std::uint64_t>(1.5 * nominal));
    if (a != nominal) varied = true;
    sum += static_cast<double>(a);
  }
  EXPECT_TRUE(varied);
  // Mean stays near the nominal bitrate.
  EXPECT_NEAR(sum / n / static_cast<double>(nominal), 1.0, 0.08);
}

TEST(Mpd, CbrSegmentsAreExact) {
  const Mpd mpd = MakeMpd({800}, 10.0);
  for (int seg = 0; seg < 10; ++seg) {
    EXPECT_EQ(mpd.SegmentBytesAt(0, seg), mpd.SegmentBytes(0));
  }
}

TEST(Mpd, PaperLadders) {
  EXPECT_EQ(TestbedLadderKbps().size(), 8u);
  EXPECT_EQ(SimulationLadderKbps().size(), 6u);
  EXPECT_EQ(DenseLadderKbps().size(), 12u);
  EXPECT_DOUBLE_EQ(TestbedLadderKbps().back(), 2750.0);
  EXPECT_DOUBLE_EQ(SimulationLadderKbps().back(), 3000.0);
}

TEST(Player, StartupThresholdGatesPlayout) {
  PlayerConfig config;
  config.startup_threshold_s = 4.0;
  VideoPlayer player(config);
  EXPECT_FALSE(player.playing());
  player.OnSegment(2.0, 1e6, FromSeconds(1.0));
  EXPECT_FALSE(player.playing());  // 2 s < 4 s threshold
  player.OnSegment(2.0, 1e6, FromSeconds(2.0));
  EXPECT_TRUE(player.playing());
}

TEST(Player, BufferDrainsInRealTime) {
  PlayerConfig config;
  config.startup_threshold_s = 2.0;
  VideoPlayer player(config);
  player.OnSegment(10.0, 1e6, FromSeconds(0.0));
  player.AdvanceTo(FromSeconds(4.0));
  EXPECT_NEAR(player.buffer_s(), 6.0, 1e-9);
  EXPECT_NEAR(player.played_s(), 4.0, 1e-9);
}

TEST(Player, StallAccountsRebufferTime) {
  PlayerConfig config;
  config.startup_threshold_s = 1.0;
  config.resume_threshold_s = 1.0;
  VideoPlayer player(config);
  player.OnSegment(2.0, 1e6, FromSeconds(0.0));
  // Drain past empty: 2 s of media, 5 s of wall clock -> 3 s stall.
  player.AdvanceTo(FromSeconds(5.0));
  EXPECT_TRUE(player.stalled());
  EXPECT_NEAR(player.rebuffer_time_s(), 3.0, 1e-9);
  EXPECT_EQ(player.rebuffer_events(), 1);
  // Stall continues until a segment arrives.
  player.AdvanceTo(FromSeconds(6.0));
  EXPECT_NEAR(player.rebuffer_time_s(), 4.0, 1e-9);
  player.OnSegment(2.0, 1e6, FromSeconds(6.0));
  EXPECT_TRUE(player.playing());
}

TEST(Player, ResumeThresholdHoldsPlayback) {
  PlayerConfig config;
  config.startup_threshold_s = 1.0;
  config.resume_threshold_s = 3.0;
  VideoPlayer player(config);
  player.OnSegment(1.0, 1e6, FromSeconds(0.0));
  player.AdvanceTo(FromSeconds(2.0));  // stall at t=1
  EXPECT_TRUE(player.stalled());
  player.OnSegment(1.0, 1e6, FromSeconds(2.0));  // only 1 s < resume 3 s
  EXPECT_TRUE(player.stalled());
  player.OnSegment(2.0, 1e6, FromSeconds(2.5));  // 3 s buffered
  EXPECT_TRUE(player.playing());
}

TEST(Player, WantsMoreSegmentsBelowCap) {
  PlayerConfig config;
  config.max_buffer_s = 5.0;
  VideoPlayer player(config);
  EXPECT_TRUE(player.WantsMoreSegments());
  player.OnSegment(6.0, 1e6, 0);
  EXPECT_FALSE(player.WantsMoreSegments());
}

TEST(Player, AdvanceToIsIdempotentForPastTimes) {
  VideoPlayer player(PlayerConfig{});
  player.OnSegment(5.0, 1e6, FromSeconds(0.0));
  player.AdvanceTo(FromSeconds(2.0));
  const double buffer = player.buffer_s();
  player.AdvanceTo(FromSeconds(1.0));  // earlier: no-op
  EXPECT_DOUBLE_EQ(player.buffer_s(), buffer);
}

TEST(Metrics, QoeScoreComponents) {
  // Pure quality: constant 2 Mbps, no stalls -> QoE = 2.0.
  EXPECT_DOUBLE_EQ(QoeScore({2e6, 2e6, 2e6}, 0.0, 30.0), 2.0);
  // Switching penalty: 1->2->1 Mbps = 2 Mbps of |diff| over 3 segments.
  EXPECT_NEAR(QoeScore({1e6, 2e6, 1e6}, 0.0, 30.0),
              (4.0 - 1.0 * 2.0) / 3.0, 1e-12);
  // Rebuffer penalty: 3 s of stall over 30 s at mu=8 costs 0.8.
  EXPECT_NEAR(QoeScore({2e6, 2e6}, 3.0, 30.0), 2.0 - 0.8, 1e-12);
  // Custom weights.
  QoeEngineWeights weights;
  weights.lambda_switch = 0.0;
  weights.mu_rebuffer = 0.0;
  EXPECT_DOUBLE_EQ(QoeScore({1e6, 3e6}, 10.0, 30.0, weights), 2.0);
  // Degenerate inputs.
  EXPECT_DOUBLE_EQ(QoeScore({}, 5.0, 30.0), 0.0);
}

TEST(Metrics, QoeOrdersObviousCases) {
  // Higher stable bitrate beats lower; stalls hurt.
  const double high = QoeScore({3e6, 3e6, 3e6}, 0.0, 30.0);
  const double low = QoeScore({1e6, 1e6, 1e6}, 0.0, 30.0);
  const double stalled = QoeScore({3e6, 3e6, 3e6}, 10.0, 30.0);
  EXPECT_GT(high, low);
  EXPECT_GT(high, stalled);
}

TEST(Metrics, CountBitrateChanges) {
  EXPECT_EQ(CountBitrateChanges({}), 0);
  EXPECT_EQ(CountBitrateChanges({1.0}), 0);
  EXPECT_EQ(CountBitrateChanges({1.0, 1.0, 1.0}), 0);
  EXPECT_EQ(CountBitrateChanges({1.0, 2.0, 2.0, 1.0}), 2);
  EXPECT_EQ(CountBitrateChanges({1.0, 2.0, 1.0, 2.0}), 3);
}

// A fixed-rate ABR for session-loop tests.
class FixedAbr final : public AbrAlgorithm {
 public:
  explicit FixedAbr(int index) : index_(index) {}
  int NextRepresentation(const AbrContext&) override { return index_; }
  std::string Name() const override { return "fixed"; }

 private:
  int index_;
};

struct SessionNet {
  Simulator sim;
  Cell cell;
  TransportHost host;
  SessionNet()
      : cell(sim, std::make_unique<PfScheduler>(), CellConfig{}, Rng(1)),
        host(sim, cell) {}
};

TEST(VideoSession, StreamsSegmentsAndFillsBuffer) {
  SessionNet net;
  const UeId ue = net.cell.AddUe(std::make_unique<StaticItbsChannel>(7));
  TcpFlow& flow = net.host.CreateFlow(ue, FlowType::kVideo);
  HttpClient http(net.sim, flow);

  VideoSessionConfig config;
  config.player.max_buffer_s = 30.0;
  // 500 Kbps on a 5.2 Mbit/s link: downloads are ~10x real time.
  VideoSession session(net.sim, http, MakeMpd({500}, 2.0),
                       std::make_unique<FixedAbr>(0), config);
  session.Start(0);
  net.cell.Start();
  net.sim.RunUntil(FromSeconds(60.0));

  EXPECT_GT(session.segments_completed(), 20);
  EXPECT_NEAR(session.player().buffer_s(), 30.0, 3.0);  // parked at cap
  EXPECT_EQ(session.player().rebuffer_events(), 0);
  const ClientMetrics m = ComputeClientMetrics(session);
  EXPECT_DOUBLE_EQ(m.avg_bitrate_bps, 500'000.0);
  EXPECT_EQ(m.bitrate_changes, 0);
}

TEST(VideoSession, OverdrivenSessionRebuffers) {
  SessionNet net;
  const UeId ue = net.cell.AddUe(std::make_unique<StaticItbsChannel>(2));
  // iTbs 2: 32 bits * 50 RBs = 1.6 Mbit/s link; force 2.75 Mbit/s video.
  TcpFlow& flow = net.host.CreateFlow(ue, FlowType::kVideo);
  HttpClient http(net.sim, flow);
  VideoSessionConfig config;
  VideoSession session(net.sim, http, MakeMpd({2750}, 2.0),
                       std::make_unique<FixedAbr>(0), config);
  session.Start(0);
  net.cell.Start();
  net.sim.RunUntil(FromSeconds(120.0));
  session.player().AdvanceTo(net.sim.Now());
  EXPECT_GT(session.player().rebuffer_time_s(), 10.0);
}

TEST(VideoSession, FiniteMediaStops) {
  SessionNet net;
  const UeId ue = net.cell.AddUe(std::make_unique<StaticItbsChannel>(7));
  TcpFlow& flow = net.host.CreateFlow(ue, FlowType::kVideo);
  HttpClient http(net.sim, flow);
  VideoSessionConfig config;
  // 10 segments of 2 s.
  VideoSession session(net.sim, http, MakeMpd({500}, 2.0, 20.0),
                       std::make_unique<FixedAbr>(0), config);
  session.Start(0);
  net.cell.Start();
  net.sim.RunUntil(FromSeconds(120.0));
  EXPECT_EQ(session.segments_completed(), 10);
}

TEST(VideoSession, SelectionHistoryMatchesSegments) {
  SessionNet net;
  const UeId ue = net.cell.AddUe(std::make_unique<StaticItbsChannel>(7));
  TcpFlow& flow = net.host.CreateFlow(ue, FlowType::kVideo);
  HttpClient http(net.sim, flow);
  VideoSession session(net.sim, http, MakeMpd({200, 400}, 2.0),
                       std::make_unique<FixedAbr>(1),
                       VideoSessionConfig{});
  session.Start(FromSeconds(1.0));
  net.cell.Start();
  net.sim.RunUntil(FromSeconds(30.0));
  EXPECT_GE(static_cast<int>(session.selection_history().size()),
            session.segments_completed());
  for (int index : session.selection_history()) EXPECT_EQ(index, 1);
}

TEST(VideoSession, LiveModeTracksTheEncoderEdge) {
  SessionNet net;
  const UeId ue = net.cell.AddUe(std::make_unique<StaticItbsChannel>(7));
  TcpFlow& flow = net.host.CreateFlow(ue, FlowType::kVideo);
  HttpClient http(net.sim, flow);
  VideoSessionConfig config;
  config.live = true;
  config.player.max_buffer_s = 60.0;  // not the binding limit in live
  // 500 Kbps on a 5.2 Mbit/s link: downloads are ~10x real time, so the
  // session would buffer 60 s in VoD mode; live must hold it at the edge.
  VideoSession session(net.sim, http, MakeMpd({500}, 2.0),
                       std::make_unique<FixedAbr>(0), config);
  session.Start(0);
  net.cell.Start();
  net.sim.RunUntil(FromSeconds(120.0));
  session.player().AdvanceTo(net.sim.Now());

  // One segment becomes available per 2 s: ~60 segments in 120 s.
  EXPECT_GE(session.segments_completed(), 55);
  EXPECT_LE(session.segments_completed(), 60);
  // Buffer bounded near the live edge, far below the 60 s VoD cap.
  EXPECT_LE(session.player().buffer_s(), 6.0);
}

TEST(VideoSession, VodModeBuffersAheadUnlikeLive) {
  SessionNet net;
  const UeId ue = net.cell.AddUe(std::make_unique<StaticItbsChannel>(7));
  TcpFlow& flow = net.host.CreateFlow(ue, FlowType::kVideo);
  HttpClient http(net.sim, flow);
  VideoSessionConfig config;
  config.player.max_buffer_s = 40.0;
  VideoSession session(net.sim, http, MakeMpd({500}, 2.0),
                       std::make_unique<FixedAbr>(0), config);
  session.Start(0);
  net.cell.Start();
  net.sim.RunUntil(FromSeconds(120.0));
  session.player().AdvanceTo(net.sim.Now());
  EXPECT_GT(session.player().buffer_s(), 30.0);
}

TEST(VideoSession, RejectsInvalidConstruction) {
  SessionNet net;
  const UeId ue = net.cell.AddUe(std::make_unique<StaticItbsChannel>(7));
  TcpFlow& flow = net.host.CreateFlow(ue, FlowType::kVideo);
  HttpClient http(net.sim, flow);
  Mpd bad;  // invalid: no representations
  EXPECT_THROW(VideoSession(net.sim, http, bad,
                            std::make_unique<FixedAbr>(0),
                            VideoSessionConfig{}),
               std::invalid_argument);
  EXPECT_THROW(VideoSession(net.sim, http, MakeMpd({100}, 2.0), nullptr,
                            VideoSessionConfig{}),
               std::invalid_argument);
}

}  // namespace
}  // namespace flare
