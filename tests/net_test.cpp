// Tests for the coordination layer: PCRF, PCEF, FLARE plugin, and the
// OneAPI server's BAI loop over a live cell — alone, and as one server
// per cell over a shared PCRF (the multi-BS deployment of Section II-A).
#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "churn/admission.h"
#include "lte/cell.h"
#include "lte/gbr_scheduler.h"
#include "net/flare_plugin.h"
#include "net/oneapi_server.h"
#include "net/pcef.h"
#include "net/pcrf.h"
#include "obs/bai_trace.h"
#include "sim/simulator.h"

namespace flare {
namespace {

TEST(Pcrf, RegistryCountsByType) {
  Pcrf pcrf;
  pcrf.RegisterFlow(1, FlowType::kVideo);
  pcrf.RegisterFlow(2, FlowType::kData);
  pcrf.RegisterFlow(3, FlowType::kData);
  EXPECT_EQ(pcrf.CountFlows(FlowType::kVideo), 1);
  EXPECT_EQ(pcrf.CountFlows(FlowType::kData), 2);
  EXPECT_TRUE(pcrf.Knows(2));
  pcrf.DeregisterFlow(2);
  EXPECT_EQ(pcrf.CountFlows(FlowType::kData), 1);
  EXPECT_FALSE(pcrf.Knows(2));
}

TEST(Pcrf, ReRegisteringChangesType) {
  Pcrf pcrf;
  pcrf.RegisterFlow(1, FlowType::kVideo);
  pcrf.RegisterFlow(1, FlowType::kData);
  EXPECT_EQ(pcrf.CountFlows(FlowType::kVideo), 0);
  EXPECT_EQ(pcrf.CountFlows(FlowType::kData), 1);
}

TEST(Pcrf, CellScopedCounts) {
  Pcrf pcrf;
  pcrf.RegisterFlow(1, FlowType::kData, /*cell=*/0);
  pcrf.RegisterFlow(1, FlowType::kVideo, /*cell=*/1);  // same id, new cell
  pcrf.RegisterFlow(2, FlowType::kData, /*cell=*/1);
  EXPECT_EQ(pcrf.CountFlows(FlowType::kData, 0), 1);
  EXPECT_EQ(pcrf.CountFlows(FlowType::kData, 1), 1);
  EXPECT_EQ(pcrf.CountFlows(FlowType::kVideo, 1), 1);
  EXPECT_EQ(pcrf.CountFlowsAllCells(FlowType::kData), 2);
  EXPECT_TRUE(pcrf.Knows(1, 1));
  EXPECT_FALSE(pcrf.Knows(2, 0));
  pcrf.DeregisterFlow(1, 1);
  EXPECT_EQ(pcrf.CountFlows(FlowType::kVideo, 1), 0);
  EXPECT_EQ(pcrf.CountFlows(FlowType::kData, 0), 1);  // untouched
}

struct ControlNet {
  Simulator sim;
  Cell cell;
  ControlNet()
      : cell(sim, std::make_unique<TwoPhaseGbrScheduler>(), CellConfig{},
             Rng(1)) {}
};

TEST(Pcef, EnforcesGbrAfterLatency) {
  ControlNet net;
  const UeId ue = net.cell.AddUe(std::make_unique<StaticItbsChannel>(7));
  const FlowId flow = net.cell.AddFlow(ue, FlowType::kVideo);
  Pcef pcef(net.sim, net.cell, 20 * kMillisecond);
  pcef.EnforceGbr(flow, 1.5e6);
  EXPECT_DOUBLE_EQ(net.cell.flow(flow).gbr_bps, 0.0);  // not yet
  net.sim.RunUntil(30 * kMillisecond);
  EXPECT_DOUBLE_EQ(net.cell.flow(flow).gbr_bps, 1.5e6);
}

TEST(Pcef, SkipsRemovedFlows) {
  ControlNet net;
  const UeId ue = net.cell.AddUe(std::make_unique<StaticItbsChannel>(7));
  const FlowId flow = net.cell.AddFlow(ue, FlowType::kVideo);
  Pcef pcef(net.sim, net.cell, 20 * kMillisecond);
  pcef.EnforceGbr(flow, 1.5e6);
  net.cell.RemoveFlow(flow);
  EXPECT_NO_THROW(net.sim.RunUntil(50 * kMillisecond));
}

TEST(FlarePlugin, RequestsAssignedLevel) {
  const Mpd mpd = MakeMpd(SimulationLadderKbps(), 10.0);
  FlarePlugin plugin(7);
  AbrContext c;
  c.mpd = &mpd;
  EXPECT_EQ(plugin.NextRepresentation(c), 0);  // pre-assignment default
  plugin.SetAssignedLevel(4);
  EXPECT_EQ(plugin.NextRepresentation(c), 4);
  plugin.SetAssignedLevel(99);
  EXPECT_EQ(plugin.NextRepresentation(c), 5);  // clamped to ladder top
}

TEST(FlarePlugin, ClientCapBindsLocally) {
  const Mpd mpd = MakeMpd(SimulationLadderKbps(), 10.0);
  FlarePlugin plugin(7);
  plugin.SetMaxLevel(2);
  plugin.SetAssignedLevel(5);
  AbrContext c;
  c.mpd = &mpd;
  EXPECT_EQ(plugin.NextRepresentation(c), 2);
}

TEST(FlarePlugin, ClientInfoStripsIdentity) {
  const Mpd mpd = MakeMpd({100, 200}, 4.0, 600.0, "top-secret-title");
  FlarePlugin plugin(3);
  plugin.SetMaxLevel(1);
  const ClientInfo info = plugin.BuildClientInfo(mpd);
  EXPECT_EQ(info.flow, 3u);
  EXPECT_EQ(info.ladder_bps.size(), 2u);
  EXPECT_EQ(info.max_level, 1);
  // ClientInfo deliberately has no title/duration fields; the assertion
  // here is structural: only bitrates and opt-in constraints cross.
  EXPECT_FALSE(info.utility.has_value());
}

struct ServerFixture {
  Simulator sim;
  Cell cell;
  Pcrf pcrf;
  Pcef pcef;
  OneApiConfig config;
  ServerFixture()
      : cell(sim, std::make_unique<TwoPhaseGbrScheduler>(), CellConfig{},
             Rng(1)),
        pcef(sim, cell, 10 * kMillisecond) {}
  OneApiServer MakeServer() {
    return OneApiServer(sim, cell, pcrf, pcef, config);
  }
};

TEST(OneApiServer, RegistersClientAfterUplinkLatency) {
  ServerFixture f;
  OneApiServer server = f.MakeServer();
  const UeId ue = f.cell.AddUe(std::make_unique<StaticItbsChannel>(7));
  const FlowId flow = f.cell.AddFlow(ue, FlowType::kVideo);
  FlarePlugin plugin(flow);
  const Mpd mpd = MakeMpd(SimulationLadderKbps(), 10.0);
  server.ConnectVideoClient(&plugin, mpd);
  EXPECT_FALSE(server.controller().HasFlow(flow));
  f.sim.RunUntil(50 * kMillisecond);
  EXPECT_TRUE(server.controller().HasFlow(flow));
  EXPECT_EQ(f.pcrf.CountFlows(FlowType::kVideo), 1);
}

TEST(OneApiServer, BaiAssignsRatesAndEnforcesBothSides) {
  ServerFixture f;
  f.config.bai = FromSeconds(1.0);
  OneApiServer server = f.MakeServer();
  const UeId ue = f.cell.AddUe(std::make_unique<StaticItbsChannel>(7));
  const FlowId flow = f.cell.AddFlow(ue, FlowType::kVideo);
  FlarePlugin plugin(flow);
  const Mpd mpd = MakeMpd(SimulationLadderKbps(), 10.0);
  server.ConnectVideoClient(&plugin, mpd);
  server.Start();
  f.cell.Start();
  f.sim.RunUntil(FromSeconds(1.2));

  // First BAI at t=1 s: lowest rung assigned, GBR set with headroom.
  ASSERT_TRUE(plugin.assigned_level().has_value());
  EXPECT_EQ(*plugin.assigned_level(), 0);
  EXPECT_NEAR(f.cell.flow(flow).gbr_bps, 100e3 * f.config.gbr_headroom,
              1.0);
  EXPECT_EQ(server.solve_times_ms().size(), 1u);
}

TEST(OneApiServer, LevelsClimbOverBais) {
  ServerFixture f;
  f.config.bai = FromSeconds(1.0);
  f.config.params.delta = 1;
  OneApiServer server = f.MakeServer();
  const UeId ue = f.cell.AddUe(std::make_unique<StaticItbsChannel>(7));
  const FlowId flow = f.cell.AddFlow(ue, FlowType::kVideo);
  FlarePlugin plugin(flow);
  const Mpd mpd = MakeMpd(SimulationLadderKbps(), 10.0);
  server.ConnectVideoClient(&plugin, mpd);
  server.Start();
  f.cell.Start();
  // Keep the flow busy so the trace window has realistic e_u samples.
  f.sim.Every(FromSeconds(0.1), FromSeconds(0.1),
              [&] { f.cell.Enqueue(flow, 20'000); });
  f.sim.RunUntil(FromSeconds(30.0));
  EXPECT_GE(server.controller().CurrentLevel(flow), 3);
  EXPECT_EQ(server.solve_times_ms().size(), 30u);
  EXPECT_EQ(server.video_fractions().size(), 30u);
}

TEST(OneApiServer, DisconnectRemovesFlow) {
  ServerFixture f;
  OneApiServer server = f.MakeServer();
  const UeId ue = f.cell.AddUe(std::make_unique<StaticItbsChannel>(7));
  const FlowId flow = f.cell.AddFlow(ue, FlowType::kVideo);
  FlarePlugin plugin(flow);
  server.ConnectVideoClient(&plugin,
                            MakeMpd(SimulationLadderKbps(), 10.0));
  f.sim.RunUntil(FromSeconds(0.1));
  server.DisconnectVideoClient(flow);
  EXPECT_FALSE(server.controller().HasFlow(flow));
  EXPECT_EQ(f.pcrf.CountFlows(FlowType::kVideo), 0);
  EXPECT_NO_THROW(server.RunBai());
}

// Regression: a disconnect issued while the delayed connect callback was
// still in flight used to be overwritten — the callback re-registered the
// flow with the controller and PCRF, leaving a ghost entry pointing at a
// possibly-destroyed plugin.
TEST(OneApiServer, DisconnectDuringConnectLatencyWins) {
  ServerFixture f;
  OneApiServer server = f.MakeServer();
  const UeId ue = f.cell.AddUe(std::make_unique<StaticItbsChannel>(7));
  const FlowId flow = f.cell.AddFlow(ue, FlowType::kVideo);
  FlarePlugin plugin(flow);
  server.ConnectVideoClient(&plugin,
                            MakeMpd(SimulationLadderKbps(), 10.0));
  // Disconnect inside the 20 ms uplink-latency window, before the delayed
  // registration callback has fired.
  f.sim.RunUntil(5 * kMillisecond);
  server.DisconnectVideoClient(flow);
  f.sim.RunUntil(FromSeconds(1.0));
  EXPECT_FALSE(server.controller().HasFlow(flow));
  EXPECT_EQ(f.pcrf.CountFlows(FlowType::kVideo), 0);
  EXPECT_NO_THROW(server.RunBai());
}

// A reconnect issued after a same-window disconnect must still land: only
// the stale in-flight registration is cancelled, not the newer one.
TEST(OneApiServer, ReconnectAfterRacedDisconnectStillRegisters) {
  ServerFixture f;
  OneApiServer server = f.MakeServer();
  const UeId ue = f.cell.AddUe(std::make_unique<StaticItbsChannel>(7));
  const FlowId flow = f.cell.AddFlow(ue, FlowType::kVideo);
  FlarePlugin plugin(flow);
  const Mpd mpd = MakeMpd(SimulationLadderKbps(), 10.0);
  server.ConnectVideoClient(&plugin, mpd);
  f.sim.RunUntil(5 * kMillisecond);
  server.DisconnectVideoClient(flow);
  server.ConnectVideoClient(&plugin, mpd);
  f.sim.RunUntil(FromSeconds(1.0));
  EXPECT_TRUE(server.controller().HasFlow(flow));
  EXPECT_EQ(f.pcrf.CountFlows(FlowType::kVideo), 1);
}

TEST(OneApiServer, DataFlowCountReachesOptimizer) {
  // With many data flows the first assignments should stay low even after
  // several BAIs (log term holds video back on a small cell).
  ServerFixture f;
  f.config.bai = FromSeconds(1.0);
  f.config.params.delta = 1;
  f.config.params.alpha = 4.0;
  OneApiServer server = f.MakeServer();
  const UeId ue = f.cell.AddUe(std::make_unique<StaticItbsChannel>(2));
  const FlowId flow = f.cell.AddFlow(ue, FlowType::kVideo);
  FlarePlugin plugin(flow);
  server.ConnectVideoClient(&plugin,
                            MakeMpd(SimulationLadderKbps(), 10.0));
  for (FlowId d = 100; d < 108; ++d) {
    f.pcrf.RegisterFlow(d, FlowType::kData);
  }
  server.Start();
  f.cell.Start();
  f.sim.RunUntil(FromSeconds(20.0));
  // 1.6 Mbit/s cell, 8 data flows, alpha 4: video must sit near the floor.
  EXPECT_LE(server.controller().CurrentLevel(flow), 1);
}

TEST(OneApiServer, SkimmingClientPinnedToMinimumBitrate) {
  ServerFixture f;
  f.config.bai = FromSeconds(1.0);
  f.config.params.delta = 1;
  OneApiServer server = f.MakeServer();
  const UeId ue = f.cell.AddUe(std::make_unique<StaticItbsChannel>(7));
  const FlowId flow = f.cell.AddFlow(ue, FlowType::kVideo);
  FlarePlugin plugin(flow);
  const Mpd mpd = MakeMpd(SimulationLadderKbps(), 10.0);
  server.ConnectVideoClient(&plugin, mpd);
  server.Start();
  f.cell.Start();
  f.sim.Every(FromSeconds(0.1), FromSeconds(0.1),
              [&] { f.cell.Enqueue(flow, 20'000); });
  f.sim.RunUntil(FromSeconds(15.0));
  const int before = server.controller().CurrentLevel(flow);
  EXPECT_GE(before, 2);  // climbed while watching normally

  // The viewer starts skimming (frequent seeks); the client shares its
  // clickstream state and the server pins the flow to the lowest rung.
  plugin.SetSkimming(true);
  server.UpdateClientInfo(flow, plugin.BuildClientInfo(mpd));
  f.sim.RunUntil(FromSeconds(18.0));
  EXPECT_EQ(server.controller().CurrentLevel(flow), 0);

  // Normal viewing resumes: the flow climbs again.
  plugin.SetSkimming(false);
  server.UpdateClientInfo(flow, plugin.BuildClientInfo(mpd));
  f.sim.RunUntil(FromSeconds(40.0));
  EXPECT_GE(server.controller().CurrentLevel(flow), 2);
}

TEST(OneApiServer, MidSessionCostCapApplies) {
  ServerFixture f;
  f.config.bai = FromSeconds(1.0);
  f.config.params.delta = 1;
  OneApiServer server = f.MakeServer();
  const UeId ue = f.cell.AddUe(std::make_unique<StaticItbsChannel>(7));
  const FlowId flow = f.cell.AddFlow(ue, FlowType::kVideo);
  FlarePlugin plugin(flow);
  const Mpd mpd = MakeMpd(SimulationLadderKbps(), 10.0);
  server.ConnectVideoClient(&plugin, mpd);
  server.Start();
  f.cell.Start();
  f.sim.Every(FromSeconds(0.1), FromSeconds(0.1),
              [&] { f.cell.Enqueue(flow, 20'000); });
  f.sim.RunUntil(FromSeconds(20.0));
  EXPECT_GT(server.controller().CurrentLevel(flow), 1);

  // Mobile-data cost cap kicks in: client limits itself to rung 1.
  plugin.SetMaxLevel(1);
  server.UpdateClientInfo(flow, plugin.BuildClientInfo(mpd));
  f.sim.RunUntil(FromSeconds(25.0));
  EXPECT_LE(server.controller().CurrentLevel(flow), 1);
}

TEST(OneApiServer, UpdateForUnknownFlowIsIgnored) {
  ServerFixture f;
  OneApiServer server = f.MakeServer();
  ClientInfo info;
  info.flow = 42;
  EXPECT_NO_THROW(server.UpdateClientInfo(42, info));
  EXPECT_NO_THROW(f.sim.RunUntil(FromSeconds(1.0)));
}

TEST(OneApiServer, HandlesVanishedCellFlow) {
  ServerFixture f;
  OneApiServer server = f.MakeServer();
  const UeId ue = f.cell.AddUe(std::make_unique<StaticItbsChannel>(7));
  const FlowId flow = f.cell.AddFlow(ue, FlowType::kVideo);
  FlarePlugin plugin(flow);
  server.ConnectVideoClient(&plugin,
                            MakeMpd(SimulationLadderKbps(), 10.0));
  f.sim.RunUntil(FromSeconds(0.1));
  f.cell.RemoveFlow(flow);  // bearer torn down, server not yet told
  EXPECT_NO_THROW(server.RunBai());
}

/// Client info whose utility no solver can take (beta must be positive).
VideoUtilityParams NegativeBeta() {
  VideoUtilityParams utility;
  utility.beta = -1.0;
  return utility;
}

/// BAIs after `after_s` at which `flow` was assigned a rate.
int AssignedBaisAfter(const BaiTraceSink& sink, FlowId flow, double after_s) {
  int n = 0;
  for (const BaiTraceRow& row : sink.bai_rows()) {
    if (row.flow == flow && row.t_s > after_s) ++n;
  }
  return n;
}

// Regression: a connect whose utility the solver rejects used to register
// (or, with admission attached, reach the admission solve) and then throw
// out of Simulator::RunUntil. It must resolve as rejected, leave no
// controller, PCRF or admission state, and the cell's other flow must keep
// its assignments.
void ExpectBadUtilityConnectRejected(AdmissionController* admission) {
  ServerFixture f;
  f.config.bai = FromSeconds(1.0);
  OneApiServer server = f.MakeServer();
  BaiTraceSink sink;
  server.SetObservers(nullptr, nullptr, {.bai_trace = &sink});
  server.SetAdmissionController(admission);
  std::vector<std::pair<FlowId, bool>> verdicts;
  server.SetAdmissionCallback([&verdicts](FlowId flow, bool admitted) {
    verdicts.emplace_back(flow, admitted);
  });
  const Mpd mpd = MakeMpd(SimulationLadderKbps(), 10.0);
  const FlowId good = f.cell.AddFlow(
      f.cell.AddUe(std::make_unique<StaticItbsChannel>(7)), FlowType::kVideo);
  const FlowId bad = f.cell.AddFlow(
      f.cell.AddUe(std::make_unique<StaticItbsChannel>(7)), FlowType::kVideo);
  FlarePlugin good_plugin(good);
  FlarePlugin bad_plugin(bad);
  bad_plugin.SetUtility(NegativeBeta());
  server.ConnectVideoClient(&good_plugin, mpd);
  server.ConnectVideoClient(&bad_plugin, mpd);
  server.Start();
  f.cell.Start();

  ASSERT_NO_THROW(f.sim.RunUntil(FromSeconds(5.5)));
  const std::vector<std::pair<FlowId, bool>> want = {{good, true},
                                                     {bad, false}};
  EXPECT_EQ(verdicts, want);
  EXPECT_FALSE(server.HasClient(bad));
  EXPECT_FALSE(server.controller().HasFlow(bad));
  EXPECT_FALSE(f.pcrf.Knows(bad));
  EXPECT_EQ(f.pcrf.CountFlows(FlowType::kVideo), 1);
  if (admission != nullptr) {
    EXPECT_EQ(admission->admitted_flows(), 1u);
  }
  EXPECT_EQ(AssignedBaisAfter(sink, good, 0.0), 5);
  EXPECT_EQ(AssignedBaisAfter(sink, bad, 0.0), 0);
  EXPECT_TRUE(good_plugin.assigned_level().has_value());
  EXPECT_FALSE(bad_plugin.assigned_level().has_value());
}

TEST(OneApiServer, BadUtilityConnectResolvesAsRejected) {
  ExpectBadUtilityConnectRejected(nullptr);
}

TEST(OneApiServer, BadUtilityConnectNeverReachesAdmission) {
  AdmissionConfig config;
  config.policy = AdmissionPolicy::kUtilityDrop;
  AdmissionController admission(config);
  ExpectBadUtilityConnectRejected(&admission);
  EXPECT_EQ(admission.considered(), 1u);  // the good flow only
}

// Regression: a refresh carrying a utility the solver rejects used to be
// applied and throw out of the next BAI. It must be dropped: the flow's
// previous constraints stand, and both flows keep their assignments.
TEST(OneApiServer, BadUtilityRefreshIsDropped) {
  ServerFixture f;
  f.config.bai = FromSeconds(1.0);
  f.config.params.delta = 1;
  OneApiServer server = f.MakeServer();
  BaiTraceSink sink;
  server.SetObservers(nullptr, nullptr, {.bai_trace = &sink});
  const Mpd mpd = MakeMpd(SimulationLadderKbps(), 10.0);
  const FlowId capped = f.cell.AddFlow(
      f.cell.AddUe(std::make_unique<StaticItbsChannel>(12)),
      FlowType::kVideo);
  const FlowId other = f.cell.AddFlow(
      f.cell.AddUe(std::make_unique<StaticItbsChannel>(12)),
      FlowType::kVideo);
  FlarePlugin capped_plugin(capped);
  FlarePlugin other_plugin(other);
  capped_plugin.SetMaxLevel(1);
  server.ConnectVideoClient(&capped_plugin, mpd);
  server.ConnectVideoClient(&other_plugin, mpd);
  server.Start();
  f.cell.Start();
  f.sim.Every(FromSeconds(0.1), FromSeconds(0.1), [&] {
    f.cell.Enqueue(capped, 20'000);
    f.cell.Enqueue(other, 20'000);
  });
  f.sim.RunUntil(FromSeconds(10.5));
  EXPECT_EQ(server.controller().CurrentLevel(capped), 1);

  // The refresh would lift the cap, but its utility is unusable: the
  // whole update is dropped.
  capped_plugin.SetMaxLevel(std::nullopt);
  capped_plugin.SetUtility(NegativeBeta());
  server.UpdateClientInfo(capped, capped_plugin.BuildClientInfo(mpd));
  ASSERT_NO_THROW(f.sim.RunUntil(FromSeconds(30.5)));
  EXPECT_EQ(server.controller().CurrentLevel(capped), 1);
  EXPECT_GT(server.controller().CurrentLevel(other), 1);
  EXPECT_EQ(AssignedBaisAfter(sink, capped, 10.5), 20);
  EXPECT_EQ(AssignedBaisAfter(sink, other, 10.5), 20);
}

// --- One server per cell over a shared PCRF (Section II-A: "a single
// OneAPI server can manage multiple BSs, though the bitrates are
// calculated independently for each network cell").

/// A cell with one static-channel UE and its own PCEF and server,
/// registering flows under `tag` in the shared PCRF.
struct CellControl {
  std::unique_ptr<Cell> cell;
  std::unique_ptr<Pcef> pcef;
  std::unique_ptr<OneApiServer> server;
};

CellControl MakeCellControl(Simulator& sim, Pcrf& pcrf, OneApiConfig config,
                            Pcrf::CellTag tag, int itbs) {
  CellControl c;
  c.cell = std::make_unique<Cell>(
      sim, std::make_unique<TwoPhaseGbrScheduler>(), CellConfig{}, Rng(1));
  c.cell->AddUe(std::make_unique<StaticItbsChannel>(itbs));
  c.pcef = std::make_unique<Pcef>(sim, *c.cell, config.downlink_latency);
  config.cell_tag = tag;
  c.server =
      std::make_unique<OneApiServer>(sim, *c.cell, pcrf, *c.pcef, config);
  return c;
}

TEST(OneApiServer, PerCellServersComputeRatesIndependently) {
  Simulator sim;
  Pcrf pcrf;
  OneApiConfig config;
  config.bai = FromSeconds(1.0);
  config.params.delta = 1;
  CellControl rich = MakeCellControl(sim, pcrf, config, 0, 20);  // 440 b/RB
  CellControl poor = MakeCellControl(sim, pcrf, config, 1, 0);   // 16 b/RB

  const Mpd mpd = MakeMpd(SimulationLadderKbps(), 10.0);
  const FlowId rich_flow = rich.cell->AddFlow(0, FlowType::kVideo);
  const FlowId poor_flow = poor.cell->AddFlow(0, FlowType::kVideo);
  FlarePlugin rich_plugin(rich_flow);
  FlarePlugin poor_plugin(poor_flow);
  rich.server->ConnectVideoClient(&rich_plugin, mpd);
  poor.server->ConnectVideoClient(&poor_plugin, mpd);

  rich.server->Start();
  poor.server->Start();
  rich.cell->Start();
  poor.cell->Start();
  // Keep both flows lightly loaded so trace windows have data.
  sim.Every(FromSeconds(0.1), FromSeconds(0.1), [&] {
    rich.cell->Enqueue(rich_flow, 30'000);
    poor.cell->Enqueue(poor_flow, 2'000);
  });
  sim.RunUntil(FromSeconds(60.0));

  // The rich cell's client climbs to the top rungs; the poor cell's is
  // capacity-capped at rung 2 (1000 Kbps would cost 62.5k RB/s of the 50k
  // available at 16 bits/RB).
  EXPECT_GE(rich.server->controller().CurrentLevel(rich_flow), 4);
  EXPECT_LE(poor.server->controller().CurrentLevel(poor_flow), 2);
  // Both cells enforced their GBRs.
  EXPECT_GT(rich.cell->flow(rich_flow).gbr_bps,
            poor.cell->flow(poor_flow).gbr_bps);
}

TEST(OneApiServer, SharedPcrfScopesFlowsByCell) {
  Simulator sim;
  Pcrf pcrf;
  CellControl a = MakeCellControl(sim, pcrf, OneApiConfig{}, 0, 10);
  CellControl b = MakeCellControl(sim, pcrf, OneApiConfig{}, 1, 10);

  const Mpd mpd = MakeMpd(SimulationLadderKbps(), 10.0);
  const FlowId flow_a = a.cell->AddFlow(0, FlowType::kVideo);
  const FlowId flow_b = b.cell->AddFlow(0, FlowType::kVideo);
  FlarePlugin plugin_a(flow_a);
  FlarePlugin plugin_b(flow_b);
  a.server->ConnectVideoClient(&plugin_a, mpd);
  b.server->ConnectVideoClient(&plugin_b, mpd);
  sim.RunUntil(FromSeconds(0.1));

  // Flow ids collide across cells (both cells number from 1); the PCRF
  // cell tags keep them distinct.
  EXPECT_EQ(flow_a, flow_b);
  EXPECT_EQ(pcrf.CountFlows(FlowType::kVideo, 0), 1);
  EXPECT_EQ(pcrf.CountFlows(FlowType::kVideo, 1), 1);
  EXPECT_EQ(pcrf.CountFlowsAllCells(FlowType::kVideo), 2);

  a.server->DisconnectVideoClient(flow_a);
  EXPECT_EQ(pcrf.CountFlows(FlowType::kVideo, 0), 0);
  EXPECT_EQ(pcrf.CountFlows(FlowType::kVideo, 1), 1);
  EXPECT_TRUE(b.server->HasClient(flow_b));
}

TEST(OneApiServer, ServerStartedAfterOthersIsServed) {
  Simulator sim;
  Pcrf pcrf;
  OneApiConfig config;
  config.bai = FromSeconds(1.0);
  CellControl first = MakeCellControl(sim, pcrf, config, 0, 10);
  first.server->Start();
  sim.RunUntil(FromSeconds(1.5));

  CellControl late = MakeCellControl(sim, pcrf, config, 1, 10);
  const FlowId flow = late.cell->AddFlow(0, FlowType::kVideo);
  FlarePlugin plugin(flow);
  late.server->ConnectVideoClient(&plugin,
                                  MakeMpd(SimulationLadderKbps(), 10.0));
  late.server->Start();
  late.cell->Start();
  sim.RunUntil(FromSeconds(3.0));
  EXPECT_TRUE(plugin.assigned_level().has_value());
}

// A migration whose session tears down while the target cell's connect is
// still inside the uplink latency: the target server's disconnect cancels
// it, and neither cell keeps controller or PCRF state.
TEST(OneApiServer, DisconnectCancelsInFlightMigration) {
  Simulator sim;
  Pcrf pcrf;
  CellControl a = MakeCellControl(sim, pcrf, OneApiConfig{}, 0, 10);
  CellControl b = MakeCellControl(sim, pcrf, OneApiConfig{}, 1, 10);

  const Mpd mpd = MakeMpd(SimulationLadderKbps(), 10.0);
  const FlowId flow = a.cell->AddFlow(0, FlowType::kVideo);
  FlarePlugin plugin(flow);
  a.server->ConnectVideoClient(&plugin, mpd);
  sim.RunUntil(FromSeconds(0.1));
  a.server->DisconnectVideoClient(flow);
  b.server->ConnectVideoClient(&plugin, mpd);
  b.server->DisconnectVideoClient(flow);
  sim.RunUntil(FromSeconds(0.3));

  EXPECT_EQ(pcrf.CountFlows(FlowType::kVideo, 0), 0);
  EXPECT_EQ(pcrf.CountFlows(FlowType::kVideo, 1), 0);
  EXPECT_FALSE(a.server->HasClient(flow));
  EXPECT_FALSE(b.server->HasClient(flow));
  EXPECT_EQ(b.server->pending_connects(), 0u);
}

}  // namespace
}  // namespace flare
