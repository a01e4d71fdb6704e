// Example: one OneAPI control plane, two cells, one car.
//
// A vehicle streams FLARE-managed video while driving 3 km across two
// eNodeBs 1600 m apart. Each cell has its own OneApiServer and PCEF over
// one shared PCRF ("the bitrates are calculated independently for each
// network cell", Section II-A). The handover manager watches per-cell
// SINR (A3 rule); on handover, the flow is deregistered from the source
// cell's server, the bearer is torn down there and recreated in the
// target, the session is rebound, and the target cell's server takes
// over rate adaptation. A 10 s timeline shows the serving cell, the
// SINRs, and the selected bitrate.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>

#include "has/video_session.h"
#include "lte/gbr_scheduler.h"
#include "net/handover.h"
#include "net/oneapi_server.h"
#include "net/pcef.h"
#include "net/pcrf.h"
#include "sim/simulator.h"
#include "transport/transport_host.h"

namespace {

using namespace flare;

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

}  // namespace

int main() {
  Simulator sim;
  Pcrf pcrf;
  OneApiConfig oneapi_config;
  oneapi_config.bai = FromSeconds(1.0);
  oneapi_config.params.delta = 2;

  RadioConfig radio;
  radio.shadowing_stddev_db = 0.0;  // scripted geometry, quiet radio
  radio.fading_stddev_db = 1.0;
  const SimTime trip = FromSeconds(150.0);
  auto drive = std::make_shared<LinearDrive>(Position{-700.0, 0.0},
                                             Position{2300.0, 0.0}, trip);

  Cell cell_a(sim, std::make_unique<TwoPhaseGbrScheduler>(), CellConfig{},
              Rng(1));
  Cell cell_b(sim, std::make_unique<TwoPhaseGbrScheduler>(), CellConfig{},
              Rng(2));
  // One server per cell, each registering its flows under its own PCRF
  // cell tag.
  Pcef pcef_a(sim, cell_a, oneapi_config.downlink_latency);
  Pcef pcef_b(sim, cell_b, oneapi_config.downlink_latency);
  OneApiConfig config_a = oneapi_config;
  config_a.cell_tag = 0;
  OneApiConfig config_b = oneapi_config;
  config_b.cell_tag = 1;
  OneApiServer server_a(sim, cell_a, pcrf, pcef_a, config_a);
  OneApiServer server_b(sim, cell_b, pcrf, pcef_b, config_b);
  const UeId ue_a = cell_a.AddUe(std::make_unique<FadedMobilityChannel>(
      drive, radio, Rng(3), Position{0.0, 0.0}));
  const UeId ue_b = cell_b.AddUe(std::make_unique<FadedMobilityChannel>(
      drive, radio, Rng(4), Position{1600.0, 0.0}));
  FadedMobilityChannel probe_a(drive, radio, Rng(5), Position{0.0, 0.0});
  FadedMobilityChannel probe_b(drive, radio, Rng(6), Position{1600.0, 0.0});

  TransportHost host_a(sim, cell_a);
  TransportHost host_b(sim, cell_b);

  const Mpd mpd = MakeMpd(SimulationLadderKbps(), 2.0);
  TcpFlow& flow_a = host_a.CreateFlow(ue_a, FlowType::kVideo);
  auto http = std::make_unique<HttpClient>(sim, flow_a);
  auto plugin = std::make_unique<FlarePlugin>(flow_a.id());
  FlarePlugin* plugin_ptr = plugin.get();
  VideoSession session(sim, *http, mpd, std::move(plugin),
                       VideoSessionConfig{});
  server_a.ConnectVideoClient(plugin_ptr, mpd);
  session.Start(0);

  HandoverManager manager(sim, HandoverConfig{});
  manager.AddUe({&probe_a, &probe_b}, 0);
  std::unique_ptr<HttpClient> next_http;
  std::unique_ptr<FlarePlugin> next_plugin;
  manager.SetOnHandover([&](int, int, int) {
    std::printf("  >> handover at t=%.1f s: cell A -> cell B\n",
                ToSeconds(sim.Now()));
    server_a.DisconnectVideoClient(flow_a.id());
    host_a.DestroyFlow(flow_a.id());
    TcpFlow& flow_b = host_b.CreateFlow(ue_b, FlowType::kVideo);
    next_http = std::make_unique<HttpClient>(sim, flow_b);
    next_plugin = std::make_unique<FlarePlugin>(flow_b.id());
    server_b.ConnectVideoClient(next_plugin.get(), mpd);
    session.RebindHttp(*next_http);
  });

  std::printf("multicell_handover: 3 km drive across two FLARE cells\n\n");
  std::printf("%6s %6s %10s %10s %12s %10s\n", "t(s)", "cell",
              "SINR A(dB)", "SINR B(dB)", "rate(Kbps)", "buffer(s)");
  sim.Every(FromSeconds(10.0), FromSeconds(10.0), [&] {
    const auto& bitrates = session.player().segment_bitrates();
    session.player().AdvanceTo(sim.Now());
    std::printf("%6.0f %6s %10.1f %10.1f %12.0f %10.1f\n",
                ToSeconds(sim.Now()),
                manager.ServingCell(0) == 0 ? "A" : "B",
                probe_a.SinrDbAt(sim.Now()), probe_b.SinrDbAt(sim.Now()),
                bitrates.empty() ? 0.0 : bitrates.back() / 1000.0,
                session.player().buffer_s());
  });

  manager.Start();
  server_a.Start();
  server_b.Start();
  cell_a.Start();
  cell_b.Start();
  sim.RunUntil(trip);

  session.player().AdvanceTo(sim.Now());
  std::printf(
      "\nsegments %d, rebuffering %.1f s, handovers %d — the session\n"
      "survives the cell change; the target cell's OneAPI controller\n"
      "resumes rate adaptation within one BAI.\n",
      session.segments_completed(), session.player().rebuffer_time_s(),
      manager.handovers_executed());
  return 0;
}
