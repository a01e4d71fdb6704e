// Tests for the networked OneAPI control plane (src/svc): the frame
// layer's incremental parser, the live OneApiService against real
// loopback sockets — including the acceptance bar that assignments seen
// on the wire are byte-identical to an in-process OneApiServer run over
// the same schedule — typed overload rejects, bounded-outbox drops for
// slow clients, and the deterministic load generator.
#include <gtest/gtest.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <atomic>
#include <cstdio>

#include "churn/admission.h"
#include "fd_limit.h"
#include "has/mpd.h"
#include "obs/flight_recorder.h"
#include "util/json.h"
#include "lte/cell.h"
#include "lte/gbr_scheduler.h"
#include "lte/tbs_table.h"
#include "net/flare_plugin.h"
#include "net/messages.h"
#include "net/oneapi_server.h"
#include "net/pcef.h"
#include "net/pcrf.h"
#include "netio/http_client.h"
#include "obs/bai_trace.h"
#include "sim/simulator.h"
#include "svc/frame.h"
#include "svc/loadgen.h"
#include "svc/oneapi_service.h"
#include "util/rng.h"

namespace flare {
namespace {

using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------
// Frame layer
// ---------------------------------------------------------------------

TEST(Frame, RoundTripsCoalescedFrames) {
  std::string buffer;
  AppendFrame(FrameType::kClientInfo, "type=client_info;flow=1", &buffer);
  AppendFrame(FrameType::kBye, "", &buffer);
  AppendFrame(FrameType::kAssignment, "payload", &buffer);
  Frame frame;
  ASSERT_EQ(ParseFrame(&buffer, &frame), FrameParseStatus::kFrame);
  EXPECT_EQ(frame.type, FrameType::kClientInfo);
  EXPECT_EQ(frame.payload, "type=client_info;flow=1");
  ASSERT_EQ(ParseFrame(&buffer, &frame), FrameParseStatus::kFrame);
  EXPECT_EQ(frame.type, FrameType::kBye);
  EXPECT_TRUE(frame.payload.empty());
  ASSERT_EQ(ParseFrame(&buffer, &frame), FrameParseStatus::kFrame);
  EXPECT_EQ(frame.type, FrameType::kAssignment);
  EXPECT_EQ(frame.payload, "payload");
  EXPECT_EQ(ParseFrame(&buffer, &frame), FrameParseStatus::kNeedMore);
  EXPECT_TRUE(buffer.empty());
}

TEST(Frame, ParsesByteByByteArrival) {
  const std::string wire =
      EncodeFrame(FrameType::kStatsReport, "type=stats_report;flow=2");
  std::string buffer;
  Frame frame;
  for (std::size_t i = 0; i + 1 < wire.size(); ++i) {
    buffer.push_back(wire[i]);
    ASSERT_EQ(ParseFrame(&buffer, &frame), FrameParseStatus::kNeedMore)
        << "premature frame after " << (i + 1) << " bytes";
  }
  buffer.push_back(wire.back());
  ASSERT_EQ(ParseFrame(&buffer, &frame), FrameParseStatus::kFrame);
  EXPECT_EQ(frame.type, FrameType::kStatsReport);
  EXPECT_EQ(frame.payload, "type=stats_report;flow=2");
}

TEST(Frame, RejectsMalformedStreams) {
  Frame frame;
  // Zero length: a frame always carries at least the type byte.
  std::string zero("\x00\x00\x00\x00", 4);
  EXPECT_EQ(ParseFrame(&zero, &frame), FrameParseStatus::kError);
  // Oversized length.
  std::string big;
  const std::uint32_t huge = kMaxFramePayload + 2;
  for (int i = 0; i < 4; ++i) {
    big.push_back(static_cast<char>((huge >> (8 * i)) & 0xff));
  }
  EXPECT_EQ(ParseFrame(&big, &frame), FrameParseStatus::kError);
  // Unknown type byte.
  std::string bad_type("\x01\x00\x00\x00\x7f", 5);
  EXPECT_EQ(ParseFrame(&bad_type, &frame), FrameParseStatus::kError);
  // kError must leave the buffer untouched (caller drops the peer).
  EXPECT_EQ(bad_type.size(), 5u);
}

TEST(Frame, GarbageNeverCrashesParser) {
  Rng rng(99);
  for (int trial = 0; trial < 300; ++trial) {
    std::string buffer;
    const int len = static_cast<int>(rng.UniformInt(0, 64));
    for (int i = 0; i < len; ++i) {
      buffer.push_back(static_cast<char>(rng.UniformInt(0, 255)));
    }
    Frame frame;
    // Drain until the parser wants more bytes or poisons the stream.
    for (int steps = 0; steps < 100; ++steps) {
      const FrameParseStatus status = ParseFrame(&buffer, &frame);
      if (status != FrameParseStatus::kFrame) break;
    }
  }
}

TEST(Frame, WelcomeAndOverloadPayloadsRoundTrip) {
  EXPECT_EQ(DecodeWelcome(EncodeWelcome(77)).value_or(0), 77u);
  EXPECT_FALSE(DecodeWelcome("flow=abc").has_value());
  OverloadInfo info;
  info.reason = "admission";
  info.policy = "capacity-threshold";
  info.value = 0.95;
  const auto decoded = DecodeOverload(EncodeOverload(info));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->reason, "admission");
  EXPECT_EQ(decoded->policy, "capacity-threshold");
  EXPECT_DOUBLE_EQ(decoded->value, 0.95);
  EXPECT_FALSE(DecodeOverload("").has_value());
}

// ---------------------------------------------------------------------
// A minimal blocking protocol client for driving the live service.
// ---------------------------------------------------------------------

class TestClient {
 public:
  ~TestClient() { Close(); }

  bool Connect(std::uint16_t port, int timeout_ms = 2000) {
    fd_ = BlockingConnect("127.0.0.1", port, timeout_ms);
    return fd_ >= 0;
  }

  bool SendFrame(FrameType type, const std::string& payload,
                 const TraceContext* trace = nullptr) {
    return SendRaw(EncodeFrame(type, payload, trace));
  }

  /// Send pre-built wire bytes (lets tests hand-craft extension frames).
  bool SendRaw(const std::string& wire) {
    std::size_t off = 0;
    const auto deadline = Clock::now() + std::chrono::seconds(2);
    while (off < wire.size()) {
      pollfd pfd{fd_, POLLOUT, 0};
      if (poll(&pfd, 1, RemainingMs(deadline)) <= 0) return false;
      const ssize_t n =
          send(fd_, wire.data() + off, wire.size() - off, MSG_NOSIGNAL);
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK ||
                    errno == EINTR)) {
        continue;
      }
      if (n <= 0) return false;
      off += static_cast<std::size_t>(n);
    }
    return true;
  }

  std::optional<Frame> ReadFrame(int timeout_ms = 2000) {
    const auto deadline =
        Clock::now() + std::chrono::milliseconds(timeout_ms);
    Frame frame;
    for (;;) {
      const FrameParseStatus status = ParseFrame(&buffer_, &frame);
      if (status == FrameParseStatus::kFrame) return frame;
      if (status == FrameParseStatus::kError) return std::nullopt;
      pollfd pfd{fd_, POLLIN, 0};
      if (poll(&pfd, 1, RemainingMs(deadline)) <= 0) return std::nullopt;
      char buf[4096];
      const ssize_t n = recv(fd_, buf, sizeof(buf), 0);
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK ||
                    errno == EINTR)) {
        continue;
      }
      if (n <= 0) return std::nullopt;
      buffer_.append(buf, static_cast<std::size_t>(n));
    }
  }

  void Close() {
    if (fd_ >= 0) close(fd_);
    fd_ = -1;
  }

 private:
  static int RemainingMs(Clock::time_point deadline) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                          deadline - Clock::now())
                          .count();
    return left > 0 ? static_cast<int>(left) : 0;
  }

  int fd_ = -1;
  std::string buffer_;
};

/// Spin until `predicate` holds (the IO thread owns the state) or the
/// timeout expires; returns the final predicate value.
template <typename Pred>
bool WaitFor(Pred predicate, int timeout_ms = 2000) {
  const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
  while (!predicate()) {
    if (Clock::now() >= deadline) return predicate();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

/// The fan-out cases run at several pinned slice counts: every count must
/// write the same bytes, the same writes and the same drops.
class SlicedFanout : public testing::TestWithParam<int> {};

std::string SliceName(const testing::TestParamInfo<int>& info) {
  return "slices" + std::to_string(info.param);
}

INSTANTIATE_TEST_SUITE_P(OneApiService, SlicedFanout,
                         testing::Values(1, 2, 4), SliceName);

// ---------------------------------------------------------------------
// Wire vs in-process equivalence (the acceptance bar)
// ---------------------------------------------------------------------

TEST_P(SlicedFanout, WireAssignmentsMatchInProcessServer) {
  // Reference: the in-simulator OneApiServer over video flows with
  // distinct static channels, through a whole session lifecycle: three
  // flows connect, two more arrive after the first BAI (the capacity
  // threshold admits one and blocks the other), one flow takes a rung cap,
  // another skims and stops skimming, and one departs. The cell is never
  // started, so every BAI observes the idle-flow fallback — the channel's
  // nominal bits-per-RB — which the wire clients below reproduce exactly
  // as stats reports (tx_bytes = e, rbs = 8 => e_u = e).
  constexpr int kBais = 10;
  // Flows 1-3 connect up front; flows 4 and 5 arrive before BAI 1 on UEs
  // whose nominal bits-per-RB is the daemon's connect-time estimate, so
  // both sides price them identically.
  constexpr int kArrivalItbs = 9;
  const std::vector<int> kItbs = {12, 15, 18, kArrivalItbs, kArrivalItbs};
  constexpr std::size_t kInitial = 3;
  const Mpd mpd = MakeMpd(SimulationLadderKbps(), 10.0);

  // After BAI 0 every estimate is the flow's nominal value: flows 1-3
  // project a floor-rung RB fraction of 0.023, flow 4 takes it to 0.037
  // and flow 5 would take it to 0.052. At connect the daemon prices flows
  // 1-3 at its default instead (0.044 for all three), still admitted.
  AdmissionConfig admission_config;
  admission_config.policy = AdmissionPolicy::kCapacityThreshold;
  admission_config.capacity_threshold = 0.048;
  FlareParams params = OneApiServiceOptions::BatchedParams();
  params.delta = 1;  // rungs move every BAI, so caps and skimming bind

  Simulator sim;
  Cell cell(sim, std::make_unique<TwoPhaseGbrScheduler>(), CellConfig{},
            Rng(1));
  Pcrf pcrf;
  Pcef pcef(sim, cell, 0);
  OneApiConfig config;
  config.uplink_latency = 0;
  config.downlink_latency = 0;
  config.deterministic_timing = true;
  config.params = params;
  OneApiServer server(sim, cell, pcrf, pcef, config);
  AdmissionController admission(admission_config);
  server.SetAdmissionController(&admission);
  BaiTraceSink sink;
  server.SetObservers(nullptr, nullptr, {.bai_trace = &sink});
  std::map<FlowId, bool> sim_verdicts;
  server.SetAdmissionCallback([&sim_verdicts](FlowId flow, bool admitted) {
    sim_verdicts[flow] = admitted;
  });
  const auto land = [&sim] { sim.RunUntil(sim.Now() + kMillisecond); };

  std::vector<FlowId> flows;
  std::vector<std::unique_ptr<FlarePlugin>> plugins;
  std::vector<std::string> info_wires;
  for (int itbs : kItbs) {
    const UeId ue = cell.AddUe(std::make_unique<StaticItbsChannel>(itbs));
    const FlowId flow = cell.AddFlow(ue, FlowType::kVideo);
    flows.push_back(flow);
    plugins.push_back(std::make_unique<FlarePlugin>(flow));
    info_wires.push_back(
        EncodeClientInfo(plugins.back()->BuildClientInfo(mpd)));
  }
  for (std::size_t i = 0; i < kInitial; ++i) {
    server.ConnectVideoClient(plugins[i].get(), mpd);
  }
  land();

  // Lifecycle events, applied just before the named BAI. A refresh
  // carries the plugin's ClientInfo bytes as they stand at that point.
  struct Event {
    int bai;
    std::size_t flow_index;
    enum { kArrive, kRefresh, kDepart } kind;
    std::string wire;
  };
  std::vector<Event> events;
  const auto refresh = [&](std::size_t i) {
    return EncodeClientInfo(plugins[i]->BuildClientInfo(mpd));
  };
  std::vector<std::size_t> rows_end;  // sink rows after each BAI
  for (int bai = 0; bai < kBais; ++bai) {
    if (bai == 1) {
      for (std::size_t i = kInitial; i < flows.size(); ++i) {
        events.push_back({bai, i, Event::kArrive, info_wires[i]});
        server.ConnectVideoClient(plugins[i].get(), mpd);
      }
    } else if (bai == 3) {
      plugins[0]->SetMaxLevel(1);
      events.push_back({bai, 0, Event::kRefresh, refresh(0)});
    } else if (bai == 4) {
      plugins[1]->SetSkimming(true);
      events.push_back({bai, 1, Event::kRefresh, refresh(1)});
    } else if (bai == 5) {
      events.push_back({bai, 2, Event::kDepart, ""});
      server.DisconnectVideoClient(flows[2]);
    } else if (bai == 7) {
      plugins[1]->SetSkimming(false);
      events.push_back({bai, 1, Event::kRefresh, refresh(1)});
    }
    for (const Event& event : events) {
      if (event.bai == bai && event.kind == Event::kRefresh) {
        server.UpdateClientInfo(flows[event.flow_index],
                                *DecodeClientInfo(event.wire));
      }
    }
    land();
    server.RunBai();
    rows_end.push_back(sink.bai_rows().size());
  }
  const std::map<FlowId, bool> want_verdicts = {
      {flows[0], true}, {flows[1], true}, {flows[2], true},
      {flows[3], true}, {flows[4], false}};
  ASSERT_EQ(sim_verdicts, want_verdicts);
  // The cap and the skimming pin both bound in the reference run.
  const auto level_at = [&](int bai, FlowId flow) {
    for (std::size_t r = bai == 0 ? 0 : rows_end[bai - 1]; r < rows_end[bai];
         ++r) {
      if (sink.bai_rows()[r].flow == flow) {
        return sink.bai_rows()[r].enforced_level;
      }
    }
    return -1;
  };
  // Flow 1 holds at its cap while flow 4, on a poorer channel, climbs
  // past it; flow 2 drops to the floor while it skims.
  EXPECT_EQ(level_at(kBais - 1, flows[0]), 1);
  EXPECT_GT(level_at(kBais - 1, flows[3]), 1);
  EXPECT_GT(level_at(3, flows[1]), 0);
  EXPECT_EQ(level_at(4, flows[1]), 0);
  EXPECT_GT(level_at(kBais - 1, flows[1]), 0);
  EXPECT_EQ(level_at(5, flows[2]), -1);

  // Wire: the standalone service with the identical controller and
  // admission parameters, driven tick by tick. Every client sends the
  // exact ClientInfo bytes the reference plugins sent.
  OneApiServiceOptions options;
  options.bai_ms = 0;  // ticks only via TriggerTick
  options.num_rbs = cell.num_rbs();
  options.deterministic_timing = true;
  options.params = params;
  options.admission = admission_config;
  options.default_bits_per_rb = TbsBitsPerPrb(kArrivalItbs);
  options.fanout_slices = GetParam();
  OneApiService service(options);
  ASSERT_TRUE(service.Start());

  std::map<std::size_t, std::unique_ptr<TestClient>> clients;  // live
  std::map<FlowId, bool> wire_verdicts;
  const auto connect = [&](std::size_t i) {
    auto client = std::make_unique<TestClient>();
    ASSERT_TRUE(client->Connect(service.port()));
    ASSERT_TRUE(client->SendFrame(FrameType::kClientInfo, info_wires[i]));
    const auto reply = client->ReadFrame();
    ASSERT_TRUE(reply.has_value());
    if (reply->type == FrameType::kWelcome) {
      EXPECT_EQ(DecodeWelcome(reply->payload).value_or(0), flows[i]);
      wire_verdicts[flows[i]] = true;
      clients[i] = std::move(client);
      return;
    }
    ASSERT_EQ(reply->type, FrameType::kOverload);
    const auto overload = DecodeOverload(reply->payload);
    ASSERT_TRUE(overload.has_value());
    EXPECT_EQ(overload->reason, "admission");
    EXPECT_EQ(overload->policy, "capacity-threshold");
    EXPECT_GT(overload->value, admission_config.capacity_threshold);
    wire_verdicts[flows[i]] = false;
  };
  for (std::size_t i = 0; i < kInitial; ++i) connect(i);

  // One reference BAI at a time: events, stats in, tick, one assignment
  // out per live flow, compared byte-for-byte against the re-encoded trace
  // row of that BAI.
  std::uint64_t infos = kInitial;
  std::uint64_t stats = 0;
  for (int bai = 0; bai < kBais; ++bai) {
    for (const Event& event : events) {
      if (event.bai != bai) continue;
      if (event.kind == Event::kArrive) {
        connect(event.flow_index);
        ++infos;
      } else if (event.kind == Event::kRefresh) {
        ASSERT_TRUE(clients.at(event.flow_index)
                        ->SendFrame(FrameType::kClientInfo, event.wire));
        ++infos;
      } else {
        ASSERT_TRUE(
            clients.at(event.flow_index)->SendFrame(FrameType::kBye, ""));
        clients.erase(event.flow_index);
      }
    }
    ASSERT_TRUE(WaitFor([&] {
      return service.infos_received() == infos &&
             service.sessions() == clients.size();
    })) << "events did not land before tick " << bai;
    for (const auto& [i, client] : clients) {
      FlowStatsReport report;
      report.flow = flows[i];
      report.type = FlowType::kVideo;
      report.tx_bytes =
          static_cast<std::uint64_t>(TbsBitsPerPrb(kItbs[i]));
      report.rbs = 8;
      ASSERT_TRUE(client->SendFrame(FrameType::kStatsReport,
                                    EncodeStatsReport(report)));
      ++stats;
    }
    ASSERT_TRUE(WaitFor([&] { return service.stats_received() >= stats; }))
        << "stats did not land before tick " << bai;
    service.TriggerTick();

    const std::size_t begin = bai == 0 ? 0 : rows_end[bai - 1];
    ASSERT_EQ(rows_end[bai] - begin, clients.size()) << "bai " << bai;
    std::size_t row_index = begin;
    for (const auto& [i, client] : clients) {  // ascending FlowId
      const auto frame = client->ReadFrame();
      ASSERT_TRUE(frame.has_value()) << "no assignment, bai " << bai;
      ASSERT_EQ(frame->type, FrameType::kAssignment);
      const BaiTraceRow& row = sink.bai_rows()[row_index++];
      ASSERT_EQ(row.flow, flows[i]);
      RateAssignmentMsg msg;
      msg.flow = row.flow;
      msg.level = row.enforced_level;
      msg.rate_bps = row.rate_bps;
      msg.gbr_bps = row.gbr_bps;
      EXPECT_EQ(frame->payload, EncodeRateAssignment(msg))
          << "wire assignment diverged from in-process run at bai " << bai
          << " flow " << flows[i];
    }
  }
  EXPECT_EQ(wire_verdicts, sim_verdicts);
  EXPECT_EQ(service.admission_rejects(), 1u);

  for (auto& [i, client] : clients) {
    EXPECT_TRUE(client->SendFrame(FrameType::kBye, ""));
  }
  EXPECT_TRUE(WaitFor([&] { return service.sessions() == 0; }));
  EXPECT_EQ(service.assignments_dropped(), 0u);
  service.Stop();
}

// ---------------------------------------------------------------------
// Overload behaviour
// ---------------------------------------------------------------------

ClientInfo BasicInfo(FlowId flow) {
  ClientInfo info;
  info.flow = flow;
  info.ladder_bps = {100e3, 250e3, 500e3};
  return info;
}

TEST(OneApiService, SessionLimitSendsTypedOverload) {
  OneApiServiceOptions options;
  options.bai_ms = 0;
  options.max_sessions = 1;
  OneApiService service(options);
  ASSERT_TRUE(service.Start());

  TestClient first;
  ASSERT_TRUE(first.Connect(service.port()));
  ASSERT_TRUE(first.SendFrame(FrameType::kClientInfo,
                              EncodeClientInfo(BasicInfo(1))));
  const auto welcome = first.ReadFrame();
  ASSERT_TRUE(welcome.has_value());
  EXPECT_EQ(welcome->type, FrameType::kWelcome);

  TestClient second;
  ASSERT_TRUE(second.Connect(service.port()));
  ASSERT_TRUE(second.SendFrame(FrameType::kClientInfo,
                               EncodeClientInfo(BasicInfo(2))));
  const auto reject = second.ReadFrame();
  ASSERT_TRUE(reject.has_value());
  ASSERT_EQ(reject->type, FrameType::kOverload);
  const auto info = DecodeOverload(reject->payload);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->reason, "session_limit");
  EXPECT_DOUBLE_EQ(info->value, 1.0);
  // The rejected stream then closes server-side.
  EXPECT_FALSE(second.ReadFrame(500).has_value());

  EXPECT_TRUE(WaitFor([&] { return service.overload_rejects() == 1; }));
  EXPECT_EQ(service.sessions(), 1u);
  const MetricsSnapshot snapshot = service.SnapshotMetrics();
  EXPECT_EQ(snapshot.counters.at("svc.oneapi.overload_rejects"), 1u);
  EXPECT_GT(snapshot.gauges.at("svc.oneapi.blocking_rate"), 0.0);
  service.Stop();
}

TEST(OneApiService, AdmissionRejectNamesPolicyOnWire) {
  OneApiServiceOptions options;
  options.bai_ms = 0;
  options.admission.policy = AdmissionPolicy::kCapacityThreshold;
  // One floor-rung flow at the default 100 bits-per-RB estimate projects
  // an RB fraction of 100e3/100/50000 = 0.02, above this threshold: every
  // arrival is rejected by policy, never by the hard session cap.
  options.admission.capacity_threshold = 0.01;
  OneApiService service(options);
  ASSERT_TRUE(service.Start());

  TestClient client;
  ASSERT_TRUE(client.Connect(service.port()));
  ASSERT_TRUE(client.SendFrame(FrameType::kClientInfo,
                               EncodeClientInfo(BasicInfo(5))));
  const auto reject = client.ReadFrame();
  ASSERT_TRUE(reject.has_value());
  ASSERT_EQ(reject->type, FrameType::kOverload);
  const auto info = DecodeOverload(reject->payload);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->reason, "admission");
  EXPECT_EQ(info->policy, "capacity-threshold");
  EXPECT_GT(info->value, 0.0);  // the offending projected RB fraction

  EXPECT_TRUE(WaitFor([&] { return service.admission_rejects() == 1; }));
  EXPECT_EQ(service.sessions(), 0u);
  service.Stop();
}

TEST(OneApiService, MalformedFrameGetsTypedRejectAndClose) {
  OneApiServiceOptions options;
  options.bai_ms = 0;
  OneApiService service(options);
  ASSERT_TRUE(service.Start());

  TestClient client;
  ASSERT_TRUE(client.Connect(service.port()));
  ASSERT_TRUE(client.SendFrame(FrameType::kClientInfo, "not a message"));
  const auto reject = client.ReadFrame();
  ASSERT_TRUE(reject.has_value());
  ASSERT_EQ(reject->type, FrameType::kOverload);
  const auto info = DecodeOverload(reject->payload);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->reason, "malformed");
  EXPECT_FALSE(client.ReadFrame(500).has_value());  // closed
  service.Stop();
}

// A ClientInfo that decodes but that the solver would refuse must get a
// typed reject and never reach admission or the controller, where the
// solver's throw on the IO thread would abort the daemon; every other
// session stays served. `refresh` sends it as a mid-session update from an
// admitted session instead of as a first connect.
void ExpectSolverRejectKeepsOthersServed(const std::string& bad_info,
                                         bool refresh) {
  OneApiServiceOptions options;
  options.bai_ms = 0;
  OneApiService service(options);
  ASSERT_TRUE(service.Start());

  TestClient good;
  ASSERT_TRUE(good.Connect(service.port()));
  ASSERT_TRUE(good.SendFrame(FrameType::kClientInfo,
                             EncodeClientInfo(BasicInfo(1))));
  const auto welcome = good.ReadFrame();
  ASSERT_TRUE(welcome.has_value());
  ASSERT_EQ(welcome->type, FrameType::kWelcome);

  TestClient bad;
  ASSERT_TRUE(bad.Connect(service.port()));
  if (refresh) {
    ASSERT_TRUE(bad.SendFrame(FrameType::kClientInfo,
                              EncodeClientInfo(BasicInfo(2))));
    const auto bad_welcome = bad.ReadFrame();
    ASSERT_TRUE(bad_welcome.has_value());
    ASSERT_EQ(bad_welcome->type, FrameType::kWelcome);
  }
  ASSERT_TRUE(bad.SendFrame(FrameType::kClientInfo, bad_info));
  const auto reject = bad.ReadFrame();
  ASSERT_TRUE(reject.has_value());
  ASSERT_EQ(reject->type, FrameType::kOverload);
  const auto overload = DecodeOverload(reject->payload);
  ASSERT_TRUE(overload.has_value());
  EXPECT_EQ(overload->reason, "malformed");
  EXPECT_FALSE(bad.ReadFrame(500).has_value());  // closed
  EXPECT_TRUE(WaitFor([&] { return service.sessions() == 1; }));

  for (int tick = 0; tick < 2; ++tick) {
    service.TriggerTick();
    const auto frame = good.ReadFrame();
    ASSERT_TRUE(frame.has_value()) << "tick " << tick;
    ASSERT_EQ(frame->type, FrameType::kAssignment);
    const auto assignment = DecodeRateAssignment(frame->payload);
    ASSERT_TRUE(assignment.has_value());
    EXPECT_EQ(assignment->flow, 1u);
  }
  service.Stop();
}

TEST(OneApiService, DescendingLadderGetsTypedReject) {
  ExpectSolverRejectKeepsOthersServed(
      "type=client_info;flow=2;ladder=500000,100000", /*refresh=*/false);
}

TEST(OneApiService, NanLadderRungGetsTypedReject) {
  ExpectSolverRejectKeepsOthersServed(
      "type=client_info;flow=2;ladder=100000,nan,500000", /*refresh=*/false);
}

TEST(OneApiService, InfiniteLadderRungGetsTypedReject) {
  ExpectSolverRejectKeepsOthersServed(
      "type=client_info;flow=2;ladder=100000,250000,inf", /*refresh=*/false);
}

TEST(OneApiService, NegativeBetaRefreshGetsTypedReject) {
  ClientInfo info = BasicInfo(2);
  VideoUtilityParams utility;
  utility.beta = -1.0;
  utility.theta_bps = 0.2e6;
  info.utility = utility;
  ExpectSolverRejectKeepsOthersServed(EncodeClientInfo(info),
                                      /*refresh=*/true);
}

// ---------------------------------------------------------------------
// Slow clients lose frames, not the tick
// ---------------------------------------------------------------------

TEST_P(SlicedFanout, SlowClientDropsAssignmentsInsteadOfStallingTick) {
  // Several non-reading clients, so a multi-slice tick drops in more
  // than one slice.
  constexpr int kSessions = 3;
  OneApiServiceOptions options;
  options.bai_ms = 0;
  // Tiny kernel send buffer + tiny outbox cap: a non-reading client
  // saturates quickly and further assignment frames must be dropped.
  options.send_buffer_bytes = 2048;
  options.connection_buffer_limit = 2048;
  options.fanout_slices = GetParam();
  OneApiService service(options);
  ASSERT_TRUE(service.Start());

  std::vector<std::unique_ptr<TestClient>> slow;
  for (int i = 0; i < kSessions; ++i) {
    slow.push_back(std::make_unique<TestClient>());
    const FlowId flow = static_cast<FlowId>(3 + i);
    ASSERT_TRUE(slow.back()->Connect(service.port()));
    ASSERT_TRUE(slow.back()->SendFrame(FrameType::kClientInfo,
                                       EncodeClientInfo(BasicInfo(flow))));
    ASSERT_TRUE(slow.back()->ReadFrame().has_value());  // welcome
    FlowStatsReport report;
    report.flow = flow;
    report.type = FlowType::kVideo;
    report.tx_bytes = 160;
    report.rbs = 8;
    ASSERT_TRUE(slow.back()->SendFrame(FrameType::kStatsReport,
                                       EncodeStatsReport(report)));
  }
  ASSERT_TRUE(WaitFor([&] { return service.stats_received() >= kSessions; }));

  // The clients now stop reading. Ticks keep producing assignments; once
  // the kernel buffers and the bounded outboxes fill, drops must start —
  // and each TriggerTick still completes promptly (it round-trips the IO
  // thread, so a stalled tick would hang this very loop).
  std::uint64_t ticks = 0;
  while (ticks < 5000 && service.assignments_dropped() < kSessions) {
    service.TriggerTick();
    ++ticks;
  }
  EXPECT_GE(service.assignments_dropped(), static_cast<std::uint64_t>(kSessions));
  EXPECT_GT(service.assignments_sent(), 0u);
  // Each assignment is sent or dropped, once, and each drop counted once.
  EXPECT_EQ(service.assignments_sent() + service.assignments_dropped(),
            ticks * kSessions);
  EXPECT_EQ(service.SnapshotMetrics().counters.at(
                "svc.oneapi.assignments_dropped"),
            service.assignments_dropped());
  // The sessions themselves survive — load shedding, not eviction.
  EXPECT_EQ(service.sessions(), static_cast<std::uint64_t>(kSessions));
  service.Stop();
}

/// A counter the service must export; fails the test when it is absent.
std::uint64_t ExportedCounter(const MetricsSnapshot& snapshot,
                              const std::string& name) {
  const auto it = snapshot.counters.find(name);
  EXPECT_NE(it, snapshot.counters.end()) << name << " not exported";
  return it == snapshot.counters.end() ? 0 : it->second;
}

/// One BAI round as a responsive client sees it: read the assignment,
/// answer with a stats report.
void AnswerAssignment(TestClient* client, FlowId flow) {
  const auto frame = client->ReadFrame();
  ASSERT_TRUE(frame.has_value());
  ASSERT_EQ(frame->type, FrameType::kAssignment);
  FlowStatsReport report;
  report.flow = flow;
  report.type = FlowType::kVideo;
  report.tx_bytes = 160;
  report.rbs = 8;
  ASSERT_TRUE(client->SendFrame(FrameType::kStatsReport,
                                EncodeStatsReport(report)));
}

TEST_P(SlicedFanout, SteadyTickIsOneWritePerSessionAndNoEpollCtl) {
  // The fan-out invariant: once sessions are up, a tick costs each
  // responsive session exactly one send() and the loop no epoll_ctl — not
  // for the assignment written, nor for the stats report read back —
  // however many slices write the tick.
  constexpr int kSessions = 6;
  constexpr int kTicks = 5;
  OneApiServiceOptions options;
  options.bai_ms = 0;
  options.deterministic_timing = true;
  options.fanout_slices = GetParam();
  OneApiService service(options);
  ASSERT_TRUE(service.Start());

  std::vector<std::unique_ptr<TestClient>> clients;
  for (int i = 0; i < kSessions; ++i) {
    clients.push_back(std::make_unique<TestClient>());
    const FlowId flow = static_cast<FlowId>(100 + i);
    ASSERT_TRUE(clients.back()->Connect(service.port()));
    ASSERT_TRUE(clients.back()->SendFrame(FrameType::kClientInfo,
                                          EncodeClientInfo(BasicInfo(flow))));
    const auto welcome = clients.back()->ReadFrame();
    ASSERT_TRUE(welcome.has_value());
    ASSERT_EQ(welcome->type, FrameType::kWelcome);
  }
  std::uint64_t reports = 0;
  const auto round = [&] {
    service.TriggerTick();
    for (int i = 0; i < kSessions; ++i) {
      AnswerAssignment(clients[static_cast<std::size_t>(i)].get(),
                       static_cast<FlowId>(100 + i));
    }
    reports += kSessions;
    ASSERT_TRUE(WaitFor([&] { return service.stats_received() == reports; }));
  };
  round();  // warm-up
  if (HasFatalFailure()) return;

  const MetricsSnapshot before = service.SnapshotMetrics();
  for (int tick = 0; tick < kTicks; ++tick) {
    round();
    if (HasFatalFailure()) return;
  }
  const MetricsSnapshot after = service.SnapshotMetrics();
  EXPECT_EQ(ExportedCounter(after, "svc.oneapi.epoll_ctl"),
            ExportedCounter(before, "svc.oneapi.epoll_ctl"));
  EXPECT_EQ(ExportedCounter(after, "svc.oneapi.writes") -
                ExportedCounter(before, "svc.oneapi.writes"),
            static_cast<std::uint64_t>(kTicks * kSessions));
  EXPECT_EQ(ExportedCounter(after, "svc.oneapi.assignments") -
                ExportedCounter(before, "svc.oneapi.assignments"),
            static_cast<std::uint64_t>(kTicks * kSessions));
  // Stage histograms exist and read 0 under deterministic_timing.
  for (const char* stage : {"svc.oneapi.tick.gather_us",
                            "svc.oneapi.tick.fanout_us",
                            "svc.oneapi.tick.publish_us"}) {
    const auto it = after.histograms.find(stage);
    ASSERT_NE(it, after.histograms.end()) << stage;
    EXPECT_EQ(it->second.count(), static_cast<std::uint64_t>(kTicks + 1))
        << stage;
    EXPECT_EQ(it->second.sum(), 0.0) << stage;
  }
  service.Stop();
}

TEST(OneApiService, FdExhaustionPausesListenerUntilAnFdFrees) {
  // Out of fds, accept4 fails with EMFILE while the connection stays
  // queued, so a level-triggered listener fires again at once. The
  // service must pause it (counted) instead of spinning a core, and
  // welcome the queued session once one of its connections closes.
  OneApiServiceOptions options;
  options.bai_ms = 0;
  OneApiService service(options);
  ASSERT_TRUE(service.Start());

  TestClient first;
  ASSERT_TRUE(first.Connect(service.port()));
  ASSERT_TRUE(first.SendFrame(FrameType::kClientInfo,
                              EncodeClientInfo(BasicInfo(1))));
  ASSERT_TRUE(first.ReadFrame().has_value());  // welcome

  TestClient second;
  {
    // Room for exactly one more fd below the limit: the second client's
    // socket takes it, so the service's accept finds none.
    const int free_fd = LowestFreeFd();
    ASSERT_GE(free_fd, 0);
    FdLimit limit(static_cast<rlim_t>(free_fd) + 1);
    ASSERT_TRUE(limit.ok());
    ASSERT_TRUE(second.Connect(service.port()));
    ASSERT_TRUE(second.SendFrame(FrameType::kClientInfo,
                                 EncodeClientInfo(BasicInfo(2))));
    ASSERT_TRUE(WaitFor([&] {
      const MetricsSnapshot snapshot = service.SnapshotMetrics();
      const auto it = snapshot.counters.find("svc.oneapi.accept_fd_exhausted");
      return it != snapshot.counters.end() && it->second >= 1;
    })) << "accept never reported fd exhaustion";
    // Paused, the loop stays idle however long the fds stay short.
    const std::uint64_t dispatches = service.loop_dispatches();
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    EXPECT_LE(service.loop_dispatches() - dispatches, 4u);
    EXPECT_EQ(service.connections_accepted(), 1u);

    // Closing the first session frees its server-side fd; the listener
    // re-arms and the queued session is accepted and welcomed.
    first.Close();
    const auto welcome = second.ReadFrame();
    ASSERT_TRUE(welcome.has_value());
    EXPECT_EQ(welcome->type, FrameType::kWelcome);
  }
  EXPECT_EQ(service.connections_accepted(), 2u);
  EXPECT_TRUE(WaitFor([&] { return service.sessions() == 1u; }));
  service.Stop();
}

// ---------------------------------------------------------------------
// Request tracing (PR 10)
// ---------------------------------------------------------------------

std::string SendStats(TestClient* client, FlowId flow,
                      const TraceContext* ctx) {
  FlowStatsReport report;
  report.flow = flow;
  report.type = FlowType::kVideo;
  report.tx_bytes = 160;
  report.rbs = 8;
  const std::string payload = EncodeStatsReport(report);
  EXPECT_TRUE(client->SendFrame(FrameType::kStatsReport, payload, ctx));
  return payload;
}

TEST_P(SlicedFanout, TracedRunEchoesEachContextOnceAndExportsSpans) {
  const std::string trace_path =
      testing::TempDir() + "/oneapid_trace_test_" +
      std::to_string(GetParam()) + ".json";
  OneApiServiceOptions options;
  options.bai_ms = 0;
  options.trace_json = trace_path;
  options.trace.exemplar_k = 2;
  options.trace.exemplar_window_ticks = 2;
  options.fanout_slices = GetParam();
  FlightRecorder flight;
  options.flight_recorder = &flight;
  OneApiService service(options);
  ASSERT_TRUE(service.Start());

  // Two sessions, so a multi-slice tick writes them from two slices. Their
  // flows sit on different span lanes.
  const std::vector<FlowId> flows = {21, 22};
  ASSERT_NE(RequestLane(flows[0]), RequestLane(flows[1]));
  std::vector<std::unique_ptr<TestClient>> clients;
  for (const FlowId flow : flows) {
    clients.push_back(std::make_unique<TestClient>());
    ASSERT_TRUE(clients.back()->Connect(service.port()));
    ASSERT_TRUE(clients.back()->SendFrame(FrameType::kClientInfo,
                                          EncodeClientInfo(BasicInfo(flow))));
    ASSERT_TRUE(clients.back()->ReadFrame().has_value());  // welcome
  }

  constexpr int kRounds = 5;
  const std::uint64_t kRequests = kRounds * flows.size();
  std::vector<std::uint64_t> sent_ids;
  std::uint64_t reports = 0;
  for (int round = 0; round < kRounds; ++round) {
    std::vector<TraceContext> contexts;
    for (std::size_t c = 0; c < clients.size(); ++c) {
      TraceContext ctx;
      ctx.trace_id = 0xabc0u + static_cast<std::uint64_t>(round * 16 + c);
      ctx.client_send_us = 1000 + round;
      sent_ids.push_back(ctx.trace_id);
      contexts.push_back(ctx);
      SendStats(clients[c].get(), flows[c], &ctx);
    }
    reports += clients.size();
    ASSERT_TRUE(WaitFor([&] { return service.stats_received() >= reports; }));
    service.TriggerTick();
    for (std::size_t c = 0; c < clients.size(); ++c) {
      const auto frame = clients[c]->ReadFrame();
      ASSERT_TRUE(frame.has_value()) << "no assignment, round " << round;
      ASSERT_EQ(frame->type, FrameType::kAssignment);
      // The assignment answering a traced report carries the echo with
      // the server stamps in receive->transmit order.
      ASSERT_TRUE(frame->trace.has_value());
      EXPECT_EQ(frame->trace->trace_id, contexts[c].trace_id);
      EXPECT_EQ(frame->trace->client_send_us, contexts[c].client_send_us);
      EXPECT_GT(frame->trace->server_recv_us, 0);
      EXPECT_GE(frame->trace->server_send_us, frame->trace->server_recv_us);
    }
  }

  // A tick with no fresh traced report produces a legacy assignment: the
  // context was consumed by the frame that answered it.
  service.TriggerTick();
  for (const auto& client : clients) {
    const auto untraced = client->ReadFrame();
    ASSERT_TRUE(untraced.has_value());
    ASSERT_EQ(untraced->type, FrameType::kAssignment);
    EXPECT_FALSE(untraced->trace.has_value());
  }

  ASSERT_TRUE(
      WaitFor([&] { return service.traced_requests() >= kRequests; }));
  for (const auto& client : clients) {
    EXPECT_TRUE(client->SendFrame(FrameType::kBye, ""));
  }
  EXPECT_TRUE(WaitFor([&] { return service.sessions() == 0; }));
  service.Stop();

  const MetricsSnapshot snapshot = service.SnapshotMetrics();
  EXPECT_EQ(snapshot.counters.at("svc.oneapi.trace.requests"), kRequests);
  EXPECT_EQ(snapshot.counters.count("svc.oneapi.trace.superseded"), 0u);
  // Stage quantile gauges refreshed at tick edges.
  EXPECT_GT(snapshot.gauges.at("svc.oneapi.stage.solve.p99_us"), 0.0);
  EXPECT_TRUE(snapshot.gauges.count("svc.oneapi.stage.queue_wait.p99_us"));
  EXPECT_TRUE(snapshot.gauges.count("svc.oneapi.stage.outbox_drain.p50_us"));

  // The exported Perfetto JSON: every sent trace id appears on exactly
  // one request span, and each request's stage spans are in pipeline
  // order (events are ts-sorted at export).
  JsonValue doc;
  std::string error;
  ASSERT_TRUE(ParseJsonFile(trace_path, &doc, &error)) << error;
  const JsonValue* events = doc.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  std::map<std::string, int> request_ids;
  std::map<double, int> stage_rank;  // by lane: one flow's requests
  static const std::map<std::string, int> kStageRank = {
      {"recv", 0},  {"parse", 1},  {"queue_wait", 2},
      {"solve", 3}, {"encode", 4}, {"outbox_drain", 5}};
  for (const JsonValue& event : events->items()) {
    const JsonValue* ph = event.Find("ph");
    if (ph == nullptr || ph->AsString() != "X") continue;
    const std::string name = event.Find("name")->AsString();
    const std::string cat = event.Find("cat")->AsString();
    if (name == "request" && cat == "svc") {
      const JsonValue* args = event.Find("args");
      ASSERT_NE(args, nullptr);
      request_ids[args->Find("trace")->AsString()]++;
      for (const char* phase :
           {"recv_us", "parse_us", "queue_wait_us", "solve_us", "encode_us",
            "outbox_drain_us", "total_us"}) {
        EXPECT_GE(args->Find(phase)->AsNumber(), 0.0) << phase;
      }
      EXPECT_FALSE(args->Find("cause")->AsString().empty());
    } else if (cat == "svc.stage") {
      // Stage spans are ts-ordered; within one request on a flow's lane
      // (which starts at "recv" — the protocol is ping-pong, so one
      // flow's requests never overlap) the rank must strictly advance
      // through the pipeline.
      const int rank = kStageRank.at(name);
      const auto lane = stage_rank.try_emplace(event.Find("tid")->AsNumber(),
                                               -1).first;
      if (rank == 0) {
        lane->second = 0;
      } else {
        EXPECT_EQ(rank, lane->second + 1) << "out-of-order stage " << name;
        lane->second = rank;
      }
    }
  }
  EXPECT_EQ(stage_rank.size(), flows.size());
  EXPECT_EQ(request_ids.size(), kRequests);
  for (std::uint64_t id : sent_ids) {
    char hex[17];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(id));
    EXPECT_EQ(request_ids[hex], 1) << "trace id " << hex;
  }
  std::remove(trace_path.c_str());
}

TEST(OneApiService, UnknownExtBytesCountedAndEchoWorksWithoutTracer) {
  // Server-side tracing OFF: a traced client still gets its context
  // echoed (the echo lives in the session, not the tracer), and unknown
  // ext keys are tolerated + counted rather than poisoning the stream.
  OneApiServiceOptions options;
  options.bai_ms = 0;
  OneApiService service(options);
  ASSERT_TRUE(service.Start());

  TestClient client;
  ASSERT_TRUE(client.Connect(service.port()));
  ASSERT_TRUE(client.SendFrame(FrameType::kClientInfo,
                               EncodeClientInfo(BasicInfo(9))));
  ASSERT_TRUE(client.ReadFrame().has_value());  // welcome

  // Hand-built extension frame with an unknown future key riding along.
  FlowStatsReport report;
  report.flow = 9;
  report.type = FlowType::kVideo;
  report.tx_bytes = 160;
  report.rbs = 8;
  std::string body = EncodeStatsReport(report);
  body.push_back('\0');
  body += "trace=00000000000000a9;ts=777;future=42";
  std::string wire;
  const std::uint32_t length = static_cast<std::uint32_t>(body.size()) + 1;
  for (int i = 0; i < 4; ++i) {
    wire.push_back(static_cast<char>((length >> (8 * i)) & 0xff));
  }
  wire.push_back(static_cast<char>(
      static_cast<std::uint8_t>(FrameType::kStatsReport) | kFrameTraceExtBit));
  wire += body;
  ASSERT_TRUE(client.SendRaw(wire));
  ASSERT_TRUE(WaitFor([&] { return service.stats_received() >= 1; }));

  service.TriggerTick();
  const auto frame = client.ReadFrame();
  ASSERT_TRUE(frame.has_value());
  ASSERT_EQ(frame->type, FrameType::kAssignment);
  ASSERT_TRUE(frame->trace.has_value());
  EXPECT_EQ(frame->trace->trace_id, 0xa9u);
  EXPECT_EQ(frame->trace->client_send_us, 777);
  EXPECT_GT(frame->trace->server_recv_us, 0);
  EXPECT_GE(frame->trace->server_send_us, frame->trace->server_recv_us);

  const MetricsSnapshot snapshot = service.SnapshotMetrics();
  EXPECT_EQ(snapshot.counters.at("svc.oneapi.frames_with_unknown_ext"), 1u);
  EXPECT_EQ(service.traced_requests(), 0u);  // tracing off
  service.Stop();
}

TEST(OneApiService, ConcurrentScrapeWhileTracingIsClean) {
  // TSan target: the metrics plane (SnapshotMetrics) and the atomic
  // traced_requests counter are read from this thread while the IO
  // thread traces requests.
  const std::string trace_path =
      testing::TempDir() + "/oneapid_trace_scrape.json";
  OneApiServiceOptions options;
  options.bai_ms = 0;
  options.trace_json = trace_path;
  OneApiService service(options);
  ASSERT_TRUE(service.Start());

  TestClient client;
  ASSERT_TRUE(client.Connect(service.port()));
  ASSERT_TRUE(client.SendFrame(FrameType::kClientInfo,
                               EncodeClientInfo(BasicInfo(4))));
  ASSERT_TRUE(client.ReadFrame().has_value());  // welcome

  std::atomic<bool> done{false};
  std::thread scraper([&] {
    std::uint64_t scrapes = 0;
    while (!done.load(std::memory_order_relaxed)) {
      const MetricsSnapshot snapshot = service.SnapshotMetrics();
      (void)snapshot.counters.size();
      (void)service.traced_requests();
      ++scrapes;
    }
    EXPECT_GT(scrapes, 0u);
  });

  for (int round = 0; round < 50; ++round) {
    TraceContext ctx;
    ctx.trace_id = 0x5000u + static_cast<std::uint64_t>(round);
    ctx.client_send_us = round;
    SendStats(&client, 4, &ctx);
    ASSERT_TRUE(WaitFor(
        [&] { return service.stats_received() > static_cast<std::uint64_t>(
                         round); }));
    service.TriggerTick();
    const auto frame = client.ReadFrame();
    ASSERT_TRUE(frame.has_value());
    ASSERT_EQ(frame->type, FrameType::kAssignment);
  }
  done.store(true, std::memory_order_relaxed);
  scraper.join();

  EXPECT_TRUE(WaitFor([&] { return service.traced_requests() >= 50; }));
  service.Stop();
  std::remove(trace_path.c_str());
}

// ---------------------------------------------------------------------
// Load generator
// ---------------------------------------------------------------------

TEST(LoadGen, ScheduleIsDeterministicPerSeed) {
  LoadGenOptions options;
  options.sessions = 40;
  options.seed = 7;
  const LoadGenerator a(options);
  const LoadGenerator b(options);
  const auto schedule_a = a.BuildSchedule();
  const auto schedule_b = b.BuildSchedule();
  ASSERT_EQ(schedule_a.size(), schedule_b.size());
  EXPECT_EQ(schedule_a.size(), 2u * options.sessions);  // arrival + departure
  for (std::size_t i = 0; i < schedule_a.size(); ++i) {
    EXPECT_DOUBLE_EQ(schedule_a[i].t_s, schedule_b[i].t_s);
    EXPECT_EQ(schedule_a[i].arrival, schedule_b[i].arrival);
    EXPECT_EQ(schedule_a[i].session, schedule_b[i].session);
  }
  options.seed = 8;
  const auto schedule_c = LoadGenerator(options).BuildSchedule();
  bool differs = schedule_c.size() != schedule_a.size();
  for (std::size_t i = 0; !differs && i < schedule_a.size(); ++i) {
    differs = schedule_a[i].t_s != schedule_c[i].t_s;
  }
  EXPECT_TRUE(differs);
}

TEST(LoadGen, ChurnedRunAgainstLiveServiceCompletes) {
  OneApiServiceOptions service_options;
  service_options.bai_ms = 20;
  OneApiService service(service_options);
  ASSERT_TRUE(service.Start());

  LoadGenOptions options;
  options.port = service.port();
  options.sessions = 12;
  options.arrival_rate_per_s = 40.0;
  options.mean_hold_s = 0.3;
  options.seed = 3;
  options.time_scale = 2.0;
  options.max_wall_s = 30.0;
  LoadGenerator generator(options);
  const LoadGenResult result = generator.Run();

  EXPECT_TRUE(result.completed);
  EXPECT_EQ(result.attempted, options.sessions);
  EXPECT_EQ(result.admitted + result.blocked, options.sessions);
  EXPECT_EQ(result.blocked, 0u);  // admit-all default
  EXPECT_EQ(result.connect_failures, 0u);
  EXPECT_EQ(result.protocol_errors, 0u);
  EXPECT_EQ(result.departed, result.admitted);

  // The SLO gauges flare_report watches must be present in the export.
  MetricsRegistry registry;
  result.ExportTo(&registry);
  const MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_TRUE(snapshot.gauges.count("svc.oneapi.assign_turnaround.p99_us"));
  EXPECT_TRUE(snapshot.gauges.count("svc.oneapi.blocking_rate"));
  if (result.assignments > 0) {
    EXPECT_GT(
        snapshot.gauges.at("svc.oneapi.assign_turnaround.p99_us"), 0.0);
    EXPECT_GE(result.turnaround_p99_us, result.turnaround_p50_us);
  }
  service.Stop();
  EXPECT_GT(service.bais(), 0u);
}

TEST(LoadGen, TracedRunProducesMergeableClientSpans) {
  const std::string server_trace =
      testing::TempDir() + "/loadgen_server_trace.json";
  const std::string client_trace =
      testing::TempDir() + "/loadgen_client_trace.json";
  OneApiServiceOptions service_options;
  service_options.bai_ms = 20;
  service_options.trace_json = server_trace;
  OneApiService service(service_options);
  ASSERT_TRUE(service.Start());

  LoadGenOptions options;
  options.port = service.port();
  options.sessions = 8;
  options.arrival_rate_per_s = 40.0;
  options.mean_hold_s = 0.3;
  options.seed = 5;
  options.time_scale = 2.0;
  options.max_wall_s = 30.0;
  options.trace = true;
  options.trace_json = client_trace;
  LoadGenerator generator(options);
  const LoadGenResult result = generator.Run();
  service.Stop();

  EXPECT_TRUE(result.completed);
  EXPECT_EQ(result.trace_mismatches, 0u);
  if (result.assignments > 0) {
    EXPECT_GT(result.traced, 0u);
    EXPECT_LE(result.traced, result.assignments);
  }
  // Both span files parse; client request spans carry the echoed server
  // stamps a merger needs for clock alignment.
  for (const std::string& path : {server_trace, client_trace}) {
    JsonValue doc;
    std::string error;
    ASSERT_TRUE(ParseJsonFile(path, &doc, &error)) << path << ": " << error;
    ASSERT_NE(doc.Find("traceEvents"), nullptr) << path;
  }
  JsonValue client_doc;
  ASSERT_TRUE(ParseJsonFile(client_trace, &client_doc, nullptr));
  int echoed = 0;
  for (const JsonValue& event : client_doc.Find("traceEvents")->items()) {
    const JsonValue* cat = event.Find("cat");
    if (cat == nullptr || cat->AsString() != "client") continue;
    const JsonValue* args = event.Find("args");
    ASSERT_NE(args, nullptr);
    if (args->Find("srx_us")->AsNumber() > 0.0) {
      ++echoed;
      EXPECT_GE(args->Find("stx_us")->AsNumber(),
                args->Find("srx_us")->AsNumber());
      EXPECT_GT(args->Find("turnaround_us")->AsNumber(), 0.0);
    }
  }
  EXPECT_EQ(echoed, static_cast<int>(result.traced));
  std::remove(server_trace.c_str());
  std::remove(client_trace.c_str());
}

}  // namespace
}  // namespace flare
