// Tests for the TCP model, the transport host and the HTTP layer.
#include <gtest/gtest.h>

#include "lte/cell.h"
#include "lte/pf_scheduler.h"
#include "sim/simulator.h"
#include "transport/http.h"
#include "transport/transport_host.h"

namespace flare {
namespace {

struct Net {
  Simulator sim;
  Cell cell;
  TransportHost host;
  explicit Net(int itbs = 7, CellConfig config = CellConfig{})
      : cell(sim, std::make_unique<PfScheduler>(), config, Rng(1)),
        host(sim, cell) {
    ue = cell.AddUe(std::make_unique<StaticItbsChannel>(itbs));
  }
  UeId ue = 0;
};

TEST(TcpFlow, DeliversExactByteCount) {
  Net net;
  TcpFlow& flow = net.host.CreateFlow(net.ue, FlowType::kData);
  std::uint64_t received = 0;
  flow.SetOnReceive(
      [&](std::uint64_t bytes, SimTime) { received += bytes; });
  flow.Send(100'000);
  net.cell.Start();
  net.sim.RunUntil(FromSeconds(5.0));
  EXPECT_EQ(received, 100'000u);
  EXPECT_EQ(flow.bytes_delivered(), 100'000u);
  EXPECT_TRUE(flow.Idle());
}

TEST(TcpFlow, SlowStartRampsUp) {
  Net net;
  TcpFlow& flow = net.host.CreateFlow(net.ue, FlowType::kData);
  const double initial_cwnd = flow.cwnd_bytes();
  flow.Send(2'000'000);
  net.cell.Start();
  net.sim.RunUntil(FromSeconds(1.0));
  EXPECT_GT(flow.cwnd_bytes(), initial_cwnd * 4.0);
}

TEST(TcpFlow, ThroughputApproachesLinkRate) {
  Net net;  // 5.2 Mbit/s link
  TcpFlow& flow = net.host.CreateFlow(net.ue, FlowType::kData);
  net.host.MakeGreedy(flow.id());
  net.cell.Start();
  net.sim.RunUntil(FromSeconds(10.0));
  const double bps =
      static_cast<double>(flow.bytes_delivered()) * 8.0 / 10.0;
  EXPECT_GT(bps, 0.85 * 5.2e6);  // >85% utilization after ramp-up
  EXPECT_LE(bps, 5.2e6 * 1.01);
}

TEST(TcpFlow, BandwidthEstimateConverges) {
  Net net;
  TcpFlow& flow = net.host.CreateFlow(net.ue, FlowType::kData);
  net.host.MakeGreedy(flow.id());
  net.cell.Start();
  net.sim.RunUntil(FromSeconds(10.0));
  EXPECT_NEAR(flow.bandwidth_estimate_bps(), 5.2e6, 1.5e6);
}

TEST(TcpFlow, BacksOffOnQueueOverflowButRecovers) {
  CellConfig config;
  config.queue_limit_bytes = 50'000;  // small queue forces drops
  Net net(7, config);
  TcpFlow& flow = net.host.CreateFlow(net.ue, FlowType::kData);
  net.host.MakeGreedy(flow.id());
  net.cell.Start();
  net.sim.RunUntil(FromSeconds(10.0));
  // Westwood keeps utilization high even with a shallow buffer.
  const double bps =
      static_cast<double>(flow.bytes_delivered()) * 8.0 / 10.0;
  EXPECT_GT(bps, 0.6 * 5.2e6);
}

TEST(TcpFlow, TwoGreedyFlowsShareFairly) {
  Net net;
  const UeId ue2 =
      net.cell.AddUe(std::make_unique<StaticItbsChannel>(7));
  TcpFlow& f1 = net.host.CreateFlow(net.ue, FlowType::kData);
  TcpFlow& f2 = net.host.CreateFlow(ue2, FlowType::kData);
  net.host.MakeGreedy(f1.id());
  net.host.MakeGreedy(f2.id());
  net.cell.Start();
  net.sim.RunUntil(FromSeconds(20.0));
  const double a = static_cast<double>(f1.bytes_delivered());
  const double b = static_cast<double>(f2.bytes_delivered());
  EXPECT_NEAR(a / b, 1.0, 0.2);
}

TEST(TransportHost, DestroyFlowStopsDelivery) {
  Net net;
  TcpFlow& flow = net.host.CreateFlow(net.ue, FlowType::kData);
  const FlowId id = flow.id();
  flow.Send(1'000'000);
  net.cell.Start();
  net.sim.RunUntil(FromSeconds(0.2));
  net.host.DestroyFlow(id);
  EXPECT_FALSE(net.host.Has(id));
  EXPECT_FALSE(net.cell.HasFlow(id));
  EXPECT_NO_THROW(net.sim.RunUntil(FromSeconds(1.0)));
}

TEST(TransportHost, FlowLookupThrowsOnUnknown) {
  Net net;
  EXPECT_THROW(net.host.flow(12345), std::out_of_range);
}

// --- ACK batches -------------------------------------------------------
// The cell is never started in these tests, so the simulator holds only
// what the deliveries and the test push. In slow start an ACK's one
// visible effect is cwnd += bytes.

constexpr std::uint64_t kAckBytes = 1000;

SimTime AckAt() { return FromSeconds(TcpConfig{}.rtt_s); }

TEST(TransportHost, OneTtiOfDeliveriesCostsOneAckEvent) {
  Net net;
  std::vector<TcpFlow*> flows;
  for (int i = 0; i < 4; ++i) {
    const UeId ue = net.cell.AddUe(std::make_unique<StaticItbsChannel>(7));
    flows.push_back(&net.host.CreateFlow(ue, FlowType::kData));
  }
  const double cwnd0 = flows[0]->cwnd_bytes();
  // Two TTIs of deliveries, each made back to back as Cell::RunTti makes
  // them.
  for (const SimTime tti : {kMillisecond, 2 * kMillisecond}) {
    net.sim.At(tti, [&] {
      for (std::size_t i = 0; i < flows.size(); ++i) {
        flows[i]->HandleDelivery(kAckBytes * (i + 1), net.sim.Now());
      }
    });
  }
  net.sim.RunUntil(2 * kMillisecond);
  EXPECT_EQ(net.sim.queue_depth(), 2u);  // one ACK event per TTI
  net.sim.RunUntil(2 * kMillisecond + AckAt());
  EXPECT_EQ(net.sim.events_processed(), 4u);
  for (std::size_t i = 0; i < flows.size(); ++i) {
    EXPECT_EQ(flows[i]->cwnd_bytes(),
              cwnd0 + 2.0 * static_cast<double>(kAckBytes * (i + 1)));
  }
}

TEST(TransportHost, EventBetweenDeliveriesRunsBetweenTheirAcks) {
  Net net;
  const UeId ue2 = net.cell.AddUe(std::make_unique<StaticItbsChannel>(7));
  TcpFlow& f1 = net.host.CreateFlow(net.ue, FlowType::kData);
  TcpFlow& f2 = net.host.CreateFlow(ue2, FlowType::kData);
  const double cwnd0 = f1.cwnd_bytes();
  std::vector<double> seen;  // f1's and f2's cwnd as the middle event runs
  f1.HandleDelivery(kAckBytes, 0);
  net.sim.At(AckAt(), [&] { seen = {f1.cwnd_bytes(), f2.cwnd_bytes()}; });
  f2.HandleDelivery(kAckBytes, 0);
  // The push between the deliveries closed the first batch, so the order
  // is f1's ACK, the event, f2's ACK, as with one event per ACK.
  EXPECT_EQ(net.sim.queue_depth(), 3u);
  net.sim.RunUntil(AckAt());
  EXPECT_EQ(seen, (std::vector<double>{cwnd0 + kAckBytes, cwnd0}));
  EXPECT_EQ(f2.cwnd_bytes(), cwnd0 + kAckBytes);
}

TEST(TransportHost, DestroyedFlowsAckInABatchIsANoOp) {
  Net net;
  std::vector<TcpFlow*> flows;
  for (int i = 0; i < 3; ++i) {
    const UeId ue = net.cell.AddUe(std::make_unique<StaticItbsChannel>(7));
    flows.push_back(&net.host.CreateFlow(ue, FlowType::kData));
  }
  const double cwnd0 = flows[0]->cwnd_bytes();
  for (TcpFlow* flow : flows) flow->HandleDelivery(kAckBytes, 0);
  net.host.DestroyFlow(flows[1]->id());  // its ACK is pending in the batch
  net.sim.RunUntil(AckAt());
  EXPECT_EQ(net.sim.events_processed(), 1u);
  EXPECT_EQ(flows[0]->cwnd_bytes(), cwnd0 + kAckBytes);
  EXPECT_EQ(flows[2]->cwnd_bytes(), cwnd0 + kAckBytes);
}

TEST(TransportHost, BatchOutlivingItsHostIsANoOp) {
  Simulator sim;
  Cell cell(sim, std::make_unique<PfScheduler>(), CellConfig{}, Rng(1));
  const UeId ue = cell.AddUe(std::make_unique<StaticItbsChannel>(7));
  auto host = std::make_unique<TransportHost>(sim, cell);
  TcpFlow& flow = host->CreateFlow(ue, FlowType::kData);
  flow.HandleDelivery(kAckBytes, 0);
  host->MakeGreedy(flow.id());  // also leaves a top-up tick pending
  host.reset();
  EXPECT_EQ(sim.queue_depth(), 3u);  // ACK batch, push, top-up tick
  EXPECT_NO_THROW(sim.RunUntil(FromSeconds(1.0)));
  EXPECT_EQ(sim.queue_depth(), 0u);
}

TEST(HttpClient, CompletesRequestWithTiming) {
  Net net;
  TcpFlow& flow = net.host.CreateFlow(net.ue, FlowType::kVideo);
  HttpClient http(net.sim, flow);
  std::optional<HttpResult> result;
  http.Get(65'000, [&](const HttpResult& r) { result = r; });
  net.cell.Start();
  net.sim.RunUntil(FromSeconds(5.0));
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->bytes, 65'000u);
  EXPECT_GT(result->completed_at, result->first_byte_at);
  EXPECT_GT(result->first_byte_at, result->requested_at);
  EXPECT_GT(result->throughput_bps, 0.0);
  // 65 KB over a 5.2 Mbit/s link: >=0.1 s, so throughput <= link rate.
  EXPECT_LE(result->throughput_bps, 5.2e6);
}

TEST(HttpClient, ZeroByteRequestCompletesImmediately) {
  Net net;
  TcpFlow& flow = net.host.CreateFlow(net.ue, FlowType::kVideo);
  HttpClient http(net.sim, flow);
  bool zero_done = false;
  bool next_done = false;
  http.Get(0, [&](const HttpResult& r) {
    zero_done = true;
    EXPECT_EQ(r.bytes, 0u);
  });
  EXPECT_TRUE(zero_done);  // synchronous completion
  http.Get(10'000, [&](const HttpResult&) { next_done = true; });
  net.cell.Start();
  net.sim.RunUntil(FromSeconds(5.0));
  EXPECT_TRUE(next_done);  // the queue was not wedged
}

TEST(HttpClient, StarvedLinkNeverCompletesButNeverCrashes) {
  // Zero-RB cell: the response can never arrive; the request just stays
  // in flight for the whole run.
  Simulator sim;
  CellConfig config;
  config.num_rbs = 1;
  Cell cell(sim, std::make_unique<PfScheduler>(), config, Rng(1));
  TransportHost host(sim, cell);
  const UeId ue = cell.AddUe(std::make_unique<StaticItbsChannel>(0));
  TcpFlow& flow = host.CreateFlow(ue, FlowType::kVideo);
  HttpClient http(sim, flow);
  bool done = false;
  http.Get(50'000'000, [&](const HttpResult&) { done = true; });
  cell.Start();
  EXPECT_NO_THROW(sim.RunUntil(FromSeconds(30.0)));
  EXPECT_FALSE(done);
  EXPECT_TRUE(http.busy());
}

TEST(HttpClient, RequestsQueueFifo) {
  Net net;
  TcpFlow& flow = net.host.CreateFlow(net.ue, FlowType::kVideo);
  HttpClient http(net.sim, flow);
  std::vector<int> done;
  http.Get(10'000, [&](const HttpResult&) { done.push_back(1); });
  http.Get(10'000, [&](const HttpResult&) { done.push_back(2); });
  http.Get(10'000, [&](const HttpResult&) { done.push_back(3); });
  EXPECT_TRUE(http.busy());
  net.cell.Start();
  net.sim.RunUntil(FromSeconds(5.0));
  EXPECT_EQ(done, (std::vector<int>{1, 2, 3}));
  EXPECT_FALSE(http.busy());
}

TEST(HttpClient, ProgressCallbackMonotone) {
  Net net;
  TcpFlow& flow = net.host.CreateFlow(net.ue, FlowType::kVideo);
  HttpClient http(net.sim, flow);
  std::vector<std::uint64_t> progress;
  http.SetProgressCallback(
      [&](std::uint64_t bytes, SimTime) { progress.push_back(bytes); });
  bool done = false;
  http.Get(50'000, [&](const HttpResult&) { done = true; });
  net.cell.Start();
  net.sim.RunUntil(FromSeconds(5.0));
  ASSERT_TRUE(done);
  ASSERT_FALSE(progress.empty());
  for (std::size_t i = 1; i < progress.size(); ++i) {
    EXPECT_GT(progress[i], progress[i - 1]);
  }
  EXPECT_EQ(progress.back(), 50'000u);
}

TEST(HttpClient, ChainedGetFromCallback) {
  Net net;
  TcpFlow& flow = net.host.CreateFlow(net.ue, FlowType::kVideo);
  HttpClient http(net.sim, flow);
  int completed = 0;
  std::function<void(const HttpResult&)> chain =
      [&](const HttpResult&) {
        if (++completed < 3) http.Get(5'000, chain);
      };
  http.Get(5'000, chain);
  net.cell.Start();
  net.sim.RunUntil(FromSeconds(5.0));
  EXPECT_EQ(completed, 3);
}

TEST(HttpClient, DownloadRateReflectsSharedLink) {
  // Two video clients on one cell should each measure roughly half the
  // link in their HTTP throughput samples.
  Net net;
  const UeId ue2 =
      net.cell.AddUe(std::make_unique<StaticItbsChannel>(7));
  TcpFlow& f1 = net.host.CreateFlow(net.ue, FlowType::kVideo);
  TcpFlow& f2 = net.host.CreateFlow(ue2, FlowType::kVideo);
  HttpClient h1(net.sim, f1);
  HttpClient h2(net.sim, f2);
  std::vector<double> rates;
  // Large objects so slow-start is amortized.
  h1.Get(1'500'000,
         [&](const HttpResult& r) { rates.push_back(r.throughput_bps); });
  h2.Get(1'500'000,
         [&](const HttpResult& r) { rates.push_back(r.throughput_bps); });
  net.cell.Start();
  net.sim.RunUntil(FromSeconds(30.0));
  ASSERT_EQ(rates.size(), 2u);
  for (double r : rates) EXPECT_NEAR(r, 2.6e6, 0.8e6);
}

}  // namespace
}  // namespace flare
