// Tests for the eNodeB cell: queueing, token buckets, delivery accounting,
// the RB & Rate Trace windows, QoS updates at runtime, on-demand channel
// reads and allocation-free steady-state TTIs.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <map>
#include <memory>
#include <new>
#include <vector>

#include "lte/cell.h"
#include "lte/mobility.h"
#include "lte/pf_scheduler.h"
#include "lte/gbr_scheduler.h"
#include "lte/pss_scheduler.h"
#include "lte/tbs_table.h"
#include "sim/simulator.h"

// Every allocation through the global operator new in this binary is
// counted, so a test can assert that a stretch of simulation allocates
// nothing. All replaceable non-aligned forms go through malloc/free, which
// keeps allocation and deallocation consistent under ASan.
namespace {
std::atomic<std::uint64_t> g_allocations{0};

void* CountedAlloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
// Out of line, so the compiler does not pair an inlined free() with the
// new-expression at the call site and warn about a mismatch.
[[gnu::noinline]] void Release(void* p) noexcept { std::free(p); }
}  // namespace

void* operator new(std::size_t size) {
  if (void* p = CountedAlloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  if (void* p = CountedAlloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}
void operator delete(void* p) noexcept { Release(p); }
void operator delete[](void* p) noexcept { Release(p); }
void operator delete(void* p, std::size_t) noexcept { Release(p); }
void operator delete[](void* p, std::size_t) noexcept { Release(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { Release(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  Release(p);
}

namespace flare {
namespace {

struct CellFixture {
  Simulator sim;
  Cell cell;
  explicit CellFixture(std::unique_ptr<Scheduler> sched,
                       CellConfig config = CellConfig{})
      : cell(sim, std::move(sched), config, Rng(1)) {}
};

TEST(Cell, EnqueueRespectsQueueLimit) {
  CellConfig config;
  config.queue_limit_bytes = 1000;
  CellFixture f(std::make_unique<PfScheduler>(), config);
  const UeId ue = f.cell.AddUe(std::make_unique<StaticItbsChannel>(7));
  const FlowId flow = f.cell.AddFlow(ue, FlowType::kData);

  std::uint64_t dropped = 0;
  f.cell.SetDropCallback(
      [&](FlowId, std::uint64_t bytes) { dropped += bytes; });

  EXPECT_EQ(f.cell.Enqueue(flow, 600), 600u);
  EXPECT_EQ(f.cell.Enqueue(flow, 600), 400u);  // only 400 fit
  EXPECT_EQ(dropped, 200u);
  EXPECT_EQ(f.cell.flow(flow).queued_bytes, 1000u);
}

TEST(Cell, SingleFlowDrainsAtChannelRate) {
  CellFixture f(std::make_unique<PfScheduler>());
  const UeId ue = f.cell.AddUe(std::make_unique<StaticItbsChannel>(7));
  const FlowId flow = f.cell.AddFlow(ue, FlowType::kData);

  std::uint64_t delivered = 0;
  f.cell.SetDeliveryCallback(
      [&](FlowId, std::uint64_t bytes, SimTime) { delivered += bytes; });

  // iTbs 7: 104 bits * 50 RBs = 5200 bits = 650 bytes per TTI.
  f.cell.Enqueue(flow, 6500);
  f.cell.Start();
  f.sim.RunUntil(10 * kTti);
  EXPECT_EQ(delivered, 6500u);
  EXPECT_EQ(f.cell.flow(flow).queued_bytes, 0u);
}

TEST(Cell, ThroughputMatchesTbs) {
  CellFixture f(std::make_unique<PfScheduler>());
  const UeId ue = f.cell.AddUe(std::make_unique<StaticItbsChannel>(7));
  const FlowId flow = f.cell.AddFlow(ue, FlowType::kData);
  f.cell.Enqueue(flow, 10'000'000);
  f.cell.Start();
  f.sim.RunUntil(FromSeconds(1.0));
  // 5.2 Mbit/s -> 650 000 bytes/s.
  EXPECT_NEAR(static_cast<double>(f.cell.total_tx_bytes(flow)), 650'000.0,
              1000.0);
}

TEST(Cell, TraceWindowCountsBytesAndRbs) {
  CellFixture f(std::make_unique<PfScheduler>());
  const UeId ue = f.cell.AddUe(std::make_unique<StaticItbsChannel>(7));
  const FlowId flow = f.cell.AddFlow(ue, FlowType::kData);
  f.cell.Enqueue(flow, 65'000);  // 100 TTIs worth
  f.cell.Start();
  f.sim.RunUntil(FromSeconds(0.2));

  const RbRateWindow window = f.cell.TakeWindow(flow);
  EXPECT_EQ(window.tx_bytes, 65'000u);
  EXPECT_EQ(window.rbs, 5000u);  // 100 TTIs * 50 RBs
  EXPECT_EQ(window.duration, FromSeconds(0.2));
  // Window resets.
  const RbRateWindow empty = f.cell.PeekWindow(flow);
  EXPECT_EQ(empty.tx_bytes, 0u);
  EXPECT_EQ(empty.rbs, 0u);
}

TEST(Cell, BitsPerRbMatchesChannel) {
  CellFixture f(std::make_unique<PfScheduler>());
  const UeId ue = f.cell.AddUe(std::make_unique<StaticItbsChannel>(9));
  const FlowId flow = f.cell.AddFlow(ue, FlowType::kData);
  f.cell.Enqueue(flow, 200'000);
  f.cell.Start();
  f.sim.RunUntil(FromSeconds(0.1));
  const RbRateWindow w = f.cell.TakeWindow(flow);
  const double bits_per_rb = static_cast<double>(w.tx_bytes) * 8.0 /
                             static_cast<double>(w.rbs);
  // iTbs 9 = 136 bits/RB; final partially-filled RB rounds down a little.
  EXPECT_NEAR(bits_per_rb, 136.0, 8.0 + 1.0);
}

TEST(Cell, TwoFlowsShareCapacityFairly) {
  CellFixture f(std::make_unique<PfScheduler>());
  const UeId ue1 = f.cell.AddUe(std::make_unique<StaticItbsChannel>(7));
  const UeId ue2 = f.cell.AddUe(std::make_unique<StaticItbsChannel>(7));
  const FlowId f1 = f.cell.AddFlow(ue1, FlowType::kData);
  const FlowId f2 = f.cell.AddFlow(ue2, FlowType::kData);
  f.cell.Enqueue(f1, 10'000'000);
  f.cell.Enqueue(f2, 10'000'000);
  f.cell.Start();
  f.sim.RunUntil(FromSeconds(2.0));
  const double a = static_cast<double>(f.cell.total_tx_bytes(f1));
  const double b = static_cast<double>(f.cell.total_tx_bytes(f2));
  EXPECT_NEAR(a / b, 1.0, 0.05);
  EXPECT_NEAR(a + b, 1'300'000.0, 15'000.0);  // full cell utilized
}

TEST(Cell, GbrFlowProtectedUnderLoad) {
  CellFixture f(std::make_unique<TwoPhaseGbrScheduler>());
  const UeId ue1 = f.cell.AddUe(std::make_unique<StaticItbsChannel>(7));
  const UeId ue2 = f.cell.AddUe(std::make_unique<StaticItbsChannel>(7));
  const FlowId video = f.cell.AddFlow(ue1, FlowType::kVideo);
  const FlowId data = f.cell.AddFlow(ue2, FlowType::kData);
  f.cell.SetGbr(video, 2e6);  // 2 Mbit/s guaranteed
  f.cell.Enqueue(video, 10'000'000);
  f.cell.Enqueue(data, 10'000'000);
  f.cell.Start();
  f.sim.RunUntil(FromSeconds(2.0));
  const double video_bps =
      static_cast<double>(f.cell.total_tx_bytes(video)) * 8.0 / 2.0;
  // GBR met (within token-bucket slack) despite the competing data flow.
  EXPECT_GT(video_bps, 1.9e6);
}

TEST(Cell, MbrCapsThroughput) {
  CellFixture f(std::make_unique<PfScheduler>());
  const UeId ue = f.cell.AddUe(std::make_unique<StaticItbsChannel>(7));
  const FlowId flow = f.cell.AddFlow(ue, FlowType::kData);
  f.cell.SetMbr(flow, 1e6);  // cap well below the 5.2 Mbit/s channel
  f.cell.Enqueue(flow, 10'000'000);
  f.cell.Start();
  f.sim.RunUntil(FromSeconds(2.0));
  const double bps =
      static_cast<double>(f.cell.total_tx_bytes(flow)) * 8.0 / 2.0;
  EXPECT_NEAR(bps, 1e6, 0.15e6);
}

TEST(Cell, ContinuousGbrUpdateTakesEffect) {
  CellConfig config;
  config.queue_limit_bytes = 100'000'000;  // keep both flows backlogged
  CellFixture f(std::make_unique<TwoPhaseGbrScheduler>(), config);
  const UeId ue1 = f.cell.AddUe(std::make_unique<StaticItbsChannel>(7));
  const UeId ue2 = f.cell.AddUe(std::make_unique<StaticItbsChannel>(7));
  const FlowId video = f.cell.AddFlow(ue1, FlowType::kVideo);
  const FlowId data = f.cell.AddFlow(ue2, FlowType::kData);
  f.cell.SetGbr(video, 0.2e6);
  f.cell.Enqueue(video, 20'000'000);
  f.cell.Enqueue(data, 20'000'000);
  // Raise the GBR mid-run (the Continuous GBR Updater path).
  f.sim.At(FromSeconds(1.0), [&] { f.cell.SetGbr(video, 4.5e6); });
  f.cell.Start();

  f.sim.RunUntil(FromSeconds(1.0));
  const std::uint64_t at_1s = f.cell.total_tx_bytes(video);
  f.sim.RunUntil(FromSeconds(2.0));
  const std::uint64_t at_2s = f.cell.total_tx_bytes(video);

  // Phase 1 GBR + PF split of the remainder: ~0.2 + 2.5 Mbit/s before the
  // update, ~4.5 + 0.35 Mbit/s after.
  const double rate_first = static_cast<double>(at_1s) * 8.0;
  const double rate_second = static_cast<double>(at_2s - at_1s) * 8.0;
  EXPECT_GT(rate_second, 4.4e6);
  EXPECT_GT(rate_second, rate_first * 1.4);
}

TEST(Cell, UeItbsTracksChannel) {
  CellFixture f(std::make_unique<PfScheduler>());
  const auto schedule = TriangleItbsSchedule(1, 12, FromSeconds(240), 0);
  const UeId ue =
      f.cell.AddUe(std::make_unique<ItbsOverrideChannel>(schedule));
  f.cell.Start();
  f.sim.RunUntil(FromSeconds(120.0));  // peak of the triangle
  EXPECT_EQ(f.cell.UeItbs(ue), 12);
  EXPECT_DOUBLE_EQ(f.cell.UeFullCellRateBps(ue),
                   ItbsToCellRateBps(12, 50));
}

TEST(Cell, RemoveFlowStopsService) {
  CellFixture f(std::make_unique<PfScheduler>());
  const UeId ue = f.cell.AddUe(std::make_unique<StaticItbsChannel>(7));
  const FlowId flow = f.cell.AddFlow(ue, FlowType::kData);
  f.cell.Enqueue(flow, 1'000'000);
  f.cell.Start();
  f.sim.RunUntil(FromSeconds(0.1));
  f.cell.RemoveFlow(flow);
  EXPECT_FALSE(f.cell.HasFlow(flow));
  EXPECT_NO_THROW(f.sim.RunUntil(FromSeconds(0.2)));
}

TEST(Cell, UnknownFlowThrows) {
  CellFixture f(std::make_unique<PfScheduler>());
  EXPECT_THROW(f.cell.flow(999), std::out_of_range);
  EXPECT_THROW(f.cell.Enqueue(999, 10), std::out_of_range);
  EXPECT_THROW(f.cell.SetGbr(999, 1.0), std::out_of_range);
}

TEST(Cell, BlerScalesThroughputAndTriggersHarq) {
  CellConfig config;
  config.queue_limit_bytes = 10'000'000;
  config.target_bler = 0.1;
  CellFixture f(std::make_unique<PfScheduler>(), config);
  const UeId ue = f.cell.AddUe(std::make_unique<StaticItbsChannel>(7));
  const FlowId flow = f.cell.AddFlow(ue, FlowType::kData);
  f.cell.Enqueue(flow, 10'000'000);
  f.cell.Start();
  f.sim.RunUntil(FromSeconds(4.0));
  // Ideal link carries 650 KB/s; 10% BLER leaves ~90%.
  const double delivered =
      static_cast<double>(f.cell.total_tx_bytes(flow)) / 4.0;
  EXPECT_NEAR(delivered, 0.9 * 650'000.0, 0.03 * 650'000.0);
  // Roughly one in ten TTIs retransmits.
  EXPECT_NEAR(static_cast<double>(f.cell.harq_retransmissions()) /
                  static_cast<double>(f.cell.ttis_elapsed()),
              0.1, 0.03);
}

TEST(Cell, ZeroBlerIsLossless) {
  CellFixture f(std::make_unique<PfScheduler>());
  const UeId ue = f.cell.AddUe(std::make_unique<StaticItbsChannel>(7));
  const FlowId flow = f.cell.AddFlow(ue, FlowType::kData);
  f.cell.Enqueue(flow, 65'000);
  f.cell.Start();
  f.sim.RunUntil(FromSeconds(1.0));
  EXPECT_EQ(f.cell.harq_retransmissions(), 0u);
  EXPECT_EQ(f.cell.total_tx_bytes(flow), 65'000u);
}

TEST(Cell, RbConservationAcrossBusyRun) {
  CellFixture f(std::make_unique<TwoPhaseGbrScheduler>());
  for (int i = 0; i < 4; ++i) {
    const UeId ue = f.cell.AddUe(std::make_unique<StaticItbsChannel>(5));
    const FlowId flow = f.cell.AddFlow(
        ue, i % 2 == 0 ? FlowType::kVideo : FlowType::kData);
    if (i % 2 == 0) f.cell.SetGbr(flow, 1e6);
    f.cell.Enqueue(flow, 50'000'000);
  }
  f.cell.Start();
  f.sim.RunUntil(FromSeconds(1.0));
  EXPECT_LE(f.cell.total_rbs_used(), f.cell.ttis_elapsed() * 50u);
  EXPECT_GT(f.cell.total_rbs_used(), f.cell.ttis_elapsed() * 45u);
}

/// A channel whose I_TBS changes every 100 us and which logs the time of
/// every query.
class RecordingChannel final : public ChannelModel {
 public:
  RecordingChannel(int salt, std::shared_ptr<std::vector<SimTime>> log)
      : salt_(salt), log_(std::move(log)) {}
  static int Value(SimTime now, int salt) {
    return 1 + static_cast<int>((now / 100 + salt) % 25);
  }
  int ItbsAt(SimTime now) override {
    log_->push_back(now);
    return Value(now, salt_);
  }

 private:
  int salt_;
  std::shared_ptr<std::vector<SimTime>> log_;
};

// The cell reads a UE's channel only for TTIs where the UE has a candidate
// flow, or when UeItbs asks; reads never go back in time, and UeItbs
// reports the value as of the latest TTI (or as of AddUe if none has run
// since), exactly as if every UE were read every TTI.
TEST(Cell, ChannelsAreReadOnDemandInTimeOrder) {
  CellFixture f(std::make_unique<PssScheduler>());
  std::vector<std::shared_ptr<std::vector<SimTime>>> logs;
  std::map<UeId, int> salt;
  auto add_ue = [&](int ue_salt) {
    logs.push_back(std::make_shared<std::vector<SimTime>>());
    const UeId ue = f.cell.AddUe(
        std::make_unique<RecordingChannel>(ue_salt, logs.back()));
    salt[ue] = ue_salt;
    return ue;
  };
  const UeId busy = add_ue(0);
  const UeId idle = add_ue(1);  // a flow, but nothing queued
  const UeId bare = add_ue(2);  // no flow at all
  f.cell.Enqueue(f.cell.AddFlow(busy, FlowType::kData), 700'000);
  f.cell.AddFlow(idle, FlowType::kData);
  f.cell.Start();

  f.sim.RunUntil(50 * kTti + 500);  // between two TTIs
  // AddUe's read at 0 serves the first TTI too; then one read per TTI.
  std::vector<SimTime> every_tti;
  for (int t = 0; t <= 50; ++t) every_tti.push_back(t * kTti);
  EXPECT_EQ(*logs[busy], every_tti);
  EXPECT_EQ(*logs[idle], (std::vector<SimTime>{0}));
  EXPECT_EQ(*logs[bare], (std::vector<SimTime>{0}));
  for (const UeId ue : {busy, idle, bare}) {
    EXPECT_EQ(f.cell.UeItbs(ue), RecordingChannel::Value(50 * kTti, salt[ue]));
  }

  // Attached between TTIs: the value as of AddUe until the next TTI.
  const UeId late = add_ue(3);
  EXPECT_EQ(f.cell.UeItbs(late), RecordingChannel::Value(50 * kTti + 500, 3));
  f.sim.RunUntil(60 * kTti);
  EXPECT_EQ(f.cell.UeItbs(late), RecordingChannel::Value(60 * kTti, 3));
  EXPECT_EQ(f.cell.UeItbs(idle), RecordingChannel::Value(60 * kTti, 1));

  // A released slot is reused by the next AddUe with a fresh channel.
  f.cell.ReleaseUe(bare);
  const UeId reused = add_ue(4);
  ASSERT_EQ(reused, bare);
  EXPECT_EQ(f.cell.UeItbs(reused), RecordingChannel::Value(60 * kTti, 4));
  f.cell.Enqueue(f.cell.AddFlow(reused, FlowType::kData), 700'000);
  f.sim.RunUntil(80 * kTti + 200);
  EXPECT_EQ(logs.back()->back(), 80 * kTti);  // busy again: read each TTI
  EXPECT_EQ(logs.back()->size(), 1u + 20u);
  for (const UeId ue : {busy, idle, reused, late}) {
    EXPECT_EQ(f.cell.UeItbs(ue), RecordingChannel::Value(80 * kTti, salt[ue]));
  }
  for (const auto& log : logs) {
    EXPECT_TRUE(std::is_sorted(log->begin(), log->end()));
  }
}

// Once warmed up, a busy PSS cell of 8 vehicular UEs (GBR video and
// data), with a small-lambda push/run loop beside it, allocates nothing.
TEST(Cell, SteadyStateTtisAllocateNothing) {
  Simulator sim;
  Cell cell(sim, std::make_unique<PssScheduler>(), CellConfig{}, Rng(3));
  Rng rng(5);
  for (std::uint64_t i = 0; i < 8; ++i) {
    auto mobility = std::make_shared<RandomWaypointMobility>(
        RandomWaypointConfig{}, rng.Fork(2 * i + 1));
    const UeId ue = cell.AddUe(std::make_unique<FadedMobilityChannel>(
        std::move(mobility), RadioConfig{}, rng.Fork(2 * i + 2)));
    const FlowId flow =
        cell.AddFlow(ue, i < 6 ? FlowType::kVideo : FlowType::kData);
    if (i < 6) cell.SetGbr(flow, 0.5e6 + 0.1e6 * static_cast<double>(i));
    cell.Enqueue(flow, 700'000);
  }
  cell.SetDeliveryCallback([](FlowId, std::uint64_t, SimTime) {});
  std::uint64_t ticks = 0;
  sim.Every(0, 250, [&sim, &ticks] {
    sim.After(100, [&ticks] { ++ticks; });
  });
  cell.Start();
  sim.RunUntil(100 * kTti);  // scratch buffers, slab and heap settle

  const std::uint64_t tx_before = cell.total_rbs_used();
  const std::uint64_t before = g_allocations.load();
  sim.RunUntil(1100 * kTti);
  const std::uint64_t allocations = g_allocations.load() - before;

  EXPECT_EQ(allocations, 0u);
  EXPECT_GT(cell.total_rbs_used() - tx_before, 1000u * 45u);  // stayed busy
  EXPECT_GT(ticks, 4000u);
}

}  // namespace
}  // namespace flare
