// Tests for the discrete-event simulation core.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>
#include <set>
#include <stdexcept>
#include <tuple>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "sim/event_queue.h"
#include "sim/simulator.h"
#include "util/rng.h"

namespace flare {
namespace {

TEST(EventQueue, OrdersByTime) {
  EventQueue q;
  std::vector<int> order;
  q.Push(30, [&] { order.push_back(3); });
  q.Push(10, [&] { order.push_back(1); });
  q.Push(20, [&] { order.push_back(2); });
  while (!q.Empty()) q.RunNext();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, TiesBreakInSchedulingOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.Push(5, [&order, i] { order.push_back(i); });
  }
  while (!q.Empty()) q.RunNext();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventQueue, EventsMayScheduleEvents) {
  EventQueue q;
  int fired = 0;
  q.Push(1, [&] {
    ++fired;
    q.Push(2, [&] { ++fired; });
  });
  while (!q.Empty()) q.RunNext();
  EXPECT_EQ(fired, 2);
}

TEST(EventQueue, ClearEmptiesQueue) {
  EventQueue q;
  q.Push(1, [] {});
  q.Push(2, [] {});
  q.Clear();
  EXPECT_TRUE(q.Empty());
}

// Reference model for the differential test: the (at, seq) total order
// kept in a std::set, with seq assigned in push order like the queue's.
struct QueueModel {
  EventQueue queue;
  std::set<std::tuple<SimTime, std::uint64_t, int>> pending;
  std::uint64_t seq = 0;
  int next_id = 0;
  std::vector<int> fired;
  Rng rng{17};

  // Pushes event `id` at `at` into both the queue and the model. A
  // running event may push children: some at its own timestamp (FIFO
  // after everything already queued there), some later. Every fourth
  // event carries a capture too big for the inline buffer.
  void Push(SimTime at) {
    const int id = next_id++;
    pending.emplace(at, seq++, id);
    auto run = [this, at, id] {
      fired.push_back(id);
      const int children = static_cast<int>(rng.UniformInt(0, 2));
      for (int c = 0; c < children && next_id < 4000; ++c) {
        Push(at + rng.UniformInt(0, 3));
      }
    };
    if (id % 4 == 0) {
      std::array<std::uint64_t, 16> pad{};
      pad[15] = static_cast<std::uint64_t>(id);
      queue.Push(at, [run, pad, id] {
        EXPECT_EQ(pad[15], static_cast<std::uint64_t>(id));
        run();
      });
    } else {
      queue.Push(at, run);
    }
  }
};

TEST(EventQueue, MatchesReferenceOrderUnderRandomPushes) {
  QueueModel m;
  for (int round = 0; round < 300; ++round) {
    const int pushes = static_cast<int>(m.rng.UniformInt(0, 4));
    for (int i = 0; i < pushes; ++i) m.Push(m.rng.UniformInt(0, 40) + round);
    const int pops = static_cast<int>(m.rng.UniformInt(0, 4));
    for (int i = 0; i < pops && !m.queue.Empty(); ++i) {
      ASSERT_FALSE(m.pending.empty());
      const auto [at, seq, id] = *m.pending.begin();
      m.pending.erase(m.pending.begin());
      ASSERT_EQ(m.queue.NextTime(), at);
      m.queue.RunNext();
      ASSERT_EQ(m.fired.back(), id) << "seq " << seq;
    }
    ASSERT_EQ(m.queue.Size(), m.pending.size());
  }
  while (!m.queue.Empty()) {
    const auto [at, seq, id] = *m.pending.begin();
    m.pending.erase(m.pending.begin());
    ASSERT_EQ(m.queue.NextTime(), at);
    m.queue.RunNext();
    ASSERT_EQ(m.fired.back(), id) << "seq " << seq;
  }
  EXPECT_TRUE(m.pending.empty());
  EXPECT_GT(m.next_id, 1000);  // the run actually exercised re-entrancy
}

TEST(EventQueue, LargeCapturesRunWithTheirState) {
  EventQueue q;
  std::uint64_t sum = 0;
  for (int i = 0; i < 50; ++i) {
    std::array<std::uint64_t, 32> big{};
    static_assert(sizeof(big) > EventQueue::kInlineBytes);
    big.fill(static_cast<std::uint64_t>(i));
    q.Push(i % 7, [big, &sum] {
      for (std::uint64_t v : big) sum += v;
    });
  }
  while (!q.Empty()) q.RunNext();
  EXPECT_EQ(sum, 32u * (49u * 50u / 2u));
}

// Counts live instances; copies and moves count as new instances.
struct Counted {
  static int live;
  static int destroyed;
  Counted() { ++live; }
  Counted(const Counted&) { ++live; }
  Counted(Counted&&) noexcept { ++live; }
  ~Counted() {
    --live;
    ++destroyed;
  }
};
int Counted::live = 0;
int Counted::destroyed = 0;

TEST(EventQueue, ClearAndDestructorDestroyEachPendingCallableOnce) {
  for (const bool use_clear : {true, false}) {
    Counted::live = 0;
    {
      EventQueue q;
      for (int i = 0; i < 600; ++i) {  // spans several slab chunks
        Counted token;
        if (i % 3 == 0) {
          std::array<char, 100> pad{};
          q.Push(i, [token, pad] { (void)pad; });
        } else {
          q.Push(i, [token] {});
        }
      }
      EXPECT_EQ(Counted::live, 600);  // exactly one stored copy each
      Counted::destroyed = 0;
      if (use_clear) {
        q.Clear();
        EXPECT_TRUE(q.Empty());
        EXPECT_EQ(Counted::destroyed, 600);
        EXPECT_EQ(Counted::live, 0);
        // The slots are reusable after a Clear.
        q.Push(1, [token = Counted()] {});
        q.RunNext();
        EXPECT_EQ(Counted::live, 0);
      }
    }
    EXPECT_EQ(Counted::live, 0);
    if (!use_clear) {
      EXPECT_EQ(Counted::destroyed, 600);
    }
  }
}

TEST(EventQueue, RunningCallableOutlivesReentrantPushes) {
  EventQueue q;
  Counted::live = 0;
  int children = 0;
  bool intact = false;
  std::array<std::uint64_t, 4> magic{1, 2, 3, 4};
  q.Push(0, [&, magic, token = Counted()] {
    // Enough pushes to grow the slab while this record is running.
    for (int i = 0; i < 700; ++i) q.Push(1, [&children] { ++children; });
    intact = magic == std::array<std::uint64_t, 4>{1, 2, 3, 4} &&
             Counted::live == 1;
  });
  q.RunNext();
  EXPECT_TRUE(intact);
  EXPECT_EQ(Counted::live, 0);  // destroyed after it returned
  while (!q.Empty()) q.RunNext();
  EXPECT_EQ(children, 700);
}

TEST(EventQueue, ThrowingEventLeavesQueueConsistent) {
  EventQueue q;
  Counted::live = 0;
  std::vector<int> order;
  q.Push(2, [&order] { order.push_back(2); });
  q.Push(1, [token = Counted()] { throw std::runtime_error("boom"); });
  q.Push(3, [&order] { order.push_back(3); });
  EXPECT_THROW(q.RunNext(), std::runtime_error);
  EXPECT_EQ(Counted::live, 0);  // the thrower was still destroyed
  EXPECT_EQ(q.Size(), 2u);
  EXPECT_EQ(q.NextTime(), 2);
  q.Push(0, [&order] { order.push_back(0); });
  while (!q.Empty()) q.RunNext();
  EXPECT_EQ(order, (std::vector<int>{0, 2, 3}));
}

TEST(Simulator, ClockAdvancesToEventTimes) {
  Simulator sim;
  std::vector<SimTime> seen;
  sim.At(100, [&] { seen.push_back(sim.Now()); });
  sim.At(250, [&] { seen.push_back(sim.Now()); });
  sim.RunUntil(1000);
  EXPECT_EQ(seen, (std::vector<SimTime>{100, 250}));
  EXPECT_EQ(sim.Now(), 1000);  // horizon reached even with queue drained
}

TEST(Simulator, RunUntilStopsAtHorizon) {
  Simulator sim;
  int fired = 0;
  sim.At(100, [&] { ++fired; });
  sim.At(200, [&] { ++fired; });
  sim.RunUntil(150);
  EXPECT_EQ(fired, 1);
  sim.RunUntil(250);
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, EventExactlyAtHorizonRuns) {
  Simulator sim;
  bool fired = false;
  sim.At(100, [&] { fired = true; });
  sim.RunUntil(100);
  EXPECT_TRUE(fired);
}

TEST(Simulator, SchedulingInThePastClampsToNow) {
  Simulator sim;
  SimTime fired_at = -1;
  sim.At(100, [&] {
    sim.At(50, [&] { fired_at = sim.Now(); });  // "past" event
  });
  sim.RunUntil(200);
  EXPECT_EQ(fired_at, 100);
}

TEST(Simulator, AfterIsRelative) {
  Simulator sim;
  SimTime fired_at = -1;
  sim.At(100, [&] {
    sim.After(25, [&] { fired_at = sim.Now(); });
  });
  sim.RunUntil(200);
  EXPECT_EQ(fired_at, 125);
}

TEST(Simulator, EveryRepeats) {
  Simulator sim;
  int count = 0;
  sim.Every(10, 10, [&] { ++count; });
  sim.RunUntil(100);
  EXPECT_EQ(count, 10);  // t = 10, 20, ..., 100
}

TEST(Simulator, StopHaltsRun) {
  Simulator sim;
  int count = 0;
  sim.Every(10, 10, [&] {
    if (++count == 3) sim.Stop();
  });
  sim.RunUntil(1000);
  EXPECT_EQ(count, 3);
  EXPECT_EQ(sim.Now(), 30);
}

TEST(Simulator, CountsProcessedEvents) {
  Simulator sim;
  for (int i = 0; i < 5; ++i) sim.At(i, [] {});
  sim.RunUntil(10);
  EXPECT_EQ(sim.events_processed(), 5u);
}

// Regression: Every() used to store its repeating callable in a
// shared_ptr whose lambda captured that same shared_ptr — a reference
// cycle that leaked the callable (and everything it captured) after the
// simulator was destroyed.
TEST(Simulator, EveryCallableIsReleasedWithSimulator) {
  auto payload = std::make_shared<int>(0);
  std::weak_ptr<int> watch = payload;
  {
    Simulator sim;
    sim.Every(10, 10, [payload] { ++*payload; });
    payload.reset();
    sim.RunUntil(50);
    EXPECT_FALSE(watch.expired());  // still scheduled, still alive
  }
  // Destroying the simulator (draining its queue) must free the callable.
  EXPECT_TRUE(watch.expired());
}

// Each occurrence of an Every task queues the next one after the task
// returns, so an event the task schedules for Now() runs first.
TEST(Simulator, EveryTaskEventAtNowRunsBeforeItsNextOccurrence) {
  Simulator sim;
  std::vector<std::pair<char, SimTime>> order;
  sim.Every(10, 10, [&] {
    order.emplace_back('t', sim.Now());
    sim.At(sim.Now(), [&] { order.emplace_back('e', sim.Now()); });
  });
  sim.RunUntil(30);
  const std::vector<std::pair<char, SimTime>> expected = {
      {'t', 10}, {'e', 10}, {'t', 20}, {'e', 20}, {'t', 30}, {'e', 30}};
  EXPECT_EQ(order, expected);
}

// A zero period re-arms at the same instant, behind what the task queued.
TEST(Simulator, ZeroPeriodEveryInterleavesWithItsOwnEvents) {
  Simulator sim;
  std::vector<char> order;
  int ticks = 0;
  sim.Every(5, 0, [&] {
    order.push_back('t');
    sim.After(0, [&] { order.push_back('e'); });
    if (++ticks == 3) sim.Stop();
  });
  sim.RunUntil(100);
  EXPECT_EQ(order, (std::vector<char>{'t', 'e', 't', 'e', 't'}));
  EXPECT_EQ(sim.Now(), 5);
}

TEST(Simulator, MetricsCountEventsAndQueueDepth) {
  MetricsRegistry registry;
  Simulator sim;
  sim.SetMetrics(&registry);
  for (int i = 0; i < 4; ++i) sim.At(i + 1, [] {});
  sim.RunUntil(10);
  EXPECT_EQ(registry.GetCounter("sim.events").value(), 4u);
  EXPECT_EQ(registry.GetGauge("sim.queue_depth").value(), 0.0);
}

}  // namespace
}  // namespace flare
