#include "layers.h"

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "harness.h"
#include "lte/channel.h"
#include "lte/gbr_scheduler.h"
#include "lte/mobility.h"
#include "lte/pss_scheduler.h"
#include "lte/tbs_table.h"
#include "net/messages.h"
#include "sim/event_queue.h"
#include "svc/frame.h"
#include "util/rng.h"

namespace perfbench {
namespace {

constexpr int kBatches = 7;

// Results of the timed calls land here so the compiler cannot drop them.
volatile std::uint64_t g_sink = 0;

/// Runs `batch(calls)` kBatches times; median ns per call.
template <typename Batch>
double MedianNsPerCall(std::size_t calls, Batch&& batch) {
  std::vector<double> per_call;
  for (int b = 0; b < kBatches; ++b) {
    const auto start = Clock::now();
    batch(calls);
    const auto end = Clock::now();
    per_call.push_back(MicrosBetween(start, end) * 1e3 /
                       static_cast<double>(calls));
  }
  return Median(std::move(per_call));
}

flare::RateAssignmentMsg SampleAssignment() {
  flare::RateAssignmentMsg msg;
  msg.flow = 4242;
  msg.level = 3;
  msg.rate_bps = 790000.0;
  msg.gbr_bps = 869000.0;
  return msg;
}

}  // namespace

double EventQueueNs(std::size_t depth, std::uint64_t seed) {
  depth = std::max<std::size_t>(depth, 1);
  flare::Rng rng(seed);
  std::vector<flare::SimTime> delays(4096);
  for (flare::SimTime& d : delays) d = rng.UniformInt(1, 1000);
  std::uint64_t fired = 0;
  std::uint64_t* counter = &fired;
  flare::EventQueue queue;
  for (std::size_t i = 0; i < depth; ++i) {
    queue.Push(delays[i % delays.size()], [counter] { ++*counter; });
  }
  std::size_t next = 0;
  const double ns = MedianNsPerCall(200000, [&](std::size_t calls) {
    for (std::size_t i = 0; i < calls; ++i) {
      const flare::SimTime now = queue.NextTime();
      queue.RunNext();
      queue.Push(now + delays[next++ % delays.size()],
                 [counter, i] { *counter += i & 1; });
    }
  });
  g_sink = g_sink + fired;
  return ns;
}

double MobilityItbsNs(int ues, std::uint64_t seed) {
  ues = std::max(ues, 1);
  flare::Rng rng(seed);
  std::vector<std::unique_ptr<flare::FadedMobilityChannel>> channels;
  for (int u = 0; u < ues; ++u) {
    const auto salt = static_cast<std::uint64_t>(u);
    auto mobility = std::make_shared<flare::RandomWaypointMobility>(
        flare::RandomWaypointConfig{}, rng.Fork(2 * salt + 1));
    channels.push_back(std::make_unique<flare::FadedMobilityChannel>(
        std::move(mobility), flare::RadioConfig{}, rng.Fork(2 * salt + 2)));
  }
  flare::SimTime now = 0;
  const std::size_t rounds = 20000;
  return MedianNsPerCall(rounds * channels.size(), [&](std::size_t calls) {
    std::uint64_t sum = 0;
    for (std::size_t r = 0; r < calls / channels.size(); ++r) {
      now += flare::kTti;
      for (auto& channel : channels) {
        sum += static_cast<std::uint64_t>(channel->ItbsAt(now));
      }
    }
    g_sink = g_sink + sum;
  });
}

double AllocateNs(SchedulerUnderTest which, int candidates, int num_rbs,
                  std::uint64_t seed) {
  candidates = std::max(candidates, 1);
  flare::Rng rng(seed);
  std::vector<flare::FlowState> flows(static_cast<std::size_t>(candidates));
  std::vector<flare::SchedCandidate> tmpl;
  for (int i = 0; i < candidates; ++i) {
    flare::FlowState& f = flows[static_cast<std::size_t>(i)];
    f.id = static_cast<flare::FlowId>(i + 1);
    f.ue = static_cast<flare::UeId>(i);
    f.type = i == 0 ? flare::FlowType::kData : flare::FlowType::kVideo;
    if (f.type == flare::FlowType::kVideo) {
      f.gbr_bps = rng.Uniform(2e5, 2e6);
      f.gbr_credit_bytes = rng.Uniform(0.0, 4000.0);
    }
    f.pf_avg_bps = rng.Uniform(2e5, 2e6);
    f.queued_bytes = 500000;
    flare::SchedCandidate c;
    c.flow = &f;
    c.bytes_per_rb = static_cast<std::uint32_t>(
        flare::TbsBitsPerPrb(static_cast<int>(rng.UniformInt(3, 20))) / 8);
    c.max_bytes = f.queued_bytes;
    tmpl.push_back(c);
  }
  std::unique_ptr<flare::Scheduler> scheduler;
  if (which == SchedulerUnderTest::kPss) {
    scheduler = std::make_unique<flare::PssScheduler>();
  } else {
    scheduler = std::make_unique<flare::TwoPhaseGbrScheduler>();
  }
  std::vector<flare::SchedCandidate> work;
  work.reserve(tmpl.size());
  return MedianNsPerCall(50000, [&](std::size_t calls) {
    std::uint64_t granted = 0;
    for (std::size_t i = 0; i < calls; ++i) {
      // Allocate takes its candidates by mutable reference: start each
      // call from the same input.
      work.assign(tmpl.begin(), tmpl.end());
      granted += scheduler->Allocate(work, num_rbs, rng).size();
    }
    g_sink = g_sink + granted;
  });
}

double EncodeAssignmentNs() {
  flare::RateAssignmentMsg msg = SampleAssignment();
  return MedianNsPerCall(100000, [&](std::size_t calls) {
    std::uint64_t bytes = 0;
    for (std::size_t i = 0; i < calls; ++i) {
      msg.flow = 1000 + (i % 1024);
      bytes += flare::EncodeFrame(flare::FrameType::kAssignment,
                                  flare::EncodeRateAssignment(msg))
                   .size();
    }
    g_sink = g_sink + bytes;
  });
}

double ParseAssignmentNs() {
  const std::string frame = flare::EncodeFrame(
      flare::FrameType::kAssignment,
      flare::EncodeRateAssignment(SampleAssignment()));
  std::string inbox;
  flare::Frame parsed;
  return MedianNsPerCall(100000, [&](std::size_t calls) {
    std::uint64_t levels = 0;
    for (std::size_t i = 0; i < calls; ++i) {
      inbox.assign(frame);
      if (flare::ParseFrame(&inbox, &parsed) != flare::FrameParseStatus::kFrame) {
        continue;
      }
      const auto msg = flare::DecodeRateAssignment(parsed.payload);
      if (msg) levels += static_cast<std::uint64_t>(msg->level);
    }
    g_sink = g_sink + levels;
  });
}

}  // namespace perfbench
