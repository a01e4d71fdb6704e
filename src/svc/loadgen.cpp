#include "svc/loadgen.h"

#include <sys/timerfd.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>
#include <sstream>

#include "churn/session_churn.h"
#include "net/messages.h"
#include "netio/event_loop.h"
#include "netio/http_client.h"
#include "netio/tcp.h"
#include "obs/span_trace.h"
#include "sim/simulator.h"
#include "svc/frame.h"
#include "svc/request_trace.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/time.h"

namespace flare {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Arm `timer_fd` to fire once, `delay_s` from now.
void ArmTimer(int timer_fd, double delay_s) {
  const auto ns =
      static_cast<std::int64_t>(std::clamp(delay_s, 0.0, 1e9) * 1e9);
  itimerspec spec{};
  spec.it_value.tv_sec = static_cast<time_t>(ns / 1000000000);
  // At least 1 ns: a zero it_value would disarm the timer instead.
  spec.it_value.tv_nsec = std::max<long>(ns % 1000000000, 1);
  ::timerfd_settime(timer_fd, 0, &spec, nullptr);
}

/// One connected session.
struct Client {
  explicit Client(int fd) : conn(fd) {}
  TcpConnection conn;
  int session = -1;
  bool welcomed = false;
  double efficiency = 0.0;
  /// When the sample the next assignment will consume became available.
  Clock::time_point sample_time;
  /// Trace context of the in-flight stats report, awaiting its echo.
  std::uint64_t pending_trace = 0;
  double pending_t0_us = 0.0;
  bool has_pending_trace = false;
};

}  // namespace

void LoadGenResult::ExportTo(MetricsRegistry* registry) const {
  if (registry == nullptr) return;
  registry->GetCounter("svc.oneapi.loadgen.attempted").Add(attempted);
  registry->GetCounter("svc.oneapi.loadgen.admitted").Add(admitted);
  registry->GetCounter("svc.oneapi.loadgen.blocked").Add(blocked);
  registry->GetCounter("svc.oneapi.loadgen.departed").Add(departed);
  registry->GetCounter("svc.oneapi.loadgen.assignments").Add(assignments);
  registry->GetCounter("svc.oneapi.loadgen.connect_failures")
      .Add(connect_failures);
  registry->GetCounter("svc.oneapi.loadgen.protocol_errors")
      .Add(protocol_errors);
  registry->GetCounter("svc.oneapi.loadgen.traced").Add(traced);
  registry->GetCounter("svc.oneapi.loadgen.trace_mismatches")
      .Add(trace_mismatches);
  registry->GetGauge("svc.oneapi.assign_turnaround.p50_us")
      .Set(turnaround_p50_us);
  registry->GetGauge("svc.oneapi.assign_turnaround.p95_us")
      .Set(turnaround_p95_us);
  registry->GetGauge("svc.oneapi.assign_turnaround.p99_us")
      .Set(turnaround_p99_us);
  registry->GetGauge("svc.oneapi.blocking_rate").Set(blocking_rate);
  registry->GetGauge("svc.oneapi.session_rate_per_s").Set(session_rate_per_s);
  registry->GetGauge("svc.oneapi.loadgen.wall_s").Set(wall_s);
  registry->GetGauge("svc.oneapi.loadgen.completed").Set(completed ? 1 : 0);
}

LoadGenerator::LoadGenerator(LoadGenOptions options)
    : options_(std::move(options)) {}

std::vector<LoadGenerator::Event> LoadGenerator::BuildSchedule() const {
  std::vector<Event> events;
  Simulator sim;
  ChurnConfig config;
  config.enabled = true;
  config.arrival_process = ChurnProcess::kPoisson;
  config.arrival_rate_per_s = options_.arrival_rate_per_s;
  config.hold_process = ChurnProcess::kLognormal;
  config.mean_hold_s = options_.mean_hold_s;
  config.lognormal_sigma = options_.lognormal_sigma;
  config.max_arrivals = options_.sessions;

  int next_id = 0;
  SessionChurnEngine::Host host;
  host.spawn = [&](SessionKind) {
    const int id = next_id++;
    events.push_back(Event{ToSeconds(sim.Now()), true, id});
    return id;
  };
  host.destroy = [&](int id) {
    events.push_back(Event{ToSeconds(sim.Now()), false, id});
  };
  SessionChurnEngine engine(sim, config, host, Rng(options_.seed));
  engine.Start();
  // max_arrivals stops the arrival chain, so the event queue drains long
  // before this bound; it only guards against a degenerate config.
  sim.RunUntil(FromSeconds(1e9));
  return events;  // already time-ordered: the simulator emitted them so
}

LoadGenResult LoadGenerator::Run() {
  const std::vector<Event> schedule = BuildSchedule();
  LoadGenResult result;
  std::vector<double> turnarounds_us;
  const Clock::time_point start = Clock::now();
  std::size_t next_event = 0;
  const double scale = options_.time_scale > 0.0 ? options_.time_scale : 1.0;
  bool aborted = false;

  // Sessions are numbered 0..N-1 in arrival order, so the session table
  // is a vector indexed by session; a null slot is not connected (not
  // yet, or any more).
  std::vector<std::unique_ptr<Client>> clients(static_cast<std::size_t>(
      std::count_if(schedule.begin(), schedule.end(),
                    [](const Event& event) { return event.arrival; })));
  std::size_t live = 0;

  // All socket IO runs on one EpollLoop on this thread. Schedule events
  // fire from a one-shot timerfd, armed at the earlier of the next due
  // event and the max_wall_s deadline; the only wait outside the loop is
  // an arrival's connect, and its deadline is the wall time left.
  EpollLoop loop;
  const int timer_fd =
      ::timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK | TFD_CLOEXEC);

  // Client-side tracing: one span per echoed assignment, timestamps in
  // microseconds since `start` (this process's trace clock). flare_trace
  // aligns it to the daemon's clock via the srx/stx echoes.
  const bool tracing = options_.trace || !options_.trace_json.empty();
  SpanTracer tracer;
  tracer.set_default_pid(2);  // daemon records at pid 1
  const auto trace_now_us = [&start] { return SecondsSince(start) * 1e6; };
  std::uint64_t trace_counter = 0;

  const auto queue_stats = [&](Client& client) {
    FlowStatsReport report;
    report.flow = static_cast<FlowId>(client.session) + 1;
    report.type = FlowType::kVideo;
    // rbs = 8 makes e_u = 8 * tx_bytes / rbs == tx_bytes exactly, so the
    // server's efficiency estimate equals `efficiency` with no rounding.
    report.tx_bytes = static_cast<std::uint64_t>(client.efficiency);
    report.rbs = 8;
    report.throughput_bps = client.efficiency * 8.0 * 1000.0;
    report.rb_utilization = 0.0;
    TraceContext ctx;
    const TraceContext* ctx_ptr = nullptr;
    if (tracing) {
      // Session in the high bits keeps ids unique across the run while
      // staying attributable at a glance.
      ctx.trace_id =
          (static_cast<std::uint64_t>(client.session + 1) << 32) |
          ++trace_counter;
      const double t0_us = trace_now_us();
      ctx.client_send_us = static_cast<std::int64_t>(t0_us);
      client.pending_trace = ctx.trace_id;
      client.pending_t0_us = t0_us;
      client.has_pending_trace = true;
      ctx_ptr = &ctx;
    }
    client.sample_time = Clock::now();
    client.conn.Queue(
        EncodeFrame(FrameType::kStatsReport, EncodeStatsReport(report),
                    ctx_ptr));
  };

  // Writable interest only while queued bytes remain.
  const auto interest = [](const Client& client) {
    return EpollLoop::kReadable | EpollLoop::kError |
           (client.conn.pending_bytes() > 0 ? EpollLoop::kWritable : 0u);
  };

  const auto finish_if_done = [&] {
    if (next_event < schedule.size() || live > 0) return false;
    result.completed = true;
    loop.Stop();
    return true;
  };

  const auto close_client = [&](int session) {
    std::unique_ptr<Client>& slot = clients[static_cast<std::size_t>(session)];
    loop.Unwatch(slot->conn.fd());
    slot.reset();  // closes the fd
    --live;
    finish_if_done();
  };

  // Dispatch every complete frame in the inbox; false drops the session.
  const auto dispatch_inbox = [&](Client& client) {
    for (;;) {
      Frame frame;
      const FrameParseStatus status = ParseFrame(&client.conn.inbox(), &frame);
      if (status == FrameParseStatus::kNeedMore) return true;
      if (status == FrameParseStatus::kError) {
        result.protocol_errors += 1;
        return false;
      }
      if (frame.type == FrameType::kWelcome) {
        client.welcomed = true;
        result.admitted += 1;
      } else if (frame.type == FrameType::kAssignment) {
        result.assignments += 1;
        turnarounds_us.push_back(SecondsSince(client.sample_time) * 1e6);
        if (tracing && frame.trace) {
          if (client.has_pending_trace &&
              frame.trace->trace_id == client.pending_trace) {
            const double t3_us = trace_now_us();
            client.has_pending_trace = false;
            result.traced += 1;
            std::ostringstream args;
            args << "{\"trace\":\"" << TraceIdHex(frame.trace->trace_id)
                 << "\",\"flow\":" << (client.session + 1)
                 << ",\"t0_us\":" << client.pending_t0_us
                 << ",\"t3_us\":" << t3_us
                 << ",\"srx_us\":" << frame.trace->server_recv_us
                 << ",\"stx_us\":" << frame.trace->server_send_us
                 << ",\"turnaround_us\":" << (t3_us - client.pending_t0_us)
                 << "}";
            tracer.CompleteSpan(
                RequestLane(static_cast<FlowId>(client.session) + 1),
                "client", "request", client.pending_t0_us,
                t3_us - client.pending_t0_us, args.str());
          } else {
            result.trace_mismatches += 1;
          }
        }
        // Ping-pong: answer every assignment with a fresh stats report,
        // one e_u sample per BAI like the femtocell reporter.
        queue_stats(client);
      } else if (frame.type == FrameType::kOverload) {
        if (!client.welcomed) result.blocked += 1;
        return false;
      } else {
        result.protocol_errors += 1;
        return false;
      }
    }
  };

  const auto on_io = [&](int session, std::uint32_t events) {
    Client& client = *clients[static_cast<std::size_t>(session)];
    // Frames that arrived ahead of a close still count: a session that
    // never got past admission is counted at its kOverload frame.
    const IoStatus read = client.conn.ReadSome();
    if (!dispatch_inbox(client) || read == IoStatus::kEof ||
        read == IoStatus::kError || (events & EpollLoop::kError) != 0 ||
        client.conn.Flush() == IoStatus::kError) {
      close_client(session);
      return;
    }
    loop.SetInterest(client.conn.fd(), interest(client));
  };

  const auto arrive = [&](int session, double wall_left_s) {
    result.attempted += 1;
    const int fd = BlockingConnect(
        options_.host, options_.port,
        static_cast<int>(std::ceil(std::min(wall_left_s * 1000.0, 1e9))));
    if (fd < 0) {
      result.connect_failures += 1;
      return;
    }
    auto client = std::make_unique<Client>(fd);
    client->session = session;
    client->efficiency =
        options_.efficiencies.empty()
            ? 100.0
            : options_.efficiencies[static_cast<std::size_t>(session) %
                                    options_.efficiencies.size()];
    ClientInfo info;
    info.flow = static_cast<FlowId>(session) + 1;
    info.ladder_bps = options_.ladder_bps;
    client->conn.Queue(
        EncodeFrame(FrameType::kClientInfo, EncodeClientInfo(info)));
    queue_stats(*client);
    if (client->conn.Flush() == IoStatus::kError) {
      result.connect_failures += 1;
      return;
    }
    loop.Watch(fd, interest(*client), [&on_io, session](std::uint32_t events) {
      on_io(session, events);
    });
    clients[static_cast<std::size_t>(session)] = std::move(client);
    ++live;
  };

  // Fire every due schedule event, then re-arm the timer; stops the loop
  // at the wall deadline or once the replay is over.
  const auto fire_due_events = [&] {
    double elapsed = SecondsSince(start);
    while (elapsed < options_.max_wall_s && next_event < schedule.size() &&
           schedule[next_event].t_s / scale <= elapsed) {
      const Event& event = schedule[next_event++];
      Client* client = clients[static_cast<std::size_t>(event.session)].get();
      if (event.arrival) {
        arrive(event.session, options_.max_wall_s - elapsed);
      } else if (client != nullptr) {
        client->conn.Queue(EncodeFrame(FrameType::kBye, ""));
        client->conn.Flush();  // best effort: a departure never waits
        close_client(event.session);
        result.departed += 1;
      }
      elapsed = SecondsSince(start);
    }
    if (elapsed >= options_.max_wall_s) {
      aborted = true;
      loop.Stop();
    } else if (!finish_if_done()) {
      const double due_s = next_event < schedule.size()
                               ? schedule[next_event].t_s / scale
                               : options_.max_wall_s;
      ArmTimer(timer_fd, std::min(due_s, options_.max_wall_s) - elapsed);
    }
  };

  if (loop.ok() && timer_fd >= 0) {
    loop.Watch(timer_fd, EpollLoop::kReadable, [&](std::uint32_t) {
      std::uint64_t expirations = 0;
      [[maybe_unused]] const ssize_t n =
          ::read(timer_fd, &expirations, sizeof(expirations));
      fire_due_events();
    });
    fire_due_events();
    loop.Run();
  }
  clients.clear();
  if (timer_fd >= 0) ::close(timer_fd);

  result.wall_s = SecondsSince(start);
  if (aborted) result.completed = false;
  result.blocking_rate =
      result.attempted > 0
          ? static_cast<double>(result.blocked) /
                static_cast<double>(result.attempted)
          : 0.0;
  result.session_rate_per_s =
      result.wall_s > 0.0
          ? static_cast<double>(result.attempted) / result.wall_s
          : 0.0;
  std::sort(turnarounds_us.begin(), turnarounds_us.end());
  result.turnaround_p50_us = NearestRankQuantile(turnarounds_us, 0.50);
  result.turnaround_p95_us = NearestRankQuantile(turnarounds_us, 0.95);
  result.turnaround_p99_us = NearestRankQuantile(turnarounds_us, 0.99);
  if (!options_.trace_json.empty()) {
    tracer.SortMergedEvents();
    tracer.ExportJson(options_.trace_json);
  }
  return result;
}

}  // namespace flare
