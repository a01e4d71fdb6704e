#include "svc/loadgen.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <limits>
#include <map>
#include <sstream>

#include "churn/session_churn.h"
#include "net/messages.h"
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

int ConnectBlocking(const std::string& host, std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1 ||
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;  // assignment frames are tiny; don't batch them
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

bool SendFrame(int fd, FrameType type, std::string_view payload,
               const TraceContext* trace = nullptr) {
  const std::string frame = EncodeFrame(type, payload, trace);
  std::size_t sent = 0;
  while (sent < frame.size()) {
    const ssize_t n =
        ::send(fd, frame.data() + sent, frame.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) return false;
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

struct Client {
  int fd = -1;
  int session = -1;
  bool welcomed = false;
  std::string inbox;
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
  std::map<int, Client> clients;  // by session index
  std::vector<double> turnarounds_us;
  const Clock::time_point start = Clock::now();
  std::size_t next_event = 0;
  const double scale = options_.time_scale > 0.0 ? options_.time_scale : 1.0;
  bool aborted = false;

  // Client-side tracing: one span per echoed assignment, timestamps in
  // microseconds since `start` (this process's trace clock). flare_trace
  // aligns it to the daemon's clock via the srx/stx echoes.
  const bool tracing = options_.trace || !options_.trace_json.empty();
  SpanTracer tracer;
  tracer.set_default_pid(2);  // daemon records at pid 1
  const auto trace_now_us = [&start] {
    return std::chrono::duration<double, std::micro>(Clock::now() - start)
        .count();
  };
  std::uint64_t trace_counter = 0;

  const auto send_stats = [&](Client& client) {
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
    return SendFrame(client.fd, FrameType::kStatsReport,
                     EncodeStatsReport(report), ctx_ptr);
  };

  const auto close_client = [&](Client& client) {
    if (client.fd >= 0) ::close(client.fd);
    client.fd = -1;
  };

  for (;;) {
    const double elapsed = SecondsSince(start);
    if (elapsed > options_.max_wall_s) {
      aborted = true;
      break;
    }

    // --- Fire due schedule events.
    while (next_event < schedule.size() &&
           schedule[next_event].t_s / scale <= elapsed) {
      const Event& event = schedule[next_event++];
      if (event.arrival) {
        result.attempted += 1;
        const int fd = ConnectBlocking(options_.host, options_.port);
        if (fd < 0) {
          result.connect_failures += 1;
          continue;
        }
        Client client;
        client.fd = fd;
        client.session = event.session;
        client.efficiency = options_.efficiencies.empty()
                                ? 100.0
                                : options_.efficiencies[static_cast<std::size_t>(
                                      event.session) %
                                                        options_.efficiencies
                                                            .size()];
        ClientInfo info;
        info.flow = static_cast<FlowId>(event.session) + 1;
        info.ladder_bps = options_.ladder_bps;
        if (!SendFrame(fd, FrameType::kClientInfo, EncodeClientInfo(info)) ||
            !send_stats(client)) {
          result.connect_failures += 1;
          close_client(client);
          continue;
        }
        clients[event.session] = std::move(client);
      } else {
        const auto it = clients.find(event.session);
        if (it != clients.end()) {
          if (it->second.fd >= 0) {
            SendFrame(it->second.fd, FrameType::kBye, "");
            close_client(it->second);
            result.departed += 1;
          }
          clients.erase(it);
        }
      }
    }

    if (next_event >= schedule.size() && clients.empty()) {
      result.completed = true;
      break;
    }

    // --- Wait for server frames or the next schedule deadline.
    std::vector<pollfd> pfds;
    std::vector<int> pfd_sessions;
    pfds.reserve(clients.size());
    for (const auto& [session, client] : clients) {
      if (client.fd < 0) continue;
      pfds.push_back(pollfd{client.fd, POLLIN, 0});
      pfd_sessions.push_back(session);
    }
    int timeout_ms = 20;
    if (next_event < schedule.size()) {
      const double due_in_s =
          schedule[next_event].t_s / scale - SecondsSince(start);
      timeout_ms = static_cast<int>(
          std::clamp(due_in_s * 1000.0, 0.0, 20.0));
    }
    if (!pfds.empty()) {
      ::poll(pfds.data(), pfds.size(), timeout_ms);
    } else if (timeout_ms > 0) {
      ::poll(nullptr, 0, timeout_ms);
    }

    // --- Drain readable sockets and dispatch frames.
    for (std::size_t i = 0; i < pfds.size(); ++i) {
      if ((pfds[i].revents & (POLLIN | POLLERR | POLLHUP)) == 0) continue;
      const auto it = clients.find(pfd_sessions[i]);
      if (it == clients.end()) continue;
      Client& client = it->second;
      char buf[4096];
      const ssize_t n = ::recv(client.fd, buf, sizeof(buf), 0);
      if (n <= 0) {
        // Server closed (shutdown or post-reject): a session that never
        // got past admission was counted at the kOverload frame already.
        close_client(client);
        clients.erase(it);
        continue;
      }
      client.inbox.append(buf, static_cast<std::size_t>(n));
      bool drop = false;
      for (;;) {
        Frame frame;
        const FrameParseStatus status = ParseFrame(&client.inbox, &frame);
        if (status == FrameParseStatus::kNeedMore) break;
        if (status == FrameParseStatus::kError) {
          result.protocol_errors += 1;
          drop = true;
          break;
        }
        if (frame.type == FrameType::kWelcome) {
          client.welcomed = true;
          result.admitted += 1;
        } else if (frame.type == FrameType::kAssignment) {
          result.assignments += 1;
          turnarounds_us.push_back(
              std::chrono::duration<double, std::micro>(Clock::now() -
                                                        client.sample_time)
                  .count());
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
          if (!send_stats(client)) {
            drop = true;
            break;
          }
        } else if (frame.type == FrameType::kOverload) {
          if (!client.welcomed) result.blocked += 1;
          drop = true;
          break;
        } else {
          result.protocol_errors += 1;
          drop = true;
          break;
        }
      }
      if (drop) {
        close_client(client);
        clients.erase(it);
      }
    }
  }

  for (auto& [session, client] : clients) close_client(client);
  clients.clear();

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
