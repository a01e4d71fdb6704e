#include "obs/telemetry_server.h"

#include <atomic>
#include <cstdio>
#include <deque>
#include <map>
#include <mutex>
#include <sstream>
#include <thread>
#include <utility>

#include "netio/event_loop.h"
#include "netio/tcp.h"
#include "obs/openmetrics.h"
#include "obs/span_trace.h"  // JsonQuote
#include "util/csv.h"        // JsonNumber

namespace flare {

std::string RenderHealthJson(const TelemetrySnapshot& snapshot,
                             bool have_snapshot) {
  std::ostringstream out;
  const char* status = !have_snapshot ? "starting"
                       : snapshot.healthy ? "ok"
                                          : "alarming";
  out << "{\"status\": " << JsonQuote(status) << ", \"healthy\": "
      << (have_snapshot && snapshot.healthy ? "true" : "false")
      << ", \"scenario\": " << JsonQuote(snapshot.scenario)
      << ", \"sim_time_s\": " << JsonNumber(snapshot.sim_time_s)
      << ", \"duration_s\": " << JsonNumber(snapshot.duration_s)
      << ", \"progress_pct\": " << JsonNumber(snapshot.progress_pct)
      << ", \"epochs\": " << snapshot.epochs
      << ", \"epoch_rate_hz\": " << JsonNumber(snapshot.epoch_rate_hz)
      << ", \"sim_speedup\": " << JsonNumber(snapshot.sim_speedup)
      << ", \"cells\": " << snapshot.cells
      << ", \"workers\": " << snapshot.workers
      << ", \"warnings\": " << snapshot.warnings << ", \"unhealthy_cells\": [";
  for (std::size_t i = 0; i < snapshot.unhealthy_cells.size(); ++i) {
    if (i > 0) out << ", ";
    out << snapshot.unhealthy_cells[i];
  }
  out << "]}";
  return out.str();
}

namespace {

struct ClientConn {
  explicit ClientConn(int fd) : conn(fd) {}
  TcpConnection conn;
  /// Subscribed to /events: stays open, receives chunks as they publish.
  bool streaming = false;
  /// Request already dispatched (further pipelined input is ignored).
  bool dispatched = false;
};

std::string ResponseHead(int status, const char* reason,
                         const char* content_type, std::size_t length) {
  std::string head = "HTTP/1.1 ";
  head += std::to_string(status);
  head += ' ';
  head += reason;
  head += "\r\nContent-Type: ";
  head += content_type;
  head += "\r\nContent-Length: ";
  head += std::to_string(length);
  head += "\r\nConnection: close\r\n\r\n";
  return head;
}

std::string Chunk(const std::string& line) {
  char size[16];
  std::snprintf(size, sizeof(size), "%zx", line.size() + 1);
  std::string chunk = size;
  chunk += "\r\n";
  chunk += line;
  chunk += "\n\r\n";
  return chunk;
}

}  // namespace

struct TelemetryServer::Impl {
  explicit Impl(Options opts) : options(std::move(opts)) {}

  Options options;
  EpollLoop loop;
  TcpListener listener;
  std::thread thread;
  bool started = false;

  // --- Simulation-facing state (any thread) -----------------------------
  std::mutex state_mu;
  TelemetrySnapshot latest;  // under state_mu
  bool have_snapshot = false;

  std::mutex events_mu;
  std::deque<std::string> pending_events;  // bounded, drop-oldest
  bool drain_scheduled = false;            // under events_mu

  std::atomic<std::uint64_t> scrapes{0};
  std::atomic<std::uint64_t> events_published{0};
  std::atomic<std::uint64_t> events_dropped{0};
  std::atomic<std::uint64_t> connections{0};
  std::atomic<std::uint64_t> accept_fd_exhausted{0};

  // --- Loop-thread-only state -------------------------------------------
  std::map<int, std::unique_ptr<ClientConn>> clients;
  /// True while the listener's mask is 0 because accept ran out of fds.
  bool listener_paused = false;

  void OnAccept();
  void OnClientIo(int fd, std::uint32_t events);
  void Dispatch(ClientConn& client);
  void RespondFull(ClientConn& client, int status, const char* reason,
                   const char* content_type, const std::string& body);
  std::string RenderMetricsBody();
  void UpdateInterest(ClientConn& client);
  void CloseClient(int fd);
  void DrainEvents();
  void ShutdownOnLoop();
};

void TelemetryServer::Impl::OnAccept() {
  for (;;) {
    int fd = -1;
    const AcceptStatus status = listener.Accept(&fd);
    if (status == AcceptStatus::kFdExhausted) {
      // The level-triggered listener would fire again at once: pause it
      // until one of our connections closes and frees an fd.
      listener_paused = true;
      loop.SetInterest(listener.fd(), 0);
      accept_fd_exhausted.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    if (status != AcceptStatus::kAccepted) return;
    connections.fetch_add(1, std::memory_order_relaxed);
    clients.emplace(fd, std::make_unique<ClientConn>(fd));
    loop.Watch(fd, EpollLoop::kReadable | EpollLoop::kError,
               [this, fd](std::uint32_t events) { OnClientIo(fd, events); });
  }
}

void TelemetryServer::Impl::OnClientIo(int fd, std::uint32_t events) {
  const auto it = clients.find(fd);
  if (it == clients.end()) return;
  ClientConn& client = *it->second;

  if ((events & EpollLoop::kError) != 0) {
    CloseClient(fd);
    return;
  }
  if ((events & EpollLoop::kReadable) != 0) {
    const IoStatus status = client.conn.ReadSome();
    if (status == IoStatus::kEof || status == IoStatus::kError) {
      CloseClient(fd);
      return;
    }
    if (!client.dispatched &&
        client.conn.inbox().find("\r\n\r\n") != std::string::npos) {
      Dispatch(client);
      if (clients.find(fd) == clients.end()) return;  // closed in dispatch
    }
  }
  if ((events & EpollLoop::kWritable) != 0) {
    if (client.conn.Flush() == IoStatus::kError) {
      CloseClient(fd);
      return;
    }
  }
  if (client.conn.FlushedAndDone()) {
    CloseClient(fd);
    return;
  }
  UpdateInterest(client);
}

void TelemetryServer::Impl::UpdateInterest(ClientConn& client) {
  std::uint32_t mask = EpollLoop::kReadable | EpollLoop::kError;
  if (client.conn.pending_bytes() > 0) mask |= EpollLoop::kWritable;
  loop.SetInterest(client.conn.fd(), mask);
}

void TelemetryServer::Impl::CloseClient(int fd) {
  const auto it = clients.find(fd);
  if (it == clients.end()) return;
  loop.Unwatch(fd);
  clients.erase(it);  // TcpConnection destructor closes the fd
  if (listener_paused) {
    listener_paused = false;
    loop.SetInterest(listener.fd(), EpollLoop::kReadable | EpollLoop::kError);
  }
}

std::string TelemetryServer::Impl::RenderMetricsBody() {
  std::string body;
  {
    std::lock_guard<std::mutex> lock(state_mu);
    if (have_snapshot) RenderOpenMetrics(latest.metrics, &body);
  }
  const auto self = [&body](const char* name, const char* help,
                            std::uint64_t value) {
    body += "# HELP ";
    body += name;
    body += ' ';
    body += help;
    body += "\n# TYPE ";
    body += name;
    body += " counter\n";
    body += name;
    body += ' ';
    body += std::to_string(value);
    body += '\n';
  };
  self("flare_telemetry_scrapes_total", "/metrics requests served",
       scrapes.load(std::memory_order_relaxed));
  self("flare_telemetry_events_published_total",
       "flight-recorder events fanned out to /events",
       events_published.load(std::memory_order_relaxed));
  self("flare_telemetry_events_dropped_total",
       "events dropped by the bounded queue or slow subscribers",
       events_dropped.load(std::memory_order_relaxed));
  self("flare_telemetry_connections_total", "connections accepted",
       connections.load(std::memory_order_relaxed));
  self("flare_telemetry_accept_fd_exhausted_total",
       "accepts refused for want of a free fd (listener paused)",
       accept_fd_exhausted.load(std::memory_order_relaxed));
  {
    std::lock_guard<std::mutex> lock(state_mu);
    body += "# HELP flare_run_info run identity\n";
    body += "# TYPE flare_run_info gauge\n";
    body += "flare_run_info{scenario=\"";
    body += OpenMetricsEscapeLabel(latest.scenario);
    body += "\"} 1\n";
  }
  body += "# EOF\n";
  return body;
}

void TelemetryServer::Impl::RespondFull(ClientConn& client, int status,
                                        const char* reason,
                                        const char* content_type,
                                        const std::string& body) {
  client.conn.Queue(ResponseHead(status, reason, content_type, body.size()));
  client.conn.Queue(body);
  client.conn.CloseAfterFlush();
  client.conn.Flush();
}

void TelemetryServer::Impl::Dispatch(ClientConn& client) {
  client.dispatched = true;
  const std::string& request = client.conn.inbox();
  const std::size_t line_end = request.find("\r\n");
  const std::string request_line =
      line_end == std::string::npos ? request : request.substr(0, line_end);
  std::istringstream in(request_line);
  std::string method, path, version;
  in >> method >> path >> version;
  const std::size_t query = path.find('?');
  if (query != std::string::npos) path.resize(query);

  if (method != "GET") {
    RespondFull(client, 405, "Method Not Allowed", "text/plain",
                "only GET is supported\n");
  } else if (path == "/metrics") {
    scrapes.fetch_add(1, std::memory_order_relaxed);
    RespondFull(client, 200, "OK",
                "text/plain; version=0.0.4; charset=utf-8",
                RenderMetricsBody());
  } else if (path == "/healthz") {
    std::string body;
    bool ok = false;
    {
      std::lock_guard<std::mutex> lock(state_mu);
      ok = have_snapshot && latest.healthy;
      body = RenderHealthJson(latest, have_snapshot);
    }
    body += '\n';
    RespondFull(client, ok ? 200 : 503, ok ? "OK" : "Service Unavailable",
                "application/json", body);
  } else if (path == "/events") {
    client.streaming = true;
    client.conn.Queue(
        "HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\n"
        "Transfer-Encoding: chunked\r\nConnection: close\r\n\r\n");
    client.conn.Flush();
  } else {
    RespondFull(client, 404, "Not Found", "text/plain",
                "endpoints: /metrics /healthz /events\n");
  }
  UpdateInterest(client);
}

void TelemetryServer::Impl::DrainEvents() {
  std::deque<std::string> batch;
  {
    std::lock_guard<std::mutex> lock(events_mu);
    batch.swap(pending_events);
    drain_scheduled = false;
  }
  if (batch.empty()) return;
  for (auto& [fd, client] : clients) {
    if (!client->streaming) continue;
    for (const std::string& line : batch) {
      // A full buffer means this subscriber is not keeping up; losing
      // tail events here is the design — the run never waits for IO.
      if (client->conn.pending_bytes() + line.size() >
          options.connection_buffer_limit) {
        events_dropped.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      client->conn.Queue(Chunk(line));
    }
    client->conn.Flush();
    UpdateInterest(*client);
  }
  events_published.fetch_add(batch.size(), std::memory_order_relaxed);
}

void TelemetryServer::Impl::ShutdownOnLoop() {
  for (auto& [fd, client] : clients) {
    if (client->streaming) {
      client->conn.Queue("0\r\n\r\n");  // terminal chunk
      client->conn.Flush();             // best effort
    }
    loop.Unwatch(fd);
  }
  clients.clear();
  loop.Unwatch(listener.fd());
  listener.Close();
}

TelemetryServer::TelemetryServer() : TelemetryServer(Options{}) {}

TelemetryServer::TelemetryServer(Options options)
    : impl_(std::make_unique<Impl>(std::move(options))) {}

TelemetryServer::~TelemetryServer() { Stop(); }

bool TelemetryServer::Start() {
  if (impl_->started) return true;
  if (!impl_->loop.ok()) return false;
  if (!impl_->listener.Listen(impl_->options.bind_address,
                              impl_->options.port)) {
    return false;
  }
  // Initial watch is registered before the loop thread starts, which is
  // the one other moment Watch() is legal off the loop thread.
  impl_->loop.Watch(impl_->listener.fd(),
                    EpollLoop::kReadable | EpollLoop::kError,
                    [impl = impl_.get()](std::uint32_t) {
                      impl->OnAccept();
                    });
  impl_->thread = std::thread([impl = impl_.get()] {
    impl->loop.Run();
    impl->ShutdownOnLoop();
  });
  impl_->started = true;
  return true;
}

void TelemetryServer::Stop() {
  if (!impl_->started) return;
  impl_->loop.Stop();
  if (impl_->thread.joinable()) impl_->thread.join();
  impl_->started = false;
}

bool TelemetryServer::running() const { return impl_->started; }

std::uint16_t TelemetryServer::port() const {
  return impl_->listener.bound_port();
}

void TelemetryServer::Publish(TelemetrySnapshot snapshot) {
  std::lock_guard<std::mutex> lock(impl_->state_mu);
  impl_->latest = std::move(snapshot);
  impl_->have_snapshot = true;
}

void TelemetryServer::PublishEvents(std::vector<std::string> lines) {
  if (lines.empty()) return;
  bool schedule = false;
  {
    std::lock_guard<std::mutex> lock(impl_->events_mu);
    for (std::string& line : lines) {
      impl_->pending_events.push_back(std::move(line));
    }
    while (impl_->pending_events.size() >
           impl_->options.event_queue_capacity) {
      impl_->pending_events.pop_front();
      impl_->events_dropped.fetch_add(1, std::memory_order_relaxed);
    }
    if (!impl_->drain_scheduled) {
      impl_->drain_scheduled = true;
      schedule = true;
    }
  }
  if (schedule) {
    impl_->loop.Post([impl = impl_.get()] { impl->DrainEvents(); });
  }
}

std::uint64_t TelemetryServer::scrapes() const {
  return impl_->scrapes.load(std::memory_order_relaxed);
}
std::uint64_t TelemetryServer::events_published() const {
  return impl_->events_published.load(std::memory_order_relaxed);
}
std::uint64_t TelemetryServer::events_dropped() const {
  return impl_->events_dropped.load(std::memory_order_relaxed);
}

}  // namespace flare
