#include "svc/oneapi_service.h"

#include <sys/socket.h>
#include <sys/timerfd.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <future>
#include <map>
#include <mutex>
#include <optional>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/bai_engine.h"
#include "net/messages.h"
#include "netio/event_loop.h"
#include "netio/tcp.h"
#include "obs/telemetry_server.h"
#include "svc/frame.h"
#include "svc/request_trace.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace flare {
namespace {

struct Session;

/// One TCP connection; `flow` stays kInvalidFlow (and `session` null)
/// until a ClientInfo is admitted, after which the connection is the
/// session's delivery path.
struct SessionConn {
  explicit SessionConn(int fd) : conn(fd) {}
  TcpConnection conn;
  FlowId flow = kInvalidFlow;
  Session* session = nullptr;
  /// Cumulative bytes ever handed to Queue(); `queued_bytes -
  /// pending_bytes()` is the cumulative flushed count the tracer uses as
  /// the outbox-drain watermark.
  std::uint64_t queued_bytes = 0;
  std::uint64_t drained_bytes() const {
    return queued_bytes - conn.pending_bytes();
  }
  void QueueFrame(std::string_view frame) {
    queued_bytes += frame.size();
    conn.Queue(frame);
  }
  /// Flush the outbox, adding the send() calls made to `*writes`.
  IoStatus Flush(std::uint64_t* writes) {
    const std::uint64_t before = conn.sends();
    const IoStatus status = conn.Flush();
    *writes += conn.sends() - before;
    return status;
  }
};

/// Per-admitted-flow transport state (the BaiEngine holds the client info
/// and the smoothed estimate): the latest stats sample waiting for the
/// next BAI tick, and the delivery connection. The two point at each
/// other from admission to teardown, so neither the read path nor the
/// fan-out looks a connection up by fd.
struct Session {
  Session() = default;
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  double pending_sample = 0.0;
  bool has_pending_sample = false;
  SessionConn* conn = nullptr;
  /// Trace context of the latest traced stats report, waiting to be
  /// echoed on (and attributed to) the next assignment. Lives in the
  /// session — not the tracer — because the wire echo works even when
  /// server-side tracing is off (a traced client against an untraced
  /// daemon still gets srx/stx back).
  std::optional<RequestTiming> pending_trace;
};

/// recv/parse timestamps for the frame currently being handled, threaded
/// from the read site into the frame handlers. All zero when tracing is
/// off.
struct FrameTiming {
  double read_start_us = 0.0;
  double recv_us = 0.0;
  double parse_start_us = 0.0;
};

/// What a fan-out slice leaves for the loop thread to replay after the
/// barrier, in assignment order: the EpollLoop, the tracer and the
/// connection table are the loop thread's alone.
struct FanoutOp {
  enum class Kind : std::uint8_t {
    kDropped,  // traced assignment dropped at the outbox bound
    kQueued,   // traced assignment queued; its timing is next in line
    kFlushed,  // queued and flushed: drain watermark, then interest
    kFailed,   // the flush failed: tear the connection down
  };
  Kind kind;
  SessionConn* sc;
  /// kQueued: the drain watermark. kFlushed: bytes drained.
  std::uint64_t bytes = 0;
  /// kFlushed: tracer clock at the flush (0 with tracing off).
  double now_us = 0.0;
};

/// One contiguous run of a tick's assignments and what writing it left
/// behind. Reused by every tick, so the slice path allocates nothing once
/// its vectors have grown to the slice's size.
struct FanoutSlice {
  std::size_t begin = 0;
  std::size_t end = 0;
  std::string frame_buf;
  std::vector<FanoutOp> ops;
  std::vector<RequestTiming> timings;  // one per kQueued op, in order
  std::uint64_t sent = 0;
  std::uint64_t dropped = 0;
  std::uint64_t writes = 0;
};

/// Sessions per fan-out slice when the service derives the slice count.
constexpr std::size_t kSessionsPerSlice = 256;

OverloadInfo Overload(const char* reason, const char* policy = "",
                      double value = 0.0) {
  OverloadInfo info;
  info.reason = reason;
  info.policy = policy;
  info.value = value;
  return info;
}

}  // namespace

struct OneApiService::Impl {
  explicit Impl(OneApiServiceOptions opts)
      : options(std::move(opts)),
        engine(options.params, options.efficiency_smoothing,
               options.gbr_headroom),
        admission(options.admission),
        epoch(std::chrono::steady_clock::now()) {
    admission.SetObservers(&registry);
    engine.SetAdmission(&admission);
    if (!options.trace_json.empty()) {
      tracer = std::make_unique<RequestTracer>(
          &registry, &metrics_mu, options.flight_recorder, options.trace);
    }
  }

  OneApiServiceOptions options;
  EpollLoop loop;
  TcpListener listener;
  std::thread thread;
  bool started = false;
  int timer_fd = -1;

  // --- Loop-thread-only state -------------------------------------------
  std::map<int, std::unique_ptr<SessionConn>> conns;
  /// The engine's flows, by FlowId. Node-based: Session addresses are
  /// stable, so SessionConn::session stays valid until teardown.
  std::unordered_map<FlowId, Session> sessions;
  /// send() calls since the last tick's export, and the loop's epoll_ctl
  /// count at that export.
  std::uint64_t writes = 0;
  std::uint64_t epoll_ctl_exported = 0;
  /// True while the listener's mask is 0 because accept ran out of fds.
  bool listener_paused = false;
  BaiEngine engine;
  AdmissionController admission;
  /// Null when tracing is off: the request path then never reads a clock
  /// or records a span, and assignments to untraced clients are
  /// byte-identical to the pre-tracing protocol.
  std::unique_ptr<RequestTracer> tracer;
  /// Server clock origin for the srx/stx wire echo when the tracer is
  /// off (a traced client still deserves aligned timestamps back).
  std::chrono::steady_clock::time_point epoch;

  // --- Fan-out slices (DESIGN.md §5n) -----------------------------------
  /// One per slice a tick may use; pinned by options.fanout_slices, else
  /// one per hardware thread but the loop's. Written only by the slice
  /// that owns it during a batch, by the loop thread otherwise.
  std::vector<FanoutSlice> slices;
  /// Runs the slices of a tick. Spawned by the first tick that needs
  /// more than one slice, joined at Stop(): a service that never fans out
  /// to more than one slice's worth of sessions runs no extra thread, and
  /// one that never ticks creates and ends none.
  std::unique_ptr<ThreadPool> fanout_pool;
  /// The decision being fanned out and its solve span, for the slices.
  const BaiDecision* fanout_decision = nullptr;
  double fanout_solve_start_us = 0.0;
  double fanout_solve_us = 0.0;

  double NowUs() const {
    if (tracer != nullptr) return tracer->now_us();
    return static_cast<double>(
               std::chrono::duration_cast<std::chrono::nanoseconds>(
                   std::chrono::steady_clock::now() - epoch)
                   .count()) /
           1e3;
  }

  /// Registry writes happen on the loop thread, snapshots from any
  /// thread; both sides take this (uncontended) mutex.
  mutable std::mutex metrics_mu;
  MetricsRegistry registry;
  // Per-tick instruments, resolved once (registry entries never move);
  // still written under metrics_mu.
  Counter& m_assignments = registry.GetCounter("svc.oneapi.assignments");
  Counter& m_dropped = registry.GetCounter("svc.oneapi.assignments_dropped");
  Counter& m_bais = registry.GetCounter("svc.oneapi.bais");
  Counter& m_writes = registry.GetCounter("svc.oneapi.writes");
  Counter& m_epoll_ctl = registry.GetCounter("svc.oneapi.epoll_ctl");
  Gauge& m_video_fraction = registry.GetGauge("svc.oneapi.video_fraction");
  Histogram& m_solve_us = registry.GetHistogram("svc.oneapi.solve_us");
  Histogram& m_tick_us = registry.GetHistogram("svc.oneapi.tick_us");
  Histogram& m_gather_us = registry.GetHistogram("svc.oneapi.tick.gather_us");
  Histogram& m_fanout_us = registry.GetHistogram("svc.oneapi.tick.fanout_us");
  Histogram& m_publish_us =
      registry.GetHistogram("svc.oneapi.tick.publish_us");

  // --- Thread-safe progress counters ------------------------------------
  std::atomic<std::uint64_t> connections_accepted{0};
  std::atomic<std::uint64_t> infos_received{0};
  std::atomic<std::uint64_t> stats_received{0};
  std::atomic<std::uint64_t> bais{0};
  std::atomic<std::uint64_t> assignments_sent{0};
  std::atomic<std::uint64_t> assignments_dropped{0};
  std::atomic<std::uint64_t> admission_rejects{0};
  std::atomic<std::uint64_t> overload_rejects{0};
  std::atomic<std::uint64_t> session_count{0};
  std::atomic<std::uint64_t> arrivals{0};
  std::atomic<std::uint64_t> blocked{0};

  void OnAccept();
  void OnConnIo(int fd, std::uint32_t events);
  void OnTimer();
  void ProcessInbox(SessionConn& sc, double read_start_us, double recv_us);
  void HandleClientInfo(SessionConn& sc, const Frame& frame,
                        const FrameTiming& timing);
  void HandleStats(SessionConn& sc, const Frame& frame,
                   const FrameTiming& timing);
  void SendOverloadAndClose(SessionConn& sc, const OverloadInfo& info);
  void NotifyFlushed(SessionConn& sc);
  void UpdateInterest(SessionConn& sc);
  void PauseListener();
  void ResumeListener();
  void TeardownConn(int fd);
  void Tick();
  std::size_t SliceCount(std::size_t assignments) const;
  void FanOut(const BaiDecision& decision, double solve_start_us,
              double solve_us);
  void RunSlice(FanoutSlice& slice);
  void ReplaySlice(FanoutSlice& slice);
  void PublishTelemetry();
  void UpdateBlockingRate();
  void ShutdownOnLoop();
};

void OneApiService::Impl::OnAccept() {
  for (;;) {
    int fd = -1;
    const AcceptStatus status = listener.Accept(&fd);
    if (status == AcceptStatus::kFdExhausted) {
      PauseListener();
      return;
    }
    if (status != AcceptStatus::kAccepted) return;
    if (options.send_buffer_bytes > 0) {
      // Tests shrink the kernel send buffer so a deliberately slow client
      // backs up into the bounded user-space outbox quickly.
      ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &options.send_buffer_bytes,
                   sizeof(options.send_buffer_bytes));
    }
    connections_accepted.fetch_add(1, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lock(metrics_mu);
      registry.GetCounter("svc.oneapi.connections").Add();
    }
    conns.emplace(fd, std::make_unique<SessionConn>(fd));
    loop.Watch(fd, EpollLoop::kReadable | EpollLoop::kError,
               [this, fd](std::uint32_t events) { OnConnIo(fd, events); });
  }
}

void OneApiService::Impl::PauseListener() {
  // The level-triggered listener would fire again at once for the
  // connection it cannot accept: stop watching it until an fd frees up.
  listener_paused = true;
  loop.SetInterest(listener.fd(), 0);
  std::lock_guard<std::mutex> lock(metrics_mu);
  registry.GetCounter("svc.oneapi.accept_fd_exhausted").Add();
}

void OneApiService::Impl::ResumeListener() {
  if (!listener_paused) return;
  listener_paused = false;
  loop.SetInterest(listener.fd(), EpollLoop::kReadable | EpollLoop::kError);
}

void OneApiService::Impl::OnConnIo(int fd, std::uint32_t events) {
  const auto it = conns.find(fd);
  if (it == conns.end()) return;
  SessionConn& sc = *it->second;

  if ((events & EpollLoop::kError) != 0) {
    TeardownConn(fd);
    return;
  }
  if ((events & EpollLoop::kReadable) != 0) {
    // One ReadSome may complete several frames; they share its duration
    // as their recv phase.
    const double read_start_us = tracer != nullptr ? tracer->now_us() : 0.0;
    const IoStatus status = sc.conn.ReadSome();
    const double recv_us =
        tracer != nullptr ? tracer->now_us() - read_start_us : 0.0;
    ProcessInbox(sc, read_start_us, recv_us);
    if (conns.find(fd) == conns.end()) return;  // closed while processing
    if (status == IoStatus::kEof || status == IoStatus::kError) {
      // Flush any goodbye frames we just queued, then drop the peer.
      sc.Flush(&writes);
      TeardownConn(fd);
      return;
    }
  }
  if ((events & EpollLoop::kWritable) != 0) {
    if (sc.Flush(&writes) == IoStatus::kError) {
      TeardownConn(fd);
      return;
    }
    NotifyFlushed(sc);
  }
  if (sc.conn.FlushedAndDone()) {
    TeardownConn(fd);
    return;
  }
  UpdateInterest(sc);
}

void OneApiService::Impl::ProcessInbox(SessionConn& sc, double read_start_us,
                                       double recv_us) {
  const int fd = sc.conn.fd();
  for (;;) {
    FrameTiming timing;
    timing.read_start_us = read_start_us;
    timing.recv_us = recv_us;
    if (tracer != nullptr) timing.parse_start_us = tracer->now_us();
    Frame frame;
    const FrameParseStatus status = ParseFrame(&sc.conn.inbox(), &frame);
    if (status == FrameParseStatus::kNeedMore) return;
    if (status == FrameParseStatus::kError) {
      SendOverloadAndClose(sc, Overload("malformed"));
      return;
    }
    if (frame.unknown_ext) {
      // Extension-bearing frame with unknown keys/trailing bytes: the
      // forward-compatibility path, tolerated but visible.
      std::lock_guard<std::mutex> lock(metrics_mu);
      registry.GetCounter("svc.oneapi.frames_with_unknown_ext").Add();
    }
    switch (frame.type) {
      case FrameType::kClientInfo:
        HandleClientInfo(sc, frame, timing);
        break;
      case FrameType::kStatsReport:
        HandleStats(sc, frame, timing);
        break;
      case FrameType::kBye:
        TeardownConn(fd);
        return;
      default:
        // Server->client frame types are a protocol violation upstream.
        SendOverloadAndClose(sc, Overload("malformed"));
        return;
    }
    if (conns.find(fd) == conns.end()) return;
    if (sc.conn.close_after_flush()) return;  // reject queued: stop reading
  }
}

void OneApiService::Impl::HandleClientInfo(SessionConn& sc,
                                           const Frame& frame,
                                           const FrameTiming& timing) {
  const std::optional<ClientInfo> info = DecodeClientInfo(frame.payload);
  // Whatever the solvers would reject is malformed, on first connect and
  // on refresh alike. Checked before any counter moves; the engine's
  // Connect and Refresh apply the same rule again.
  if (!info ||
      engine.Defect(*info, options.default_bits_per_rb) != nullptr) {
    SendOverloadAndClose(sc, Overload("malformed"));
    return;
  }
  infos_received.fetch_add(1, std::memory_order_relaxed);
  // Parse covers frame extraction + message decode; admit covers the
  // decision from here to the verdict.
  const double admit_start_us = tracer != nullptr ? tracer->now_us() : 0.0;
  const double parse_us =
      tracer != nullptr ? admit_start_us - timing.parse_start_us : 0.0;
  const auto record_admit = [&](bool admitted) {
    if (tracer == nullptr) return;
    tracer->OnAdmit(frame.trace ? &*frame.trace : nullptr, info->flow,
                    timing.read_start_us, timing.recv_us,
                    timing.parse_start_us, parse_us, admit_start_us,
                    tracer->now_us() - admit_start_us, admitted);
  };

  if (sc.flow != kInvalidFlow) {
    // Mid-session refresh (new cost cap, clickstream state, ...):
    // constraints update, ladder does not.
    if (info->flow != sc.flow) {
      SendOverloadAndClose(sc, Overload("malformed"));
      return;
    }
    engine.Refresh(sc.flow, *info);
    return;
  }

  arrivals.fetch_add(1, std::memory_order_relaxed);
  // A blocked arrival is counted under `count`/`metric`, then rejected.
  const auto block = [&](std::atomic<std::uint64_t>& count,
                         const char* metric, const OverloadInfo& reject) {
    blocked.fetch_add(1, std::memory_order_relaxed);
    count.fetch_add(1, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lock(metrics_mu);
      registry.GetCounter(metric).Add();
    }
    UpdateBlockingRate();
    record_admit(false);
    SendOverloadAndClose(sc, reject);
  };
  if (sessions.count(info->flow) > 0) {
    block(overload_rejects, "svc.oneapi.overload_rejects",
          Overload("duplicate_flow"));
    return;
  }
  if (options.max_sessions > 0 && sessions.size() >= options.max_sessions) {
    block(overload_rejects, "svc.oneapi.overload_rejects",
          Overload("session_limit", "",
                   static_cast<double>(options.max_sessions)));
    return;
  }

  // Admission prices the candidate at the configured connect-time
  // estimate (the daemon has no channel to read). The policy writes the
  // registry, so the lock spans the whole connect.
  BaiEngine::ConnectVerdict verdict;
  {
    std::lock_guard<std::mutex> lock(metrics_mu);
    verdict = engine.Connect(*info, options.default_bits_per_rb,
                             options.n_data_flows,
                             static_cast<double>(options.num_rbs) * 1000.0);
  }
  if (!verdict.decision.admit) {
    block(admission_rejects, "svc.oneapi.admission_rejects",
          Overload("admission",
                   AdmissionPolicyName(options.admission.policy),
                   verdict.decision.value));
    return;
  }

  Session& session = sessions[info->flow];
  session.conn = &sc;
  sc.session = &session;
  sc.flow = info->flow;
  session_count.store(sessions.size(), std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(metrics_mu);
    registry.GetGauge("svc.oneapi.sessions")
        .Set(static_cast<double>(sessions.size()));
  }
  UpdateBlockingRate();
  record_admit(true);
  sc.QueueFrame(EncodeFrame(FrameType::kWelcome, EncodeWelcome(info->flow)));
  sc.Flush(&writes);
  NotifyFlushed(sc);
  UpdateInterest(sc);
}

void OneApiService::Impl::HandleStats(SessionConn& sc, const Frame& frame,
                                      const FrameTiming& timing) {
  const std::optional<FlowStatsReport> report =
      DecodeStatsReport(frame.payload);
  if (!report) {
    SendOverloadAndClose(sc, Overload("malformed"));
    return;
  }
  if (sc.flow == kInvalidFlow || report->flow != sc.flow) {
    // Stats before admission, or for someone else's flow: drop the peer
    // rather than let it steer another session's capacity estimate.
    SendOverloadAndClose(sc, Overload("malformed"));
    return;
  }
  Session& session = *sc.session;
  if (report->rbs > 0) {
    // e_u = 8 * b_u / n_u, the RB & Rate Trace efficiency sample. A
    // zero-RB report carries no signal (idle BAI) and leaves the EWMA
    // untouched, mirroring the in-simulator nominal-capacity fallback
    // (the smoothed value already is the standing estimate).
    session.pending_sample = static_cast<double>(report->tx_bytes) * 8.0 /
                             static_cast<double>(report->rbs);
    session.has_pending_sample = true;
  }
  if (frame.trace) {
    // Latest-wins, like the sample itself: a second traced report before
    // the tick supersedes the first (counted — its id will never echo).
    if (session.pending_trace) {
      std::lock_guard<std::mutex> lock(metrics_mu);
      registry.GetCounter("svc.oneapi.trace.superseded").Add();
    }
    const double now_us = NowUs();
    RequestTiming pending;
    pending.ctx = *frame.trace;
    pending.ctx.server_recv_us = static_cast<std::int64_t>(now_us);
    pending.flow = sc.flow;
    pending.start_us = timing.read_start_us;
    pending.recv_us = timing.recv_us;
    pending.parse_start_us = timing.parse_start_us;
    pending.parse_us =
        tracer != nullptr ? now_us - timing.parse_start_us : 0.0;
    pending.queued_at_us = now_us;
    session.pending_trace = pending;
    if (tracer != nullptr) tracer->OnSampleQueued(pending);
  }
  stats_received.fetch_add(1, std::memory_order_relaxed);
}

void OneApiService::Impl::SendOverloadAndClose(SessionConn& sc,
                                               const OverloadInfo& info) {
  sc.QueueFrame(EncodeFrame(FrameType::kOverload, EncodeOverload(info)));
  sc.conn.CloseAfterFlush();
  sc.Flush(&writes);
  if (sc.conn.FlushedAndDone()) {
    TeardownConn(sc.conn.fd());
    return;
  }
  UpdateInterest(sc);
}

void OneApiService::Impl::NotifyFlushed(SessionConn& sc) {
  if (tracer == nullptr) return;
  tracer->OnConnFlushed(sc.conn.fd(), sc.drained_bytes(), tracer->now_us());
}

void OneApiService::Impl::UpdateInterest(SessionConn& sc) {
  std::uint32_t mask = EpollLoop::kReadable | EpollLoop::kError;
  if (sc.conn.pending_bytes() > 0) mask |= EpollLoop::kWritable;
  loop.SetInterest(sc.conn.fd(), mask);
}

void OneApiService::Impl::TeardownConn(int fd) {
  const auto it = conns.find(fd);
  if (it == conns.end()) return;
  if (tracer != nullptr) {
    tracer->OnConnClosed(fd, it->second->drained_bytes(), tracer->now_us());
  }
  if (it->second->session != nullptr) {
    const FlowId flow = it->second->flow;
    sessions.erase(flow);
    engine.Remove(flow);
    session_count.store(sessions.size(), std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(metrics_mu);
    registry.GetGauge("svc.oneapi.sessions")
        .Set(static_cast<double>(sessions.size()));
  }
  loop.Unwatch(fd);
  conns.erase(it);  // TcpConnection destructor closes the fd
  ResumeListener();  // the freed fd may take a connection accept refused
}

void OneApiService::Impl::UpdateBlockingRate() {
  const std::uint64_t total = arrivals.load(std::memory_order_relaxed);
  const std::uint64_t rejected = blocked.load(std::memory_order_relaxed);
  const double rate =
      total > 0 ? static_cast<double>(rejected) / static_cast<double>(total)
                : 0.0;
  std::lock_guard<std::mutex> lock(metrics_mu);
  registry.GetGauge("svc.oneapi.blocking_rate").Set(rate);
}

void OneApiService::Impl::OnTimer() {
  std::uint64_t expirations = 0;
  // Coalesce missed expirations into one tick — the BAI is a cadence, not
  // a work queue; catching up would just burn solves on stale samples.
  while (::read(timer_fd, &expirations, sizeof(expirations)) ==
         static_cast<ssize_t>(sizeof(expirations))) {
  }
  Tick();
}

void OneApiService::Impl::Tick() {
  // Stage clocks: read a fixed number of times per tick, never per
  // session, and not at all under deterministic_timing (stages read 0).
  using SteadyClock = std::chrono::steady_clock;
  const auto stamp = [this] {
    return options.deterministic_timing ? SteadyClock::time_point{}
                                        : SteadyClock::now();
  };
  const auto micros = [](SteadyClock::time_point from,
                         SteadyClock::time_point to) {
    return std::chrono::duration<double, std::micro>(to - from).count();
  };
  const SteadyClock::time_point tick_start = stamp();
  const double tick_start_us = tracer != nullptr ? tracer->now_us() : 0.0;
  // A listener paused on fd exhaustion also retries once per tick, for
  // fds freed outside this service's own connections.
  ResumeListener();

  // --- Gather: each session's latest stats report, else its standing
  // estimate, else the configured default before any report. A zero-RB
  // report carries no signal (idle BAI) and leaves the standing estimate
  // in force, as the simulator's nominal-capacity fallback does.
  const bool observed = engine.Gather(
      [this](FlowId id, double standing) -> std::optional<double> {
        const auto session = sessions.find(id);
        if (session == sessions.end()) return std::nullopt;
        Session& sess = session->second;
        if (!sess.has_pending_sample) {
          return standing > 0.0 ? standing : options.default_bits_per_rb;
        }
        sess.has_pending_sample = false;
        return sess.pending_sample;
      });
  const SteadyClock::time_point gathered = stamp();

  double solve_start_us = 0.0;
  double solve_span_us = 0.0;
  std::size_t n_assignments = 0;
  std::optional<BaiDecision> decided;
  SteadyClock::time_point fanout_start = gathered;
  if (observed) {
    const double rb_rate = static_cast<double>(options.num_rbs) * 1000.0;
    solve_start_us = tracer != nullptr ? tracer->now_us() : 0.0;
    decided = engine.Decide(options.n_data_flows, rb_rate);
    const BaiDecision& decision = *decided;
    solve_span_us =
        tracer != nullptr ? tracer->now_us() - solve_start_us : 0.0;
    n_assignments = decision.assignments.size();
    fanout_start = stamp();
    FanOut(decision, solve_start_us, solve_span_us);
  }
  const SteadyClock::time_point fanned_out = stamp();

  bais.fetch_add(1, std::memory_order_relaxed);
  if (tracer != nullptr) {
    tracer->EndTick(tick_start_us, solve_start_us, solve_span_us,
                    tracer->now_us() - tick_start_us, sessions.size(),
                    n_assignments);
  }
  const std::uint64_t epoll_ctl = loop.epoll_ctl_calls();
  {
    std::lock_guard<std::mutex> lock(metrics_mu);
    if (decided) {
      m_assignments.Add(decided->assignments.size());
      m_solve_us.Observe(
          options.deterministic_timing
              ? 0.0
              : static_cast<double>(decided->solve_time.count()) / 1e3);
      m_video_fraction.Set(decided->video_fraction);
    }
    m_bais.Add();
    m_tick_us.Observe(micros(tick_start, fanned_out));
    m_gather_us.Observe(micros(tick_start, gathered));
    m_fanout_us.Observe(micros(fanout_start, fanned_out));
    m_writes.Add(writes);
    writes = 0;
    m_epoll_ctl.Add(epoll_ctl - epoll_ctl_exported);
    epoll_ctl_exported = epoll_ctl;
  }
  // This tick's publish time lands in the next tick's snapshot.
  const SteadyClock::time_point publish_start = stamp();
  PublishTelemetry();
  const double publish_us = micros(publish_start, stamp());
  std::lock_guard<std::mutex> lock(metrics_mu);
  m_publish_us.Observe(publish_us);
}

std::size_t OneApiService::Impl::SliceCount(std::size_t assignments) const {
  const std::size_t wanted =
      options.fanout_slices > 0
          ? static_cast<std::size_t>(options.fanout_slices)
          : (assignments + kSessionsPerSlice - 1) / kSessionsPerSlice;
  return std::max<std::size_t>(1, std::min({wanted, slices.size(),
                                            assignments}));
}

void OneApiService::Impl::FanOut(const BaiDecision& decision,
                                 double solve_start_us, double solve_us) {
  // --- Fan out: one kAssignment frame per flow, in contiguous slices of
  // the decision's order. The slices run as one pool batch while this
  // thread waits, so each session and connection is touched by exactly
  // one slice and the session table is only read. What needs the loop
  // (teardown, interest, the tracer) is replayed below, after the
  // barrier, in assignment order.
  const std::size_t n = decision.assignments.size();
  const std::size_t count = SliceCount(n);
  fanout_decision = &decision;
  fanout_solve_start_us = solve_start_us;
  fanout_solve_us = solve_us;
  for (std::size_t s = 0; s < count; ++s) {
    slices[s].begin = n * s / count;
    slices[s].end = n * (s + 1) / count;
  }
  if (count == 1) {
    RunSlice(slices[0]);
  } else {
    if (fanout_pool == nullptr) {
      fanout_pool =
          std::make_unique<ThreadPool>(static_cast<int>(slices.size()));
    }
    std::vector<std::function<void()>> jobs;
    jobs.reserve(count);
    for (std::size_t s = 0; s < count; ++s) {
      jobs.emplace_back([this, s] { RunSlice(slices[s]); });
    }
    fanout_pool->RunAll(std::move(jobs));
  }

  std::uint64_t sent = 0;
  std::uint64_t dropped = 0;
  for (std::size_t s = 0; s < count; ++s) {
    FanoutSlice& slice = slices[s];
    sent += slice.sent;
    dropped += slice.dropped;
    writes += slice.writes;
    ReplaySlice(slice);
  }
  assignments_sent.fetch_add(sent, std::memory_order_relaxed);
  if (dropped > 0) {
    assignments_dropped.fetch_add(dropped, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(metrics_mu);
    m_dropped.Add(dropped);
  }
}

void OneApiService::Impl::RunSlice(FanoutSlice& slice) {
  slice.ops.clear();
  slice.timings.clear();
  slice.sent = 0;
  slice.dropped = 0;
  slice.writes = 0;
  const BaiDecision& decision = *fanout_decision;
  for (std::size_t i = slice.begin; i < slice.end; ++i) {
    const RateAssignment& a = decision.assignments[i];
    const auto session = sessions.find(a.id);
    if (session == sessions.end()) continue;
    Session& sess = session->second;
    SessionConn& sc = *sess.conn;
    const bool traced = tracer != nullptr && sess.pending_trace;
    const double encode_start_us = traced ? tracer->now_us() : 0.0;
    // Echo the client's trace context (with our receive/transmit stamps)
    // on the assignment that answers it — whether or not server-side
    // tracing is on. Untraced clients get byte-identical pre-extension
    // frames.
    TraceContext echo;
    const TraceContext* echo_ptr = nullptr;
    if (sess.pending_trace) {
      echo = sess.pending_trace->ctx;
      echo.server_send_us = static_cast<std::int64_t>(NowUs());
      echo_ptr = &echo;
    }
    // Encoded into the slice's reused buffer and written at once: one
    // send per session, no epoll_ctl unless the socket backs up. A full
    // outbox drops this BAI's frame for that client only (counted); the
    // tick never waits on anyone's socket.
    slice.frame_buf.clear();
    const std::size_t begin = BeginFrame(&slice.frame_buf);
    AppendRateAssignment(engine.Message(a), &slice.frame_buf);
    EndFrame(FrameType::kAssignment, echo_ptr, begin, &slice.frame_buf);
    if (sc.conn.pending_bytes() + slice.frame_buf.size() >
        options.connection_buffer_limit) {
      ++slice.dropped;
      if (traced) slice.ops.push_back({FanoutOp::Kind::kDropped, &sc});
      sess.pending_trace.reset();
      continue;
    }
    sc.QueueFrame(slice.frame_buf);
    if (traced) {
      RequestTiming timing = *sess.pending_trace;
      const double send_us = tracer->now_us();
      timing.queue_wait_us = fanout_solve_start_us - timing.queued_at_us;
      timing.solve_start_us = fanout_solve_start_us;
      timing.solve_us = fanout_solve_us;
      timing.encode_start_us = encode_start_us;
      timing.encode_us = send_us - encode_start_us;
      timing.send_us = send_us;
      timing.cause = DecisionCauseName(a.cause);
      slice.timings.push_back(std::move(timing));
      slice.ops.push_back({FanoutOp::Kind::kQueued, &sc, sc.queued_bytes});
    }
    // One echo per traced request: the context is consumed by the
    // assignment that answered it.
    sess.pending_trace.reset();
    ++slice.sent;
    if (sc.Flush(&slice.writes) == IoStatus::kError) {
      slice.ops.push_back({FanoutOp::Kind::kFailed, &sc});
      continue;
    }
    slice.ops.push_back({FanoutOp::Kind::kFlushed, &sc, sc.drained_bytes(),
                         tracer != nullptr ? tracer->now_us() : 0.0});
  }
}

void OneApiService::Impl::ReplaySlice(FanoutSlice& slice) {
  std::size_t next_timing = 0;
  for (const FanoutOp& op : slice.ops) {
    SessionConn& sc = *op.sc;
    switch (op.kind) {
      case FanoutOp::Kind::kDropped:
        tracer->OnAssignmentDropped(sc.flow);
        break;
      case FanoutOp::Kind::kQueued:
        tracer->OnAssignmentQueued(std::move(slice.timings[next_timing++]),
                                   sc.conn.fd(), op.bytes);
        break;
      case FanoutOp::Kind::kFlushed:
        if (tracer != nullptr) {
          tracer->OnConnFlushed(sc.conn.fd(), op.bytes, op.now_us);
        }
        UpdateInterest(sc);
        break;
      case FanoutOp::Kind::kFailed:
        TeardownConn(sc.conn.fd());  // the connection's last op
        break;
    }
  }
}

void OneApiService::Impl::PublishTelemetry() {
  if (options.telemetry == nullptr) return;
  TelemetrySnapshot snapshot;
  snapshot.scenario = options.scenario;
  snapshot.healthy = true;
  snapshot.cells = 1;
  snapshot.workers = 1;
  snapshot.epochs = bais.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(metrics_mu);
    snapshot.metrics.AbsorbFrom(registry);
  }
  options.telemetry->Publish(std::move(snapshot));
}

void OneApiService::Impl::ShutdownOnLoop() {
  for (auto& [fd, sc] : conns) {
    sc->QueueFrame(
        EncodeFrame(FrameType::kOverload, EncodeOverload(Overload("shutdown"))));
    sc->conn.Flush();  // best effort
    if (tracer != nullptr) {
      tracer->OnConnClosed(fd, sc->drained_bytes(), tracer->now_us());
    }
    loop.Unwatch(fd);
  }
  conns.clear();
  sessions.clear();
  if (timer_fd >= 0) {
    loop.Unwatch(timer_fd);
    ::close(timer_fd);
    timer_fd = -1;
  }
  loop.Unwatch(listener.fd());
  listener.Close();
}

OneApiService::OneApiService(OneApiServiceOptions options)
    : impl_(std::make_unique<Impl>(std::move(options))) {}

OneApiService::~OneApiService() { Stop(); }

bool OneApiService::Start() {
  if (impl_->started) return true;
  if (!impl_->loop.ok()) return false;
  if (!impl_->listener.Listen(impl_->options.bind_address,
                              impl_->options.port)) {
    return false;
  }
  // Initial watches are registered before the loop thread starts — the
  // one other moment Watch() is legal off the loop thread.
  impl_->loop.Watch(
      impl_->listener.fd(), EpollLoop::kReadable | EpollLoop::kError,
      [impl = impl_.get()](std::uint32_t) { impl->OnAccept(); });
  if (impl_->options.bai_ms > 0) {
    impl_->timer_fd =
        ::timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK | TFD_CLOEXEC);
    if (impl_->timer_fd >= 0) {
      itimerspec spec{};
      spec.it_interval.tv_sec = impl_->options.bai_ms / 1000;
      spec.it_interval.tv_nsec =
          static_cast<long>(impl_->options.bai_ms % 1000) * 1000000L;
      spec.it_value = spec.it_interval;
      ::timerfd_settime(impl_->timer_fd, 0, &spec, nullptr);
      impl_->loop.Watch(impl_->timer_fd, EpollLoop::kReadable,
                        [impl = impl_.get()](std::uint32_t) {
                          impl->OnTimer();
                        });
    } else {
      FLOG_WARN << "OneApiService: timerfd_create failed; BAI timer off";
    }
  }
  const unsigned hardware = std::thread::hardware_concurrency();
  const std::size_t max_slices =
      impl_->options.fanout_slices > 0
          ? static_cast<std::size_t>(impl_->options.fanout_slices)
          : std::max(1u, hardware > 0 ? hardware - 1 : 1u);
  impl_->slices.resize(max_slices);
  impl_->thread = std::thread([impl = impl_.get()] {
    impl->loop.Run();
    impl->ShutdownOnLoop();
  });
  impl_->started = true;
  return true;
}

void OneApiService::Stop() {
  if (!impl_->started) return;
  impl_->loop.Stop();
  if (impl_->thread.joinable()) impl_->thread.join();
  impl_->fanout_pool.reset();
  impl_->started = false;
  // The loop thread is gone: the tracer is safe to touch from here.
  if (impl_->tracer != nullptr && !impl_->options.trace_json.empty()) {
    impl_->tracer->ExportJson(impl_->options.trace_json);
  }
}

bool OneApiService::running() const { return impl_->started; }

std::uint16_t OneApiService::port() const {
  return impl_->listener.bound_port();
}

void OneApiService::TriggerTick() {
  if (!impl_->started) return;
  // Run on the loop thread and wait: callers sequence deterministic BAIs
  // against their own socket IO. Must not race Stop() — a tick posted
  // after the loop exits would never complete.
  auto done = std::make_shared<std::promise<void>>();
  std::future<void> future = done->get_future();
  impl_->loop.Post([impl = impl_.get(), done] {
    impl->Tick();
    done->set_value();
  });
  future.wait();
}

MetricsSnapshot OneApiService::SnapshotMetrics() const {
  std::lock_guard<std::mutex> lock(impl_->metrics_mu);
  return impl_->registry.Snapshot();
}

std::uint64_t OneApiService::connections_accepted() const {
  return impl_->connections_accepted.load(std::memory_order_relaxed);
}
std::uint64_t OneApiService::infos_received() const {
  return impl_->infos_received.load(std::memory_order_relaxed);
}
std::uint64_t OneApiService::stats_received() const {
  return impl_->stats_received.load(std::memory_order_relaxed);
}
std::uint64_t OneApiService::bais() const {
  return impl_->bais.load(std::memory_order_relaxed);
}
std::uint64_t OneApiService::assignments_sent() const {
  return impl_->assignments_sent.load(std::memory_order_relaxed);
}
std::uint64_t OneApiService::assignments_dropped() const {
  return impl_->assignments_dropped.load(std::memory_order_relaxed);
}
std::uint64_t OneApiService::admission_rejects() const {
  return impl_->admission_rejects.load(std::memory_order_relaxed);
}
std::uint64_t OneApiService::overload_rejects() const {
  return impl_->overload_rejects.load(std::memory_order_relaxed);
}
std::uint64_t OneApiService::sessions() const {
  return impl_->session_count.load(std::memory_order_relaxed);
}
std::uint64_t OneApiService::loop_dispatches() const {
  return impl_->loop.dispatches();
}
std::uint64_t OneApiService::traced_requests() const {
  return impl_->tracer != nullptr ? impl_->tracer->finalized_requests() : 0;
}

}  // namespace flare
