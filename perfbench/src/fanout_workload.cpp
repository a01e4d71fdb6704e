// oneapid_fanout: an in-process OneApiService (bai_ms = 0, batched
// solver, admit-all) with 1000 sessions held open over loopback by one
// client thread on one epoll set. A tick generator triggers a BAI tick every
// 100 ms on a fixed schedule (open loop); every session answers each
// assignment with one stats report, so client writes run beside the
// server's. Three threads: the service loop, the tick generator, the client.
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <memory>
#include <stop_token>
#include <string>
#include <thread>
#include <vector>

#include "core/rate_controller.h"
#include "harness.h"
#include "has/mpd.h"
#include "layers.h"
#include "ledger.h"
#include "net/messages.h"
#include "svc/frame.h"
#include "svc/oneapi_service.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr std::size_t kSessions = 1000;
constexpr double kTickPeriodUs = 100000.0;
/// Aggregate RB budget of the one cell the daemon controls, sized so 1000
/// sessions settle mid-ladder rather than all at the floor rung.
constexpr int kNumRbs = 6000;
constexpr int kSetupReps = 15;
/// Every tick does the same work once the efficiencies have settled, and
/// the speed of a shared host drifts by tens of percent within seconds,
/// so the run's figures are those of its fastest decile of ticks (the
/// pooled distribution is printed too).
constexpr double kTickQuantile = 0.1;
/// Outstanding connects stay below the listener's backlog of 64.
constexpr std::size_t kMaxConnectsInFlight = 32;
constexpr std::uint64_t kFirstFlow = 1000;
constexpr double kWelcomeTimeoutS = 10.0;
/// Event-queue depth, UEs and RBs of the mobile cell: the input size of
/// the simulator layer probes on this workload, where they are idle.
constexpr std::size_t kIdleQueueDepth = 500;
constexpr int kIdleUes = 8;
constexpr int kIdleRbs = 25;

std::uint64_t Fnv1a(std::uint64_t hash, const void* data, std::size_t len) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < len; ++i) {
    hash ^= bytes[i];
    hash *= 0x100000001b3ULL;
  }
  return hash;
}
constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

/// What the generator gives each session: its flow id and the constant
/// efficiency (bits per RB) its stats reports carry.
struct SessionInput {
  std::uint64_t flow = 0;
  std::uint64_t bits_per_rb = 0;
};

std::vector<SessionInput> MakeInputs(std::uint64_t seed) {
  flare::Rng rng(DeriveSeed(seed, 0x0a91));
  std::vector<SessionInput> inputs(kSessions);
  for (std::size_t s = 0; s < kSessions; ++s) {
    inputs[s].flow = kFirstFlow + s;
    inputs[s].bits_per_rb = static_cast<std::uint64_t>(rng.UniformInt(60, 240));
  }
  return inputs;
}

std::vector<double> LadderBps() {
  std::vector<double> ladder;
  for (const double kbps : flare::TestbedLadderKbps()) {
    ladder.push_back(kbps * 1e3);
  }
  return ladder;
}

flare::OneApiServiceOptions ServiceOptions(const std::string& trace_json) {
  flare::OneApiServiceOptions options;
  options.bai_ms = 0;  // ticks come only from the tick generator
  options.num_rbs = kNumRbs;
  options.trace_json = trace_json;
  return options;
}

/// Failures the client saw, by kind.
struct Tally {
  std::uint64_t malformed = 0;
  std::uint64_t wrong_flow = 0;
  std::uint64_t unpaired = 0;
  std::uint64_t late = 0;
  std::uint64_t bad_level = 0;
  std::uint64_t protocol = 0;
};

/// The benchmark's client: one nonblocking loopback socket per session,
/// all on one epoll set, driven by one thread.
class Client {
 public:
  Client(const std::vector<SessionInput>& inputs, std::size_t ticks);
  ~Client();
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Connects every session and waits for its welcome. Empty on success,
  /// else what failed.
  std::string Connect(std::uint16_t port);
  /// Client-thread loop until `stop` is requested: pairs assignments,
  /// answers each with a stats report.
  void Serve(FanoutLedger& ledger, std::stop_token stop);

  const Tally& tally() const { return tally_; }
  const std::vector<double>& loop_lag_us() const { return loop_lag_us_; }
  /// Received assignment of (session, tick): payload hash, level, rate.
  std::uint64_t hash(std::size_t s, std::size_t k) const {
    return hash_[s * ticks_ + k];
  }
  int level(std::size_t s, std::size_t k) const {
    return level_[s * ticks_ + k];
  }
  double rate(std::size_t s, std::size_t k) const {
    return rate_[s * ticks_ + k];
  }
  Clock::time_point epoch() const { return epoch_; }

 private:
  struct Session {
    int fd = -1;
    std::string inbox;
    std::string outbox;
    std::string report;  // this session's stats-report frame
    bool want_write = false;  // EPOLLOUT armed
  };
  /// Reads what the socket holds into the inbox. False on EOF or error.
  bool ReadAvailable(Session& session);
  /// Writes the outbox; arms EPOLLOUT while bytes remain.
  void Flush(std::size_t s);
  /// One epoll round of the welcome phase; adds newly welcomed sessions.
  std::string AwaitWelcomes(std::size_t* welcomed);

  const std::vector<SessionInput>& inputs_;
  std::size_t ticks_;
  std::vector<double> ladder_;
  std::vector<Session> sessions_;
  int epoll_fd_ = -1;
  Clock::time_point epoch_ = Clock::now();
  Tally tally_;
  std::vector<double> loop_lag_us_;
  std::vector<std::uint64_t> hash_;
  std::vector<int> level_;
  std::vector<double> rate_;
};

Client::Client(const std::vector<SessionInput>& inputs, std::size_t ticks)
    : inputs_(inputs),
      ticks_(ticks),
      ladder_(LadderBps()),
      sessions_(inputs.size()),
      hash_(inputs.size() * ticks, 0),
      level_(inputs.size() * ticks, -1),
      rate_(inputs.size() * ticks, 0.0) {
  for (std::size_t s = 0; s < inputs.size(); ++s) {
    // e_u = 8 * tx_bytes / rbs; rbs = 8 makes the sample exactly
    // bits_per_rb. The report never changes, so it is encoded once.
    flare::FlowStatsReport report;
    report.flow = inputs[s].flow;
    report.type = flare::FlowType::kVideo;
    report.tx_bytes = inputs[s].bits_per_rb;
    report.rbs = 8;
    sessions_[s].report = flare::EncodeFrame(
        flare::FrameType::kStatsReport, flare::EncodeStatsReport(report));
  }
}

Client::~Client() {
  for (Session& session : sessions_) {
    if (session.fd >= 0) ::close(session.fd);
  }
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

bool Client::ReadAvailable(Session& session) {
  char buf[16384];
  for (;;) {
    const ssize_t n = ::recv(session.fd, buf, sizeof(buf), 0);
    if (n > 0) {
      session.inbox.append(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
}

void Client::Flush(std::size_t s) {
  Session& session = sessions_[s];
  while (!session.outbox.empty()) {
    const ssize_t n = ::send(session.fd, session.outbox.data(),
                             session.outbox.size(), MSG_NOSIGNAL);
    if (n > 0) {
      session.outbox.erase(0, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    break;
  }
  const bool want_write = !session.outbox.empty();
  if (want_write == session.want_write) return;
  session.want_write = want_write;
  epoll_event ev{};
  ev.events = EPOLLIN | (want_write ? EPOLLOUT : 0u);
  ev.data.u64 = s;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, session.fd, &ev);
}

std::string Client::AwaitWelcomes(std::size_t* welcomed) {
  epoll_event events[64];
  const int n = ::epoll_wait(epoll_fd_, events, 64, 100);
  for (int i = 0; i < n; ++i) {
    const std::size_t s = events[i].data.u64;
    Session& session = sessions_[s];
    if ((events[i].events & EPOLLOUT) != 0) Flush(s);
    if ((events[i].events & (EPOLLIN | EPOLLHUP | EPOLLERR)) == 0) continue;
    if (!ReadAvailable(session)) return "session closed before its welcome";
    flare::Frame frame;
    for (;;) {
      const flare::FrameParseStatus status =
          flare::ParseFrame(&session.inbox, &frame);
      if (status == flare::FrameParseStatus::kNeedMore) break;
      if (status == flare::FrameParseStatus::kError ||
          frame.type != flare::FrameType::kWelcome ||
          flare::DecodeWelcome(frame.payload) != inputs_[s].flow) {
        return "expected a welcome for flow " +
               std::to_string(inputs_[s].flow);
      }
      ++*welcomed;
    }
  }
  return {};
}

std::string Client::Connect(std::uint16_t port) {
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) return std::string("epoll_create1: ") + strerror(errno);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  std::size_t welcomed = 0;
  const auto wait_until = [&](std::size_t target) -> std::string {
    const auto start = Clock::now();
    while (welcomed < target) {
      if (SecondsBetween(start, Clock::now()) > kWelcomeTimeoutS) {
        return "timed out waiting for welcomes";
      }
      std::string error = AwaitWelcomes(&welcomed);
      if (!error.empty()) return error;
    }
    return {};
  };
  for (std::size_t s = 0; s < sessions_.size(); ++s) {
    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) return std::string("socket: ") + strerror(errno);
    sessions_[s].fd = fd;
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      return std::string("connect: ") + strerror(errno);
    }
    flare::ClientInfo info;
    info.flow = inputs_[s].flow;
    info.ladder_bps = ladder_;
    sessions_[s].outbox = flare::EncodeFrame(flare::FrameType::kClientInfo,
                                             flare::EncodeClientInfo(info));
    ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = s;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      return std::string("epoll_ctl: ") + strerror(errno);
    }
    Flush(s);
    if (s + 1 >= welcomed + kMaxConnectsInFlight) {
      std::string error = wait_until(s + 1 - kMaxConnectsInFlight / 2);
      if (!error.empty()) return error;
    }
  }
  return wait_until(sessions_.size());
}

void Client::Serve(FanoutLedger& ledger, std::stop_token stop) {
  std::vector<epoll_event> events(256);
  flare::Frame frame;
  while (!stop.stop_requested()) {
    const int n = ::epoll_wait(epoll_fd_, events.data(),
                               static_cast<int>(events.size()), 5);
    if (n <= 0) continue;
    const auto woke = Clock::now();
    for (int i = 0; i < n; ++i) {
      const std::size_t s = events[i].data.u64;
      Session& session = sessions_[s];
      if ((events[i].events & EPOLLOUT) != 0) Flush(s);
      if ((events[i].events & (EPOLLIN | EPOLLHUP | EPOLLERR)) == 0) continue;
      if (!ReadAvailable(session)) {
        ++tally_.protocol;
        ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, session.fd, nullptr);
        continue;
      }
      const double recv_us = MicrosBetween(epoch_, Clock::now());
      for (;;) {
        const flare::FrameParseStatus status =
            flare::ParseFrame(&session.inbox, &frame);
        if (status == flare::FrameParseStatus::kNeedMore) break;
        if (status == flare::FrameParseStatus::kError ||
            frame.type != flare::FrameType::kAssignment) {
          ++tally_.protocol;
          session.inbox.clear();
          break;
        }
        const auto msg = flare::DecodeRateAssignment(frame.payload);
        if (!msg) {
          ++tally_.malformed;
          continue;
        }
        std::size_t tick = 0;
        switch (ledger.OnAssignment(s, msg->flow, recv_us, &tick)) {
          case FanoutLedger::Outcome::kWrongFlow:
            ++tally_.wrong_flow;
            continue;
          case FanoutLedger::Outcome::kUnpaired:
            ++tally_.unpaired;
            continue;
          case FanoutLedger::Outcome::kLate:
            ++tally_.late;
            break;
          case FanoutLedger::Outcome::kPaired:
            break;
        }
        if (msg->level < 0 ||
            msg->level >= static_cast<int>(ladder_.size())) {
          ++tally_.bad_level;
        }
        const std::size_t slot = s * ticks_ + tick;
        hash_[slot] =
            Fnv1a(kFnvBasis, frame.payload.data(), frame.payload.size());
        level_[slot] = msg->level;
        rate_[slot] = msg->rate_bps;
        session.outbox += session.report;
      }
      Flush(s);
    }
    loop_lag_us_.push_back(MicrosBetween(woke, Clock::now()));
  }
}

/// The assignments the service must send, computed in-process: the same
/// gather (ascending flow id, EWMA of the reported efficiencies) and the
/// same FlareRateController, fed the observations the service saw when
/// every report arrived before the next tick.
struct Replay {
  std::vector<std::uint64_t> hash;  // per (session, tick)
  std::vector<double> decide_us;    // DecideBai on the daemon's inputs
};

Replay ReplayAssignments(const std::vector<SessionInput>& inputs,
                         std::size_t ticks,
                         const flare::OneApiServiceOptions& options) {
  Replay replay;
  replay.hash.assign(inputs.size() * ticks, 0);
  const std::vector<double> ladder = LadderBps();
  flare::FlareRateController controller(options.params);
  for (const SessionInput& in : inputs) controller.AddFlow(in.flow, ladder);
  const double w = std::clamp(options.efficiency_smoothing, 0.0, 1.0);
  std::vector<double> smoothed(inputs.size(), 0.0);
  std::vector<flare::FlowObservation> observations(inputs.size());
  for (std::size_t k = 0; k < ticks; ++k) {
    for (std::size_t s = 0; s < inputs.size(); ++s) {
      // Tick 0 precedes every report; later ticks see the report that
      // answered the previous tick's assignment.
      const double sample =
          k > 0 ? static_cast<double>(inputs[s].bits_per_rb)
                : (smoothed[s] > 0.0 ? smoothed[s]
                                     : options.default_bits_per_rb);
      smoothed[s] = smoothed[s] <= 0.0
                        ? sample
                        : (1.0 - w) * smoothed[s] + w * sample;
      observations[s].id = inputs[s].flow;
      observations[s].bits_per_rb = smoothed[s];
    }
    const auto start = Clock::now();
    const flare::BaiDecision decision = controller.DecideBai(
        observations, options.n_data_flows,
        static_cast<double>(options.num_rbs) * 1000.0);
    replay.decide_us.push_back(MicrosBetween(start, Clock::now()));
    for (const flare::RateAssignment& a : decision.assignments) {
      flare::RateAssignmentMsg msg;
      msg.flow = a.id;
      msg.level = a.level;
      msg.rate_bps = a.rate_bps;
      msg.gbr_bps = a.rate_bps * options.gbr_headroom;
      const std::string payload = flare::EncodeRateAssignment(msg);
      const std::size_t s = a.id - kFirstFlow;
      if (s < inputs.size()) {
        replay.hash[s * ticks + k] =
            Fnv1a(kFnvBasis, payload.data(), payload.size());
      }
    }
  }
  return replay;
}

/// Everything one pass (set-ups plus `ticks` BAIs) measured.
struct Pass {
  std::vector<double> setup_s;
  std::vector<std::vector<double>> fanout_us;  // per tick
  std::vector<double> tick_us;
  std::vector<double> gen_lag_us;
  std::vector<double> loop_lag_us;
  std::vector<double> decide_us;
  double qoe_kbps = 0.0;
  double qoe_changes = 0.0;
  std::uint64_t digest = kFnvBasis;
  std::uint64_t assignments = 0;
  std::uint64_t dropped = 0;
  std::uint64_t stats_received = 0;
  std::uint64_t bais = 0;
  double rss_mb = 0.0;
  /// Ticks whose assignments were checked against the replay (all of
  /// them unless the service fell behind in reading reports).
  std::size_t replay_ticks = 0;
};

/// Sets up `setup_reps` times (keeping the last set-up), then runs
/// `ticks` open-loop BAIs and checks every assignment.
Pass RunPass(const std::vector<SessionInput>& inputs, std::size_t ticks,
             int setup_reps, const std::string& trace_json, Result& result) {
  Pass pass;
  const flare::OneApiServiceOptions options = ServiceOptions(trace_json);
  std::unique_ptr<flare::OneApiService> service;
  std::unique_ptr<Client> client;
  for (int r = 0; r < setup_reps; ++r) {
    // The service closes first, so the client's sockets close passively
    // and leave no TIME_WAIT entries behind to slow later connects.
    service.reset();
    client.reset();
    service = std::make_unique<flare::OneApiService>(options);
    client = std::make_unique<Client>(inputs, ticks);
    const auto start = Clock::now();
    std::string error = service->Start() ? client->Connect(service->port())
                                         : "service failed to start";
    pass.setup_s.push_back(SecondsBetween(start, Clock::now()));
    result.RecordMany(inputs.size(), error.empty() ? 0 : inputs.size(),
                      "oneapid_fanout set-up: " + error);
    if (!error.empty()) return pass;
  }

  std::vector<std::uint64_t> flows;
  for (const SessionInput& in : inputs) flows.push_back(in.flow);
  const double start_us =
      MicrosBetween(client->epoch(), Clock::now()) + kTickPeriodUs / 2.0;
  FanoutLedger ledger(std::move(flows), ticks, start_us, kTickPeriodUs);
  // Joined (after a stop request) on every path out of this scope.
  std::jthread client_thread([&client, &ledger](std::stop_token stop) {
    client->Serve(ledger, std::move(stop));
  });
  const auto due_at = [&](std::size_t k) {
    return client->epoch() + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double, std::micro>(
                                     ledger.DueUs(k)));
  };
  // The replay below assumes every report answering tick k-1 reached the
  // service before tick k gathered. That is certain when the service had
  // already counted them before tick k was posted; from the first tick
  // where it had not, later values may legitimately differ.
  std::size_t replay_ticks = ticks;
  for (std::size_t k = 0; k < ticks; ++k) {
    std::this_thread::sleep_until(due_at(k));
    const auto fire = Clock::now();
    pass.gen_lag_us.push_back(MicrosBetween(due_at(k), fire));
    if (replay_ticks == ticks &&
        service->stats_received() < inputs.size() * k) {
      replay_ticks = k;
    }
    ledger.OnTickTriggered(k);
    service->TriggerTick();
    pass.tick_us.push_back(MicrosBetween(fire, Clock::now()));
  }
  // The last tick's assignments are due before the next would-be tick.
  std::this_thread::sleep_until(due_at(ticks));
  client_thread.request_stop();
  client_thread.join();
  // Let the service read the final reports before its counters are read.
  const std::uint64_t expected = inputs.size() * ticks;
  for (int i = 0; i < 100 && service->stats_received() < expected; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  pass.rss_mb = PeakRssMb();
  pass.assignments = service->assignments_sent();
  pass.dropped = service->assignments_dropped();
  pass.stats_received = service->stats_received();
  pass.bais = service->bais();
  service->Stop();

  const Replay replay = ReplayAssignments(inputs, ticks, options);
  pass.decide_us = replay.decide_us;
  std::uint64_t mismatched = 0;
  double kbps = 0.0;
  std::uint64_t changes = 0;
  for (std::size_t k = 0; k < ticks; ++k) {
    for (std::size_t s = 0; s < inputs.size(); ++s) {
      if (client->level(s, k) < 0) continue;  // missing, counted below
      if (k < replay_ticks &&
          client->hash(s, k) != replay.hash[s * ticks + k]) {
        ++mismatched;
      }
      const std::uint64_t h = client->hash(s, k);
      pass.digest = Fnv1a(pass.digest, &h, sizeof(h));
      kbps += client->rate(s, k) / 1e3;
      if (k > 0 && client->level(s, k) != client->level(s, k - 1)) ++changes;
    }
  }
  const Tally& t = client->tally();
  const std::uint64_t missing = ledger.Missing();
  const std::uint64_t failed = missing + mismatched + t.malformed +
                               t.wrong_flow + t.unpaired + t.late +
                               t.bad_level + t.protocol;
  char why[320];
  std::snprintf(why, sizeof(why),
                "oneapid_fanout assignments: missing=%llu mismatched=%llu "
                "malformed=%llu wrong_flow=%llu unpaired=%llu late=%llu "
                "bad_level=%llu protocol=%llu",
                static_cast<unsigned long long>(missing),
                static_cast<unsigned long long>(mismatched),
                static_cast<unsigned long long>(t.malformed),
                static_cast<unsigned long long>(t.wrong_flow),
                static_cast<unsigned long long>(t.unpaired),
                static_cast<unsigned long long>(t.late),
                static_cast<unsigned long long>(t.bad_level),
                static_cast<unsigned long long>(t.protocol));
  result.RecordMany(expected, std::min(failed, expected), why);
  result.Record(pass.assignments == expected && pass.dropped == 0 &&
                    pass.stats_received == expected && pass.bais == ticks,
                "oneapid_fanout service counters: assignments=" +
                    std::to_string(pass.assignments) +
                    " dropped=" + std::to_string(pass.dropped) +
                    " stats=" + std::to_string(pass.stats_received) +
                    " bais=" + std::to_string(pass.bais));

  pass.replay_ticks = replay_ticks;
  const auto received = static_cast<double>(expected - missing);
  pass.qoe_kbps = received > 0.0 ? kbps / received : 0.0;
  pass.qoe_changes =
      static_cast<double>(changes) / static_cast<double>(inputs.size());
  pass.fanout_us = ledger.fanout_us();
  pass.loop_lag_us = client->loop_lag_us();
  return pass;
}

void NoteGenerator(Result& result, const Pass& pass) {
  const double max_lag =
      pass.gen_lag_us.empty()
          ? 0.0
          : *std::max_element(pass.gen_lag_us.begin(), pass.gen_lag_us.end());
  const bool kept = max_lag < kTickPeriodUs;
  result.Note(std::string("generator ") +
              (kept ? "kept its schedule" : "FELL BEHIND its schedule") +
              ": gen.lag " + Describe(Summarize(pass.gen_lag_us), "us") +
              ", max " + std::to_string(max_lag) + " us");
  char digest[128];
  std::snprintf(digest, sizeof(digest),
                "assignment digest: %016llx; replay-checked ticks: %zu of %zu",
                static_cast<unsigned long long>(pass.digest),
                pass.replay_ticks, pass.tick_us.size());
  result.Note(digest);
}

}  // namespace

Result RunOneapidFanout(const Options& options) {
  Result result;
  const std::vector<SessionInput> inputs = MakeInputs(options.seed);
  const auto ticks = static_cast<std::size_t>(
      std::max(2.0, options.seconds * 1e6 / kTickPeriodUs));

  if (!options.trace) {
    const Pass pass = RunPass(inputs, ticks, kSetupReps, "", result);
    // Per tick, then the fastest decile of ticks: a tick stalled by host
    // noise shows in the pooled tail printed below, not in the headline.
    std::vector<double> pooled;
    std::vector<double> tick_p50;
    std::vector<double> tick_p99;
    for (const std::vector<double>& tick : pass.fanout_us) {
      const Distribution d = Summarize(tick);
      tick_p50.push_back(d.p50);
      tick_p99.push_back(d.p99);
      pooled.insert(pooled.end(), tick.begin(), tick.end());
    }
    result.Set("setup_s", Median(pass.setup_s), "s");
    // Cell-seconds of BAI control per host second of tick work.
    result.Set("cell_sim_s_per_s",
               kTickPeriodUs / Quantile(pass.tick_us, kTickQuantile),
               "cell-s/s");
    result.Set("peak_rss_mb", pass.rss_mb, "MB");
    result.Set("qoe_bitrate_kbps", pass.qoe_kbps, "kbps");
    result.Set("qoe_changes", pass.qoe_changes, "count");
    result.Set("fanout_p50_us", Quantile(tick_p50, kTickQuantile), "us");
    result.Set("fanout_p99_us", Quantile(tick_p99, kTickQuantile), "us");
    result.Note("fanout (tick due -> client receipt), pooled over ticks: " +
                Describe(Summarize(pooled), "us"));
    result.Note("fanout per-tick p99 over ticks: " +
                Describe(Summarize(tick_p99), "us"));
    NoteGenerator(result, pass);
    return result;
  }

  // Traced run: an untraced half as the overhead baseline, then a half
  // with the service's own request tracer (svc/request_trace) exporting.
  const std::size_t half = std::max<std::size_t>(2, ticks / 2);
  const Pass untraced = RunPass(inputs, half, 1, "", result);
  const std::string trace_json =
      options.scratch_dir + "/oneapid_fanout.trace.json";
  const Pass traced = RunPass(inputs, half, 1, trace_json, result);
  std::remove(trace_json.c_str());

  const Distribution tick = Summarize(traced.tick_us);
  const Distribution decide = Summarize(traced.decide_us);
  const double encode_ns = EncodeAssignmentNs();
  const double n = static_cast<double>(inputs.size());
  result.Set("sim.event_ns", EventQueueNs(kIdleQueueDepth, options.seed),
             "ns");
  result.Set("lte.itbs_ns", MobilityItbsNs(kIdleUes, options.seed), "ns");
  result.Set("lte.allocate_ns.pss",
             AllocateNs(SchedulerUnderTest::kPss, kIdleUes, kIdleRbs,
                        options.seed),
             "ns");
  result.Set("lte.allocate_ns.two_phase_gbr",
             AllocateNs(SchedulerUnderTest::kTwoPhaseGbr, kIdleUes, kIdleRbs,
                        options.seed),
             "ns");
  result.Set("core.bais", static_cast<double>(traced.bais), "count");
  result.Set("core.decide_bai_us.p50", decide.p50, "us");
  result.Set("core.decide_bai_us.p99", decide.p99, "us");
  result.Set("svc.tick_us.p50", tick.p50, "us");
  result.Set("svc.tick_us.p99", tick.p99, "us");
  result.Set("svc.encode_ns", encode_ns, "ns");
  result.Set("svc.tick_residual_us",
             tick.p50 - decide.p50 - n * encode_ns / 1e3, "us");
  result.Set("svc.assignments", static_cast<double>(traced.assignments),
             "count");
  result.Set("svc.assignments_dropped", static_cast<double>(traced.dropped),
             "count");
  result.Set("svc.stats_received",
             static_cast<double>(traced.stats_received), "count");
  result.Set("gen.lag_p99_us", Quantile(traced.gen_lag_us, 0.99), "us");
  result.Set("client.loop_lag_p99_us", Quantile(traced.loop_lag_us, 0.99),
             "us");
  result.Set("client.parse_ns", ParseAssignmentNs(), "ns");
  // Attribution over the daemon's busy time (the ticks): the solver plus
  // one encode per assignment. Gather, flush, epoll_ctl and locks are the
  // unattributed remainder.
  const double attributed_us =
      Sum(traced.decide_us) +
      static_cast<double>(traced.assignments) * encode_ns / 1e3;
  result.Set("layers.attributed_share", attributed_us / Sum(traced.tick_us),
             "ratio");
  result.Set("trace.overhead_pct",
             (tick.p50 / Median(untraced.tick_us) - 1.0) * 100.0, "%");
  result.Note("svc.tick_us: " + Describe(tick, "us"));
  result.Note("core.decide_bai_us (1000 observations): " +
              Describe(decide, "us"));
  result.Note("client.loop_lag_us: " +
              Describe(Summarize(traced.loop_lag_us), "us"));
  NoteGenerator(result, traced);
  return result;
}

}  // namespace perfbench
