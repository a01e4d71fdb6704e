#include "svc/request_trace.h"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <utility>

#include "obs/flight_recorder.h"

namespace flare {
namespace {

const double kQuantiles[3] = {0.5, 0.95, 0.99};
const char* const kQuantileNames[3] = {"p50", "p95", "p99"};

std::string PhaseArgsJson(const RequestTiming& t, double total_us) {
  std::ostringstream out;
  out << "{\"trace\":\"" << TraceIdHex(t.ctx.trace_id) << "\",\"flow\":"
      << t.flow << ",\"recv_us\":" << t.recv_us
      << ",\"parse_us\":" << t.parse_us
      << ",\"queue_wait_us\":" << t.queue_wait_us
      << ",\"solve_us\":" << t.solve_us << ",\"encode_us\":" << t.encode_us
      << ",\"outbox_drain_us\":" << (t.end_us - t.send_us)
      << ",\"total_us\":" << total_us << ",\"cause\":"
      << JsonQuote(t.cause) << "}";
  return out.str();
}

}  // namespace

const char* const kRequestPhaseNames[kNumRequestPhases] = {
    "recv", "parse", "admit", "queue_wait", "solve", "encode", "outbox_drain"};

int RequestLane(FlowId flow) {
  // Lanes 8..63; below 8 is reserved for the fixed kLane* assignments.
  return 8 + static_cast<int>(static_cast<std::uint64_t>(flow) % 56);
}

std::string TraceIdHex(std::uint64_t trace_id) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(trace_id));
  return buf;
}

RequestTracer::RequestTracer(MetricsRegistry* registry,
                             std::mutex* registry_mu, FlightRecorder* flight,
                             RequestTracerOptions options)
    : registry_(registry),
      registry_mu_(registry_mu),
      flight_(flight),
      options_(std::move(options)),
      epoch_(std::chrono::steady_clock::now()) {
  // pid 1 so the daemon's events survive a merge with a client trace that
  // also recorded at its own default pid.
  tracer_.set_default_pid(1);
  tracer_.SetClock([this] { return now_us(); });
}

double RequestTracer::now_us() const {
  return static_cast<double>(
             std::chrono::duration_cast<std::chrono::nanoseconds>(
                 std::chrono::steady_clock::now() - epoch_)
                 .count()) /
         1e3;
}

void RequestTracer::RecordStage(const char* phase, double value_us) {
  std::lock_guard<std::mutex> lock(*registry_mu_);
  registry_->GetHistogram(std::string("svc.oneapi.stage.") + phase + "_us")
      .Observe(value_us);
}

void RequestTracer::CountDroppedEvent() {
  std::lock_guard<std::mutex> lock(*registry_mu_);
  registry_->GetCounter("svc.oneapi.trace.dropped_events").Add();
}

void RequestTracer::OnAdmit(const TraceContext* ctx, FlowId flow,
                            double start_us, double recv_us,
                            double parse_start_us, double parse_us,
                            double admit_start_us, double admit_us,
                            bool admitted) {
  (void)parse_start_us;
  RecordStage("recv", recv_us);
  RecordStage("parse", parse_us);
  RecordStage("admit", admit_us);
  if (!CanRecord()) {
    CountDroppedEvent();
    return;
  }
  std::ostringstream args;
  args << "{\"flow\":" << flow << ",\"recv_us\":" << recv_us
       << ",\"parse_us\":" << parse_us << ",\"admit_us\":" << admit_us
       << ",\"admitted\":" << (admitted ? "true" : "false");
  if (ctx != nullptr) {
    args << ",\"trace\":\"" << TraceIdHex(ctx->trace_id) << "\"";
  }
  args << "}";
  const double end_us = admit_start_us + admit_us;
  tracer_.CompleteSpan(RequestLane(flow), "svc", "admit_request", start_us,
                       end_us - start_us, args.str());
}

void RequestTracer::OnSampleQueued(const RequestTiming& timing) {
  RecordStage("recv", timing.recv_us);
  RecordStage("parse", timing.parse_us);
}

void RequestTracer::OnAssignmentQueued(RequestTiming timing, int fd,
                                       std::uint64_t drain_watermark) {
  PendingDrain pending;
  pending.watermark = drain_watermark;
  pending.timing = std::move(timing);
  drains_[fd].push_back(std::move(pending));
}

void RequestTracer::OnAssignmentDropped(FlowId flow) {
  (void)flow;
  std::lock_guard<std::mutex> lock(*registry_mu_);
  registry_->GetCounter("svc.oneapi.trace.requests_dropped").Add();
}

void RequestTracer::OnConnFlushed(int fd, std::uint64_t drained_bytes,
                                  double now_us) {
  const auto it = drains_.find(fd);
  if (it == drains_.end()) return;
  std::deque<PendingDrain>& queue = it->second;
  while (!queue.empty() && queue.front().watermark <= drained_bytes) {
    RequestTiming timing = std::move(queue.front().timing);
    queue.pop_front();
    timing.end_us = now_us;
    FinalizeRequest(timing);
  }
  if (queue.empty()) drains_.erase(it);
}

void RequestTracer::OnConnClosed(int fd, std::uint64_t drained_bytes,
                                 double now_us) {
  OnConnFlushed(fd, drained_bytes, now_us);
  // Whatever never left the outbox never reached the client: discard.
  drains_.erase(fd);
}

void RequestTracer::FinalizeRequest(const RequestTiming& t) {
  finalized_.fetch_add(1, std::memory_order_relaxed);
  const double total_us = t.end_us - t.start_us;
  const double drain_us = t.end_us - t.send_us;
  RecordStage("queue_wait", t.queue_wait_us);
  RecordStage("solve", t.solve_us);
  RecordStage("encode", t.encode_us);
  RecordStage("outbox_drain", drain_us);
  {
    std::lock_guard<std::mutex> lock(*registry_mu_);
    registry_->GetCounter("svc.oneapi.trace.requests").Add();
  }

  // Worst-K window table, slowest first.
  const int k = std::max(1, options_.exemplar_k);
  auto pos = std::upper_bound(exemplars_.begin(), exemplars_.end(), total_us,
                              [](double lhs, const RequestTiming& rhs) {
                                return lhs > rhs.end_us - rhs.start_us;
                              });
  if (pos != exemplars_.end() ||
      exemplars_.size() < static_cast<std::size_t>(k)) {
    exemplars_.insert(pos, t);
    if (exemplars_.size() > static_cast<std::size_t>(k)) {
      exemplars_.pop_back();
    }
  }

  // 8 events per request (parent + 7 phases); budget them as a unit.
  if (tracer_.size() + 8 > options_.max_events) {
    CountDroppedEvent();
    return;
  }
  const int lane = RequestLane(t.flow);
  tracer_.CompleteSpan(lane, "svc", "request", t.start_us, total_us,
                       PhaseArgsJson(t, total_us));
  tracer_.CompleteSpan(lane, "svc.stage", "recv", t.start_us, t.recv_us);
  tracer_.CompleteSpan(lane, "svc.stage", "parse", t.parse_start_us,
                       t.parse_us);
  tracer_.CompleteSpan(lane, "svc.stage", "queue_wait", t.queued_at_us,
                       t.queue_wait_us);
  tracer_.CompleteSpan(lane, "svc.stage", "solve", t.solve_start_us,
                       t.solve_us);
  tracer_.CompleteSpan(lane, "svc.stage", "encode", t.encode_start_us,
                       t.encode_us);
  tracer_.CompleteSpan(lane, "svc.stage", "outbox_drain", t.send_us,
                       drain_us);
}

void RequestTracer::EndTick(double tick_start_us, double solve_start_us,
                            double solve_us, double tick_us,
                            std::size_t sessions, std::size_t assignments) {
  if (tracer_.size() + 2 <= options_.max_events) {
    std::ostringstream args;
    args << "{\"sessions\":" << sessions
         << ",\"assignments\":" << assignments << "}";
    tracer_.CompleteSpan(kLaneControl, "svc", "tick", tick_start_us, tick_us,
                         args.str());
    if (solve_us > 0.0) {
      tracer_.CompleteSpan(kLaneControl, "svc", "solve", solve_start_us,
                           solve_us);
    }
  }

  // Refresh the stage quantile gauges from the histograms so /metrics
  // and flare_top see the distribution without parsing buckets. Gauges
  // appear only once a stage has data (Quantile is NaN on empty).
  {
    std::lock_guard<std::mutex> lock(*registry_mu_);
    for (const char* phase : kRequestPhaseNames) {
      Histogram& hist = registry_->GetHistogram(
          std::string("svc.oneapi.stage.") + phase + "_us");
      for (int q = 0; q < 3; ++q) {
        const double value = hist.Quantile(kQuantiles[q]);
        if (value != value) continue;  // NaN: no observations yet
        registry_
            ->GetGauge(std::string("svc.oneapi.stage.") + phase + "." +
                       kQuantileNames[q] + "_us")
            .Set(value);
      }
    }
  }

  if (++ticks_in_window_ >= std::max(1, options_.exemplar_window_ticks)) {
    FlushExemplars();
    ticks_in_window_ = 0;
  }
}

void RequestTracer::FlushExemplars() {
  if (flight_ != nullptr) {
    for (const RequestTiming& t : exemplars_) {
      const double total_us = t.end_us - t.start_us;
      flight_->Record(t.end_us / 1e6, "slow_request", t.flow, -1, total_us,
                      PhaseArgsJson(t, total_us));
    }
  }
  exemplars_.clear();
}

bool RequestTracer::ExportJson(const std::string& path) {
  FlushExemplars();
  tracer_.SortMergedEvents();
  return tracer_.ExportJson(path);
}

}  // namespace flare
