#include "obs/telemetry_publisher.h"

#include <algorithm>
#include <string>
#include <utility>

#include "obs/span_trace.h"  // JsonQuote
#include "util/csv.h"        // JsonNumber
#include "util/time.h"

namespace flare {

std::string RenderFlightEventNdjson(const FlightEvent& event) {
  std::string line = "{\"t_s\": ";
  line += JsonNumber(event.t_s);
  line += ", \"cell\": ";
  line += std::to_string(event.cell);
  line += ", \"seq\": ";
  line += std::to_string(event.seq);
  line += ", \"kind\": ";
  line += JsonQuote(event.kind);
  line += ", \"flow\": ";
  line += std::to_string(event.flow);
  line += ", \"client\": ";
  line += std::to_string(event.client);
  line += ", \"value\": ";
  line += JsonNumber(event.value);
  if (!event.args.empty()) {
    line += ", \"args\": ";
    line += event.args;
  }
  line += '}';
  return line;
}

TelemetryPublisher::TelemetryPublisher(TelemetryServer* server,
                                       double interval_ms)
    : server_(server),
      interval_(std::chrono::duration_cast<
                std::chrono::steady_clock::duration>(
          std::chrono::duration<double, std::milli>(
              interval_ms > 0.0 ? interval_ms : 1000.0))),
      start_(std::chrono::steady_clock::now()) {}

void TelemetryPublisher::ConfigureRun(std::string scenario, double duration_s,
                                      int cells, int workers) {
  scenario_ = std::move(scenario);
  // The horizon the simulator runs to, so the last slice compares equal.
  duration_s_ = ToSeconds(FromSeconds(duration_s));
  cells_ = cells;
  workers_ = workers;
}

void TelemetryPublisher::AddShard(TelemetryShardView shard, int cell) {
  Shard entry;
  entry.view = std::move(shard);
  entry.cell = cell;
  // Every snapshot carries every cell's clock, 0 until the cell publishes.
  entry.part.metrics.gauges["cell" + std::to_string(cell) +
                            ".telemetry.sim_time_s"] = 0.0;
  shards_.push_back(std::move(entry));
}

void TelemetryPublisher::Publish(Shard& shard, double sim_time_s) {
  // Render this cell's part from the observers its thread owns.
  const TelemetryShardView& view = shard.view;
  const std::string cell_prefix = "cell" + std::to_string(shard.cell) + ".";
  Part part;
  part.sim_time_s = sim_time_s;
  auto gauge = [&](const char* name, double value) {
    part.metrics.gauges[cell_prefix + name] = value;
  };
  if (view.metrics != nullptr) {
    part.metrics.AbsorbFrom(*view.metrics, view.metrics_prefix);
  }
  if (view.qoe != nullptr) {
    const QoeLiveSummary live = view.qoe->LiveSummary();
    gauge("qoe.sessions", static_cast<double>(live.sessions));
    gauge("qoe.played_sessions", static_cast<double>(live.played));
    gauge("qoe.avg_bitrate_bps", live.avg_bitrate_bps);
    gauge("qoe.jain_avg_bitrate", live.jain_avg_bitrate);
    gauge("qoe.avg_qoe", live.avg_qoe);
    gauge("qoe.stall_ratio", live.stall_ratio);
    gauge("qoe.stalls", static_cast<double>(live.stalls));
    gauge("qoe.switches", static_cast<double>(live.switches));
    gauge("qoe.admitted", static_cast<double>(live.admitted));
    gauge("qoe.blocked", static_cast<double>(live.blocked));
    gauge("qoe.blocking_probability", live.blocking_probability);
  }
  if (view.health != nullptr) {
    part.healthy = view.health->healthy();
    part.warnings =
        static_cast<std::uint64_t>(view.health->warnings().size());
    gauge("health.healthy", part.healthy ? 1.0 : 0.0);
  }
  gauge("telemetry.sim_time_s", sim_time_s);
  std::vector<std::string> event_lines;
  if (view.flight != nullptr) {
    std::vector<FlightEvent> events;
    shard.next_event_seq = view.flight->CollectEventsSince(
        shard.next_event_seq, shard.cell, &events);
    for (const FlightEvent& event : events) {
      event_lines.push_back(RenderFlightEventNdjson(event));
    }
  }
  const auto now = std::chrono::steady_clock::now();
  shard.next_due = now + interval_;

  std::lock_guard<std::mutex> lock(mu_);
  shard.part = std::move(part);
  ++publishes_;

  TelemetrySnapshot snap;
  snap.scenario = scenario_;
  snap.duration_s = duration_s_;
  snap.cells = cells_;
  snap.workers = workers_;
  snap.epochs = publishes_;
  snap.sim_time_s = shards_.empty() ? 0.0 : shards_.front().part.sim_time_s;
  for (const Shard& s : shards_) {
    const Part& p = s.part;
    snap.sim_time_s = std::min(snap.sim_time_s, p.sim_time_s);
    snap.warnings += p.warnings;
    if (!p.healthy) {
      snap.healthy = false;
      snap.unhealthy_cells.push_back(s.cell);
    }
    snap.metrics.counters.insert(p.metrics.counters.begin(),
                                 p.metrics.counters.end());
    snap.metrics.gauges.insert(p.metrics.gauges.begin(),
                               p.metrics.gauges.end());
    snap.metrics.histograms.insert(p.metrics.histograms.begin(),
                                   p.metrics.histograms.end());
  }
  // Rates over the whole run so far: per-cell publishes interleave, so
  // the gap between two consecutive snapshots says nothing about speed.
  const double wall_s = std::chrono::duration<double>(now - start_).count();
  if (wall_s > 0.0) {
    snap.epoch_rate_hz = static_cast<double>(publishes_) / wall_s;
    snap.sim_speedup = snap.sim_time_s / wall_s;
  }

  auto run_gauge = [&](const char* name, double value) {
    snap.metrics.gauges[name] = value;
  };
  run_gauge("telemetry.sim_time_s", snap.sim_time_s);
  run_gauge("telemetry.progress_pct",
            duration_s_ > 0.0 ? 100.0 * snap.sim_time_s / duration_s_ : 0.0);
  run_gauge("telemetry.epoch_rate_hz", snap.epoch_rate_hz);
  run_gauge("telemetry.sim_speedup", snap.sim_speedup);
  run_gauge("telemetry.publishes", static_cast<double>(publishes_));
  run_gauge("telemetry.healthy", snap.healthy ? 1.0 : 0.0);

  server_->Publish(std::move(snap));
  server_->PublishEvents(std::move(event_lines));
}

}  // namespace flare
