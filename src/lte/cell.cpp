#include "lte/cell.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "lte/tbs_table.h"
#include "util/logging.h"

namespace flare {

Cell::Cell(Simulator& sim, std::unique_ptr<Scheduler> scheduler,
           const CellConfig& config, Rng rng)
    : sim_(sim),
      scheduler_(std::move(scheduler)),
      config_(config),
      rng_(rng) {
  if (!scheduler_) throw std::invalid_argument("Cell: scheduler is null");
  if (config_.num_rbs <= 0) throw std::invalid_argument("Cell: num_rbs <= 0");
}

UeId Cell::AddUe(std::unique_ptr<ChannelModel> channel) {
  if (!channel) throw std::invalid_argument("Cell::AddUe: channel is null");
  UeEntry entry;
  entry.channel = std::move(channel);
  entry.itbs_at = sim_.Now();
  entry.itbs = entry.channel->ItbsAt(entry.itbs_at);
  if (!free_ues_.empty()) {
    const UeId id = free_ues_.back();  // lowest released id
    free_ues_.pop_back();
    ues_[id] = std::move(entry);
    return id;
  }
  ues_.push_back(std::move(entry));
  return static_cast<UeId>(ues_.size() - 1);
}

FlowId Cell::AddFlow(UeId ue, FlowType type) {
  if (ue >= ues_.size() || ues_[ue].channel == nullptr) {
    throw std::out_of_range("Cell::AddFlow: bad or released UE");
  }
  const FlowId id = next_flow_id_++;
  FlowEntry entry;
  entry.state.id = id;
  entry.state.ue = ue;
  entry.state.type = type;
  entry.window_start = sim_.Now();
  flows_.push_back(std::move(entry));
  return id;
}

void Cell::RemoveFlow(FlowId id) {
  const auto it = Find(id);
  if (it != flows_.end()) flows_.erase(it);
}

void Cell::ReleaseUe(UeId ue) {
  if (ue >= ues_.size() || ues_[ue].channel == nullptr) {
    throw std::invalid_argument("Cell::ReleaseUe: bad or released UE");
  }
  for (const FlowEntry& entry : flows_) {
    if (entry.state.ue == ue) {
      throw std::invalid_argument(
          "Cell::ReleaseUe: UE still has flows attached");
    }
  }
  ues_[ue].channel.reset();
  ues_[ue].itbs = 0;
  // Insert keeping descending order: back() is always the lowest free id.
  const auto pos = std::lower_bound(free_ues_.begin(), free_ues_.end(), ue,
                                    std::greater<UeId>());
  free_ues_.insert(pos, ue);
}

Cell::FlowVector::const_iterator Cell::Find(FlowId id) const {
  const auto it = std::lower_bound(
      flows_.begin(), flows_.end(), id,
      [](const FlowEntry& e, FlowId key) { return e.state.id < key; });
  return it != flows_.end() && it->state.id == id ? it : flows_.end();
}

Cell::FlowEntry& Cell::Entry(FlowId id) {
  return const_cast<FlowEntry&>(std::as_const(*this).Entry(id));
}

const Cell::FlowEntry& Cell::Entry(FlowId id) const {
  const auto it = Find(id);
  if (it == flows_.end()) throw std::out_of_range("Cell: unknown flow");
  return *it;
}

std::uint64_t Cell::Enqueue(FlowId id, std::uint64_t bytes) {
  FlowState& f = Entry(id).state;
  const std::uint64_t room =
      f.queued_bytes >= config_.queue_limit_bytes
          ? 0
          : config_.queue_limit_bytes - f.queued_bytes;
  const std::uint64_t accepted = std::min(bytes, room);
  f.queued_bytes += accepted;
  if (accepted < bytes) {
    drop_bytes_metric_.Add(bytes - accepted);
    if (drop_) drop_(id, bytes - accepted);
  }
  return accepted;
}

void Cell::SetGbr(FlowId id, double bps) {
  FlowState& f = Entry(id).state;
  f.gbr_bps = std::max(bps, 0.0);
  // Re-cap the credit so lowering the GBR takes effect promptly.
  const double cap = f.gbr_bps / 8.0 * config_.gbr_bucket_cap_s;
  f.gbr_credit_bytes = std::min(f.gbr_credit_bytes, cap);
}

void Cell::SetMbr(FlowId id, double bps) {
  FlowState& f = Entry(id).state;
  f.mbr_bps = bps <= 0.0 ? kNoRateLimit : bps;
  if (f.mbr_bps != kNoRateLimit) {
    const double cap = f.mbr_bps / 8.0 * config_.mbr_bucket_cap_s;
    f.mbr_credit_bytes = std::min(f.mbr_credit_bytes, cap);
  }
}

const FlowState& Cell::flow(FlowId id) const { return Entry(id).state; }

bool Cell::HasFlow(FlowId id) const { return Find(id) != flows_.end(); }

int Cell::UeItbs(UeId ue) const {
  if (ue >= ues_.size() || ues_[ue].channel == nullptr) {
    throw std::out_of_range("Cell::UeItbs: bad or released UE");
  }
  return ItbsAt(ues_[ue], last_tti_at_);
}

int Cell::ItbsAt(const UeEntry& ue, SimTime at) const {
  if (ue.itbs_at < at) {
    ue.itbs = ue.channel->ItbsAt(at);
    ue.itbs_at = at;
  }
  return ue.itbs;
}

double Cell::UeFullCellRateBps(UeId ue) const {
  return ItbsToCellRateBps(UeItbs(ue), config_.num_rbs);
}

RbRateWindow Cell::TakeWindow(FlowId id) {
  FlowEntry& entry = Entry(id);
  RbRateWindow window;
  window.tx_bytes = entry.state.window_tx_bytes;
  window.rbs = entry.state.window_rbs;
  window.duration = sim_.Now() - entry.window_start;
  entry.state.window_tx_bytes = 0;
  entry.state.window_rbs = 0;
  entry.window_start = sim_.Now();
  return window;
}

RbRateWindow Cell::PeekWindow(FlowId id) const {
  const FlowEntry& entry = Entry(id);
  return RbRateWindow{entry.state.window_tx_bytes, entry.state.window_rbs,
                      sim_.Now() - entry.window_start};
}

std::uint64_t Cell::total_tx_bytes(FlowId id) const {
  return Entry(id).state.total_tx_bytes;
}

void Cell::SetMetrics(MetricsRegistry* registry) {
  ttis_metric_ = MakeCounterHandle(registry, "cell.ttis");
  rbs_used_metric_ = MakeCounterHandle(registry, "cell.rbs_used");
  rbs_priority_metric_ = MakeCounterHandle(registry, "cell.rbs_priority");
  rbs_shared_metric_ = MakeCounterHandle(registry, "cell.rbs_shared");
  harq_metric_ = MakeCounterHandle(registry, "cell.harq_retx");
  drop_bytes_metric_ = MakeCounterHandle(registry, "cell.queue_drop_bytes");
  gbr_shortfall_metric_ =
      MakeGaugeHandle(registry, "cell.gbr_shortfall_bytes");
}

void Cell::SetSpanTracer(SpanTracer* tracer) {
  span_trace_ = tracer;
  span_window_start_ = sim_.Now();
  span_window_wall_us_ = 0.0;
  span_window_ttis_ = 0;
  span_window_rbs_ = 0;
}

void Cell::FlushSpanWindow() {
  if (span_trace_ == nullptr || span_window_ttis_ == 0) return;
  span_trace_->CompleteSpan(
      kLaneMac, "cell", "tti.window",
      static_cast<double>(span_window_start_), span_window_wall_us_,
      "{\"ttis\":" + std::to_string(span_window_ttis_) +
          ",\"rbs\":" + std::to_string(span_window_rbs_) + "}");
  span_trace_->Counter(kLaneMac, "cell.rbs_per_window",
                       static_cast<double>(sim_.Now()),
                       static_cast<double>(span_window_rbs_));
  span_window_start_ = sim_.Now();
  span_window_wall_us_ = 0.0;
  span_window_ttis_ = 0;
  span_window_rbs_ = 0;
}

void Cell::Start() {
  if (started_) return;
  started_ = true;
  sim_.Every(0, kTti, [this] { RunTti(); });
}

void Cell::RunTti() {
  const SimTime now = sim_.Now();
  const double tti_s = ToSeconds(kTti);
  last_tti_at_ = now;
  ++ttis_elapsed_;
  const bool span_timing =
      span_trace_ != nullptr && !span_trace_->deterministic();
  const auto span_start = span_timing ? std::chrono::steady_clock::now()
                                      : std::chrono::steady_clock::time_point{};

  // 1. Refill token buckets and build candidates. Only a candidate's UE
  // has its channel read, so idle and released UEs cost nothing.
  candidates_.clear();
  for (FlowEntry& entry : flows_) {
    FlowState& f = entry.state;
    if (f.has_gbr()) {
      const double cap = f.gbr_bps / 8.0 * config_.gbr_bucket_cap_s;
      f.gbr_credit_bytes =
          std::min(f.gbr_credit_bytes + f.gbr_bps / 8.0 * tti_s, cap);
    } else {
      f.gbr_credit_bytes = 0.0;
    }
    if (f.mbr_bps != kNoRateLimit) {
      const double cap = f.mbr_bps / 8.0 * config_.mbr_bucket_cap_s;
      f.mbr_credit_bytes =
          std::min(f.mbr_credit_bytes + f.mbr_bps / 8.0 * tti_s, cap);
    }

    if (f.queued_bytes == 0) continue;
    SchedCandidate c;
    c.flow = &f;
    c.max_bytes = f.queued_bytes;
    if (f.mbr_bps != kNoRateLimit) {
      c.max_bytes = std::min<std::uint64_t>(
          c.max_bytes,
          static_cast<std::uint64_t>(std::max(f.mbr_credit_bytes, 0.0)));
    }
    if (c.max_bytes == 0) continue;
    const int bits = TbsBitsPerPrb(ItbsAt(ues_[f.ue], now));
    c.bytes_per_rb = static_cast<std::uint32_t>(bits / 8);
    if (c.bytes_per_rb == 0) continue;
    candidates_.push_back(c);
  }

  // 2. Schedule (an idle TTI yields no grants and zero phase stats).
  const std::vector<SchedGrant>& grants =
      scheduler_->Allocate(candidates_, config_.num_rbs, rng_);

  // 3. Apply grants: drain queues, charge buckets, update trace counters.
  int rbs_used = 0;
  for (const SchedGrant& g : grants) {
    if (g.flow == nullptr || g.bytes == 0) continue;
    FlowState& f = *g.flow;

    // BLER/HARQ: a failed transport block burns its RBs but delivers
    // nothing; the bytes stay queued and go out on a later grant.
    if (config_.target_bler > 0.0 &&
        rng_.Uniform() < config_.target_bler) {
      f.window_rbs += static_cast<std::uint64_t>(g.rbs);
      f.total_rbs += static_cast<std::uint64_t>(g.rbs);
      rbs_used += g.rbs;
      ++harq_retx_;
      harq_metric_.Add();
      continue;
    }

    const std::uint64_t bytes = std::min<std::uint64_t>(g.bytes,
                                                        f.queued_bytes);
    f.queued_bytes -= bytes;
    f.gbr_credit_bytes -= static_cast<double>(bytes);
    if (f.gbr_credit_bytes < 0.0) f.gbr_credit_bytes = 0.0;
    if (f.mbr_bps != kNoRateLimit) {
      f.mbr_credit_bytes -= static_cast<double>(bytes);
    }
    f.window_tx_bytes += bytes;
    f.window_rbs += static_cast<std::uint64_t>(g.rbs);
    f.total_tx_bytes += bytes;
    f.total_rbs += static_cast<std::uint64_t>(g.rbs);
    f.tti_tx_bytes += bytes;
    rbs_used += g.rbs;
  }
  assert(rbs_used <= config_.num_rbs);
  total_rbs_used_ += static_cast<std::uint64_t>(rbs_used);

  // Observability: TTI counters, phase split, and the GBR credit left
  // unserved after this TTI (sustained shortfall = the cell cannot honour
  // the GBRs the control plane installed).
  ttis_metric_.Add();
  rbs_used_metric_.Add(static_cast<std::uint64_t>(rbs_used));
  const SchedTtiStats& phase = scheduler_->tti_stats();
  rbs_priority_metric_.Add(static_cast<std::uint64_t>(phase.rbs_priority));
  rbs_shared_metric_.Add(static_cast<std::uint64_t>(phase.rbs_shared));
  if (trace_sink_ != nullptr || gbr_shortfall_metric_.enabled()) {
    double shortfall = 0.0;
    for (const FlowEntry& entry : flows_) {
      if (entry.state.has_gbr()) {
        shortfall += std::max(entry.state.gbr_credit_bytes, 0.0);
      }
    }
    gbr_shortfall_metric_.Set(shortfall);
    if (trace_sink_ != nullptr) {
      trace_sink_->RecordTti(now, phase.rbs_priority, phase.rbs_shared,
                             shortfall);
    }
  }

  // 4. PF averages: every flow decays; served flows add their TTI rate.
  // Served flows are listed in FlowId order for delivery; the list is a
  // copy because delivery callbacks may add or remove flows.
  const double tc = std::max(config_.pf_time_constant, 1.0);
  served_.clear();
  for (FlowEntry& entry : flows_) {
    FlowState& f = entry.state;
    const double rate_bps = static_cast<double>(f.tti_tx_bytes) * 8.0 / tti_s;
    f.pf_avg_bps = (1.0 - 1.0 / tc) * f.pf_avg_bps + rate_bps / tc;
    if (f.pf_avg_bps < 1.0) f.pf_avg_bps = 1.0;
    if (f.tti_tx_bytes > 0) {
      served_.emplace_back(f.id, f.tti_tx_bytes);
      f.tti_tx_bytes = 0;
    }
  }

  // 5. Deliver.
  if (deliver_) {
    for (const auto& [id, bytes] : served_) deliver_(id, bytes, now);
  }

  // Span sampling: accumulate this TTI's wall-clock cost (including the
  // synchronous delivery above) into the current window.
  if (span_trace_ != nullptr) {
    if (span_timing) {
      span_window_wall_us_ +=
          std::chrono::duration<double, std::micro>(
              std::chrono::steady_clock::now() - span_start)
              .count();
    }
    ++span_window_ttis_;
    span_window_rbs_ += static_cast<std::uint64_t>(rbs_used);
    if (now - span_window_start_ >= kSecond) FlushSpanWindow();
  }
}

}  // namespace flare
