// The eNodeB cell: per-TTI MAC loop.
//
// Owns UEs (each with a channel model), per-flow MAC state (RLC queue, QoS
// token buckets, PF averages, RB & Rate Trace counters) and a pluggable
// scheduler. Each 1 ms TTI it:
//   1. refills GBR/MBR token buckets,
//   2. builds scheduling candidates from flows with queued data, reading
//      each candidate UE's I_TBS from its channel model,
//   3. asks the scheduler to distribute the cell's RBs,
//   4. dequeues the granted bytes and hands them to the delivery callback
//      (the transport layer), updating trace counters and PF averages.
// A UE's I_TBS is read only when one of its flows is a candidate or
// UeItbs() asks, and is cached per UE with the time it was read. That
// equals reading every UE every TTI because channels are pure functions
// of time (see ChannelModel::ItbsAt).
//
// The Continuous GBR Updater of the femtocell prototype corresponds to
// SetGbr()/SetMbr(), callable at any time, not just at bearer setup.
#pragma once

#include <functional>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "lte/channel.h"
#include "lte/flow_state.h"
#include "lte/scheduler.h"
#include "lte/types.h"
#include "obs/bai_trace.h"
#include "obs/metrics.h"
#include "obs/span_trace.h"
#include "sim/simulator.h"
#include "util/rng.h"

namespace flare {

struct CellConfig {
  int num_rbs = kDefaultNumRbs;
  /// PF EWMA time constant, in TTIs.
  double pf_time_constant = 100.0;
  /// GBR token bucket capacity, as seconds of GBR-rate traffic.
  double gbr_bucket_cap_s = 0.5;
  /// MBR token bucket capacity, as seconds of MBR-rate traffic.
  double mbr_bucket_cap_s = 0.2;
  /// Per-flow RLC queue limit; excess arrivals are dropped (tail drop),
  /// which is what makes TCP sources back off.
  std::uint64_t queue_limit_bytes = 750'000;
  /// Transport-block error rate at the AMC operating point. A failed TB
  /// consumes its RBs but delivers nothing; HARQ keeps the bytes queued,
  /// so they are retransmitted on a later grant (LTE's standard target is
  /// ~0.1 after first transmission; 0 disables the model).
  double target_bler = 0.0;
};

/// Snapshot of the RB & Rate Trace Module for one flow over one window.
struct RbRateWindow {
  std::uint64_t tx_bytes = 0;
  std::uint64_t rbs = 0;
  SimTime duration = 0;
};

class Cell {
 public:
  /// Called when bytes reach the UE (i.e., are transmitted over the air).
  using DeliveryFn =
      std::function<void(FlowId flow, std::uint64_t bytes, SimTime now)>;
  /// Called when an Enqueue overflows the RLC queue.
  using DropFn = std::function<void(FlowId flow, std::uint64_t bytes)>;

  Cell(Simulator& sim, std::unique_ptr<Scheduler> scheduler,
       const CellConfig& config, Rng rng);

  Cell(const Cell&) = delete;
  Cell& operator=(const Cell&) = delete;

  // --- Topology -----------------------------------------------------------
  /// Attach a UE; released slots are reused (lowest id first), so a cell
  /// under session churn does not grow its UE table without bound.
  UeId AddUe(std::unique_ptr<ChannelModel> channel);
  FlowId AddFlow(UeId ue, FlowType type);
  void RemoveFlow(FlowId id);
  /// Detach a UE when its session ends: frees the channel model and stops
  /// the per-TTI refresh for the slot. Throws std::invalid_argument if any
  /// flow still references the UE (remove flows first) or if the slot is
  /// already released.
  void ReleaseUe(UeId ue);
  /// UEs currently attached (released slots excluded).
  std::size_t NumActiveUes() const { return ues_.size() - free_ues_.size(); }

  // --- Data path ----------------------------------------------------------
  /// Offer `bytes` to the flow's RLC queue; returns the bytes accepted.
  std::uint64_t Enqueue(FlowId id, std::uint64_t bytes);
  void SetDeliveryCallback(DeliveryFn fn) { deliver_ = std::move(fn); }
  void SetDropCallback(DropFn fn) { drop_ = std::move(fn); }

  // --- QoS control (Continuous GBR Updater / PCEF enforcement point) ------
  void SetGbr(FlowId id, double bps);
  void SetMbr(FlowId id, double bps);

  // --- Introspection ------------------------------------------------------
  const FlowState& flow(FlowId id) const;
  bool HasFlow(FlowId id) const;
  int num_rbs() const { return config_.num_rbs; }
  Simulator& sim() { return sim_; }

  /// I_TBS of a UE as of the latest TTI, or as of AddUe if no TTI has run
  /// since the UE was attached.
  int UeItbs(UeId ue) const;
  /// Rate (bits/s) the UE would get with the whole cell to itself.
  double UeFullCellRateBps(UeId ue) const;

  // --- RB & Rate Trace Module --------------------------------------------
  /// Per-flow counters accumulated since the last TakeWindow for that flow;
  /// resets the window. Used by the per-BAI controllers (FLARE, AVIS).
  RbRateWindow TakeWindow(FlowId id);
  /// Peek without resetting (Statistics Reporter path).
  RbRateWindow PeekWindow(FlowId id) const;

  std::uint64_t total_tx_bytes(FlowId id) const;
  std::uint64_t total_rbs_used() const { return total_rbs_used_; }
  std::uint64_t ttis_elapsed() const { return ttis_elapsed_; }
  /// Transport blocks lost to the BLER model (HARQ retransmitted).
  std::uint64_t harq_retransmissions() const { return harq_retx_; }

  /// Begin the TTI loop. Call once after construction.
  void Start();

  // --- Observability ------------------------------------------------------
  /// Attach a metrics registry (null detaches): TTI/RB counters, queue
  /// drops, HARQ retransmissions and the GBR shortfall gauge.
  void SetMetrics(MetricsRegistry* registry);
  /// Attach a BAI trace sink (null detaches): per-TTI scheduler aggregates
  /// (RBs per phase, GBR credit shortfall), flushed on the sink's period.
  void SetTraceSink(BaiTraceSink* sink) { trace_sink_ = sink; }
  /// Attach a span tracer (null detaches): the TTI loop's wall-clock cost
  /// is aggregated over 1 s windows into "tti.window" spans on the MAC
  /// lane plus an RBs-used counter track — per-TTI events would be 1000x
  /// the volume for no insight.
  void SetSpanTracer(SpanTracer* tracer);
  /// Emit the final partial span window (call once after the run).
  void FlushSpanWindow();

 private:
  struct UeEntry {
    std::unique_ptr<ChannelModel> channel;  // null = released slot
    // Cached channel->ItbsAt(itbs_at); filled in on demand.
    mutable int itbs = 0;
    mutable SimTime itbs_at = 0;
  };
  struct FlowEntry {
    FlowState state;
    SimTime window_start = 0;
  };
  using FlowVector = std::vector<FlowEntry>;

  void RunTti();
  /// I_TBS of `ue` at time `at` (not earlier than its cached time).
  int ItbsAt(const UeEntry& ue, SimTime at) const;
  FlowEntry& Entry(FlowId id);
  const FlowEntry& Entry(FlowId id) const;
  /// Position of flow `id` in flows_, or flows_.end() when absent.
  FlowVector::const_iterator Find(FlowId id) const;

  Simulator& sim_;
  std::unique_ptr<Scheduler> scheduler_;
  CellConfig config_;
  Rng rng_;

  std::vector<UeEntry> ues_;
  /// Released UE slots, kept sorted descending so AddUe reuses the lowest
  /// id first (deterministic slot assignment under churn).
  std::vector<UeId> free_ues_;
  /// Live flows in ascending FlowId order: ids only grow, so AddFlow
  /// appends. FlowState pointers handed to the scheduler stay valid for
  /// one TTI, as nothing adds or removes flows between candidate building
  /// and grant application.
  FlowVector flows_;
  FlowId next_flow_id_ = 1;

  DeliveryFn deliver_;
  DropFn drop_;

  std::uint64_t total_rbs_used_ = 0;
  std::uint64_t ttis_elapsed_ = 0;
  std::uint64_t harq_retx_ = 0;
  bool started_ = false;
  /// Time of the latest TTI (none yet: the lowest SimTime).
  SimTime last_tti_at_ = std::numeric_limits<SimTime>::min();

  // Per-TTI scratch, reused so steady-state TTIs allocate nothing.
  std::vector<SchedCandidate> candidates_;
  std::vector<std::pair<FlowId, std::uint64_t>> served_;

  BaiTraceSink* trace_sink_ = nullptr;
  SpanTracer* span_trace_ = nullptr;
  SimTime span_window_start_ = 0;
  double span_window_wall_us_ = 0.0;
  std::uint64_t span_window_ttis_ = 0;
  std::uint64_t span_window_rbs_ = 0;
  CounterHandle ttis_metric_;
  CounterHandle rbs_used_metric_;
  CounterHandle rbs_priority_metric_;
  CounterHandle rbs_shared_metric_;
  CounterHandle harq_metric_;
  CounterHandle drop_bytes_metric_;
  GaugeHandle gbr_shortfall_metric_;
};

}  // namespace flare
