// Session churn engine: stochastic session lifecycles for a cell.
//
// The paper's experiments hold the session population fixed for each run;
// real cells see users arrive and leave continuously, which is exactly the
// workload the admission controller exists for. This engine drives that
// workload deterministically: arrivals from a renewal process (Poisson,
// or heavy-tailed lognormal inter-arrivals) and holding times drawn per
// session (exponential or lognormal), all from one explicit Rng so a seed
// fully determines the arrival/departure schedule regardless of what the
// spawned sessions do.
//
// The engine owns no model objects. A Host supplies two callbacks —
// spawn(kind) -> session id and destroy(id) — that the scenario layer
// implements by creating/tearing down UEs, transport flows, players and
// FLARE plugins mid-run. Admission rejections flow back via
// NotifyBlocked(id): the scenario calls it when the OneAPI server refuses
// the session's connect, and the engine then counts the session as blocked
// and forgets it (the already-queued departure event no-ops).
//
// Draw order is fixed per arrival — kind, holding time, next inter-arrival
// — so the schedule is reproducible even when spawns fail or sessions are
// blocked.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "churn/admission.h"
#include "obs/metrics.h"
#include "obs/span_trace.h"
#include "obs/watchdog.h"
#include "sim/simulator.h"
#include "util/rng.h"
#include "util/time.h"

namespace flare {

enum class ChurnProcess {
  kPoisson,    // exponential inter-arrivals / holding times
  kLognormal,  // heavy-tailed, mean-preserving (sigma = lognormal_sigma)
};

const char* ChurnProcessName(ChurnProcess process);
std::optional<ChurnProcess> ParseChurnProcess(const std::string& name);

enum class SessionKind { kVideoSession, kDataSession };

struct ChurnConfig {
  bool enabled = false;
  ChurnProcess arrival_process = ChurnProcess::kPoisson;
  /// Mean arrivals per second for a cell with rate scale 1.
  double arrival_rate_per_s = 0.2;
  /// Per-cell multiplier on arrival_rate_per_s, indexed by cell tag;
  /// cells beyond the vector (or an empty vector) use 1.0.
  std::vector<double> cell_rate_scale;
  ChurnProcess hold_process = ChurnProcess::kLognormal;
  /// Mean session holding time; both processes preserve this mean.
  double mean_hold_s = 30.0;
  /// Shape of the lognormal draws (inter-arrival and/or holding).
  double lognormal_sigma = 1.0;
  /// Fraction of arrivals that are data sessions (rest are video).
  double data_fraction = 0.0;
  /// Hard cap on arrivals per engine; 0 = unbounded (run-length bound).
  std::uint64_t max_arrivals = 0;
  /// Connect-time admission policy (consumed by the scenario/server
  /// wiring, not by the engine itself).
  AdmissionConfig admission;
};

class SessionChurnEngine {
 public:
  /// Scenario-side lifecycle hooks. `spawn` returns the session id the
  /// engine should track (>= 0), or a negative value when the session
  /// could not be created at all (counted as blocked). `destroy` tears a
  /// session down at its natural departure time.
  struct Host {
    std::function<int(SessionKind)> spawn;
    std::function<void(int)> destroy;
  };

  /// `rng` should be a dedicated fork/split so churn draws never perturb
  /// channel or player randomness. `cell_tag` selects the rate scale and
  /// labels trace events.
  SessionChurnEngine(Simulator& sim, const ChurnConfig& config, Host host,
                     Rng rng, int cell_tag = 0);
  SessionChurnEngine(const SessionChurnEngine&) = delete;
  SessionChurnEngine& operator=(const SessionChurnEngine&) = delete;

  /// Schedule the first arrival (and the per-BAI scan when observers are
  /// attached). Call once, before the run starts.
  void Start();

  /// The session's connect was refused by admission control: forget it and
  /// count it as blocked. Safe to call for ids already gone (no-op).
  void NotifyBlocked(int session_id);

  /// Attach observability (any pointer may be null). Counters
  /// churn.sessions_arrived/departed/blocked and gauge
  /// churn.sessions_active; session_start/session_end instants on the
  /// control lane; sustained-blocking feed to `health` every
  /// `scan_period` (the BAI) when both are given.
  void SetObservers(MetricsRegistry* registry, SpanTracer* tracer,
                    RunHealthMonitor* health, SimTime scan_period);

  std::uint64_t arrivals() const { return arrivals_; }
  std::uint64_t departures() const { return departures_; }
  std::uint64_t blocked() const { return blocked_; }
  std::size_t active() const { return live_.size(); }
  /// blocked / arrivals (0 before the first arrival).
  double blocking_probability() const;
  const ChurnConfig& config() const { return config_; }

 private:
  double RateScale() const;
  double DrawInterarrivalS();
  double DrawHoldS();
  void ScheduleNextArrival();
  void OnArrival();
  void EndSession(int session_id);
  void Scan();

  Simulator& sim_;
  ChurnConfig config_;
  Host host_;
  Rng rng_;
  int cell_tag_ = 0;
  bool started_ = false;
  std::map<int, SessionKind> live_;
  std::uint64_t arrivals_ = 0;
  std::uint64_t departures_ = 0;
  std::uint64_t blocked_ = 0;
  // Scan cursors for the sustained-blocking health feed.
  std::uint64_t scanned_arrivals_ = 0;
  std::uint64_t scanned_blocked_ = 0;
  CounterHandle arrived_metric_;
  CounterHandle departed_metric_;
  CounterHandle blocked_metric_;
  GaugeHandle active_metric_;
  SpanTracer* tracer_ = nullptr;
  RunHealthMonitor* health_ = nullptr;
  SimTime scan_period_ = 0;
};

}  // namespace flare
