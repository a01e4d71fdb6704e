// Admission control for the OneAPI connect path.
//
// Under session churn the interesting question stops being "which rung
// does each admitted flow get" and becomes "should this arrival be
// admitted at all" — the joint scheduling/admission setting of
// Bethanabhotla et al. The OneAPI BaiEngine (net/bai_engine) consults the
// controller when a connect lands — in the simulator or the daemon —
// before any controller/PCRF state is created. Three policies:
//
//  * kAdmitAll         — baseline; every arrival is admitted.
//  * kCapacityThreshold— reject when the admitted floor-rung RB fraction
//                        (at previous-BAI bits-per-RB estimates, refreshed
//                        by the server each BAI) plus the candidate's
//                        would exceed `capacity_threshold`.
//  * kUtilityDrop      — solve (3)-(4) over the admitted set plus the
//                        candidate pinned at its lowest rung; reject when
//                        the solved objective falls below
//                        `objective_floor`.
//
// Counters (admission.considered/admitted/rejected) and the derived
// blocking probability feed the churn experiment's primary metric.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <string>

#include "core/batch_solver.h"
#include "core/optimizer.h"
#include "lte/types.h"
#include "obs/metrics.h"

namespace flare {

enum class AdmissionPolicy {
  kAdmitAll,
  kCapacityThreshold,
  kUtilityDrop,
};

const char* AdmissionPolicyName(AdmissionPolicy policy);
/// Parse a scenario_runner-style knob value ("admit-all",
/// "capacity-threshold", "utility-drop"); nullopt on unknown input.
std::optional<AdmissionPolicy> ParseAdmissionPolicy(const std::string& name);

struct AdmissionConfig {
  AdmissionPolicy policy = AdmissionPolicy::kAdmitAll;
  /// kCapacityThreshold: highest admitted floor-rung RB fraction.
  double capacity_threshold = 0.9;
  /// kUtilityDrop: lowest acceptable solved objective after admitting the
  /// candidate at its floor rung. The default rejects only infeasible
  /// arrivals (the objective of a loaded cell is routinely negative — the
  /// data term's log-penalty dominates — so 0 would block everything).
  double objective_floor = std::numeric_limits<double>::lowest();
  /// Optimizer parameters for kUtilityDrop, mirroring the cell's.
  double alpha = 1.0;
  double max_video_fraction = 0.999;
};

/// One connect-time admission question.
struct AdmissionRequest {
  FlowId flow = kInvalidFlow;
  /// Candidate at its floor rung: ladder/utility from the client info,
  /// bits_per_rb the server's channel-based estimate at connect time.
  OptFlow candidate;
  int n_data_flows = 0;
  /// Cell RB budget per second.
  double rb_rate = 0.0;
};

struct AdmissionDecision {
  bool admit = true;
  /// Policy diagnostic: floor-rung RB fraction (kCapacityThreshold) or the
  /// solved objective (kUtilityDrop); 0 for kAdmitAll.
  double value = 0.0;
};

class AdmissionController {
 public:
  explicit AdmissionController(const AdmissionConfig& config = {});

  AdmissionController(const AdmissionController&) = delete;
  AdmissionController& operator=(const AdmissionController&) = delete;

  /// Decide an arrival. Pure with respect to the admitted set — the
  /// caller confirms an admission via OnAdmitted().
  AdmissionDecision Decide(const AdmissionRequest& request);

  /// Admitted-set bookkeeping, driven by the server: registration landed /
  /// session torn down / per-BAI bits-per-RB estimate refresh.
  void OnAdmitted(FlowId id, const OptFlow& flow);
  void OnDeparted(FlowId id);
  void OnEstimate(FlowId id, double bits_per_rb);

  /// Attach a metrics registry (null detaches): admission.considered /
  /// admitted / rejected counters.
  void SetObservers(MetricsRegistry* registry);

  const AdmissionConfig& config() const { return config_; }
  std::uint64_t considered() const { return considered_; }
  std::uint64_t admitted() const { return admitted_; }
  std::uint64_t rejected() const { return rejected_; }
  /// rejected / considered (0 before the first decision).
  double blocking_probability() const;
  std::size_t admitted_flows() const { return flows_.size(); }

 private:
  double FloorRbFraction(const AdmissionRequest& request) const;
  AdmissionDecision DecideUtilityDrop(const AdmissionRequest& request);

  AdmissionConfig config_;
  std::map<FlowId, OptFlow> flows_;  // admitted set, current estimates
  /// Scratch-reusing solver for kUtilityDrop.
  BatchSolver solver_;
  std::uint64_t considered_ = 0;
  std::uint64_t admitted_ = 0;
  std::uint64_t rejected_ = 0;
  CounterHandle considered_metric_;
  CounterHandle admitted_metric_;
  CounterHandle rejected_metric_;
};

}  // namespace flare
