// The OneAPI BAI engine: Algorithm 1's per-cell control loop with no
// transport attached.
//
// The paper's OneAPI server (Figure 1, Section II-A) runs one loop per
// network cell, once per BAI. The in-simulator OneApiServer and the
// networked OneApiService are both thin adapters over this engine; they
// keep only transport — where each BAI's e_u sample comes from, where the
// assignments go — and their own observability.
//
// The engine owns each registered flow's ClientInfo and smoothed e_u:
//  * Connect checks the candidate with FlowDefect (ladder, utility and the
//    caller's connect-time bits-per-RB estimate), offers it to the
//    attached admission controller pinned at its floor rung, and on admit
//    registers it with the FlareRateController. A defect is reported,
//    never thrown.
//  * Refresh replaces a flow's constraints (max_level, utility,
//    skimming); a malformed refresh is dropped and the previous
//    constraints stand.
//  * Gather takes one e_u sample per flow, in ascending FlowId order,
//    from the caller's hook (which may leave a flow out of the BAI),
//    smooths it, refreshes the admission estimate and builds the
//    FlowObservation (skimming caps the flow at rung 0).
//  * Decide runs DecideBai over the gathered observations; Message turns
//    one assignment into the wire message, gbr = rate * gbr_headroom, and
//    Event into its decision record (obs/bai_trace.h).
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <vector>

#include "churn/admission.h"
#include "core/rate_controller.h"
#include "net/flare_plugin.h"
#include "net/messages.h"
#include "obs/bai_trace.h"

namespace flare {

class BaiEngine {
 public:
  struct Flow {
    ClientInfo info;
    double smoothed_bits_per_rb = 0.0;  // 0 = no observation yet
    double sample_bits_per_rb = 0.0;    // the latest gathered sample
  };

  /// A connect's outcome: admitted iff `decision.admit`.
  struct ConnectVerdict {
    /// Why the ClientInfo cannot reach the solvers (it is then refused
    /// without asking admission); null when it can.
    const char* defect = nullptr;
    /// The admission policy's answer (admit-all without a controller).
    AdmissionDecision decision;
  };

  /// One BAI's e_u sample for `id`, given its standing smoothed estimate
  /// (0 before the first); nullopt leaves the flow out of this BAI.
  using SampleFn =
      std::function<std::optional<double>(FlowId id, double standing)>;

  /// `efficiency_smoothing` is the EWMA weight of the newest sample
  /// (clamped to [0, 1]); `gbr_headroom` scales assigned rates into GBRs.
  BaiEngine(const FlareParams& params, double efficiency_smoothing,
            double gbr_headroom);

  /// Attach an admission controller (not owned; null detaches).
  void SetAdmission(AdmissionController* admission) {
    admission_ = admission;
  }
  AdmissionController* admission() const { return admission_; }

  FlareRateController& controller() { return controller_; }
  const FlareRateController& controller() const { return controller_; }

  /// The defect Connect would report for `info` at this estimate, or null.
  const char* Defect(const ClientInfo& info, double bits_per_rb) const;
  /// `bits_per_rb` is the connect-time estimate; admission prices the
  /// candidate against `n_data_flows` and `rb_rate`.
  ConnectVerdict Connect(const ClientInfo& info, double bits_per_rb,
                         int n_data_flows, double rb_rate);
  /// The defect that dropped `update`, else null; unknown flows are
  /// ignored.
  const char* Refresh(FlowId id, const ClientInfo& update);
  void Remove(FlowId id);

  /// False when no flow was observed: there is nothing to decide.
  bool Gather(const SampleFn& sample);
  /// Algorithm 1 over the flows of the last Gather.
  BaiDecision Decide(int n_data_flows, double rb_rate);
  RateAssignmentMsg Message(const RateAssignment& assignment) const;
  /// The record of `assignment`, one of the last Decide's `decision`,
  /// with the solve time the caller reports; the renderer stamps time
  /// and cell.
  DecisionEvent Event(const BaiDecision& decision,
                      const RateAssignment& assignment,
                      double solve_time_ms) const;

 private:
  double smoothing_;
  double gbr_headroom_;
  FlareRateController controller_;
  AdmissionController* admission_ = nullptr;
  std::map<FlowId, Flow> flows_;
  std::vector<FlowObservation> observations_;
};

}  // namespace flare
