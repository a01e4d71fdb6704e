#include "churn/admission.h"

#include <cmath>
#include <stdexcept>
#include <utility>

namespace flare {

const char* AdmissionPolicyName(AdmissionPolicy policy) {
  switch (policy) {
    case AdmissionPolicy::kAdmitAll:
      return "admit-all";
    case AdmissionPolicy::kCapacityThreshold:
      return "capacity-threshold";
    case AdmissionPolicy::kUtilityDrop:
      return "utility-drop";
  }
  return "unknown";
}

std::optional<AdmissionPolicy> ParseAdmissionPolicy(const std::string& name) {
  if (name == "admit-all") return AdmissionPolicy::kAdmitAll;
  if (name == "capacity-threshold") return AdmissionPolicy::kCapacityThreshold;
  if (name == "utility-drop") return AdmissionPolicy::kUtilityDrop;
  return std::nullopt;
}

AdmissionController::AdmissionController(const AdmissionConfig& config)
    : config_(config) {
  if (config_.capacity_threshold <= 0.0 || config_.capacity_threshold > 1.0) {
    throw std::invalid_argument(
        "AdmissionController: capacity_threshold outside (0, 1]");
  }
}

double AdmissionController::FloorRbFraction(
    const AdmissionRequest& request) const {
  double cost = 0.0;
  for (const auto& [id, flow] : flows_) {
    cost += flow.ladder_bps[static_cast<std::size_t>(flow.min_level)] /
            flow.bits_per_rb;
  }
  const OptFlow& c = request.candidate;
  cost += c.ladder_bps[static_cast<std::size_t>(c.min_level)] / c.bits_per_rb;
  return cost / request.rb_rate;
}

AdmissionDecision AdmissionController::DecideUtilityDrop(
    const AdmissionRequest& request) {
  // Solve with the candidate pinned at its floor rung: the question is
  // "what does the cell look like the moment this flow joins", before any
  // stability-rule ramp-up. Admitted flows go in ascending id order, then
  // the candidate.
  OptProblem problem;
  problem.n_data_flows = request.n_data_flows;
  problem.alpha = config_.alpha;
  problem.rb_rate = request.rb_rate;
  problem.max_video_fraction = config_.max_video_fraction;
  problem.flows.reserve(flows_.size() + 1);
  for (const auto& [id, flow] : flows_) problem.flows.push_back(flow);
  OptFlow& pinned = problem.flows.emplace_back(request.candidate);
  pinned.max_level = pinned.min_level;
  const OptResult solved = solver_.Solve(problem);

  AdmissionDecision decision;
  decision.value = solved.objective;
  decision.admit = solved.feasible && solved.objective >= config_.objective_floor;
  return decision;
}

AdmissionDecision AdmissionController::Decide(const AdmissionRequest& request) {
  ValidateFlow(request.candidate);
  if (request.rb_rate <= 0.0) {
    throw std::invalid_argument("AdmissionController: rb_rate <= 0");
  }
  if (flows_.count(request.flow) > 0) {
    throw std::invalid_argument(
        "AdmissionController: candidate flow already admitted");
  }
  ++considered_;
  considered_metric_.Add();

  AdmissionDecision decision;
  switch (config_.policy) {
    case AdmissionPolicy::kAdmitAll:
      break;
    case AdmissionPolicy::kCapacityThreshold: {
      decision.value = FloorRbFraction(request);
      decision.admit = decision.value <= config_.capacity_threshold;
      break;
    }
    case AdmissionPolicy::kUtilityDrop:
      decision = DecideUtilityDrop(request);
      break;
  }
  if (decision.admit) {
    ++admitted_;
    admitted_metric_.Add();
  } else {
    ++rejected_;
    rejected_metric_.Add();
  }
  return decision;
}

void AdmissionController::OnAdmitted(FlowId id, const OptFlow& flow) {
  ValidateFlow(flow);
  flows_[id] = flow;
}

void AdmissionController::OnDeparted(FlowId id) {
  flows_.erase(id);
}

void AdmissionController::OnEstimate(FlowId id, double bits_per_rb) {
  const auto it = flows_.find(id);
  if (it == flows_.end() || bits_per_rb <= 0.0) return;
  // Only the estimate changes; the ladder and utility were validated at
  // OnAdmitted. A non-finite estimate is refused, as ValidateFlow would.
  if (!std::isfinite(bits_per_rb)) {
    throw std::invalid_argument("OptFlow: bits_per_rb not finite positive");
  }
  it->second.bits_per_rb = bits_per_rb;
}

void AdmissionController::SetObservers(MetricsRegistry* registry) {
  considered_metric_ = MakeCounterHandle(registry, "admission.considered");
  admitted_metric_ = MakeCounterHandle(registry, "admission.admitted");
  rejected_metric_ = MakeCounterHandle(registry, "admission.rejected");
}

double AdmissionController::blocking_probability() const {
  if (considered_ == 0) return 0.0;
  return static_cast<double>(rejected_) / static_cast<double>(considered_);
}

}  // namespace flare
