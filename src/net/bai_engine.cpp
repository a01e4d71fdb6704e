#include "net/bai_engine.h"

#include <algorithm>

#include "core/optimizer.h"

namespace flare {
namespace {

/// The flow as admission and the solvers see it, over its full ladder.
OptFlow Candidate(const ClientInfo& info, double bits_per_rb,
                  const VideoUtilityParams& default_utility) {
  OptFlow candidate;
  candidate.ladder_bps = info.ladder_bps;
  candidate.utility = info.utility.value_or(default_utility);
  candidate.bits_per_rb = bits_per_rb;
  candidate.max_level = static_cast<int>(candidate.ladder_bps.size()) - 1;
  return candidate;
}

}  // namespace

BaiEngine::BaiEngine(const FlareParams& params, double efficiency_smoothing,
                     double gbr_headroom)
    : smoothing_(std::clamp(efficiency_smoothing, 0.0, 1.0)),
      gbr_headroom_(gbr_headroom),
      controller_(params) {}

const char* BaiEngine::Defect(const ClientInfo& info,
                              double bits_per_rb) const {
  return FlowDefect(
      Candidate(info, bits_per_rb, controller_.params().utility));
}

BaiEngine::ConnectVerdict BaiEngine::Connect(const ClientInfo& info,
                                             double bits_per_rb,
                                             int n_data_flows,
                                             double rb_rate) {
  ConnectVerdict verdict;
  const OptFlow candidate =
      Candidate(info, bits_per_rb, controller_.params().utility);
  verdict.defect = FlowDefect(candidate);
  if (verdict.defect != nullptr) {
    verdict.decision.admit = false;
    return verdict;
  }
  if (admission_ != nullptr) {
    // Arrivals enter at the lowest rung (Algorithm 1 caps new flows there).
    AdmissionRequest request;
    request.flow = info.flow;
    request.candidate = candidate;
    request.candidate.max_level = 0;
    request.n_data_flows = n_data_flows;
    request.rb_rate = rb_rate;
    verdict.decision = admission_->Decide(request);
    if (!verdict.decision.admit) return verdict;
    // Track the admitted flow over its full ladder from now on.
    admission_->OnAdmitted(info.flow, candidate);
  }
  controller_.AddFlow(info.flow, info.ladder_bps);
  flows_[info.flow] = Flow{info};
  return verdict;
}

const char* BaiEngine::Refresh(FlowId id, const ClientInfo& update) {
  // A refresh carries no capacity estimate, so only its ladder and
  // utility are on trial (1.0 is any valid bits-per-RB).
  if (const char* defect = Defect(update, 1.0)) return defect;
  const auto it = flows_.find(id);
  if (it == flows_.end()) return nullptr;
  // Constraints update; the registered ladder does not.
  it->second.info.max_level = update.max_level;
  it->second.info.utility = update.utility;
  it->second.info.skimming = update.skimming;
  return nullptr;
}

void BaiEngine::Remove(FlowId id) {
  controller_.RemoveFlow(id);
  flows_.erase(id);
  if (admission_ != nullptr) admission_->OnDeparted(id);
}

bool BaiEngine::Gather(const SampleFn& sample) {
  observations_.clear();
  for (auto& [id, flow] : flows_) {
    const std::optional<double> e_u = sample(id, flow.smoothed_bits_per_rb);
    if (!e_u) continue;
    flow.sample_bits_per_rb = *e_u;
    flow.smoothed_bits_per_rb =
        flow.smoothed_bits_per_rb <= 0.0
            ? *e_u
            : (1.0 - smoothing_) * flow.smoothed_bits_per_rb +
                  smoothing_ * *e_u;
    // Keep the admission controller's capacity picture current, so
    // between-BAI connect decisions price against live efficiencies.
    if (admission_ != nullptr) {
      admission_->OnEstimate(id, flow.smoothed_bits_per_rb);
    }
    FlowObservation obs;
    obs.id = id;
    obs.bits_per_rb = flow.smoothed_bits_per_rb;
    obs.client_max_level = flow.info.max_level;
    // A skimming viewer gets the minimum bitrate while it lasts.
    if (flow.info.skimming) obs.client_max_level = 0;
    obs.utility = flow.info.utility;
    observations_.push_back(obs);
  }
  return !observations_.empty();
}

BaiDecision BaiEngine::Decide(int n_data_flows, double rb_rate) {
  return controller_.DecideBai(observations_, n_data_flows, rb_rate);
}

RateAssignmentMsg BaiEngine::Message(const RateAssignment& assignment) const {
  RateAssignmentMsg msg;
  msg.flow = assignment.id;
  msg.level = assignment.level;
  msg.rate_bps = assignment.rate_bps;
  msg.gbr_bps = assignment.rate_bps * gbr_headroom_;
  return msg;
}

DecisionEvent BaiEngine::Event(const BaiDecision& decision,
                               const RateAssignment& a,
                               double solve_time_ms) const {
  const Flow& flow = flows_.find(a.id)->second;
  return {.flow = a.id, .observed_bits_per_rb = flow.sample_bits_per_rb,
          .smoothed_bits_per_rb = flow.smoothed_bits_per_rb,
          .recommended_level = a.recommended_level,
          .hysteresis_up = a.consecutive_up, .previous_level = a.previous_level,
          .enforced_level = a.level, .rate_bps = a.rate_bps,
          .gbr_bps = a.rate_bps * gbr_headroom_,
          .video_fraction = decision.video_fraction,
          .solve_time_ms = solve_time_ms, .feasible = decision.feasible,
          .cause = DecisionCauseName(a.cause)};
}

}  // namespace flare
