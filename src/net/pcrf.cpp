#include "net/pcrf.h"

namespace flare {

void Pcrf::RegisterFlow(FlowId id, FlowType type, CellTag cell) {
  flows_[{cell, id}] = type;
  if (on_change_) on_change_(id, type, cell, /*registered=*/true);
}

void Pcrf::DeregisterFlow(FlowId id, CellTag cell) {
  const auto it = flows_.find({cell, id});
  if (it == flows_.end()) return;
  const FlowType type = it->second;
  flows_.erase(it);
  if (on_change_) on_change_(id, type, cell, /*registered=*/false);
}

int Pcrf::CountFlows(FlowType type, CellTag cell) const {
  int n = 0;
  for (const auto& [key, t] : flows_) {
    if (key.first == cell && t == type) ++n;
  }
  return n;
}

int Pcrf::CountFlowsAllCells(FlowType type) const {
  int n = 0;
  for (const auto& [key, t] : flows_) {
    if (t == type) ++n;
  }
  return n;
}

}  // namespace flare
