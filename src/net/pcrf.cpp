#include "net/pcrf.h"

namespace flare {

void Pcrf::RegisterFlow(FlowId id, FlowType type, CellTag cell) {
  flows_[{cell, id}] = type;
}

void Pcrf::DeregisterFlow(FlowId id, CellTag cell) {
  flows_.erase({cell, id});
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
