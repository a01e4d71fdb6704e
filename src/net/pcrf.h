// PCRF (Policy, Charging and Rules Function) model: the network-core flow
// registry the OneAPI server consults. It manages and monitors all flows in
// the network, so it can answer the one question FLARE's optimizer needs
// from the core: how many (non-video) data flows share a given cell
// (Lemma 1's n). Flows are keyed by (cell, flow) because eNodeBs number
// their bearers independently; single-cell deployments can ignore the
// cell tag (defaults to 0). The multi-cell runtime gives each cell its
// own shard and sums the shards' counts after the run.
#pragma once

#include <cstdint>
#include <map>
#include <utility>

#include "lte/types.h"

namespace flare {

class Pcrf {
 public:
  using CellTag = std::uint32_t;

  void RegisterFlow(FlowId id, FlowType type, CellTag cell = 0);
  void DeregisterFlow(FlowId id, CellTag cell = 0);

  /// Flows of `type` in cell `cell`.
  int CountFlows(FlowType type, CellTag cell = 0) const;
  /// Flows of `type` across the whole core.
  int CountFlowsAllCells(FlowType type) const;

  bool Knows(FlowId id, CellTag cell = 0) const {
    return flows_.count({cell, id}) > 0;
  }

 private:
  std::map<std::pair<CellTag, FlowId>, FlowType> flows_;
};

}  // namespace flare
