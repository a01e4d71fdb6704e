// PCRF (Policy, Charging and Rules Function) model: the network-core flow
// registry the OneAPI server consults. It manages and monitors all flows in
// the network, so it can answer the one question FLARE's optimizer needs
// from the core: how many (non-video) data flows share a given cell
// (Lemma 1's n). Flows are keyed by (cell, flow) because eNodeBs number
// their bearers independently; single-cell deployments can ignore the
// cell tag (defaults to 0).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <utility>

#include "lte/types.h"

namespace flare {

class Pcrf {
 public:
  using CellTag = std::uint32_t;
  /// Observes every registry mutation (`registered` = false on
  /// deregistration). The sharded runtime installs one on each domain's
  /// PCRF shard to mirror ops into the shared core registry at BAI
  /// barriers; deployments without a hook pay one branch.
  using ChangeFn =
      std::function<void(FlowId, FlowType, CellTag, bool registered)>;

  void RegisterFlow(FlowId id, FlowType type, CellTag cell = 0);
  void DeregisterFlow(FlowId id, CellTag cell = 0);

  void SetOnChange(ChangeFn fn) { on_change_ = std::move(fn); }

  /// Flows of `type` in cell `cell`.
  int CountFlows(FlowType type, CellTag cell = 0) const;
  /// Flows of `type` across the whole core.
  int CountFlowsAllCells(FlowType type) const;

  bool Knows(FlowId id, CellTag cell = 0) const {
    return flows_.count({cell, id}) > 0;
  }

 private:
  std::map<std::pair<CellTag, FlowId>, FlowType> flows_;
  ChangeFn on_change_;
};

}  // namespace flare
