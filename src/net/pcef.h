// PCEF (Policy and Charging Enforcement Function) model: the enforcement
// point through which the OneAPI server pushes per-flow GBR values down to
// the eNodeB's Continuous GBR Updater. Messages cross the core with a
// configurable latency, matching the control-plane path in Figure 1.
#pragma once

#include "lte/cell.h"
#include "sim/simulator.h"

namespace flare {

class Pcef {
 public:
  Pcef(Simulator& sim, Cell& cell, SimTime enforcement_latency)
      : sim_(sim), cell_(cell), latency_(enforcement_latency) {}

  /// Set the flow's GBR after the control-plane latency. Flows torn down
  /// in flight are skipped silently.
  void EnforceGbr(FlowId id, double gbr_bps) {
    sim_.After(latency_, [this, id, gbr_bps] {
      if (cell_.HasFlow(id)) cell_.SetGbr(id, gbr_bps);
    });
  }

 private:
  Simulator& sim_;
  Cell& cell_;
  SimTime latency_;
};

}  // namespace flare
