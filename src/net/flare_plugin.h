// FLARE UE plugin — the light-weight client-side module the paper embeds in
// the HAS player (a Javascript file in the prototype; an AbrAlgorithm
// here).
//
// Responsibilities:
//  * On session start, read the MPD and report the available bitrates to
//    the OneAPI server, stripped of anything identifying the video
//    (BuildClientInfo sends bitrates only, plus whatever the client opts
//    in to: a rung cap from device limits or data-cost preferences).
//  * Thereafter, request exactly the bitrate the OneAPI server assigned —
//    the client half of FLARE's coordinated enforcement. Before the first
//    assignment arrives the plugin stays at the lowest rung.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "abr/abr.h"
#include "core/utility.h"
#include "lte/types.h"

namespace flare {

/// What the plugin discloses to the OneAPI server (privacy-minimal; extra
/// fields are opt-in).
struct ClientInfo {
  FlowId flow = kInvalidFlow;
  std::vector<double> ladder_bps;
  std::optional<int> max_level;  // device/cost cap, if disclosed
  std::optional<VideoUtilityParams> utility;  // screen size, if disclosed
  /// Client opted in to clickstream sharing and the server-side analysis
  /// detected skimming (frequent seeks): the server selects the minimum
  /// bitrate while it persists (Section II-B).
  bool skimming = false;
};

class FlarePlugin final : public AbrAlgorithm {
 public:
  explicit FlarePlugin(FlowId flow) : flow_(flow) {}

  // --- AbrAlgorithm: request the network-assigned rung.
  int NextRepresentation(const AbrContext& context) override;
  std::string Name() const override { return "flare-plugin"; }

  // --- Coordination surface.
  /// Assignment pushed from the OneAPI server.
  void SetAssignedLevel(int level) { assigned_level_ = level; }
  std::optional<int> assigned_level() const { return assigned_level_; }

  /// Client-side constraints the user opted to disclose.
  void SetMaxLevel(std::optional<int> level) { max_level_ = level; }
  void SetUtility(std::optional<VideoUtilityParams> utility) {
    utility_ = utility;
  }
  /// Clickstream state (only meaningful if the client shares it).
  void SetSkimming(bool skimming) { skimming_ = skimming; }

  /// Client info for the OneAPI server, built from the MPD with
  /// identifying metadata removed.
  ClientInfo BuildClientInfo(const Mpd& mpd) const;

  FlowId flow() const { return flow_; }

 private:
  FlowId flow_;
  std::optional<int> assigned_level_;
  std::optional<int> max_level_;
  std::optional<VideoUtilityParams> utility_;
  bool skimming_ = false;
};

}  // namespace flare
