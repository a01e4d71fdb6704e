// OneAPI wire messages.
//
// The prototype exchanges three message kinds over the operator's
// telecommunication-API surface (OMA OneAPI profile, Section III-A):
//   * ClientInfo        — UE plugin -> server, at session start/updates
//   * RateAssignment    — server -> UE plugin & PCEF, each BAI
//   * FlowStatsReport   — eNodeB Communication Module -> server
// This module provides a compact key=value line codec for them (the
// paper leaves the concrete protocol to future standardization; any
// self-describing encoding exercises the same path). Encoding is strict:
// Decode* returns nullopt on malformed input rather than guessing. Decoding
// reads the wire in place: no map, no stream, no per-field copy.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "lte/types.h"
#include "net/flare_plugin.h"

namespace flare {

/// One flow's RB utilization and throughput over a reporting period, as
/// the eNodeB Communication Module sends it to the OneAPI server.
struct FlowStatsReport {
  FlowId flow = kInvalidFlow;
  FlowType type = FlowType::kData;
  /// Bytes transmitted over the reporting period.
  std::uint64_t tx_bytes = 0;
  /// RBs consumed over the reporting period.
  std::uint64_t rbs = 0;
  /// Achieved throughput over the period, bits/s.
  double throughput_bps = 0.0;
  /// Fraction of the cell's RBs this flow consumed over the period.
  double rb_utilization = 0.0;
};

/// Server -> plugin/PCEF bitrate decision for one flow.
struct RateAssignmentMsg {
  FlowId flow = kInvalidFlow;
  int level = 0;
  double rate_bps = 0.0;
  double gbr_bps = 0.0;
};

std::string EncodeClientInfo(const ClientInfo& info);
std::optional<ClientInfo> DecodeClientInfo(std::string_view wire);

/// Append the RateAssignment encoding to `out` with no temporary string:
/// "flow=<id>;gbr=<%.6g>;level=<n>;rate=<%.6g>;type=rate_assignment", keys
/// in the codec's sorted order. EncodeRateAssignment returns the same
/// bytes as a new string.
void AppendRateAssignment(const RateAssignmentMsg& msg, std::string* out);
std::string EncodeRateAssignment(const RateAssignmentMsg& msg);
std::optional<RateAssignmentMsg> DecodeRateAssignment(std::string_view wire);

std::string EncodeStatsReport(const FlowStatsReport& report);
std::optional<FlowStatsReport> DecodeStatsReport(std::string_view wire);

}  // namespace flare
