// Length-prefixed frame layer for the networked OneAPI control plane.
//
// The in-simulator OneAPI exchange already speaks a strict key=value text
// codec (net/messages.h); this module wraps those payloads for a real TCP
// byte stream, where message boundaries must be explicit and every input
// byte is untrusted:
//
//   +----------------+------+-------------------+
//   | u32 LE length  | u8   | payload bytes     |
//   | (type+payload) | type | (length - 1 long) |
//   +----------------+------+-------------------+
//
// Client -> server frames carry the existing ClientInfo / FlowStatsReport
// encodings plus an empty Bye; server -> client frames carry the
// RateAssignment encoding, a Welcome admission ack, and a typed Overload
// reject — the admission controller's answer made visible on the wire
// instead of a silent close. Parsing is incremental (frames may arrive
// split or coalesced) and strict: a zero length, an oversized length or an
// unknown type poisons the stream (kError) and the owning connection must
// be dropped — there is no resynchronization on a binary framed stream.
//
// Trace-context extension. Bit 0x80 of the type byte marks an optional
// trailer appended after the text payload:
//
//   text-payload '\0' "trace=<16 hex>;ts=<i64>[;srx=<i64>;stx=<i64>]"
//
// carrying a client-chosen trace id and the client's send timestamp (µs,
// client clock); the server echoes both on the matching assignment and
// adds its own receive/transmit timestamps (µs, server clock) so an
// offline merger can align the two clocks. The extension is
// backward-compatible by construction: peers that never set the bit
// produce byte-identical frames to the pre-extension protocol, and the
// strictness asymmetry is deliberate — legacy frames keep today's strict
// rejection of trailing bytes (the text codec refuses them), while the
// extension block tolerates unknown keys and post-'\0' trailing bytes
// (flagged via Frame::unknown_ext, counted by the service) so future
// fields can ride along without breaking deployed peers.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace flare {

enum class FrameType : std::uint8_t {
  kClientInfo = 1,   // client -> server: EncodeClientInfo payload
  kStatsReport = 2,  // client -> server: EncodeStatsReport payload
  kBye = 3,          // client -> server: empty payload, clean teardown
  kWelcome = 4,      // server -> client: EncodeWelcome admission ack
  kAssignment = 5,   // server -> client: EncodeRateAssignment payload
  kOverload = 6,     // server -> client: EncodeOverload typed reject
};

/// Hard cap on one frame's payload. Generous for key=value messages (a
/// 64-rung ladder encodes in well under 1 KiB) while bounding what a
/// hostile peer can make the server buffer for a single frame.
inline constexpr std::size_t kMaxFramePayload = 64 * 1024;

/// Type-byte bit marking the trace-context trailer. The base frame type is
/// `type & ~kFrameTraceExtBit` and must still be a known FrameType.
inline constexpr std::uint8_t kFrameTraceExtBit = 0x80;

/// Optional per-request trace context carried in the frame trailer.
/// Timestamps are microseconds on the owning process's steady clock
/// (client_send_us: client clock; server_recv_us / server_send_us: server
/// clock, populated only on the echoed assignment).
struct TraceContext {
  std::uint64_t trace_id = 0;
  std::int64_t client_send_us = 0;
  std::int64_t server_recv_us = 0;
  std::int64_t server_send_us = 0;
};

struct Frame {
  FrameType type = FrameType::kBye;
  std::string payload;
  /// Decoded trace-context trailer, when the frame carried one.
  std::optional<TraceContext> trace;
  /// True when an extension-bearing frame carried unknown ext keys or
  /// trailing bytes (tolerated; the service counts them).
  bool unknown_ext = false;
};

/// Append one encoded frame to `out` (header + payload). Payloads longer
/// than kMaxFramePayload are truncated-by-contract: callers never build
/// them; an assert guards debug builds. The `trace` overloads append the
/// trace-context trailer and set kFrameTraceExtBit; passing nullptr (or
/// using the base overload) encodes byte-identically to the
/// pre-extension protocol.
void AppendFrame(FrameType type, std::string_view payload, std::string* out);
void AppendFrame(FrameType type, std::string_view payload,
                 const TraceContext* trace, std::string* out);
std::string EncodeFrame(FrameType type, std::string_view payload);
std::string EncodeFrame(FrameType type, std::string_view payload,
                        const TraceContext* trace);

/// Build a frame in place, for payloads written by an append-based
/// encoder (AppendRateAssignment): BeginFrame reserves the header at the
/// end of `out` and returns its offset; the caller appends the text
/// payload; EndFrame appends the trace trailer (when `trace` is set) and
/// fills the header in. The bytes equal AppendFrame's.
std::size_t BeginFrame(std::string* out);
void EndFrame(FrameType type, const TraceContext* trace, std::size_t begin,
              std::string* out);

enum class FrameParseStatus {
  kNeedMore,  // buffer holds a partial frame; read more bytes
  kFrame,     // one frame extracted into *out and consumed from buffer
  kError,     // malformed stream (bad length / unknown type): drop the peer
};

/// Consume at most one complete frame from the front of `buffer`.
/// Call in a loop until kNeedMore. kError leaves the buffer untouched —
/// the stream is unrecoverable and the connection should be closed.
FrameParseStatus ParseFrame(std::string* buffer, Frame* out);

// --- Service-level payloads with no net/messages.h equivalent -------------

/// Welcome ack: the flow id the server admitted (echoed so a client can
/// detect id mismatches early).
std::string EncodeWelcome(std::uint64_t flow);
std::optional<std::uint64_t> DecodeWelcome(std::string_view payload);

/// Typed overload/reject frame. `reason` is a stable token
/// ("session_limit", "admission", "duplicate_flow", "malformed",
/// "shutdown"); `policy` names the admission policy when reason ==
/// "admission" (empty otherwise); `value` is the policy diagnostic
/// (AdmissionDecision::value; 0 when not applicable).
struct OverloadInfo {
  std::string reason;
  std::string policy;
  double value = 0.0;
};

std::string EncodeOverload(const OverloadInfo& info);
std::optional<OverloadInfo> DecodeOverload(std::string_view payload);

}  // namespace flare
