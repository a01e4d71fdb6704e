// Tests for the OneAPI wire-message codec: round trips, field coverage,
// and strict rejection of malformed input (including fuzz-ish mutations).
// The FrameInterop section pins the trace-context extension's
// compatibility contract: a new peer without tracing emits bytes an old
// peer parses identically, and an old peer's bytes parse unchanged here.
#include <gtest/gtest.h>

#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "net/messages.h"
#include "svc/frame.h"
#include "util/csv.h"
#include "util/rng.h"

namespace flare {
namespace {

ClientInfo SampleInfo() {
  ClientInfo info;
  info.flow = 42;
  info.ladder_bps = {100e3, 250e3, 500e3, 1000e3};
  info.max_level = 2;
  VideoUtilityParams utility;
  utility.beta = 12.0;
  utility.theta_bps = 0.3e6;
  info.utility = utility;
  info.skimming = true;
  return info;
}

TEST(Messages, ClientInfoRoundTrip) {
  // Seven-digit and default (kInvalidFlow) ids round-trip exactly too.
  for (const FlowId flow : {FlowId{42}, FlowId{1234567}, kInvalidFlow}) {
    ClientInfo original = SampleInfo();
    original.flow = flow;
    const auto decoded = DecodeClientInfo(EncodeClientInfo(original));
    ASSERT_TRUE(decoded.has_value()) << flow;
    EXPECT_EQ(decoded->flow, original.flow);
    EXPECT_EQ(decoded->ladder_bps, original.ladder_bps);
    EXPECT_EQ(decoded->max_level, original.max_level);
    ASSERT_TRUE(decoded->utility.has_value());
    EXPECT_DOUBLE_EQ(decoded->utility->beta, 12.0);
    EXPECT_DOUBLE_EQ(decoded->utility->theta_bps, 0.3e6);
    EXPECT_TRUE(decoded->skimming);
  }
}

TEST(Messages, ClientInfoOptionalFieldsAbsent) {
  ClientInfo info;
  info.flow = 7;
  info.ladder_bps = {200e3};
  const auto decoded = DecodeClientInfo(EncodeClientInfo(info));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_FALSE(decoded->max_level.has_value());
  EXPECT_FALSE(decoded->utility.has_value());
  EXPECT_FALSE(decoded->skimming);
}

TEST(Messages, ClientInfoRejectsMalformed) {
  EXPECT_FALSE(DecodeClientInfo("").has_value());
  EXPECT_FALSE(DecodeClientInfo("garbage").has_value());
  EXPECT_FALSE(DecodeClientInfo("type=rate_assignment;flow=1").has_value());
  EXPECT_FALSE(DecodeClientInfo("type=client_info;flow=1").has_value());
  EXPECT_FALSE(
      DecodeClientInfo("type=client_info;flow=x;ladder=100").has_value());
  EXPECT_FALSE(
      DecodeClientInfo("type=client_info;flow=1;ladder=10,abc")
          .has_value());
  EXPECT_FALSE(DecodeClientInfo("=1;type=client_info").has_value());
  // strtod reads these; the codec must not.
  for (const char* wire : {
           "type=client_info;flow=1;ladder=100000,nan,500000",
           "type=client_info;flow=1;ladder=100000,250000,inf",
           "type=client_info;flow=1;ladder=-inf",
           "type=client_info;flow=nan;ladder=100000",
           "type=client_info;flow=1;ladder=100000;beta=nan;theta=200000",
           "type=client_info;flow=1;ladder=100000;beta=10;theta=inf",
       }) {
    EXPECT_FALSE(DecodeClientInfo(wire).has_value()) << wire;
  }
  // Integer fields: integral and inside the target type, or rejected
  // (the cast to FlowId / int would be undefined otherwise).
  for (const char* wire : {
           "type=client_info;flow=-1;ladder=100000",
           "type=client_info;flow=1.5;ladder=100000",
           "type=client_info;flow=4294967296;ladder=100000",
           "type=client_info;flow=1e300;ladder=100000",
           "type=client_info;flow=1;ladder=100000;max_level=2.5",
           "type=client_info;flow=1;ladder=100000;max_level=3e9",
           "type=client_info;flow=1;ladder=100000;max_level=x",
       }) {
    EXPECT_FALSE(DecodeClientInfo(wire).has_value()) << wire;
  }
  // The extremes of each range still decode.
  const auto widest = DecodeClientInfo(
      "type=client_info;flow=4294967295;ladder=100000;max_level=-2147483648");
  ASSERT_TRUE(widest.has_value());
  EXPECT_EQ(widest->flow, 4294967295u);
  EXPECT_EQ(widest->max_level, -2147483647 - 1);
}

TEST(Messages, RateAssignmentRoundTrip) {
  RateAssignmentMsg msg;
  msg.flow = 9;
  msg.level = 3;
  msg.rate_bps = 790e3;
  msg.gbr_bps = 869e3;
  const auto decoded = DecodeRateAssignment(EncodeRateAssignment(msg));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->flow, msg.flow);
  EXPECT_EQ(decoded->level, msg.level);
  EXPECT_DOUBLE_EQ(decoded->rate_bps, msg.rate_bps);
  EXPECT_DOUBLE_EQ(decoded->gbr_bps, msg.gbr_bps);
}

RateAssignmentMsg Assignment(FlowId flow, int level, double rate_bps,
                             double gbr_bps) {
  RateAssignmentMsg msg;
  msg.flow = flow;
  msg.level = level;
  msg.rate_bps = rate_bps;
  msg.gbr_bps = gbr_bps;
  return msg;
}

TEST(Messages, RateAssignmentBytesArePinned) {
  // Literal wire bytes: sorted keys, ids and levels in full, rates in
  // "%.6g" (exponent form from 1e6 up, six significant digits).
  EXPECT_EQ(EncodeRateAssignment(Assignment(9, 3, 790e3, 869e3)),
            "flow=9;gbr=869000;level=3;rate=790000;type=rate_assignment");
  EXPECT_EQ(
      EncodeRateAssignment(
          Assignment(std::numeric_limits<FlowId>::max(), 7, 1.5e6, 1.65e6)),
      "flow=4294967295;gbr=1.65e+06;level=7;rate=1.5e+06;"
      "type=rate_assignment");
  EXPECT_EQ(EncodeRateAssignment(Assignment(0, 0, 1e6, 1234.5678)),
            "flow=0;gbr=1234.57;level=0;rate=1e+06;type=rate_assignment");
  EXPECT_EQ(EncodeRateAssignment(Assignment(1000, 12, 12345678.0, 0.5)),
            "flow=1000;gbr=0.5;level=12;rate=1.23457e+07;"
            "type=rate_assignment");
  EXPECT_EQ(EncodeRateAssignment(Assignment(5, -1, 0.0, 1e-5)),
            "flow=5;gbr=1e-05;level=-1;rate=0;type=rate_assignment");
  EXPECT_EQ(EncodeRateAssignment(Assignment(77, 2, 999999.5, 100000.0)),
            "flow=77;gbr=100000;level=2;rate=1e+06;type=rate_assignment");
}

TEST(Messages, RateAssignmentFrameBytesArePinned) {
  using namespace std::string_literals;
  const std::string payload = EncodeRateAssignment(
      Assignment(std::numeric_limits<FlowId>::max(), 7, 1.5e6, 1.65e6));
  // Untraced: u32 LE length 71 (type + 70 payload bytes), type 5.
  EXPECT_EQ(EncodeFrame(FrameType::kAssignment, payload),
            "\x47\x00\x00\x00\x05"s + payload);
  // Traced echo: type 5 | 0x80, then the payload, a NUL and the trailer.
  TraceContext echo;
  echo.trace_id = 0xa9;
  echo.client_send_us = 777;
  echo.server_recv_us = 1000;
  echo.server_send_us = 1234;
  EXPECT_EQ(EncodeFrame(FrameType::kAssignment, payload, &echo),
            "\x77\x00\x00\x00\x85"s + payload +
                "\0trace=00000000000000a9;ts=777;srx=1000;stx=1234"s);
}

TEST(Messages, InPlaceFrameMatchesEncodeFrame) {
  // The daemon's fan-out path (BeginFrame + AppendRateAssignment +
  // EndFrame into a reused buffer) writes EncodeFrame's exact bytes,
  // after whatever the buffer already holds.
  TraceContext echo;
  echo.trace_id = 0x0123456789abcdefULL;
  echo.client_send_us = -5;
  const RateAssignmentMsg msg = Assignment(42, 4, 2.5e6, 2.75e6);
  for (const TraceContext* trace : {static_cast<const TraceContext*>(nullptr),
                                    static_cast<const TraceContext*>(&echo)}) {
    std::string buffer = "prefix";
    const std::size_t begin = BeginFrame(&buffer);
    AppendRateAssignment(msg, &buffer);
    EndFrame(FrameType::kAssignment, trace, begin, &buffer);
    EXPECT_EQ(buffer, "prefix" + EncodeFrame(FrameType::kAssignment,
                                             EncodeRateAssignment(msg),
                                             trace));
  }
}

TEST(Messages, RateAssignmentRejectsMissingFields) {
  EXPECT_FALSE(DecodeRateAssignment("type=rate_assignment;flow=1;level=2")
                   .has_value());
  EXPECT_FALSE(DecodeRateAssignment("type=client_info;flow=1").has_value());
  for (const char* wire : {
           "type=rate_assignment;flow=nan;level=1;rate=1;gbr=1",
           "type=rate_assignment;flow=1;level=inf;rate=1;gbr=1",
           "type=rate_assignment;flow=1;level=1;rate=nan;gbr=1",
           "type=rate_assignment;flow=1;level=1;rate=1;gbr=-inf",
           "type=rate_assignment;flow=-1;level=1;rate=1;gbr=1",
           "type=rate_assignment;flow=1;level=0.5;rate=1;gbr=1",
           "type=rate_assignment;flow=1;level=2147483648;rate=1;gbr=1",
       }) {
    EXPECT_FALSE(DecodeRateAssignment(wire).has_value()) << wire;
  }
}

TEST(Messages, StatsReportRoundTrip) {
  FlowStatsReport report;
  report.flow = 11;
  report.type = FlowType::kVideo;
  report.tx_bytes = 123456;
  report.rbs = 999;
  report.throughput_bps = 1.23e6;
  report.rb_utilization = 0.42;
  const auto decoded = DecodeStatsReport(EncodeStatsReport(report));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->flow, report.flow);
  EXPECT_EQ(decoded->type, FlowType::kVideo);
  EXPECT_EQ(decoded->tx_bytes, report.tx_bytes);
  EXPECT_EQ(decoded->rbs, report.rbs);
  EXPECT_DOUBLE_EQ(decoded->throughput_bps, report.throughput_bps);
  EXPECT_DOUBLE_EQ(decoded->rb_utilization, report.rb_utilization);
}

TEST(Messages, StatsReportDataClass) {
  FlowStatsReport report;
  report.flow = 1;
  report.type = FlowType::kData;
  const auto decoded = DecodeStatsReport(EncodeStatsReport(report));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->type, FlowType::kData);
}

TEST(Messages, StatsReportRejectsMalformed) {
  const std::string prefix = "type=stats_report;";
  for (const std::string fields : {
           "flow=1;class=voice;tx_bytes=1;rbs=1;tput=1;rb_util=0.1",
           "flow=nan;class=video;tx_bytes=1;rbs=1;tput=1;rb_util=0.1",
           "flow=1;class=video;tx_bytes=inf;rbs=1;tput=1;rb_util=0.1",
           "flow=1;class=video;tx_bytes=1;rbs=-1;tput=1;rb_util=0.1",
           "flow=1;class=video;tx_bytes=1;rbs=1.5;tput=1;rb_util=0.1",
           "flow=1;class=video;tx_bytes=1e20;rbs=1;tput=1;rb_util=0.1",
           "flow=1;class=video;tx_bytes=18446744073709551616;rbs=1;tput=1;"
           "rb_util=0.1",
           "flow=1;class=video;tx_bytes=1;rbs=1;tput=nan;rb_util=0.1",
           "flow=1;class=video;tx_bytes=1;rbs=1;tput=1;rb_util=inf",
       }) {
    EXPECT_FALSE(DecodeStatsReport(prefix + fields).has_value()) << fields;
  }
  // 2^64 - 2048 is the largest double below 2^64: still a uint64_t.
  const auto largest = DecodeStatsReport(
      prefix + "flow=1;class=video;tx_bytes=18446744073709549568;rbs=0;"
               "tput=1;rb_util=0");
  ASSERT_TRUE(largest.has_value());
  EXPECT_EQ(largest->tx_bytes, 18446744073709549568ull);
}

TEST(Messages, MutatedWiresNeverCrashAndRarelyParse) {
  // Fuzz-ish: random mutations of a valid message must either decode to
  // something or be rejected — never crash or throw.
  const std::string valid = EncodeClientInfo(SampleInfo());
  Rng rng(123);
  for (int trial = 0; trial < 500; ++trial) {
    std::string mutated = valid;
    const int mutations = static_cast<int>(rng.UniformInt(1, 5));
    for (int m = 0; m < mutations; ++m) {
      const auto pos = static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<std::int64_t>(mutated.size()) - 1));
      switch (rng.UniformInt(0, 2)) {
        case 0:
          mutated[pos] = static_cast<char>(rng.UniformInt(32, 126));
          break;
        case 1:
          mutated.erase(pos, 1);
          break;
        default:
          mutated.insert(pos, 1,
                         static_cast<char>(rng.UniformInt(32, 126)));
          break;
      }
      if (mutated.empty()) mutated = "x";
    }
    EXPECT_NO_THROW({
      const auto decoded = DecodeClientInfo(mutated);
      if (decoded) {
        // Whatever parsed must still be structurally sane.
        EXPECT_FALSE(decoded->ladder_bps.empty());
      }
    });
  }
}

TEST(Messages, RandomizedRoundTripAllTypes) {
  // Round-trip fuzz: random field values for every message type must
  // survive encode → decode with integer fields exact. Flow ids are
  // written in full, so they span the whole FlowId range. Doubles go through %.6g formatting, so draw them from a
  // grid that the format preserves exactly (integers of at most 6
  // digits).
  constexpr std::int64_t kMaxFlow = std::numeric_limits<FlowId>::max();
  Rng rng(2024);
  for (int trial = 0; trial < 300; ++trial) {
    ClientInfo info;
    info.flow = static_cast<FlowId>(rng.UniformInt(0, kMaxFlow));
    const int levels = static_cast<int>(rng.UniformInt(1, 8));
    for (int i = 0; i < levels; ++i) {
      info.ladder_bps.push_back(
          static_cast<double>(rng.UniformInt(1, 999999)));
    }
    if (rng.UniformInt(0, 1) == 1) {
      info.max_level = static_cast<int>(
          rng.UniformInt(0, static_cast<std::int64_t>(levels) - 1));
    }
    if (rng.UniformInt(0, 1) == 1) {
      VideoUtilityParams utility;
      utility.beta = static_cast<double>(rng.UniformInt(1, 100));
      utility.theta_bps = static_cast<double>(rng.UniformInt(1, 999999));
      info.utility = utility;
    }
    info.skimming = rng.UniformInt(0, 1) == 1;
    const auto info_rt = DecodeClientInfo(EncodeClientInfo(info));
    ASSERT_TRUE(info_rt.has_value());
    EXPECT_EQ(info_rt->flow, info.flow);
    EXPECT_EQ(info_rt->ladder_bps, info.ladder_bps);
    EXPECT_EQ(info_rt->max_level, info.max_level);
    EXPECT_EQ(info_rt->utility.has_value(), info.utility.has_value());
    EXPECT_EQ(info_rt->skimming, info.skimming);

    RateAssignmentMsg assignment;
    assignment.flow = static_cast<FlowId>(rng.UniformInt(0, kMaxFlow));
    assignment.level = static_cast<int>(rng.UniformInt(0, 16));
    assignment.rate_bps = static_cast<double>(rng.UniformInt(0, 999999));
    assignment.gbr_bps = static_cast<double>(rng.UniformInt(0, 999999));
    const auto assignment_rt =
        DecodeRateAssignment(EncodeRateAssignment(assignment));
    ASSERT_TRUE(assignment_rt.has_value());
    EXPECT_EQ(assignment_rt->flow, assignment.flow);
    EXPECT_EQ(assignment_rt->level, assignment.level);
    EXPECT_DOUBLE_EQ(assignment_rt->rate_bps, assignment.rate_bps);
    EXPECT_DOUBLE_EQ(assignment_rt->gbr_bps, assignment.gbr_bps);

    FlowStatsReport stats;
    stats.flow = static_cast<FlowId>(rng.UniformInt(0, kMaxFlow));
    stats.type = rng.UniformInt(0, 1) == 1 ? FlowType::kVideo
                                           : FlowType::kData;
    stats.tx_bytes = static_cast<std::uint64_t>(rng.UniformInt(0, 999999));
    stats.rbs = static_cast<std::uint64_t>(rng.UniformInt(0, 999999));
    stats.throughput_bps = static_cast<double>(rng.UniformInt(0, 999999));
    stats.rb_utilization = 0.0;
    const auto stats_rt = DecodeStatsReport(EncodeStatsReport(stats));
    ASSERT_TRUE(stats_rt.has_value());
    EXPECT_EQ(stats_rt->flow, stats.flow);
    EXPECT_EQ(stats_rt->type, stats.type);
    EXPECT_EQ(stats_rt->tx_bytes, stats.tx_bytes);
    EXPECT_EQ(stats_rt->rbs, stats.rbs);
  }
}

TEST(Messages, TruncationsNeverCrash) {
  // Every prefix of a valid encoding must decode to nullopt or to a
  // structurally valid message — never crash. (Some prefixes happen to
  // end exactly on a field boundary and legitimately still parse.)
  const std::string infos = EncodeClientInfo(SampleInfo());
  RateAssignmentMsg assignment;
  assignment.flow = 3;
  assignment.level = 1;
  assignment.rate_bps = 250e3;
  assignment.gbr_bps = 275e3;
  const std::string rates = EncodeRateAssignment(assignment);
  FlowStatsReport stats;
  stats.flow = 5;
  stats.type = FlowType::kVideo;
  stats.tx_bytes = 999;
  stats.rbs = 8;
  const std::string reports = EncodeStatsReport(stats);
  for (std::size_t len = 0; len < infos.size(); ++len) {
    EXPECT_NO_THROW((void)DecodeClientInfo(infos.substr(0, len)));
  }
  for (std::size_t len = 0; len < rates.size(); ++len) {
    EXPECT_NO_THROW((void)DecodeRateAssignment(rates.substr(0, len)));
  }
  for (std::size_t len = 0; len < reports.size(); ++len) {
    EXPECT_NO_THROW((void)DecodeStatsReport(reports.substr(0, len)));
  }
}

TEST(Messages, GarbageAcrossAllDecodersNeverCrashes) {
  // Pure-random strings (printable + separators the codec cares about)
  // against every decoder: no crash, and with overwhelming likelihood
  // no parse.
  Rng rng(777);
  const std::string alphabet =
      "abcdefghijklmnopqrstuvwxyz0123456789=;,.-+eE ";
  int parsed = 0;
  for (int trial = 0; trial < 500; ++trial) {
    const int len = static_cast<int>(rng.UniformInt(0, 64));
    std::string wire;
    for (int i = 0; i < len; ++i) {
      wire.push_back(alphabet[static_cast<std::size_t>(rng.UniformInt(
          0, static_cast<std::int64_t>(alphabet.size()) - 1))]);
    }
    EXPECT_NO_THROW({
      if (DecodeClientInfo(wire)) ++parsed;
      if (DecodeRateAssignment(wire)) ++parsed;
      if (DecodeStatsReport(wire)) ++parsed;
    });
  }
  // A random string should essentially never spell out a full typed
  // key=value message.
  EXPECT_EQ(parsed, 0);
}

// ---------------------------------------------------------------------
// Frame-layer interop: the trace-context extension vs. legacy peers
// ---------------------------------------------------------------------

/// The pre-extension wire format, built by hand: u32 LE length (type +
/// payload), raw type byte, payload. What an old peer sends and expects.
std::string LegacyWire(std::uint8_t type, const std::string& payload) {
  std::string wire;
  const std::uint32_t length = static_cast<std::uint32_t>(payload.size()) + 1;
  for (int i = 0; i < 4; ++i) {
    wire.push_back(static_cast<char>((length >> (8 * i)) & 0xff));
  }
  wire.push_back(static_cast<char>(type));
  wire += payload;
  return wire;
}

std::string RandomPayload(Rng* rng, int max_len) {
  const std::string alphabet =
      "abcdefghijklmnopqrstuvwxyz0123456789=;,.-+ ";
  const int len = static_cast<int>(rng->UniformInt(0, max_len));
  std::string payload;
  for (int i = 0; i < len; ++i) {
    payload.push_back(alphabet[static_cast<std::size_t>(rng->UniformInt(
        0, static_cast<std::int64_t>(alphabet.size()) - 1))]);
  }
  return payload;
}

TEST(FrameInterop, OldToNewFramesParseUnchanged) {
  // Direction 1: bytes from an old peer. Every legacy frame must parse
  // byte-for-byte as before the extension — no trace, no unknown_ext —
  // and the new encoder without a trace context must emit exactly those
  // legacy bytes (so old peers in turn parse *us*).
  Rng rng(31);
  for (int trial = 0; trial < 300; ++trial) {
    const auto type =
        static_cast<FrameType>(rng.UniformInt(1, 6));
    const std::string payload = RandomPayload(&rng, 64);
    const std::string legacy =
        LegacyWire(static_cast<std::uint8_t>(type), payload);
    EXPECT_EQ(EncodeFrame(type, payload), legacy);
    EXPECT_EQ(EncodeFrame(type, payload, nullptr), legacy);

    std::string buffer = legacy;
    Frame frame;
    ASSERT_EQ(ParseFrame(&buffer, &frame), FrameParseStatus::kFrame);
    EXPECT_TRUE(buffer.empty());
    EXPECT_EQ(frame.type, type);
    EXPECT_EQ(frame.payload, payload);
    EXPECT_FALSE(frame.trace.has_value());
    EXPECT_FALSE(frame.unknown_ext);
  }
}

TEST(FrameInterop, NewToNewTraceContextRoundTrips) {
  // Direction 2: extension-bearing frames between new peers. The trailer
  // must round-trip every field exactly, never leak into the payload,
  // and visibly set the ext bit (which is what makes an *old* strict
  // parser reject the frame instead of silently mis-parsing it — tracing
  // is opt-in per frame precisely so it is only sent to new daemons).
  Rng rng(32);
  for (int trial = 0; trial < 300; ++trial) {
    TraceContext ctx;
    ctx.trace_id =
        (static_cast<std::uint64_t>(rng.UniformInt(0, 0x7fffffff)) << 32) |
        static_cast<std::uint64_t>(rng.UniformInt(0, 0x7fffffff));
    ctx.client_send_us = rng.UniformInt(0, 1'000'000'000);
    if (rng.UniformInt(0, 1) == 1) {
      ctx.server_recv_us = rng.UniformInt(1, 1'000'000'000);
      ctx.server_send_us = rng.UniformInt(1, 1'000'000'000);
    }
    const auto type = static_cast<FrameType>(rng.UniformInt(1, 6));
    const std::string payload = RandomPayload(&rng, 64);
    const std::string wire = EncodeFrame(type, payload, &ctx);
    ASSERT_GT(wire.size(), 4u);
    EXPECT_NE(static_cast<std::uint8_t>(wire[4]) & kFrameTraceExtBit, 0);

    std::string buffer = wire;
    Frame frame;
    ASSERT_EQ(ParseFrame(&buffer, &frame), FrameParseStatus::kFrame);
    EXPECT_EQ(frame.type, type);
    EXPECT_EQ(frame.payload, payload);
    EXPECT_FALSE(frame.unknown_ext);
    ASSERT_TRUE(frame.trace.has_value());
    EXPECT_EQ(frame.trace->trace_id, ctx.trace_id);
    EXPECT_EQ(frame.trace->client_send_us, ctx.client_send_us);
    EXPECT_EQ(frame.trace->server_recv_us, ctx.server_recv_us);
    EXPECT_EQ(frame.trace->server_send_us, ctx.server_send_us);
  }
}

TEST(FrameInterop, DecoderAsymmetryStrictLegacyTolerantExt) {
  // Legacy frames keep today's strictness: trailing bytes after a text
  // payload stay part of the payload, and anything that is not a clean
  // key=value field (a NUL-introduced trailer, a bare token) still makes
  // the message codec reject the whole payload.
  {
    FlowStatsReport report;
    report.flow = 4;
    report.type = FlowType::kVideo;
    report.tx_bytes = 100;
    report.rbs = 8;
    const std::string payload = EncodeStatsReport(report);
    for (const std::string& trailer :
         {std::string(";trailing-no-equals"),
          std::string(1, '\0') + "trace=1;ts=2"}) {
      std::string buffer = LegacyWire(2, payload + trailer);
      Frame frame;
      ASSERT_EQ(ParseFrame(&buffer, &frame), FrameParseStatus::kFrame);
      EXPECT_FALSE(frame.trace.has_value());
      EXPECT_FALSE(DecodeStatsReport(frame.payload).has_value());
    }
  }
  // Ext frames tolerate unknown keys... (flagged, not fatal)
  {
    const std::string body = std::string("payload") + '\0' +
                             "trace=00000000000000ff;ts=5;future=1";
    std::string buffer = LegacyWire(2 | kFrameTraceExtBit, body);
    Frame frame;
    ASSERT_EQ(ParseFrame(&buffer, &frame), FrameParseStatus::kFrame);
    EXPECT_EQ(frame.payload, "payload");
    ASSERT_TRUE(frame.trace.has_value());
    EXPECT_EQ(frame.trace->trace_id, 0xffu);
    EXPECT_EQ(frame.trace->client_send_us, 5);
    EXPECT_TRUE(frame.unknown_ext);
  }
  // ...and bytes after a second NUL (a future binary section).
  {
    const std::string body = std::string("p") + '\0' +
                             "trace=1;ts=2" + '\0' + "binary-blob";
    std::string buffer = LegacyWire(2 | kFrameTraceExtBit, body);
    Frame frame;
    ASSERT_EQ(ParseFrame(&buffer, &frame), FrameParseStatus::kFrame);
    ASSERT_TRUE(frame.trace.has_value());
    EXPECT_EQ(frame.trace->trace_id, 1u);
    EXPECT_TRUE(frame.unknown_ext);
  }
  // Known ext keys stay strict: malformed values poison the stream.
  for (const std::string& bad :
       {std::string("trace=xyz;ts=5"), std::string("trace=1;ts=abc"),
        std::string("trace=11112222333344445;ts=5")}) {
    std::string buffer = LegacyWire(2 | kFrameTraceExtBit,
                                    std::string("p") + '\0' + bad);
    Frame frame;
    EXPECT_EQ(ParseFrame(&buffer, &frame), FrameParseStatus::kError)
        << "accepted malformed ext: " << bad;
  }
  // An ext-flagged frame without the NUL separator is malformed.
  {
    std::string buffer = LegacyWire(2 | kFrameTraceExtBit, "no-separator");
    Frame frame;
    EXPECT_EQ(ParseFrame(&buffer, &frame), FrameParseStatus::kError);
  }
  // The ext bit never rescues an unknown base type.
  {
    std::string buffer = LegacyWire(0x7f | kFrameTraceExtBit,
                                    std::string("p") + '\0' + "trace=1;ts=2");
    Frame frame;
    EXPECT_EQ(ParseFrame(&buffer, &frame), FrameParseStatus::kError);
  }
}

TEST(FrameInterop, FuzzedExtTrailersNeverCrash) {
  // Random bytes in the trailer region: parse must return kFrame or
  // kError, never crash; whenever it accepts, known fields are sane.
  Rng rng(33);
  for (int trial = 0; trial < 500; ++trial) {
    std::string body = RandomPayload(&rng, 16);
    body.push_back('\0');
    const int len = static_cast<int>(rng.UniformInt(0, 48));
    for (int i = 0; i < len; ++i) {
      body.push_back(static_cast<char>(rng.UniformInt(0, 255)));
    }
    std::string buffer = LegacyWire(
        static_cast<std::uint8_t>(rng.UniformInt(1, 6)) | kFrameTraceExtBit,
        body);
    Frame frame;
    const FrameParseStatus status = ParseFrame(&buffer, &frame);
    if (status == FrameParseStatus::kFrame) {
      EXPECT_TRUE(buffer.empty());
    } else {
      EXPECT_EQ(status, FrameParseStatus::kError);
    }
  }
}

// ---------------------------------------------------------------------
// Differential: the in-place decoders against the map-and-stream ones
// ---------------------------------------------------------------------

// The decoders as they were written over std::map and std::istringstream,
// kept verbatim as the reference for the grammar: tokens split with
// std::getline, last occurrence of a key wins, numbers through strtod on
// a NUL-terminated copy.
namespace reference {

using Fields = std::map<std::string, std::string>;

std::optional<Fields> Split(const std::string& wire) {
  Fields fields;
  std::istringstream in(wire);
  std::string token;
  while (std::getline(in, token, ';')) {
    const auto eq = token.find('=');
    if (eq == std::string::npos || eq == 0) return std::nullopt;
    fields[token.substr(0, eq)] = token.substr(eq + 1);
  }
  if (fields.empty()) return std::nullopt;
  return fields;
}

std::optional<double> Number(const Fields& fields, const std::string& key) {
  const auto it = fields.find(key);
  if (it == fields.end()) return std::nullopt;
  char* end = nullptr;
  const double value = std::strtod(it->second.c_str(), &end);
  if (end == it->second.c_str() || *end != '\0') return std::nullopt;
  if (!std::isfinite(value)) return std::nullopt;
  return value;
}

template <typename Int>
std::optional<Int> Integer(const Fields& fields, const std::string& key) {
  const auto value = Number(fields, key);
  if (!value || *value != std::trunc(*value)) return std::nullopt;
  constexpr double kLowest =
      static_cast<double>(std::numeric_limits<Int>::lowest());
  constexpr double kPastMax =
      2.0 * static_cast<double>(std::numeric_limits<Int>::max() / 2 + 1);
  if (*value < kLowest || *value >= kPastMax) return std::nullopt;
  return static_cast<Int>(*value);
}

std::optional<std::vector<double>> NumberList(const Fields& fields,
                                              const std::string& key) {
  const auto it = fields.find(key);
  if (it == fields.end()) return std::nullopt;
  std::vector<double> values;
  std::istringstream in(it->second);
  std::string token;
  while (std::getline(in, token, ',')) {
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (end == token.c_str() || *end != '\0' || !std::isfinite(value)) {
      return std::nullopt;
    }
    values.push_back(value);
  }
  if (values.empty()) return std::nullopt;
  return values;
}

std::optional<ClientInfo> DecodeClientInfo(const std::string& wire) {
  const auto fields = Split(wire);
  if (!fields || fields->count("type") == 0 ||
      fields->at("type") != "client_info") {
    return std::nullopt;
  }
  const auto flow = Integer<FlowId>(*fields, "flow");
  const auto ladder = NumberList(*fields, "ladder");
  if (!flow || !ladder) return std::nullopt;
  ClientInfo info;
  info.flow = *flow;
  info.ladder_bps = *ladder;
  if (fields->count("max_level") > 0) {
    const auto max_level = Integer<int>(*fields, "max_level");
    if (!max_level) return std::nullopt;
    info.max_level = *max_level;
  }
  const auto beta = Number(*fields, "beta");
  const auto theta = Number(*fields, "theta");
  if ((!beta && fields->count("beta") > 0) ||
      (!theta && fields->count("theta") > 0)) {
    return std::nullopt;
  }
  if (beta && theta) {
    VideoUtilityParams utility;
    utility.beta = *beta;
    utility.theta_bps = *theta;
    info.utility = utility;
  }
  info.skimming = fields->count("skimming") > 0 &&
                  fields->at("skimming") == "1";
  return info;
}

std::optional<RateAssignmentMsg> DecodeRateAssignment(
    const std::string& wire) {
  const auto fields = Split(wire);
  if (!fields || fields->count("type") == 0 ||
      fields->at("type") != "rate_assignment") {
    return std::nullopt;
  }
  const auto flow = Integer<FlowId>(*fields, "flow");
  const auto level = Integer<int>(*fields, "level");
  const auto rate = Number(*fields, "rate");
  const auto gbr = Number(*fields, "gbr");
  if (!flow || !level || !rate || !gbr) return std::nullopt;
  RateAssignmentMsg msg;
  msg.flow = *flow;
  msg.level = *level;
  msg.rate_bps = *rate;
  msg.gbr_bps = *gbr;
  return msg;
}

std::optional<FlowStatsReport> DecodeStatsReport(const std::string& wire) {
  const auto fields = Split(wire);
  if (!fields || fields->count("type") == 0 ||
      fields->at("type") != "stats_report" ||
      fields->count("class") == 0) {
    return std::nullopt;
  }
  const auto flow = Integer<FlowId>(*fields, "flow");
  const auto tx_bytes = Integer<std::uint64_t>(*fields, "tx_bytes");
  const auto rbs = Integer<std::uint64_t>(*fields, "rbs");
  const auto tput = Number(*fields, "tput");
  const auto rb_util = Number(*fields, "rb_util");
  if (!flow || !tx_bytes || !rbs || !tput || !rb_util) return std::nullopt;
  const std::string& cls = fields->at("class");
  if (cls != "video" && cls != "data") return std::nullopt;
  FlowStatsReport report;
  report.flow = *flow;
  report.type = cls == "video" ? FlowType::kVideo : FlowType::kData;
  report.tx_bytes = *tx_bytes;
  report.rbs = *rbs;
  report.throughput_bps = *tput;
  report.rb_utilization = *rb_util;
  return report;
}

// svc/frame's stricter split for the welcome and overload payloads.
bool SplitFields(const std::string& payload,
                 std::map<std::string, std::string>* out) {
  out->clear();
  if (payload.empty()) return true;
  std::size_t start = 0;
  while (start <= payload.size()) {
    std::size_t end = payload.find(';', start);
    if (end == std::string::npos) end = payload.size();
    std::string field = payload.substr(start, end - start);
    std::size_t eq = field.find('=');
    if (field.empty() || eq == std::string::npos || eq == 0) return false;
    (*out)[field.substr(0, eq)] = field.substr(eq + 1);
    start = end + 1;
    if (end == payload.size()) break;
  }
  return true;
}

std::optional<std::uint64_t> DecodeWelcome(const std::string& payload) {
  std::map<std::string, std::string> fields;
  if (!SplitFields(payload, &fields)) return std::nullopt;
  auto it = fields.find("flow");
  if (it == fields.end() || it->second.empty()) return std::nullopt;
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(it->second.c_str(), &end, 10);
  if (errno != 0 || end == it->second.c_str() || *end != '\0') {
    return std::nullopt;
  }
  return static_cast<std::uint64_t>(value);
}

std::optional<OverloadInfo> DecodeOverload(const std::string& payload) {
  std::map<std::string, std::string> fields;
  if (!SplitFields(payload, &fields)) return std::nullopt;
  auto reason = fields.find("reason");
  if (reason == fields.end() || reason->second.empty()) return std::nullopt;
  OverloadInfo info;
  info.reason = reason->second;
  auto policy = fields.find("policy");
  if (policy != fields.end()) info.policy = policy->second;
  auto value = fields.find("value");
  if (value != fields.end()) {
    errno = 0;
    char* end = nullptr;
    const double v = std::strtod(value->second.c_str(), &end);
    if (errno != 0 || end == value->second.c_str() || *end != '\0') {
      return std::nullopt;
    }
    info.value = v;
  }
  return info;
}

}  // namespace reference

/// Same double, bit for bit up to NaN payloads (-0.0 is not 0.0).
bool SameDouble(double a, double b) {
  if (std::isnan(a) || std::isnan(b)) return std::isnan(a) && std::isnan(b);
  return a == b && std::signbit(a) == std::signbit(b);
}

bool SameDoubles(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!SameDouble(a[i], b[i])) return false;
  }
  return true;
}

/// Runs every decoder, new and reference, on `wire`; returns a
/// description of the first disagreement, or "" when they all agree.
std::string DecoderDisagreement(const std::string& wire) {
  const auto agree = [](const auto& got, const auto& want, auto same) {
    if (got.has_value() != want.has_value()) return false;
    return !got || same(*got, *want);
  };
  if (!agree(DecodeClientInfo(wire), reference::DecodeClientInfo(wire),
             [](const ClientInfo& a, const ClientInfo& b) {
               return a.flow == b.flow && SameDoubles(a.ladder_bps,
                                                      b.ladder_bps) &&
                      a.max_level == b.max_level &&
                      a.utility.has_value() == b.utility.has_value() &&
                      (!a.utility ||
                       (SameDouble(a.utility->beta, b.utility->beta) &&
                        SameDouble(a.utility->theta_bps,
                                   b.utility->theta_bps))) &&
                      a.skimming == b.skimming;
             })) {
    return "DecodeClientInfo";
  }
  if (!agree(DecodeRateAssignment(wire),
             reference::DecodeRateAssignment(wire),
             [](const RateAssignmentMsg& a, const RateAssignmentMsg& b) {
               return a.flow == b.flow && a.level == b.level &&
                      SameDouble(a.rate_bps, b.rate_bps) &&
                      SameDouble(a.gbr_bps, b.gbr_bps);
             })) {
    return "DecodeRateAssignment";
  }
  if (!agree(DecodeStatsReport(wire), reference::DecodeStatsReport(wire),
             [](const FlowStatsReport& a, const FlowStatsReport& b) {
               return a.flow == b.flow && a.type == b.type &&
                      a.tx_bytes == b.tx_bytes && a.rbs == b.rbs &&
                      SameDouble(a.throughput_bps, b.throughput_bps) &&
                      SameDouble(a.rb_utilization, b.rb_utilization);
             })) {
    return "DecodeStatsReport";
  }
  if (!agree(DecodeWelcome(wire), reference::DecodeWelcome(wire),
             [](std::uint64_t a, std::uint64_t b) { return a == b; })) {
    return "DecodeWelcome";
  }
  if (!agree(DecodeOverload(wire), reference::DecodeOverload(wire),
             [](const OverloadInfo& a, const OverloadInfo& b) {
               return a.reason == b.reason && a.policy == b.policy &&
                      SameDouble(a.value, b.value);
             })) {
    return "DecodeOverload";
  }
  return "";
}

/// A valid wire of a random kind, drawn so the numbers exercise strtod's
/// edges (exponents, signs, long digit runs) once mutated.
std::string RandomValidWire(Rng* rng) {
  const auto number = [rng] {
    switch (rng->UniformInt(0, 3)) {
      case 0:
        return static_cast<double>(rng->UniformInt(0, 4294967295));
      case 1:
        return rng->Uniform(-1e7, 1e7);
      case 2:
        return std::ldexp(rng->Uniform(), static_cast<int>(
                                              rng->UniformInt(-1074, 1023)));
      default:
        return static_cast<double>(rng->UniformInt(-3, 3));
    }
  };
  switch (rng->UniformInt(0, 4)) {
    case 0: {
      ClientInfo info;
      info.flow = static_cast<FlowId>(rng->UniformInt(0, 4294967295));
      const int levels = static_cast<int>(rng->UniformInt(0, 6));
      for (int i = 0; i < levels; ++i) info.ladder_bps.push_back(number());
      if (rng->UniformInt(0, 1) == 1) {
        info.max_level = static_cast<int>(rng->UniformInt(-3, 8));
      }
      if (rng->UniformInt(0, 1) == 1) {
        info.utility = VideoUtilityParams{number(), number()};
      }
      info.skimming = rng->UniformInt(0, 1) == 1;
      return EncodeClientInfo(info);
    }
    case 1:
      return EncodeRateAssignment(Assignment(
          static_cast<FlowId>(rng->UniformInt(0, 4294967295)),
          static_cast<int>(rng->UniformInt(-3, 20)), number(), number()));
    case 2: {
      FlowStatsReport report;
      report.flow = static_cast<FlowId>(rng->UniformInt(0, 4294967295));
      report.type =
          rng->UniformInt(0, 1) == 1 ? FlowType::kVideo : FlowType::kData;
      report.tx_bytes = static_cast<std::uint64_t>(
          rng->UniformInt(0, std::numeric_limits<std::int64_t>::max()));
      report.rbs = static_cast<std::uint64_t>(rng->UniformInt(0, 100000));
      report.throughput_bps = number();
      report.rb_utilization = number();
      return EncodeStatsReport(report);
    }
    case 3:
      return EncodeWelcome(
          static_cast<std::uint64_t>(rng->UniformInt(0, 1LL << 62)));
    default: {
      OverloadInfo info;
      info.reason = rng->UniformInt(0, 3) == 0 ? "" : "admission";
      info.policy = rng->UniformInt(0, 1) == 0 ? "" : "capacity-threshold";
      info.value = number();
      return EncodeOverload(info);
    }
  }
}

TEST(CodecDifferential, DecodersMatchTheMapAndStreamReference) {
  // Mutated, truncated and duplicate-key wires of every message kind, each
  // handed to all five decoders: the in-place decoders must accept and
  // reject exactly what the reference does, with equal fields.
  static const std::vector<std::string> kKeys = {
      "type", "flow", "ladder", "max_level", "beta", "theta", "skimming",
      "gbr", "level", "rate", "class", "tx_bytes", "rbs", "tput", "rb_util",
      "reason", "policy", "value"};
  static const std::vector<std::string> kValues = {
      "client_info", "rate_assignment", "stats_report", "video", "data", "1",
      "0", "-0", "+7", " 42", "1e3", "0x1p4", "nan", "inf", "-inf", "1.5",
      "4294967295", "4294967296", "18446744073709551615", "1e400", "",
      "100000,250000", "100000,,5", "7,", "00000000000000000000000000000000"
      "000000000000000000000000000000000000001"};
  const std::string alphabet =
      std::string("abcdefgilnprstvwxy0123456789=;,.-+eE _") + '\0';
  const auto pick = [](Rng* rng, std::size_t n) {
    return static_cast<std::size_t>(
        rng->UniformInt(0, static_cast<std::int64_t>(n) - 1));
  };
  Rng rng(30);
  constexpr int kWires = 100000;
  int accepted = 0;
  for (int trial = 0; trial < kWires; ++trial) {
    std::string wire = RandomValidWire(&rng);
    const int edits = static_cast<int>(rng.UniformInt(0, 4));
    for (int e = 0; e < edits; ++e) {
      const std::size_t pos = wire.empty() ? 0 : pick(&rng, wire.size() + 1);
      switch (rng.UniformInt(0, 6)) {
        case 0:  // replace a byte
          if (pos < wire.size()) wire[pos] = alphabet[pick(&rng, alphabet.size())];
          break;
        case 1:  // delete a byte
          if (pos < wire.size()) wire.erase(pos, 1);
          break;
        case 2:  // insert a byte
          wire.insert(pos, 1, alphabet[pick(&rng, alphabet.size())]);
          break;
        case 3:  // truncate
          wire.resize(pos < wire.size() ? pos : wire.size());
          break;
        case 4:  // a duplicate (or new) key, appended: last wins
          wire += ";" + kKeys[pick(&rng, kKeys.size())] + "=" +
                  kValues[pick(&rng, kValues.size())];
          break;
        case 5:  // a duplicate key, prepended: the original wins
          wire = kKeys[pick(&rng, kKeys.size())] + "=" +
                 kValues[pick(&rng, kValues.size())] + ";" + wire;
          break;
        default:  // separator noise at the end
          wire += rng.UniformInt(0, 1) == 1 ? ";" : ";;";
          break;
      }
    }
    const std::string disagreement = DecoderDisagreement(wire);
    ASSERT_EQ(disagreement, "") << "wire \"" << wire << "\" (trial "
                                << trial << ")";
    if (DecodeClientInfo(wire) || DecodeRateAssignment(wire) ||
        DecodeStatsReport(wire) || DecodeWelcome(wire) ||
        DecodeOverload(wire)) {
      ++accepted;
    }
  }
  // The sweep covers both verdicts in bulk, not only rejects.
  EXPECT_GT(accepted, kWires / 5);
  EXPECT_LT(accepted, kWires * 4 / 5);
}

TEST(CodecDifferential, ToCharsMatchesPrintfG6) {
  // AppendNumber (std::to_chars, general, precision 6) must write
  // printf's "%.6g" bytes wherever the codec and the CSVs use it.
  std::vector<double> values = {
      0.0, -0.0, 1.0, -1.0, 0.5, 1e-5, 1e-4, 99999.5, 999999.0, 999999.4,
      999999.5, 999999.6, 1e6, 1e300, -1e300, 1e-300, -1e-300,
      std::numeric_limits<double>::max(), -std::numeric_limits<double>::max(),
      std::numeric_limits<double>::min(),
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN()};
  Rng rng(6);
  // Integers around 1e6, where %.6g turns to the exponent form.
  for (std::int64_t i = 999000; i <= 1001000; ++i) {
    values.push_back(static_cast<double>(i));
    values.push_back(static_cast<double>(i) + 0.5);
  }
  // Just below, at and just above each rounding boundary of six digits:
  // d.ddddd5 * 10^e for every decade.
  for (int e = -320; e <= 308; ++e) {
    for (const double mantissa : {1.000005, 1.234565, 4.999995, 9.999995,
                                  9.9999949999, 5.0}) {
      const double v = mantissa * std::pow(10.0, e);
      if (!std::isfinite(v)) continue;
      for (const double x : {v, std::nextafter(v, 0.0),
                             std::nextafter(v, 1e308), -v}) {
        values.push_back(x);
      }
    }
  }
  // Subnormals, and doubles of random bits anywhere in the range.
  for (int i = 0; i < 20000; ++i) {
    values.push_back(std::ldexp(rng.Uniform(), -1022 - static_cast<int>(
                                                           rng.UniformInt(0, 52))));
    const std::uint64_t bits = static_cast<std::uint64_t>(
        rng.UniformInt(0, std::numeric_limits<std::int64_t>::max())) << 1 |
        static_cast<std::uint64_t>(rng.UniformInt(0, 1));
    double random;
    static_assert(sizeof(random) == sizeof(bits));
    std::memcpy(&random, &bits, sizeof(random));
    values.push_back(random);
  }
  for (const double value : values) {
    char printf_bytes[64];
    std::snprintf(printf_bytes, sizeof(printf_bytes), "%.6g", value);
    std::string appended = "x";
    AppendNumber(value, &appended);
    ASSERT_EQ(appended, std::string("x") + printf_bytes)
        << "bits of the value: " << std::hexfloat << value;
  }
}

}  // namespace
}  // namespace flare
