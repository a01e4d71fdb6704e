// Determinism harness for the multi-cell runtime: the same multi-cell
// scenario must produce byte-identical observability output — BAI trace
// CSV and full metrics JSON — no matter how many worker threads run the
// cell jobs (serial reference included), and repeated serial runs of one
// seed must reproduce themselves exactly. This is the contract
// scenario/multi_cell.h advertises; any scheduling-order,
// FP-reassociation or shared-state leak between cells shows up here as a
// one-character diff.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "obs/bai_trace.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/qoe_analytics.h"
#include "obs/span_trace.h"
#include "obs/watchdog.h"
#include "scenario/multi_cell.h"
#include "util/rng.h"

namespace flare {
namespace {

MultiCellConfig HarnessConfig(int workers) {
  MultiCellConfig multi;
  multi.cell = TestbedPreset(Scheme::kFlare);
  multi.cell.duration_s = 15.0;
  multi.cell.seed = 7;
  // Wall-clock solver timings are the one legitimately nondeterministic
  // output; record them as 0 so the comparison is over everything else.
  multi.cell.oneapi.deterministic_timing = true;
  multi.n_cells = 4;
  multi.workers = workers;
  return multi;
}

/// Churn variant: 8 cells with Poisson arrivals, lognormal holds and
/// capacity-threshold admission, so dynamic session creation/teardown and
/// the batched sweep solver churned cells run are all inside the
/// determinism contract.
MultiCellConfig ChurnHarnessConfig(int workers) {
  MultiCellConfig multi = HarnessConfig(workers);
  multi.n_cells = 8;
  multi.cell.duration_s = 20.0;
  multi.cell.n_video = 2;
  multi.cell.churn.enabled = true;
  multi.cell.churn.arrival_rate_per_s = 0.4;
  multi.cell.churn.mean_hold_s = 8.0;
  multi.cell.churn.data_fraction = 0.2;
  multi.cell.churn.admission.policy = AdmissionPolicy::kCapacityThreshold;
  multi.cell.churn.admission.capacity_threshold = 0.5;
  return multi;
}

struct RunOutput {
  std::string csv;
  std::string json;
  std::string spans;
  std::string health;
  std::string qoe;
  std::string flight;
  MultiCellResult result;
};

RunOutput RunMulti(MultiCellConfig multi) {
  MetricsRegistry registry;
  BaiTraceSink trace;
  SpanTracer spans;
  RunHealthMonitor health;
  QoeAnalytics qoe;
  FlightRecorder flight(64);
  multi.metrics = &registry;
  multi.bai_trace = &trace;
  multi.span_trace = &spans;
  multi.health = &health;
  multi.qoe = &qoe;
  multi.flight = &flight;

  RunOutput out;
  out.result = RunMultiCellScenario(multi);

  std::ostringstream csv;
  trace.WriteCsv(csv);
  out.csv = csv.str();
  std::ostringstream json;
  trace.WriteJson(json, &registry, nullptr, &qoe);
  out.json = json.str();
  // The merged span trace, run-health report, QoE section and flight
  // recorder ring are part of the determinism contract too: with
  // deterministic timing their bytes must not depend on scheduling or
  // worker count.
  std::ostringstream span_json;
  spans.WriteJson(span_json);
  out.spans = span_json.str();
  std::ostringstream health_json;
  health.WriteJson(health_json);
  out.health = health_json.str();
  std::ostringstream qoe_json;
  qoe.WriteJson(qoe_json);
  out.qoe = qoe_json.str();
  std::ostringstream flight_json;
  flight.WriteJson(flight_json);
  out.flight = flight_json.str();
  return out;
}

RunOutput RunOnce(int workers) { return RunMulti(HarnessConfig(workers)); }

TEST(Determinism, SerialRunRepeatsItselfExactly) {
  const RunOutput a = RunOnce(/*workers=*/0);
  const RunOutput b = RunOnce(/*workers=*/0);
  EXPECT_EQ(a.csv, b.csv);
  EXPECT_EQ(a.json, b.json);
  EXPECT_EQ(a.spans, b.spans);
  EXPECT_EQ(a.health, b.health);
  EXPECT_EQ(a.qoe, b.qoe);
  EXPECT_EQ(a.flight, b.flight);
}

TEST(Determinism, ParallelIsBitIdenticalToSerial) {
  const RunOutput serial = RunOnce(/*workers=*/0);
  ASSERT_FALSE(serial.csv.empty());
  ASSERT_FALSE(serial.spans.empty());
  // The QoE engine saw the static sessions (the json already embeds the
  // qoe section, but the standalone export must agree byte-for-byte too).
  ASSERT_NE(serial.qoe.find("\"sessions\""), std::string::npos);
  for (const int workers : {2, 8}) {
    const RunOutput parallel = RunOnce(workers);
    EXPECT_EQ(serial.csv, parallel.csv) << "workers=" << workers;
    EXPECT_EQ(serial.json, parallel.json) << "workers=" << workers;
    EXPECT_EQ(serial.spans, parallel.spans) << "workers=" << workers;
    EXPECT_EQ(serial.health, parallel.health) << "workers=" << workers;
    EXPECT_EQ(serial.qoe, parallel.qoe) << "workers=" << workers;
    EXPECT_EQ(serial.flight, parallel.flight) << "workers=" << workers;
  }
}

TEST(Determinism, ChurnSerialVsParallelBitIdentical) {
  const RunOutput serial = RunMulti(ChurnHarnessConfig(/*workers=*/0));
  ASSERT_FALSE(serial.csv.empty());
  // Churned FLARE cells solve on the batched sweep.
  ASSERT_NE(serial.spans.find("solve.batch_sweep"), std::string::npos);
  // Churn actually ran: every cell's engine saw arrivals.
  std::uint64_t arrived = 0;
  for (const ScenarioResult& cell : serial.result.cells) {
    arrived += cell.sessions_arrived;
  }
  ASSERT_GT(arrived, 0u);
  for (const int workers : {2, 8}) {
    const RunOutput parallel = RunMulti(ChurnHarnessConfig(workers));
    EXPECT_EQ(serial.csv, parallel.csv) << "workers=" << workers;
    EXPECT_EQ(serial.json, parallel.json) << "workers=" << workers;
    EXPECT_EQ(serial.spans, parallel.spans) << "workers=" << workers;
    EXPECT_EQ(serial.health, parallel.health) << "workers=" << workers;
    // The acceptance bar for the QoE engine: byte-identical serial vs
    // parallel(8) under churn, admission verdicts included.
    EXPECT_EQ(serial.qoe, parallel.qoe) << "workers=" << workers;
    EXPECT_EQ(serial.flight, parallel.flight) << "workers=" << workers;
    for (std::size_t c = 0; c < serial.result.cells.size(); ++c) {
      EXPECT_EQ(serial.result.cells[c].sessions_arrived,
                parallel.result.cells[c].sessions_arrived)
          << "workers=" << workers << " cell=" << c;
      EXPECT_EQ(serial.result.cells[c].sessions_blocked,
                parallel.result.cells[c].sessions_blocked)
          << "workers=" << workers << " cell=" << c;
    }
  }
}

TEST(Determinism, CellsAreDifferentiatedBySplitStreams) {
  const RunOutput out = RunOnce(/*workers=*/0);
  // Every cell contributed rows (the trace merge preserved all shards)...
  bool saw_cell[4] = {false, false, false, false};
  std::istringstream in(out.csv);
  std::string line;
  std::getline(in, line);  // header
  ASSERT_NE(line.find("t_s,cell,flow"), std::string::npos);
  while (std::getline(in, line)) {
    const auto first_comma = line.find(',');
    ASSERT_NE(first_comma, std::string::npos);
    const int cell = std::stoi(line.substr(first_comma + 1));
    ASSERT_GE(cell, 0);
    ASSERT_LT(cell, 4);
    saw_cell[cell] = true;
  }
  for (int c = 0; c < 4; ++c) EXPECT_TRUE(saw_cell[c]) << "cell " << c;
  ASSERT_EQ(out.result.cells.size(), 4u);

  // ...and the per-cell Rng streams are genuinely distinct: SplitStream
  // is a pure function of (seed, stream), independent of draw position,
  // and different streams must decorrelate immediately.
  const Rng master(7);
  Rng s0 = master.SplitStream(0);
  Rng s1 = master.SplitStream(1);
  EXPECT_NE(s0.Uniform(), s1.Uniform());
  // Position independence: forking the master first must not change what
  // a split stream yields.
  Rng drained(7);
  drained.Uniform();
  Rng s0_again = drained.SplitStream(0);
  EXPECT_EQ(master.SplitStream(0).Uniform(), s0_again.Uniform());
}

TEST(Determinism, SharedPcrfSeesEveryCellsFlows) {
  const RunOutput out = RunOnce(/*workers=*/2);
  const MultiCellConfig multi = HarnessConfig(2);
  // Testbed preset: 3 FLARE video + 1 data flow per cell, each in its
  // cell's PCRF shard; the core-wide counts sum the shards.
  EXPECT_EQ(out.result.global_video_flows, 4 * multi.cell.n_video);
  EXPECT_EQ(out.result.global_data_flows, 4 * multi.cell.n_data);

  // Under churn the core registry holds, at the horizon, exactly the
  // sessions still attached in every cell: the static clients plus the
  // admitted arrivals that have not departed yet. Pinned per worker count.
  for (const int workers : {0, 2}) {
    const RunOutput churn = RunMulti(ChurnHarnessConfig(workers));
    EXPECT_EQ(churn.result.global_video_flows, 33) << "workers=" << workers;
    EXPECT_EQ(churn.result.global_data_flows, 11) << "workers=" << workers;
  }
}

}  // namespace
}  // namespace flare
