// Golden-trace regression harness: short, fully deterministic reference
// scenarios whose BAI trace CSVs are checked in under tests/golden/. A
// fresh run must reproduce the stored bytes exactly; any drift in the
// scheduler, solver, transport or trace formatting fails with a diff-able
// artifact instead of a silent behaviour change.
//
// When a change *intentionally* alters the traces, regenerate with
//   FLARE_REGEN_GOLDEN=1 ./build/tests/golden_trace_test
// and commit the updated CSVs after reviewing the diff (tests/golden_util.h
// holds the check).
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>

#include "golden_util.h"
#include "obs/bai_trace.h"
#include "obs/flight_recorder.h"
#include "obs/qoe_analytics.h"
#include "obs/span_trace.h"
#include "scenario/scenario.h"
#include "util/csv.h"
#include "util/json.h"

namespace flare {
namespace {

/// Run `config` with a trace sink attached and return the trace CSV; the
/// run's result lands in `result` when given.
std::string TraceCsv(ScenarioConfig config,
                     ScenarioResult* result = nullptr) {
  BaiTraceSink trace;
  config.bai_trace = &trace;
  // Golden bytes must not depend on solver wall clock.
  config.oneapi.deterministic_timing = true;
  ScenarioResult run = RunScenario(config);
  if (result != nullptr) *result = std::move(run);
  std::ostringstream out;
  trace.WriteCsv(out);
  return out.str();
}

// Figure 6 shape: the static testbed scenario, FLARE scheme — 3 FLARE
// players + 1 greedy data flow on the two-phase GBR scheduler, shortened
// to 30 s (enough BAIs to cover ramp-up, hysteresis adoption and steady
// state).
TEST(GoldenTrace, TestbedStaticFlare) {
  ScenarioConfig config = TestbedPreset(Scheme::kFlare);
  config.duration_s = 30.0;
  config.seed = 1;
  CheckAgainstGolden("fig6_testbed_flare.csv", TraceCsv(config));
}

// Figure 10 shape: coexistence — FLARE players sharing the cell with
// conventional (FESTIVE) players serviced as plain data traffic.
TEST(GoldenTrace, TestbedCoexistenceConventional) {
  ScenarioConfig config = TestbedPreset(Scheme::kFlare);
  config.duration_s = 30.0;
  config.seed = 1;
  config.n_conventional = 2;
  CheckAgainstGolden("fig10_coexistence.csv", TraceCsv(config));
}

// The relaxed-solver variant exercises the continuous-relaxation path
// (Figure 8's subject) through the same golden mechanism. A richer cell
// than the default testbed knob: at iTbs 6 the cell pins every flow at
// the floor rung and the two solvers coincide; at iTbs 15 the rungs climb
// and the relaxation's round-down behaviour is actually on the record.
TEST(GoldenTrace, TestbedStaticFlareRelaxed) {
  ScenarioConfig config = TestbedPreset(Scheme::kFlareRelaxed);
  config.duration_s = 30.0;
  config.seed = 1;
  config.static_itbs = 15;
  CheckAgainstGolden("fig8_testbed_flare_relaxed.csv", TraceCsv(config));
}

// Figure 7 shape: the ns-3-style mobile cell — 8 vehicular UEs on
// FadedMobilityChannel under the Priority Set Scheduler. The testbed
// goldens above run static channels only; this one pins the mobility
// channel, PSS and the cell's per-UE iTbs handling.
TEST(GoldenTrace, SimMobileFlare) {
  ScenarioConfig config = SimMobilePreset(Scheme::kFlare);
  config.duration_s = 60.0;
  config.seed = 1;
  CheckAgainstGolden("fig7_mobile_flare.csv", TraceCsv(config));
}

// Figure 6 shape: the ns-3-style static cell — 8 UEs placed once in the
// annulus around the eNB, each on FadedMobilityChannel over a
// StaticMobility, so only the fading trace moves the iTbs.
TEST(GoldenTrace, SimStaticFlare) {
  ScenarioConfig config = SimStaticPreset(Scheme::kFlare);
  config.duration_s = 60.0;
  config.seed = 1;
  CheckAgainstGolden("fig6_sim_static_flare.csv", TraceCsv(config));
}

// The mobile cell on the steep 3GPP macro pathloss instead of Friis: the
// SINR spread crosses many CQI bands, near UEs reach the min-distance
// clamp's neighbourhood and far ones sit in the unbounded CQI 1 band.
TEST(GoldenTrace, SimMobileFlareMacro) {
  ScenarioConfig config = SimMobilePreset(Scheme::kFlare);
  config.duration_s = 60.0;
  config.seed = 1;
  config.radio.pathloss = PathlossModel::kMacro3gpp;
  CheckAgainstGolden("fig7_mobile_flare_macro.csv", TraceCsv(config));
}

// The mobile cell with two greedy data flows and a 10% transport-block
// error rate: data flows keep PSS's proportional-fair pass busy and the
// BLER draws consume the cell's RNG between grants.
TEST(GoldenTrace, SimMobileFlareDataBler) {
  ScenarioConfig config = SimMobilePreset(Scheme::kFlare);
  config.duration_s = 60.0;
  config.seed = 1;
  config.n_data = 2;
  config.target_bler = 0.1;
  CheckAgainstGolden("fig7_mobile_flare_data_bler.csv", TraceCsv(config));
}

/// The churned testbed cell of TestbedChurnFlare: utility-drop admission
/// with a floor that both admits and blocks arrivals.
ScenarioConfig ChurnFlareConfig() {
  ScenarioConfig config = TestbedPreset(Scheme::kFlare);
  config.duration_s = 40.0;
  config.seed = 1;
  config.n_video = 2;
  config.churn.enabled = true;
  config.churn.arrival_rate_per_s = 1.0;
  config.churn.mean_hold_s = 30.0;
  config.churn.admission.policy = AdmissionPolicy::kUtilityDrop;
  config.churn.admission.objective_floor = -0.3;
  return config;
}

// The testbed cell under session churn with utility-drop admission, on
// the default solver wiring for churned FLARE cells. The objective floor
// sits where admission verdicts are mixed: the cell admits arrivals while
// its solved objective stays above the floor and blocks them at the load
// peaks, so both the per-BAI solves and the connect-time admission solves
// are on the record (a blocked arrival never appears in the trace).
TEST(GoldenTrace, TestbedChurnFlare) {
  ScenarioResult result;
  const std::string csv = TraceCsv(ChurnFlareConfig(), &result);
  EXPECT_GT(result.sessions_blocked, 0u);
  EXPECT_GT(result.sessions_arrived, result.sessions_blocked);
  EXPECT_FALSE(result.churned.empty());  // admitted video arrivals
  CheckAgainstGolden("testbed_churn_flare.csv", csv);
}

// The decision sinks other than the BAI trace, on the same churned cell:
// the OneAPI span and instants (BAI spans, rung changes, GBR pushes,
// admission rejects), every flight-recorder event, and the QoE engine's
// rung-change causes and admission counts. Together with
// testbed_churn_flare.csv this pins every byte the server's admission and
// BAI decisions write into the four sinks.
TEST(GoldenTrace, TestbedChurnFlareDecisionSinks) {
  ScenarioConfig config = ChurnFlareConfig();
  config.oneapi.deterministic_timing = true;
  SpanTracer spans;
  // Large enough that the ring never wraps in this run.
  FlightRecorder flight(1 << 16);
  QoeAnalytics qoe;
  config.span_trace = &spans;
  config.flight = &flight;
  config.qoe = &qoe;
  const ScenarioResult result = RunScenario(config);
  ASSERT_GT(result.sessions_blocked, 0u);
  ASSERT_GT(result.sessions_arrived, result.sessions_blocked);
  ASSERT_EQ(flight.dropped(), 0u);

  std::ostringstream out;
  out << "# span events: ph,ts_us,cat,name,args\n";
  for (const TraceEvent& e : spans.events()) {
    const std::string cat = e.cat;
    const std::string name = e.name;
    if (cat != "oneapi" && cat != "decision" && name != "admission_reject") {
      continue;
    }
    out << e.ph << ',' << FormatNumber(e.ts_us) << ',' << cat << ','
        << name << ',' << e.args << '\n';
  }
  out << "# flight events: t_s,cell,seq,kind,flow,client,value,args\n";
  for (const FlightEvent& e : flight.RecentEvents()) {
    out << FormatNumber(e.t_s) << ',' << e.cell << ',' << e.seq << ','
        << e.kind << ',' << e.flow << ',' << e.client << ','
        << FormatNumber(e.value) << ',' << e.args << '\n';
  }
  out << "# qoe: admitted,blocked\n"
      << qoe.admitted() << ',' << qoe.blocked() << '\n';
  out << "# qoe rung_change_causes: cause,count\n";
  std::ostringstream qoe_json;
  qoe.WriteJson(qoe_json);
  JsonValue doc;
  ASSERT_TRUE(ParseJson(qoe_json.str(), &doc));
  const JsonValue* causes = doc.FindPath({"summary", "rung_change_causes"});
  ASSERT_NE(causes, nullptr);
  for (const auto& [cause, count] : causes->members()) {
    out << cause << ',' << FormatNumber(count.AsNumber()) << '\n';
  }
  CheckAgainstGolden("testbed_churn_flare_decision_sinks.txt", out.str());
}

}  // namespace
}  // namespace flare
