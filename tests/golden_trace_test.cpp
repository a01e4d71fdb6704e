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

#include <charconv>
#include <ostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "golden_util.h"
#include "obs/bai_trace.h"
#include "obs/flight_recorder.h"
#include "obs/qoe_analytics.h"
#include "obs/span_trace.h"
#include "obs/watchdog.h"
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

/// Shortest round-trip text of `v`: two doubles print alike only when
/// they are the same bits.
std::string Exact(double v) {
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

void WriteClients(std::ostream& out, const char* name,
                  const std::vector<ClientMetrics>& clients) {
  out << "# " << name
      << ": avg_bitrate_bps,changes,rebuffer_s,rebuffers,segments,"
         "avg_throughput_bps,qoe\n";
  for (const ClientMetrics& m : clients) {
    out << Exact(m.avg_bitrate_bps) << ',' << m.bitrate_changes << ','
        << Exact(m.rebuffer_time_s) << ',' << m.rebuffer_events << ','
        << m.segments << ',' << Exact(m.avg_throughput_bps) << ','
        << Exact(m.qoe) << '\n';
  }
}

// Every client of a churned cell with all three static kinds (video,
// conventional, data) and both churned kinds (data_fraction > 0), through
// each place a client's life is reported: the PlayerSummary rows in
// emission order, the QoE sessions by id, the result vectors, the churn
// counters, the 1 Hz series and the run-health warnings. Pins how
// sessions are spawned, torn down and harvested, which the BAI trace
// alone does not see.
TEST(GoldenTrace, TestbedChurnSessionLedger) {
  ScenarioConfig config = ChurnFlareConfig();
  config.n_data = 1;
  config.n_conventional = 1;
  config.churn.data_fraction = 0.3;
  // Mixed verdicts with the larger static population.
  config.churn.admission.objective_floor = -0.7;
  config.sample_series = true;
  config.oneapi.deterministic_timing = true;
  BaiTraceSink trace;
  QoeAnalytics qoe;
  RunHealthMonitor health;
  config.bai_trace = &trace;
  config.qoe = &qoe;
  config.health = &health;
  const ScenarioResult result = RunScenario(config);
  ASSERT_GT(result.sessions_blocked, 0u);
  ASSERT_GT(result.sessions_arrived, result.sessions_blocked);
  ASSERT_FALSE(result.churned.empty());

  std::ostringstream out;
  out << "# players: cell,client,flow,avg_bitrate_bps,switches,stalls,"
         "stall_s,qoe,segments\n";
  for (const PlayerSummary& p : trace.players()) {
    out << p.cell << ',' << p.client << ',' << p.flow << ','
        << Exact(p.avg_bitrate_bps) << ',' << p.switches << ',' << p.stalls
        << ',' << Exact(p.stall_s) << ',' << Exact(p.qoe) << ','
        << p.segments << '\n';
  }
  out << "# qoe sessions: id,flow,origin,start_s,ended,end_s,played_s,"
         "segments\n";
  const int n_static =
      config.n_video + config.n_data + config.n_conventional;
  const int n_ids = n_static + static_cast<int>(result.sessions_arrived);
  for (int id = 0; id < n_ids; ++id) {
    const QoeSessionStats* s = qoe.FindSession(0, id);
    if (s == nullptr) continue;
    out << id << ',' << s->flow << ',' << QoeSessionOriginName(s->origin)
        << ',' << Exact(s->start_s) << ',' << s->ended << ','
        << Exact(s->end_s) << ',' << Exact(s->played_s) << ','
        << s->segments << '\n';
  }
  out << "# qoe: admitted,blocked\n"
      << qoe.admitted() << ',' << qoe.blocked() << '\n';
  WriteClients(out, "video", result.video);
  WriteClients(out, "conventional", result.conventional);
  WriteClients(out, "churned", result.churned);
  out << "# data_throughput_bps\n";
  for (const double bps : result.data_throughput_bps) {
    out << Exact(bps) << '\n';
  }
  out << "# averages: video_bitrate_bps,changes,rebuffer_s,jain,"
         "data_throughput_bps,admitted_qoe\n"
      << Exact(result.avg_video_bitrate_bps) << ','
      << Exact(result.avg_bitrate_changes) << ','
      << Exact(result.avg_rebuffer_s) << ','
      << Exact(result.jain_avg_bitrate) << ','
      << Exact(result.avg_data_throughput_bps) << ','
      << Exact(result.avg_admitted_qoe) << '\n';
  out << "# sessions: arrived,departed,blocked,blocking_probability\n"
      << result.sessions_arrived << ',' << result.sessions_departed << ','
      << result.sessions_blocked << ','
      << Exact(result.blocking_probability) << '\n';
  out << "# series: t_s;video_bitrate_bps;video_buffer_s;"
         "data_throughput_bps\n";
  const auto join = [&out](const std::vector<double>& values) {
    for (std::size_t i = 0; i < values.size(); ++i) {
      out << (i == 0 ? "" : " ") << Exact(values[i]);
    }
  };
  for (const SeriesSample& s : result.series) {
    out << Exact(s.t_s) << ';';
    join(s.video_bitrate_bps);
    out << ';';
    join(s.video_buffer_s);
    out << ';';
    join(s.data_throughput_bps);
    out << '\n';
  }
  out << "# health warnings: t_s,cell,kind,flow,client,value,detail\n";
  for (const HealthWarning& w : health.warnings()) {
    out << Exact(w.t_s) << ',' << w.cell << ',' << w.kind << ',' << w.flow
        << ',' << w.client << ',' << Exact(w.value) << ',' << w.detail
        << '\n';
  }
  CheckAgainstGolden("testbed_churn_sessions.txt", out.str());
}

}  // namespace
}  // namespace flare
