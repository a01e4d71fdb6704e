// scenario_runner — config-driven experiment CLI.
//
// Assemble any scenario the library supports from key=value arguments,
// without writing code:
//
//   ./build/examples/scenario_runner scheme=flare channel=mobile
//       n_video=8 n_data=2 duration_s=600 seed=3 alpha=2 delta=6
//       bler=0.1 vbr_sigma=0.2 series_csv=run.csv
//   (one line; wrapped here for readability)
//
// Run with --help for the full key list. Unknown keys are rejected (exit
// 1) so a typo cannot silently run the default experiment.
#include <algorithm>
#include <cstdio>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/bai_trace.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/qoe_analytics.h"
#include "obs/span_trace.h"
#include "obs/telemetry_server.h"
#include "obs/watchdog.h"
#include "scenario/multi_cell.h"
#include "scenario/scenario.h"
#include "util/config.h"
#include "util/csv.h"

namespace {

using namespace flare;

// Every key=value knob the runner understands; Config::Keys() is checked
// against this so misspelled knobs fail loudly instead of being ignored.
const char* const kKnownKeys[] = {
    "admission",     "alpha",
    "arrival_process", "arrival_rate",
    "bai_s",         "bai_trace_csv",
    "bler",          "capacity_threshold",
    "cells",         "channel",
    "churn",         "client_caps",
    "client_theta_mbps", "data_fraction",
    "delta",         "duration_s",
    "fail_on_unhealthy", "flight_recorder",
    "hold_process",  "ladder",
    "lognormal_sigma", "max_arrivals",
    "mean_hold_s",   "metrics_json",
    "n_conventional", "n_data",
    "n_video",       "num_rbs",
    "objective_floor", "parallel",
    "postmortem_json", "qoe_csv",
    "runs",          "scheme",
    "seed",          "segment_s",
    "series_csv",    "solver",
    "static_itbs",   "telemetry_interval_ms",
    "telemetry_port", "testbed",
    "trace_json",    "vbr_sigma",
};

// Knobs that only make sense when churn=1; passing any of them with churn
// disabled is rejected so a typo can't silently configure a dead subsystem.
const char* const kChurnOnlyKeys[] = {
    "admission",       "arrival_process", "arrival_rate",
    "capacity_threshold", "data_fraction", "hold_process",
    "lognormal_sigma", "max_arrivals",    "mean_hold_s",
    "objective_floor",
};

void PrintUsage(std::FILE* out) {
  std::fprintf(out, R"(usage: scenario_runner [key=value ...]

Assemble any scenario the library supports from key=value arguments.
Example:
  scenario_runner scheme=flare channel=mobile n_video=8 n_data=2
      duration_s=600 seed=3 alpha=2 delta=6 bler=0.1 series_csv=run.csv

Experiment keys:
  scheme=NAME        flare | flare-relaxed | festive | google | avis |
                     flare-network-only  (flare)
  channel=NAME       static-itbs | triangle | placed | mobile (static-itbs)
  duration_s=SECS    run length (preset default)
  seed=N             RNG seed; runs>1 uses seed, seed+1, ... (1)
  runs=N             independent seeds, results averaged; observers and
                     exports cover the first run only (1)
  n_video=N n_data=N n_conventional=N   client mix (preset default)
  testbed=0|1        testbed vs ns-3 scheduler wiring (per channel)
Cell / radio keys:
  num_rbs=N static_itbs=N bler=F        MAC knobs (preset default)
  cells=N            replicate across N eNodeBs, sharded runtime (1)
  parallel=N         worker threads for cells>1; 0 = serial, results
                     are bit-identical either way (0)
Video keys:
  segment_s=F ladder=K1,K2,... vbr_sigma=F
  client_theta_mbps=F,F,...   screen sizes disclosed to the server
  client_caps=N,N,...         per-client rung caps, -1 = none
Control-loop keys:
  alpha=F delta=N bai_s=F     FLARE optimizer / BAI knobs
  solver=NAME        auto | greedy | continuous | batched; auto follows
                     the scheme/churn wiring: greedy for flare, continuous
                     for flare-relaxed, batched (the exact sweep) for
                     flare under churn (auto)
Churn keys (all except churn= require churn=1):
  churn=0|1          session arrivals/departures on top of the static
                     population (0)
  arrival_rate=F     session arrivals per second per cell (0.2)
  arrival_process=NAME  poisson | lognormal inter-arrivals (poisson)
  mean_hold_s=F      mean session holding time (30)
  hold_process=NAME  poisson | lognormal holding times (lognormal)
  lognormal_sigma=F  shape of the lognormal draws (1)
  data_fraction=F    fraction of arrivals that are data sessions (0)
  max_arrivals=N     hard cap on arrivals per cell; 0 = unbounded (0)
  admission=NAME     admit-all | capacity-threshold | utility-drop
                     (admit-all; FLARE schemes only)
  capacity_threshold=F highest admitted floor-rung RB fraction for
                     capacity-threshold (0.9)
  objective_floor=F  lowest acceptable solved objective for utility-drop
                     (default: reject only infeasible arrivals)
Output keys:
  series_csv=PATH    1 Hz per-client bitrate/buffer series (first run)
  metrics_json=PATH  counters/histograms (p50/p95/p99) + per-BAI trace +
                     per-player summaries + run_health + qoe (first run)
  bai_trace_csv=PATH per-flow per-BAI decision rows as CSV (first run)
  qoe_csv=PATH       per-session QoE rows (bitrate, switches, stalls,
                     startup delay, QoE score) as CSV (first run)
  trace_json=PATH    causal span trace, Chrome trace-event JSON; open in
                     https://ui.perfetto.dev (first run)
  flight_recorder=N  keep the last N structured events per cell in a
                     black-box ring buffer (0 = off; default capacity
                     512 when postmortem_json is set)
  postmortem_json=PATH dump the flight recorder here on the first
                     watchdog alarm, on a fail_on_unhealthy exit, or on
                     a fatal signal
  fail_on_unhealthy=0|1  exit 2 if run-health watchdogs fired (0)
Live telemetry keys:
  telemetry_port=N   serve GET /metrics (OpenMetrics), /healthz (JSON)
                     and /events (NDJSON tail) on 127.0.0.1:N while the
                     run executes; 0 picks an ephemeral port (printed).
                     Attaches metrics/QoE/health/flight observers
                     automatically; run bytes stay identical to a
                     telemetry-off run (off)
  telemetry_interval_ms=F  wall-clock publish period (1000)
)");
}

bool KnownKey(const std::string& key) {
  return std::find_if(std::begin(kKnownKeys), std::end(kKnownKeys),
                      [&key](const char* known) { return key == known; }) !=
         std::end(kKnownKeys);
}

/// Span-trace export, run-health verdict, and black-box dump, shared by
/// the single- and multi-cell paths. Returns the process exit code.
int FinishObservability(const std::optional<std::string>& trace_json,
                        const SpanTracer& spans, bool fail_on_unhealthy,
                        const RunHealthMonitor& health,
                        const FlightRecorder* flight,
                        const std::optional<std::string>& postmortem_json) {
  if (trace_json) {
    if (spans.ExportJson(*trace_json)) {
      std::printf("span trace written to %s (open in ui.perfetto.dev)\n",
                  trace_json->c_str());
    } else {
      std::fprintf(stderr, "cannot write %s\n", trace_json->c_str());
      return 1;
    }
  }
  const bool unhealthy_abort = fail_on_unhealthy && !health.healthy();
  if (postmortem_json && flight != nullptr &&
      (flight->triggered() || unhealthy_abort)) {
    const std::string reason = flight->triggered()
                                   ? flight->trigger_reason()
                                   : "fail_on_unhealthy";
    if (flight->DumpPostmortem(*postmortem_json, reason)) {
      std::printf("flight-recorder postmortem (%s) written to %s\n",
                  reason.c_str(), postmortem_json->c_str());
    } else {
      std::fprintf(stderr, "cannot write %s\n", postmortem_json->c_str());
      return 1;
    }
  }
  if (unhealthy_abort) {
    for (const HealthWarning& w : health.warnings()) {
      std::fprintf(stderr, "health: t=%.1f s cell %d %s: %s\n", w.t_s,
                   w.cell, w.kind.c_str(), w.detail.c_str());
    }
    std::fprintf(stderr, "run unhealthy: %zu warning(s)\n",
                 health.warnings().size());
    return 2;
  }
  return 0;
}

std::optional<Scheme> ParseScheme(const std::string& name) {
  if (name == "flare") return Scheme::kFlare;
  if (name == "flare-relaxed") return Scheme::kFlareRelaxed;
  if (name == "festive") return Scheme::kFestive;
  if (name == "google") return Scheme::kGoogle;
  if (name == "avis") return Scheme::kAvis;
  if (name == "flare-network-only") return Scheme::kFlareNetworkOnly;
  return std::nullopt;
}

std::optional<ChannelKind> ParseChannel(const std::string& name) {
  if (name == "static-itbs") return ChannelKind::kStaticItbs;
  if (name == "triangle") return ChannelKind::kItbsTriangle;
  if (name == "placed") return ChannelKind::kPlacedStatic;
  if (name == "mobile") return ChannelKind::kMobile;
  return std::nullopt;
}

std::vector<double> ParseLadder(const std::string& text) {
  std::vector<double> ladder;
  std::istringstream in(text);
  std::string token;
  while (std::getline(in, token, ',')) {
    ladder.push_back(std::strtod(token.c_str(), nullptr));
  }
  return ladder;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string token = argv[i];
    if (token == "--help" || token == "-h" || token == "help") {
      PrintUsage(stdout);
      return 0;
    }
    if (token.find('=') == std::string::npos || token.front() == '=') {
      std::fprintf(stderr, "scenario_runner: not a key=value argument: "
                   "'%s'\n\n", token.c_str());
      PrintUsage(stderr);
      return 1;
    }
  }
  const Config args = Config::FromArgs(argc, argv);
  for (const std::string& key : args.Keys()) {
    if (!KnownKey(key)) {
      std::fprintf(stderr, "scenario_runner: unknown key '%s'\n\n",
                   key.c_str());
      PrintUsage(stderr);
      return 1;
    }
  }

  const std::string scheme_name =
      args.GetString("scheme").value_or("flare");
  const auto scheme = ParseScheme(scheme_name);
  if (!scheme) {
    std::fprintf(stderr, "unknown scheme '%s'\n", scheme_name.c_str());
    return 1;
  }
  const std::string channel_name =
      args.GetString("channel").value_or("static-itbs");
  const auto channel = ParseChannel(channel_name);
  if (!channel) {
    std::fprintf(stderr, "unknown channel '%s'\n", channel_name.c_str());
    return 1;
  }

  const bool sim_style = *channel == ChannelKind::kPlacedStatic ||
                         *channel == ChannelKind::kMobile;
  ScenarioConfig config = sim_style
                              ? SimStaticPreset(*scheme)
                              : TestbedPreset(*scheme);
  config.channel = *channel;
  config.testbed = args.GetBool("testbed", !sim_style);
  config.duration_s = args.GetDouble("duration_s", config.duration_s);
  config.seed = static_cast<std::uint64_t>(args.GetInt("seed", 1));
  config.n_video = args.GetInt("n_video", config.n_video);
  config.n_data = args.GetInt("n_data", config.n_data);
  config.n_conventional = args.GetInt("n_conventional", 0);
  config.num_rbs = args.GetInt("num_rbs", config.num_rbs);
  config.static_itbs = args.GetInt("static_itbs", config.static_itbs);
  config.segment_duration_s =
      args.GetDouble("segment_s", config.segment_duration_s);
  config.target_bler = args.GetDouble("bler", 0.0);
  config.vbr_sigma = args.GetDouble("vbr_sigma", 0.0);
  config.oneapi.params.alpha =
      args.GetDouble("alpha", config.oneapi.params.alpha);
  config.oneapi.params.delta =
      args.GetInt("delta", config.oneapi.params.delta);
  config.oneapi.bai = FromSeconds(
      args.GetDouble("bai_s", ToSeconds(config.oneapi.bai)));
  if (const auto solver = args.GetString("solver")) {
    if (*solver == "greedy") {
      config.solver_override = SolverMode::kGreedyDiscrete;
    } else if (*solver == "continuous") {
      config.solver_override = SolverMode::kContinuousRelaxation;
    } else if (*solver == "batched") {
      config.solver_override = SolverMode::kBatchedSweep;
    } else if (*solver != "auto") {
      std::fprintf(stderr,
                   "scenario_runner: unknown solver '%s' (expected auto | "
                   "greedy | continuous | batched)\n",
                   solver->c_str());
      return 1;
    }
  }
  if (const auto ladder = args.GetString("ladder")) {
    config.ladder_kbps = ParseLadder(*ladder);
  }
  if (const auto thetas = args.GetString("client_theta_mbps")) {
    for (double mbps : ParseLadder(*thetas)) {
      config.client_theta_bps.push_back(mbps * 1e6);
    }
  }
  if (const auto caps = args.GetString("client_caps")) {
    for (double cap : ParseLadder(*caps)) {
      config.client_max_level.push_back(static_cast<int>(cap));
    }
  }
  config.churn.enabled = args.GetBool("churn", false);
  if (!config.churn.enabled) {
    const std::vector<std::string> keys = args.Keys();
    for (const char* churn_key : kChurnOnlyKeys) {
      if (std::find(keys.begin(), keys.end(), churn_key) != keys.end()) {
        std::fprintf(stderr,
                     "scenario_runner: '%s=' requires churn=1 (churn is "
                     "disabled, so the knob would be silently ignored)\n",
                     churn_key);
        return 1;
      }
    }
  }
  config.churn.arrival_rate_per_s =
      args.GetDouble("arrival_rate", config.churn.arrival_rate_per_s);
  config.churn.mean_hold_s =
      args.GetDouble("mean_hold_s", config.churn.mean_hold_s);
  if (const auto process_name = args.GetString("arrival_process")) {
    const auto process = ParseChurnProcess(*process_name);
    if (!process) {
      std::fprintf(stderr, "unknown arrival process '%s'\n",
                   process_name->c_str());
      return 1;
    }
    config.churn.arrival_process = *process;
  }
  if (const auto process_name = args.GetString("hold_process")) {
    const auto process = ParseChurnProcess(*process_name);
    if (!process) {
      std::fprintf(stderr, "unknown hold process '%s'\n",
                   process_name->c_str());
      return 1;
    }
    config.churn.hold_process = *process;
  }
  config.churn.lognormal_sigma =
      args.GetDouble("lognormal_sigma", config.churn.lognormal_sigma);
  config.churn.data_fraction =
      args.GetDouble("data_fraction", config.churn.data_fraction);
  config.churn.max_arrivals = static_cast<std::uint64_t>(
      args.GetInt("max_arrivals",
                  static_cast<int>(config.churn.max_arrivals)));
  if (const auto admission_name = args.GetString("admission")) {
    const auto policy = ParseAdmissionPolicy(*admission_name);
    if (!policy) {
      std::fprintf(stderr, "unknown admission policy '%s'\n",
                   admission_name->c_str());
      return 1;
    }
    config.churn.admission.policy = *policy;
  }
  config.churn.admission.capacity_threshold = args.GetDouble(
      "capacity_threshold", config.churn.admission.capacity_threshold);
  config.churn.admission.objective_floor = args.GetDouble(
      "objective_floor", config.churn.admission.objective_floor);
  const auto series_csv = args.GetString("series_csv");
  config.sample_series = series_csv.has_value();
  const int runs = args.GetInt("runs", 1);
  const int cells = args.GetInt("cells", 1);
  const int workers = args.GetInt("parallel", 0);
  // Results are bit-identical either way, but oversubscribed workers can
  // only add scheduling overhead — say so instead of letting a user read
  // the wall clock as a parallelism measurement.
  const unsigned hw_threads =
      std::max(1u, std::thread::hardware_concurrency());
  if (workers > static_cast<int>(hw_threads)) {
    std::fprintf(stderr,
                 "warning: parallel=%d exceeds the %u hardware thread(s) "
                 "on this machine; expect overhead, not speedup\n",
                 workers, hw_threads);
  }

  // Observability: attach a registry/trace sink only when an export path
  // was requested, so the default run keeps the zero-cost disabled path.
  const auto metrics_json = args.GetString("metrics_json");
  const auto bai_trace_csv = args.GetString("bai_trace_csv");
  const auto trace_json = args.GetString("trace_json");
  const auto qoe_csv = args.GetString("qoe_csv");
  const auto postmortem_json = args.GetString("postmortem_json");
  const int flight_capacity = args.GetInt("flight_recorder", 0);
  const bool fail_on_unhealthy = args.GetBool("fail_on_unhealthy", false);
  MetricsRegistry registry;
  BaiTraceSink trace;
  SpanTracer spans;
  RunHealthMonitor health;
  QoeAnalytics qoe;
  FlightRecorder flight(flight_capacity > 0
                            ? static_cast<std::size_t>(flight_capacity)
                            : FlightRecorder::kDefaultCapacity);
  // Live telemetry plane: telemetry_port= starts the background scrape
  // server and implies the observers it serves from (registry, QoE,
  // health, flight), even without end-of-run export paths.
  const auto telemetry_port = args.GetString("telemetry_port");
  TelemetryServer::Options telemetry_opts;
  telemetry_opts.port =
      static_cast<std::uint16_t>(args.GetInt("telemetry_port", 0));
  TelemetryServer telemetry_server(telemetry_opts);
  const bool telemetry = telemetry_port.has_value();
  if (telemetry) {
    if (!telemetry_server.Start()) {
      std::fprintf(stderr, "scenario_runner: cannot bind telemetry port "
                   "%s\n", telemetry_port->c_str());
      return 1;
    }
    config.telemetry = &telemetry_server;
    config.telemetry_interval_ms =
        args.GetDouble("telemetry_interval_ms", 1000.0);
    std::printf("telemetry: http://127.0.0.1:%u  "
                "(/metrics /healthz /events)\n",
                static_cast<unsigned>(telemetry_server.port()));
  }
  if (metrics_json || bai_trace_csv) {
    config.metrics = &registry;
    config.bai_trace = &trace;
  }
  if (telemetry && !config.metrics) config.metrics = &registry;
  if (trace_json) config.span_trace = &spans;
  if (trace_json || metrics_json || fail_on_unhealthy || postmortem_json ||
      telemetry) {
    config.health = &health;
  }
  if (metrics_json || qoe_csv || telemetry) config.qoe = &qoe;
  if (flight_capacity > 0 || postmortem_json || telemetry) {
    config.flight = &flight;
  }
  if (postmortem_json) {
    // Fatal signals (SIGSEGV/SIGABRT/SIGFPE) dump the black box before
    // re-raising, so even a crash leaves the last events on disk.
    InstallFatalSignalPostmortem(&flight, *postmortem_json);
  }

  std::printf("scenario_runner: %s on %s, %d video / %d data / %d "
              "conventional, %.0f s x %d run(s)\n\n",
              SchemeName(*scheme), channel_name.c_str(), config.n_video,
              config.n_data, config.n_conventional, config.duration_s,
              runs);

  if (cells > 1) {
    // Sharded multi-cell run: one event domain per cell, shared PCRF
    // synced at BAI barriers. Same counts/seed in every cell.
    MultiCellConfig multi;
    multi.cell = config;
    multi.cell.sample_series = false;  // per-cell series not exported here
    multi.n_cells = cells;
    multi.workers = workers;
    multi.metrics = config.metrics;
    multi.bai_trace = config.bai_trace;
    multi.span_trace = config.span_trace;
    multi.health = config.health;
    multi.qoe = config.qoe;
    multi.flight = config.flight;
    multi.telemetry = config.telemetry;
    multi.telemetry_interval_ms = config.telemetry_interval_ms;
    multi.cell.telemetry = nullptr;  // published from the barrier hook
    const MultiCellResult result = RunMultiCellScenario(multi);

    for (int c = 0; c < cells; ++c) {
      const ScenarioResult& r = result.cells[static_cast<std::size_t>(c)];
      std::printf("cell %d: video %7.0f Kbps, changes %5.1f, rebuffer "
                  "%6.1f s, Jain %5.3f\n",
                  c, r.avg_video_bitrate_bps / 1000.0,
                  r.avg_bitrate_changes, r.avg_rebuffer_s,
                  r.jain_avg_bitrate);
    }
    std::printf("\nshared PCRF: %d video / %d data flows; %llu epochs, "
                "%llu mailbox messages, %.1f ms wall (%d workers)\n",
                result.global_video_flows, result.global_data_flows,
                static_cast<unsigned long long>(result.barrier_epochs),
                static_cast<unsigned long long>(result.mailbox_messages),
                result.wall_ms, workers);

    if (metrics_json) {
      if (trace.ExportJson(*metrics_json, &registry, config.health,
                           config.qoe)) {
        std::printf("metrics written to %s\n", metrics_json->c_str());
      } else {
        std::fprintf(stderr, "cannot write %s\n", metrics_json->c_str());
        return 1;
      }
    }
    if (bai_trace_csv) {
      if (trace.ExportCsv(*bai_trace_csv)) {
        std::printf("BAI trace written to %s\n", bai_trace_csv->c_str());
      } else {
        std::fprintf(stderr, "cannot write %s\n", bai_trace_csv->c_str());
        return 1;
      }
    }
    if (qoe_csv) {
      if (qoe.ExportCsv(*qoe_csv)) {
        std::printf("QoE sessions written to %s\n", qoe_csv->c_str());
      } else {
        std::fprintf(stderr, "cannot write %s\n", qoe_csv->c_str());
        return 1;
      }
    }
    return FinishObservability(trace_json, spans, fail_on_unhealthy,
                               health, config.flight, postmortem_json);
  }

  double rate = 0.0;
  double changes = 0.0;
  double rebuffer = 0.0;
  double jain = 0.0;
  double data = 0.0;
  // Observe only the first run: repeated seeds would interleave trace
  // rows and reuse its QoE session ids.
  std::vector<ScenarioResult> results;
  results.push_back(RunScenario(config));
  if (runs > 1) {
    ScenarioConfig rest = WithoutObservers(config);
    rest.seed = config.seed + 1;
    for (const ScenarioResult& r : RunMany(rest, runs - 1)) {
      results.push_back(r);
    }
  }
  for (const ScenarioResult& r : results) {
    rate += r.avg_video_bitrate_bps / 1000.0;
    changes += r.avg_bitrate_changes;
    rebuffer += r.avg_rebuffer_s;
    jain += r.jain_avg_bitrate;
    data += r.avg_data_throughput_bps / 1000.0;
  }
  const double n = static_cast<double>(results.size());
  std::printf("avg video bitrate : %8.0f Kbps\n", rate / n);
  std::printf("avg bitrate changes:%8.1f\n", changes / n);
  std::printf("avg rebuffering   : %8.1f s\n", rebuffer / n);
  std::printf("Jain fairness     : %8.3f\n", jain / n);
  if (config.n_data > 0) {
    std::printf("avg data throughput:%8.0f Kbps\n", data / n);
  }
  if (config.churn.enabled) {
    // Churn stats of the first run (counts do not average meaningfully).
    const ScenarioResult& r = results.front();
    std::printf("sessions          : %llu arrived, %llu departed, "
                "%llu blocked (P(block) %.3f)\n",
                static_cast<unsigned long long>(r.sessions_arrived),
                static_cast<unsigned long long>(r.sessions_departed),
                static_cast<unsigned long long>(r.sessions_blocked),
                r.blocking_probability);
    std::printf("admitted QoE      : %8.2f over %zu session(s)\n",
                r.avg_admitted_qoe, r.churned.size());
  }

  if (series_csv) {
    CsvWriter csv(*series_csv, {"t_s", "client", "bitrate_kbps",
                                "buffer_s"});
    for (const SeriesSample& s : results.front().series) {
      for (std::size_t c = 0; c < s.video_bitrate_bps.size(); ++c) {
        csv.Row({s.t_s, static_cast<double>(c),
                 s.video_bitrate_bps[c] / 1000.0, s.video_buffer_s[c]});
      }
    }
    std::printf("\nseries written to %s\n", series_csv->c_str());
  }
  if (metrics_json) {
    if (trace.ExportJson(*metrics_json, &registry, config.health,
                         config.qoe)) {
      std::printf("metrics written to %s\n", metrics_json->c_str());
    } else {
      std::fprintf(stderr, "cannot write %s\n", metrics_json->c_str());
      return 1;
    }
  }
  if (bai_trace_csv) {
    if (trace.ExportCsv(*bai_trace_csv)) {
      std::printf("BAI trace written to %s\n", bai_trace_csv->c_str());
    } else {
      std::fprintf(stderr, "cannot write %s\n", bai_trace_csv->c_str());
      return 1;
    }
  }
  if (qoe_csv) {
    if (qoe.ExportCsv(*qoe_csv)) {
      std::printf("QoE sessions written to %s\n", qoe_csv->c_str());
    } else {
      std::fprintf(stderr, "cannot write %s\n", qoe_csv->c_str());
      return 1;
    }
  }
  return FinishObservability(trace_json, spans, fail_on_unhealthy, health,
                             config.flight, postmortem_json);
}
