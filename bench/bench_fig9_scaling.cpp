// Figure 9: CDFs of the bitrate-selection computation time with 32, 64
// and 128 video clients in a cell.
//
// Mirrors the paper's measurement: the OneAPI server's per-BAI solve is
// timed on live optimizer state. We drive the FlareRateController
// directly with randomized bits-per-RB observations (as the cell would
// feed it), collecting thousands of solves per population size, for both
// the continuous relaxation (the scalable path the experiment is about)
// and the greedy discrete solver for contrast.
//
// Paper headline: computation time grows with the number of clients but
// stays far below a segment duration (<= ~12 ms at 128 clients).
#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "core/rate_controller.h"
#include "has/mpd.h"
#include "obs/metrics.h"
#include "obs/span_trace.h"
#include "obs/telemetry_server.h"
#include "scenario/experiment.h"
#include "scenario/multi_cell.h"
#include "util/config.h"
#include "util/csv.h"
#include "util/rng.h"
#include "util/stats.h"

namespace flare {
namespace {

std::vector<double> LadderBps() {
  std::vector<double> bps;
  for (double kbps : DenseLadderKbps()) bps.push_back(kbps * 1000.0);
  return bps;
}

Cdf MeasureSolveTimes(int n_clients, int n_bais, SolverMode mode, Rng& rng,
                      HistogramHandle solve_ms_metric = {}) {
  FlareParams params;
  params.solver = mode;
  FlareRateController controller(params);
  for (FlowId id = 1; id <= static_cast<FlowId>(n_clients); ++id) {
    controller.AddFlow(id, LadderBps());
  }

  // Per-flow random-walk channel efficiencies, as a live cell would show.
  std::vector<double> bits_per_rb(static_cast<std::size_t>(n_clients));
  for (double& e : bits_per_rb) e = rng.Uniform(100.0, 600.0);

  Cdf times_ms;
  // Keep the per-client RB budget constant across population sizes so the
  // solvers do representative work (a saturated cell pins every flow at
  // the floor and the solve trivially short-circuits).
  const double rb_rate = 3'125.0 * n_clients;
  for (int bai = 0; bai < n_bais; ++bai) {
    std::vector<FlowObservation> observations;
    observations.reserve(static_cast<std::size_t>(n_clients));
    for (int i = 0; i < n_clients; ++i) {
      auto& e = bits_per_rb[static_cast<std::size_t>(i)];
      e = std::clamp(e * rng.Uniform(0.95, 1.05), 16.0, 712.0);
      FlowObservation obs;
      obs.id = static_cast<FlowId>(i + 1);
      obs.bits_per_rb = e;
      observations.push_back(obs);
    }
    const BaiDecision decision =
        controller.DecideBai(observations, /*n_data_flows=*/2, rb_rate);
    const double ms =
        static_cast<double>(decision.solve_time.count()) / 1e6;
    times_ms.Add(ms);
    solve_ms_metric.Observe(ms);
  }
  return times_ms;
}

int Main(int argc, char** argv) {
  const BenchScale scale = ScaleFromEnv(2000, 0.0, argc, argv);
  const int n_bais = scale.runs;  // solves per population size
  // Optional live telemetry for the instrumented multi-cell run below
  // (telemetry_port=N key; 0 = ephemeral). The bare timing reps stay
  // uninstrumented either way.
  const Config args =
      argv != nullptr ? Config::FromArgs(argc, argv) : Config{};
  const bool telemetry = args.GetString("telemetry_port").has_value();
  TelemetryServer::Options telemetry_opts;
  telemetry_opts.port =
      static_cast<std::uint16_t>(args.GetInt("telemetry_port", 0));
  TelemetryServer telemetry_server(telemetry_opts);
  if (telemetry) {
    if (!telemetry_server.Start()) {
      std::fprintf(stderr, "bench_fig9: cannot bind telemetry port %d\n",
                   args.GetInt("telemetry_port", 0));
      return 1;
    }
    std::printf("telemetry: http://127.0.0.1:%u (instrumented multi-cell "
                "runs)\n",
                static_cast<unsigned>(telemetry_server.port()));
  }
  std::printf(
      "=== Figure 9: bitrate-selection computation time, %d solves per "
      "population ===\n\n",
      n_bais);

  CsvWriter csv(BenchCsvPath("fig9_solve_times"),
                {"solver", "clients", "quantile", "ms"});
  // Structured export: one solve-time histogram per (solver, population).
  MetricsRegistry registry;

  Rng rng(42);
  for (const SolverMode mode : {SolverMode::kContinuousRelaxation,
                                SolverMode::kGreedyDiscrete}) {
    const char* solver_name = mode == SolverMode::kContinuousRelaxation
                                  ? "continuous-relaxation"
                                  : "greedy-discrete";
    std::printf("--- solver: %s ---\n", solver_name);
    for (const int clients : {32, 64, 128}) {
      const Cdf times = MeasureSolveTimes(
          clients, n_bais, mode, rng,
          MakeHistogramHandle(&registry, "fig9.solve_ms." +
                                             std::string(solver_name) + "." +
                                             std::to_string(clients)));
      std::printf("%3d clients: ", clients);
      for (double q : {0.5, 0.9, 0.99, 1.0}) {
        std::printf("p%-3.0f=%8.4f ms  ", q * 100.0, times.Quantile(q));
      }
      std::printf("\n");
      for (int q = 0; q <= 10; ++q) {
        const double quantile = q / 10.0;
        csv.RawRow({solver_name, FormatNumber(clients),
                    FormatNumber(quantile),
                    FormatNumber(times.Quantile(quantile))});
      }
    }
    std::printf("\n");
  }

  Rng check_rng(7);
  const Cdf relaxed_128 = MeasureSolveTimes(
      128, n_bais, SolverMode::kContinuousRelaxation, check_rng);
  std::printf("--- Headline comparison (paper Section IV-B) ---\n");
  PrintPaperComparison("max solve time at 128 clients (ms, paper <= ~12)",
                       12.0, relaxed_128.Quantile(1.0));

  // --- Sharded-runtime scaling: serial vs. parallel wall clock for an
  // 8-cell deployment (one testbed cell per event domain, shared PCRF at
  // BAI barriers). Results are bit-identical across worker counts, so
  // this is a pure wall-clock comparison; the achievable speedup is
  // bounded by the machine's hardware threads, which we record alongside.
  const unsigned hw_threads =
      std::max(1u, std::thread::hardware_concurrency());
  std::printf("\n--- Multi-cell sharded runtime, 8 cells (%u hardware "
              "thread(s)) ---\n",
              hw_threads);
  MakeGaugeHandle(&registry, "fig9.multicell.hardware_threads")
      .Set(static_cast<double>(hw_threads));
  const double multicell_duration_s =
      scale.duration_s > 0.0 ? scale.duration_s : 30.0;
  // One wall-clock sample on a shared/1-core box swings tens of percent;
  // min-of-N with *interleaved* reps (serial and parallel alternate, so a
  // slow system phase taxes every configuration equally) is the
  // de-noising for a "how fast can this go" measurement. The timing reps
  // run *bare* (no metrics, no span tracer) so instrumentation cost
  // cannot masquerade as runtime overhead; the instrumented run
  // afterwards feeds the exported histograms and the workers=8 trace.
  const int timing_reps = 5;
  const std::vector<int> worker_configs = {0, 2, 8};
  const auto multicell_config = [&](int workers) {
    MultiCellConfig multi;
    multi.cell = TestbedPreset(Scheme::kFlare);
    multi.cell.duration_s = multicell_duration_s;
    multi.cell.seed = 42;
    multi.n_cells = 8;
    multi.workers = workers;
    return multi;
  };
  std::vector<double> min_wall_ms(worker_configs.size(), 0.0);
  for (int rep = 0; rep < timing_reps; ++rep) {
    for (std::size_t i = 0; i < worker_configs.size(); ++i) {
      const MultiCellResult timed =
          RunMultiCellScenario(multicell_config(worker_configs[i]));
      if (rep == 0 || timed.wall_ms < min_wall_ms[i]) {
        min_wall_ms[i] = timed.wall_ms;
      }
    }
  }
  double serial_ms = 0.0;
  double overhead8_pct = 0.0;
  for (std::size_t config = 0; config < worker_configs.size(); ++config) {
    const int workers = worker_configs[config];
    const double wall_ms = min_wall_ms[config];
    // Per-config runner metrics (epoch / barrier-wait / drain histograms),
    // merged into the bench export under a workersN prefix. The widest
    // configuration also exports a causal span trace, showing where the
    // 8 domains spend wall-clock inside each epoch.
    MultiCellConfig multi = multicell_config(workers);
    MetricsRegistry run_registry;
    multi.metrics = &run_registry;
    SpanTracer spans;
    if (workers == 8) multi.span_trace = &spans;
    if (telemetry) {
      multi.telemetry = &telemetry_server;
      multi.telemetry_interval_ms =
          args.GetDouble("telemetry_interval_ms", 1000.0);
    }
    const MultiCellResult result = RunMultiCellScenario(multi);
    if (workers == 0) serial_ms = wall_ms;
    const double speedup = wall_ms > 0.0 ? serial_ms / wall_ms : 0.0;
    // Overhead (parallel wall vs serial wall) is meaningful on any
    // machine; speedup is only meaningful when the hardware can actually
    // run `workers` threads at once, so it is published conditionally
    // below — an 8-worker "speedup" measured on 1 hardware thread is a
    // coin toss around 1.0x and poisons the trajectory.
    const double overhead_pct =
        serial_ms > 0.0 ? (wall_ms / serial_ms - 1.0) * 100.0 : 0.0;
    if (workers == 8) overhead8_pct = overhead_pct;
    const bool hw_can_speedup = hw_threads >= static_cast<unsigned>(workers);
    std::printf("workers=%d: %8.1f ms wall (min of %d), overhead vs serial "
                "%+6.2f%% (%llu epochs, %llu msgs)\n",
                workers, wall_ms, timing_reps, overhead_pct,
                static_cast<unsigned long long>(result.barrier_epochs),
                static_cast<unsigned long long>(result.mailbox_messages));
    if (workers > 0) {
      if (hw_can_speedup) {
        std::printf("           speedup vs serial %5.2fx (hw can run %d "
                    "threads)\n",
                    speedup, workers);
      } else {
        std::printf("           speedup unreported: only %u hardware "
                    "thread(s) for %d workers (bound: overhead is the "
                    "single-core signal)\n",
                    hw_threads, workers);
      }
    }
    const auto wait = run_registry.histograms().find("runner.barrier_wait_ms");
    if (wait != run_registry.histograms().end() && wait->second.count() > 0) {
      std::printf("           barrier wait p50=%.3f ms p95=%.3f ms "
                  "p99=%.3f ms\n",
                  wait->second.Quantile(0.50), wait->second.Quantile(0.95),
                  wait->second.Quantile(0.99));
    }
    const std::string key =
        "fig9.multicell.workers" + std::to_string(workers);
    registry.MergeFrom(run_registry, key + ".");
    MakeGaugeHandle(&registry, key + ".wall_ms").Set(wall_ms);
    if (workers > 0) {
      MakeGaugeHandle(&registry, key + ".overhead_pct").Set(overhead_pct);
      if (hw_can_speedup) {
        MakeGaugeHandle(&registry, key + ".speedup").Set(speedup);
      }
    }
    if (workers == 8) {
      spans.ExportJson(BenchJsonPath("fig9_trace"));
      std::printf("           span trace written to %s\n",
                  BenchJsonPath("fig9_trace").c_str());
    }
  }

  // The coordination gate that works on any machine: persistent epoch
  // workers must cost (almost) nothing when they cannot help. Watched in
  // flare_report as fig9.multicell.workers8.overhead_pct.
  std::printf("\n--- Runtime overhead gate ---\n");
  PrintPaperComparison("workers=8 overhead vs serial (%, gate <= 5)", 5.0,
                       overhead8_pct);

  BenchJsonWriter writer("fig9");
  writer.Echo("solves_per_population", static_cast<double>(n_bais));
  writer.Echo("multicell_duration_s", multicell_duration_s);
  writer.Echo("multicell_cells", 8.0);
  writer.Export(BenchJsonPath("fig9"), registry);
  std::printf(
      "\nAll solve times are orders of magnitude below a 1-10 s segment\n"
      "duration. CDFs written to %s, histograms to %s\n",
      BenchCsvPath("fig9_solve_times").c_str(),
      BenchJsonPath("fig9").c_str());
  return 0;
}

}  // namespace
}  // namespace flare

int main(int argc, char** argv) { return flare::Main(argc, argv); }
