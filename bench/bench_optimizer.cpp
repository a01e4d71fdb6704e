// Microbenchmarks (google-benchmark) for the bitrate optimizer — the
// per-solve costs behind Figure 9, measured in isolation: the continuous
// KKT/bisection solver, the greedy discrete solver, and Algorithm 1's
// full DecideBai path.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/batch_solver.h"
#include "core/optimizer.h"
#include "core/rate_controller.h"
#include "has/mpd.h"
#include "net/bai_engine.h"
#include "obs/bai_trace.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/qoe_analytics.h"
#include "obs/span_trace.h"
#include "obs/telemetry_publisher.h"
#include "scenario/experiment.h"
#include "svc/request_trace.h"
#include "util/rng.h"
#include "util/stats.h"

namespace flare {
namespace {

OptProblem MakeProblem(int n_flows, std::uint64_t seed) {
  Rng rng(seed);
  OptProblem problem;
  problem.n_data_flows = 2;
  // Constant per-flow RB budget: a saturated cell pins every flow at the
  // floor and the solve trivially short-circuits (cf. bench_fig9).
  problem.rb_rate = 3'125.0 * n_flows;
  for (int i = 0; i < n_flows; ++i) {
    OptFlow flow;
    for (double kbps : DenseLadderKbps()) {
      flow.ladder_bps.push_back(kbps * 1000.0);
    }
    flow.max_level = static_cast<int>(flow.ladder_bps.size()) - 1;
    flow.bits_per_rb = rng.Uniform(100.0, 600.0);
    problem.flows.push_back(std::move(flow));
  }
  return problem;
}

void BM_SolveContinuous(benchmark::State& state) {
  const OptProblem problem =
      MakeProblem(static_cast<int>(state.range(0)), 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SolveContinuous(problem));
  }
}
BENCHMARK(BM_SolveContinuous)->Arg(8)->Arg(32)->Arg(64)->Arg(128);

void BM_SolveGreedy(benchmark::State& state) {
  const OptProblem problem =
      MakeProblem(static_cast<int>(state.range(0)), 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SolveGreedy(problem));
  }
}
BENCHMARK(BM_SolveGreedy)->Arg(8)->Arg(32)->Arg(64)->Arg(128);

void BM_DecideBai(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  FlareParams params;
  params.solver = SolverMode::kContinuousRelaxation;
  FlareRateController controller(params);
  std::vector<double> ladder;
  for (double kbps : DenseLadderKbps()) ladder.push_back(kbps * 1000.0);
  Rng rng(3);
  std::vector<FlowObservation> observations;
  for (int i = 0; i < n; ++i) {
    controller.AddFlow(static_cast<FlowId>(i + 1), ladder);
    FlowObservation obs;
    obs.id = static_cast<FlowId>(i + 1);
    obs.bits_per_rb = rng.Uniform(100.0, 600.0);
    observations.push_back(obs);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        controller.DecideBai(observations, 2, 25'000.0));
  }
}
BENCHMARK(BM_DecideBai)->Arg(8)->Arg(32)->Arg(64)->Arg(128);

// --- Cold reference sweep (SolveSweep): per-flow hulls, one std::sort,
// then the sweep — the implementation BatchSolver is tested against.
void BM_SweepCold(benchmark::State& state) {
  const OptProblem problem =
      MakeProblem(static_cast<int>(state.range(0)), 6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SolveSweep(problem));
  }
}
BENCHMARK(BM_SweepCold)->Arg(100)->Arg(500)->Arg(1000);

// --- Batched SoA sweep: the metro-scale path. Same bit-exact results as
// BM_SweepCold's SolveSweep (tests/solver_differential_test.cpp), but flat
// reused arrays and a radix sort — the 1k/10k/100k ladder is the
// Figure-9-style scaling story for item 3 of the roadmap.
void BM_BatchSolve(benchmark::State& state) {
  const OptProblem problem =
      MakeProblem(static_cast<int>(state.range(0)), 6);
  BatchSolver solver;
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.Solve(problem));
  }
}
BENCHMARK(BM_BatchSolve)->Arg(1000)->Arg(10000)->Arg(100000);

// Many small cells solved cache-hot on one thread: the control-plane
// shape where one worker owns hundreds of cells per BAI.
void BM_BatchSolveManyCells(benchmark::State& state) {
  const int n_cells = static_cast<int>(state.range(0));
  const int flows_per_cell = static_cast<int>(state.range(1));
  std::vector<OptProblem> cells;
  cells.reserve(static_cast<std::size_t>(n_cells));
  for (int c = 0; c < n_cells; ++c) {
    cells.push_back(MakeProblem(flows_per_cell,
                                static_cast<std::uint64_t>(c) + 11));
  }
  BatchSolver solver;
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.SolveMany(cells));
  }
}
BENCHMARK(BM_BatchSolveManyCells)->Args({64, 64})->Args({256, 64});

void BM_SolveExhaustiveSmall(benchmark::State& state) {
  // Exponential solver: tests/cross-validation scale only.
  OptProblem problem = MakeProblem(3, 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SolveExhaustive(problem));
  }
}
BENCHMARK(BM_SolveExhaustiveSmall);

// --- Observability overhead: a disabled (default-constructed) handle must
// cost nothing beyond a null check on the instrumented hot paths; compare
// against the enabled path hitting a live registry.
void BM_ObsHandlesDisabled(benchmark::State& state) {
  CounterHandle counter;
  GaugeHandle gauge;
  HistogramHandle histogram;
  for (auto _ : state) {
    counter.Add();
    gauge.Set(42.0);
    histogram.Observe(3.5);
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_ObsHandlesDisabled);

void BM_ObsHandlesEnabled(benchmark::State& state) {
  MetricsRegistry registry;
  CounterHandle counter = MakeCounterHandle(&registry, "bench.counter");
  GaugeHandle gauge = MakeGaugeHandle(&registry, "bench.gauge");
  HistogramHandle histogram =
      MakeHistogramHandle(&registry, "bench.histogram");
  for (auto _ : state) {
    counter.Add();
    gauge.Set(42.0);
    histogram.Observe(3.5);
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_ObsHandlesEnabled);

// A representative instrumented hot path — one SpanScope, one decision
// rendered through DecisionSinks (a held rung: one gbr_push instant), one
// counter bump and one histogram observation per iteration — with every
// observer disabled (Arg 0) vs live (Arg 1). The disabled run must be
// indistinguishable from uninstrumented code: each site is one null check.
void BM_ObsOverhead(benchmark::State& state) {
  const bool enabled = state.range(0) != 0;
  SpanTracer tracer;
  SimTime fake_now_us = 0;
  tracer.SetClock([&fake_now_us] { return static_cast<double>(fake_now_us); });
  std::optional<DecisionSinks> decisions;
  if (enabled) decisions = DecisionSinks{.spans = &tracer};
  MetricsRegistry registry;
  CounterHandle ticks =
      MakeCounterHandle(enabled ? &registry : nullptr, "bench.ticks");
  HistogramHandle latency =
      MakeHistogramHandle(enabled ? &registry : nullptr, "bench.latency_ms");
  const DecisionEvent held{.flow = 7,
                           .previous_level = 2,
                           .enforced_level = 2,
                           .rate_bps = 1e6,
                           .gbr_bps = 1.1e6,
                           .cause = "hold"};
  for (auto _ : state) {
    fake_now_us += 1000;
    {
      SpanScope span(decisions ? decisions->spans : nullptr, kLaneControl,
                     "bench", "work");
      benchmark::DoNotOptimize(fake_now_us);
    }
    if (decisions) decisions->Render(fake_now_us, held);
    ticks.Add();
    latency.Observe(0.5);
    benchmark::ClobberMemory();
    // Bound the enabled run's memory; Clear() is outside the disabled path.
    if (enabled && tracer.size() > 65536) tracer.Clear();
  }
}
BENCHMARK(BM_ObsOverhead)->Arg(0)->Arg(1);

// Flight-recorder record site, disabled (Arg 0) vs live (Arg 1). The
// disabled path must be one predicted null check — the recorder rides in
// Player/OneApiServer hot paths, so "off" has to cost nothing (the
// acceptance bar is <= ~10 ns/event; a null check is well under 1 ns).
// The enabled path is bounded by construction: the ring overwrites.
void BM_FlightRecorderOverhead(benchmark::State& state) {
  const bool enabled = state.range(0) != 0;
  FlightRecorder recorder(512);
  FlightRecorder* flight = enabled ? &recorder : nullptr;
  double t_s = 0.0;
  for (auto _ : state) {
    t_s += 0.1;
    if (flight != nullptr) {
      flight->Record(t_s, "rung_change", 7, -1, 3.0,
                     "{\"from\":2,\"to\":3}");
    }
    benchmark::DoNotOptimize(t_s);
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_FlightRecorderOverhead)->Arg(0)->Arg(1);

// Telemetry publish hook as it sits in the epoch-barrier / BAI path.
// Arg 0: no server attached — MaybePublish must be one predicted null
// check (same order as the disabled flight-recorder site, ~2.5 ns incl.
// loop scaffolding). Arg 1: server attached but the interval not due —
// adds one steady_clock read, still far below a barrier. Neither arm may
// allocate or lock. Exported as obs.telemetry.disabled_hook_ns and gated
// by flare_report's default watches.
void BM_TelemetryOverhead(benchmark::State& state) {
  const bool attached = state.range(0) != 0;
  // Never Start()ed: the enabled arm measures the not-yet-due clock
  // check, not socket work. A huge interval keeps it never-due.
  TelemetryServer server;
  TelemetryPublisher publisher(attached ? &server : nullptr,
                               /*interval_ms=*/1e12);
  double sim_time_s = 0.0;
  for (auto _ : state) {
    sim_time_s += 0.04;
    publisher.MaybePublish(sim_time_s);
    benchmark::DoNotOptimize(sim_time_s);
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_TelemetryOverhead)->Arg(0)->Arg(1);

// Request-tracer call sites as they sit in the service's per-request hot
// path. Arg 0: tracing off — a null RequestTracer* at every site, so one
// predicted branch and no argument construction (acceptance bar is
// <= ~5 ns/request; a null check is well under 1 ns). Arg 1: tracing
// live — the full queue/finalize sequence for one request (sample
// queued, assignment queued, connection drained past its watermark)
// against a small event cap, so steady state measures stage histograms
// plus the bounded drop path rather than unbounded buffering.
void BM_RequestTraceOverhead(benchmark::State& state) {
  const bool enabled = state.range(0) != 0;
  MetricsRegistry registry;
  std::mutex registry_mu;
  RequestTracerOptions options;
  options.max_events = 65536;  // bound the enabled arm's memory
  RequestTracer live(&registry, &registry_mu, nullptr, options);
  RequestTracer* tracer = enabled ? &live : nullptr;
  std::uint64_t watermark = 0;
  std::uint64_t seq = 0;
  for (auto _ : state) {
    // Model the member load the service performs each request; without
    // this the compiler folds the null arm into an empty loop.
    benchmark::DoNotOptimize(tracer);
    ++seq;
    watermark += 64;
    if (tracer != nullptr) {
      RequestTiming timing;
      timing.ctx.trace_id = seq;
      timing.ctx.client_send_us = static_cast<std::int64_t>(seq);
      timing.flow = static_cast<FlowId>(seq % 32 + 1);
      timing.start_us = static_cast<double>(seq);
      timing.recv_us = 1.0;
      timing.parse_us = 0.5;
      timing.queued_at_us = timing.start_us + 2.0;
      timing.queue_wait_us = 40.0;
      timing.solve_us = 15.0;
      timing.encode_us = 1.5;
      timing.send_us = timing.start_us + 60.0;
      timing.cause = "steady";
      tracer->OnSampleQueued(timing);
      tracer->OnAssignmentQueued(timing, /*fd=*/7, watermark);
      tracer->OnConnFlushed(/*fd=*/7, watermark, timing.send_us + 5.0);
    }
    benchmark::DoNotOptimize(watermark);
    benchmark::ClobberMemory();
  }
  if (enabled) {
    state.counters["finalized"] =
        static_cast<double>(live.finalized_requests());
  }
}
BENCHMARK(BM_RequestTraceOverhead)->Arg(0)->Arg(1);

// One BAI through the OneAPI engine — gather, DecideBai, one decision
// event per flow — with metrics and all four decision sinks attached vs
// not: the "no measurable slowdown when disabled" acceptance check.
void BM_DecideBaiWithObs(benchmark::State& state) {
  const bool enabled = state.range(0) != 0;
  const int n = 32;
  FlareParams params;
  params.solver = SolverMode::kContinuousRelaxation;
  BaiEngine engine(params, /*efficiency_smoothing=*/0.1,
                   /*gbr_headroom=*/1.1);
  ClientInfo info;
  for (double kbps : DenseLadderKbps()) {
    info.ladder_bps.push_back(kbps * 1000.0);
  }
  Rng rng(5);
  std::vector<double> bits_per_rb;
  for (int i = 0; i < n; ++i) {
    info.flow = static_cast<FlowId>(i + 1);
    engine.Connect(info, 1.0, 0, 0.0);
    bits_per_rb.push_back(rng.Uniform(100.0, 600.0));
  }
  MetricsRegistry registry;
  CounterHandle bais =
      MakeCounterHandle(enabled ? &registry : nullptr, "bench.bais");
  HistogramHandle solve_ms =
      MakeHistogramHandle(enabled ? &registry : nullptr, "bench.solve_ms");
  BaiTraceSink trace;
  SpanTracer spans;
  QoeAnalytics qoe;
  FlightRecorder flight;
  std::optional<DecisionSinks> decisions;
  if (enabled) {
    decisions = DecisionSinks{
        .bai_trace = &trace, .spans = &spans, .qoe = &qoe, .flight = &flight};
  }
  SimTime now = 0;
  for (auto _ : state) {
    now += kSecond;
    engine.Gather([&bits_per_rb](FlowId id, double) -> std::optional<double> {
      return bits_per_rb[id - 1];
    });
    const BaiDecision decision = engine.Decide(2, 3'125.0 * n);
    const double ms = static_cast<double>(decision.solve_time.count()) / 1e6;
    bais.Add();
    solve_ms.Observe(ms);
    if (decisions) {
      for (const RateAssignment& a : decision.assignments) {
        decisions->Render(now, engine.Event(decision, a, ms));
      }
    }
    benchmark::DoNotOptimize(decision);
    // Bound the enabled run's memory; the resets are outside the
    // disabled path.
    if (enabled && trace.bai_rows().size() > 65536) trace = BaiTraceSink();
    if (enabled && spans.size() > 65536) spans.Clear();
  }
}
BENCHMARK(BM_DecideBaiWithObs)->Arg(0)->Arg(1);

// --- Structured ladder export: after the google-benchmark tables, time
// the batched solver at 1k/10k/100k flows (plus the 256x64 many-cells
// batch) against the cold SolveSweep baseline and export optimizer.batch.*
// gauges through the standard BENCH envelope, so tools/flare_report can
// trend them and DefaultWatches gates flows10k.p99_us like any QoE metric.
int ExportBatchLadder() {
  struct Rung {
    const char* tag;
    int flows;
    int reps;
  };
  // Rep counts shrink with problem size to keep CI wall time bounded; the
  // p99 of a small sample is its max, which is the conservative gate.
  const Rung kLadder[] = {{"flows1k", 1'000, 30},
                          {"flows10k", 10'000, 12},
                          {"flows100k", 100'000, 4}};
  MetricsRegistry registry;
  BenchJsonWriter writer("optimizer");
  writer.Echo("ladder_flows", "1000/10000/100000");
  writer.Echo("batch_cells", 256.0);
  writer.Echo("flows_per_cell", 64.0);

  const auto now = [] { return std::chrono::steady_clock::now(); };
  const auto us = [](auto d) {
    return std::chrono::duration<double, std::micro>(d).count();
  };

  BatchSolver solver;
  for (const Rung& rung : kLadder) {
    const OptProblem problem = MakeProblem(rung.flows, 6);
    // Cold baseline: the reference SolveSweep (fresh step vector and a
    // comparator sort every call).
    Cdf cold_us;
    OptResult cold_result;
    const int cold_reps = rung.reps / 4 > 3 ? rung.reps / 4 : 3;
    for (int r = 0; r < cold_reps; ++r) {
      const auto t0 = now();
      cold_result = SolveSweep(problem);
      cold_us.Add(us(now() - t0));
    }
    solver.Solve(problem);  // size the scratch arrays outside the timing
    Cdf batch_us;
    OptResult batch_result;
    for (int r = 0; r < rung.reps; ++r) {
      const auto t0 = now();
      batch_result = solver.Solve(problem);
      batch_us.Add(us(now() - t0));
    }
    // Spot-check the differential contract in the bench binary too: a
    // speedup claimed over a solver that disagrees would be meaningless.
    if (batch_result.objective != cold_result.objective ||
        batch_result.levels != cold_result.levels) {
      std::fprintf(stderr,
                   "FATAL: BatchSolver diverged from SolveSweep at %d "
                   "flows\n",
                   rung.flows);
      return 1;
    }
    const double p50 = batch_us.Quantile(0.5);
    const double p99 = batch_us.Quantile(0.99);
    const double cold_p50 = cold_us.Quantile(0.5);
    const double speedup = cold_p50 / (p50 > 1e-9 ? p50 : 1e-9);
    const std::string prefix = std::string("optimizer.batch.") + rung.tag;
    MakeGaugeHandle(&registry, prefix + ".p50_us").Set(p50);
    MakeGaugeHandle(&registry, prefix + ".p99_us").Set(p99);
    MakeGaugeHandle(&registry, prefix + ".cold_p50_us").Set(cold_p50);
    MakeGaugeHandle(&registry, prefix + ".speedup_vs_cold").Set(speedup);
    std::printf(
        "optimizer.batch.%s: p50=%.1f us  p99=%.1f us  cold_p50=%.1f us  "
        "speedup=%.2fx\n",
        rung.tag, p50, p99, cold_p50, speedup);
  }

  // Many small cells on one thread: the control-plane shape where a
  // worker owns hundreds of cells per BAI and SolveMany amortizes one
  // scratch arena across all of them.
  std::vector<OptProblem> cells;
  cells.reserve(256);
  for (int c = 0; c < 256; ++c) {
    cells.push_back(MakeProblem(64, static_cast<std::uint64_t>(c) + 11));
  }
  solver.SolveMany(cells);  // warm
  Cdf total_ms;
  for (int r = 0; r < 10; ++r) {
    const auto t0 = now();
    benchmark::DoNotOptimize(solver.SolveMany(cells));
    total_ms.Add(us(now() - t0) / 1000.0);
  }
  const double batch_p50_ms = total_ms.Quantile(0.5);
  MakeGaugeHandle(&registry, "optimizer.batch.cells256x64.total_p50_ms")
      .Set(batch_p50_ms);
  MakeGaugeHandle(&registry, "optimizer.batch.cells256x64.total_p99_ms")
      .Set(total_ms.Quantile(0.99));
  MakeGaugeHandle(&registry, "optimizer.batch.cells256x64.per_cell_p50_us")
      .Set(batch_p50_ms * 1000.0 / 256.0);
  std::printf(
      "optimizer.batch.cells256x64: total_p50=%.2f ms  per_cell=%.1f us\n",
      batch_p50_ms, batch_p50_ms * 1000.0 / 256.0);

  // Zero-cost-when-off telemetry gate: per-call cost of MaybePublish
  // with no server attached, min over reps of a tight loop so scheduler
  // noise cannot inflate the gauge. Watched (down, generous threshold)
  // by flare_report's DefaultWatches.
  {
    TelemetryPublisher publisher(nullptr, 1000.0);
    const int iters = 2'000'000;
    double best_ns = 0.0;
    for (int rep = 0; rep < 5; ++rep) {
      double sim_time_s = 0.0;
      const auto t0 = now();
      for (int i = 0; i < iters; ++i) {
        sim_time_s += 0.04;
        publisher.MaybePublish(sim_time_s);
        benchmark::DoNotOptimize(sim_time_s);
      }
      const double ns =
          us(now() - t0) * 1000.0 / static_cast<double>(iters);
      if (rep == 0 || ns < best_ns) best_ns = ns;
    }
    MakeGaugeHandle(&registry, "obs.telemetry.disabled_hook_ns")
        .Set(best_ns);
    std::printf("obs.telemetry.disabled_hook_ns: %.2f ns/call\n", best_ns);
  }

  // Tracing-off guard for the control plane's per-request hot path: the
  // null-RequestTracer* branch, min over reps so scheduler noise cannot
  // inflate the gauge (acceptance bar <= ~5 ns/request).
  {
    RequestTracer* tracer = nullptr;
    const int iters = 2'000'000;
    double best_ns = 0.0;
    for (int rep = 0; rep < 5; ++rep) {
      std::uint64_t watermark = 0;
      const auto t0 = now();
      for (int i = 0; i < iters; ++i) {
        benchmark::DoNotOptimize(tracer);
        watermark += 64;
        if (tracer != nullptr) {
          tracer->OnConnFlushed(7, watermark, 0.0);
        }
        benchmark::DoNotOptimize(watermark);
      }
      const double ns =
          us(now() - t0) * 1000.0 / static_cast<double>(iters);
      if (rep == 0 || ns < best_ns) best_ns = ns;
    }
    MakeGaugeHandle(&registry, "svc.oneapi.trace.disabled_hook_ns")
        .Set(best_ns);
    std::printf("svc.oneapi.trace.disabled_hook_ns: %.2f ns/request\n",
                best_ns);
  }

  const std::string path = BenchJsonPath("optimizer");
  if (!writer.Export(path, registry)) {
    std::fprintf(stderr, "FATAL: cannot write %s\n", path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", path.c_str());
  return 0;
}

}  // namespace
}  // namespace flare

namespace {

/// True if the command line asks google-benchmark only to list the
/// registered benchmarks (`--benchmark_list_tests[=true|1]`).
bool ListTestsOnly(int argc, char** argv) {
  const std::string flag = "--benchmark_list_tests";
  bool list = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == flag) {
      list = true;
    } else if (arg.rfind(flag + "=", 0) == 0) {
      const std::string value = arg.substr(flag.size() + 1);
      list = value != "false" && value != "0";
    }
  }
  return list;
}

}  // namespace

// Custom main (instead of BENCHMARK_MAIN): run the registered
// microbenchmarks, then the structured optimizer.batch.* ladder export,
// which a listing-only invocation skips (it would otherwise run the whole
// ladder and overwrite BENCH_optimizer.json).
int main(int argc, char** argv) {
  const bool list_only = ListTestsOnly(argc, argv);
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  return list_only ? 0 : flare::ExportBatchLadder();
}
