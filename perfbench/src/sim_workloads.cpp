// The two simulator workloads: mobile_cell (ScenarioWorld on one
// Simulator, one thread) and multicell_churn (RunMultiCellScenario on the
// sharded runtime). Both report host-time throughput; the simulated QoE
// they print is a checked output, identical for any speed of the host.
#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "harness.h"
#include "core/rate_controller.h"
#include "has/mpd.h"
#include "layers.h"
#include "net/messages.h"
#include "net/pcrf.h"
#include "obs/bai_trace.h"
#include "obs/metrics.h"
#include "obs/span_trace.h"
#include "scenario/multi_cell.h"
#include "scenario/scenario.h"
#include "scenario/scenario_world.h"
#include "sim/simulator.h"
#include "workloads.h"

namespace perfbench {
namespace {

using flare::MultiCellConfig;
using flare::MultiCellResult;
using flare::ScenarioConfig;
using flare::ScenarioResult;

// The speed of a shared host drifts by tens of percent within seconds, so
// every timed unit of work runs several times on identical inputs, its
// repetitions spread over the run (whole passes over the worlds or
// deployments), and counts at its fastest repetition (FastestTimes): per
// 10 s slice of a mobile world, per deployment. Throughput is total
// simulated time over the summed unit times, so each seed's worlds weigh
// by their cost.
constexpr int kMobileReps = 5;
constexpr int kMulticellReps = 7;
// Fan-out on the simulators is the host time of each recorded BAI
// decision, replayed through the controller: after every timed world or
// deployment, the decisions of every world or deployment of the run are
// replayed once, and each decision counts at its fastest replay.

// mobile_cell: several distinct short worlds, so no single seed's
// mobility decides the run's throughput or QoE (one world's cost varies
// by ~15% with its seed).
constexpr double kWorldS = 300.0;
/// Worlds per second of --seconds (a world takes ~0.5 s of host time per
/// repetition).
constexpr double kWorldsPerSecond = 0.35;
constexpr flare::SimTime kSlice = 10 * flare::kSecond;
constexpr int kMobileSetupReps = 15;

// multicell_churn: 8 testbed cells, 2 workers, churn with admission.
// Several distinct deployments per run, so one seed's arrivals do not
// decide the run's throughput.
constexpr int kCells = 8;
constexpr int kWorkers = 2;
constexpr double kMulticellDurationS = 60.0;
/// Deployments per second of --seconds (one takes ~0.7 s of host time per
/// repetition).
constexpr double kDeploymentsPerSecond = 0.15;
constexpr double kChurnArrivalsPerS = 0.2;
constexpr double kChurnMeanHoldS = 30.0;
/// Floor-rung RB share above which arrivals are refused: about twelve
/// video sessions per testbed cell, so peaks of the churn are blocked.
constexpr double kAdmissionThreshold = 0.5;
/// Set-ups (8 worlds each) measured before every timed deployment, so
/// set-up samples spread over the whole run.
constexpr int kMulticellSetupsPerRun = 4;

/// Simulated-time period of the event-queue depth probe in traced runs.
constexpr flare::SimTime kDepthProbePeriod = 10 * flare::kMillisecond;

ScenarioConfig MobileConfig(std::uint64_t seed, int world,
                            double duration_s) {
  ScenarioConfig config = flare::SimMobilePreset(flare::Scheme::kFlare);
  config.seed = DeriveSeed(seed, static_cast<std::uint64_t>(world));
  config.duration_s = duration_s;
  return config;
}

MultiCellConfig MulticellConfig(std::uint64_t seed, int deployment,
                                int workers) {
  MultiCellConfig multi;
  multi.cell = flare::TestbedPreset(flare::Scheme::kFlare);
  multi.cell.duration_s = kMulticellDurationS;
  multi.cell.seed = DeriveSeed(seed, static_cast<std::uint64_t>(deployment));
  multi.cell.churn.enabled = true;
  multi.cell.churn.arrival_process = flare::ChurnProcess::kPoisson;
  multi.cell.churn.hold_process = flare::ChurnProcess::kPoisson;
  multi.cell.churn.arrival_rate_per_s = kChurnArrivalsPerS;
  multi.cell.churn.mean_hold_s = kChurnMeanHoldS;
  multi.cell.churn.admission.policy =
      flare::AdmissionPolicy::kCapacityThreshold;
  multi.cell.churn.admission.capacity_threshold = kAdmissionThreshold;
  multi.n_cells = kCells;
  multi.workers = workers;
  return multi;
}

/// The per-cell configs RunMultiCellScenario builds its worlds from.
std::vector<ScenarioConfig> MulticellCellConfigs(const MultiCellConfig& m) {
  std::vector<ScenarioConfig> cells;
  for (int c = 0; c < m.n_cells; ++c) {
    ScenarioConfig cell = m.cell;
    cell.oneapi.cell_tag = static_cast<flare::Pcrf::CellTag>(c);
    cells.push_back(cell);
  }
  return cells;
}

bool SameClients(const std::vector<flare::ClientMetrics>& a,
                 const std::vector<flare::ClientMetrics>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].avg_bitrate_bps != b[i].avg_bitrate_bps ||
        a[i].bitrate_changes != b[i].bitrate_changes ||
        a[i].segments != b[i].segments ||
        a[i].rebuffer_time_s != b[i].rebuffer_time_s) {
      return false;
    }
  }
  return true;
}

/// Same per-client QoE and churn outcome, bit for bit.
bool SameQoe(const ScenarioResult& a, const ScenarioResult& b) {
  return SameClients(a.video, b.video) && SameClients(a.churned, b.churned) &&
         a.avg_video_bitrate_bps == b.avg_video_bitrate_bps &&
         a.avg_bitrate_changes == b.avg_bitrate_changes &&
         a.sessions_arrived == b.sessions_arrived &&
         a.sessions_blocked == b.sessions_blocked;
}

bool SameCells(const MultiCellResult& a, const MultiCellResult& b) {
  if (a.cells.size() != b.cells.size()) return false;
  for (std::size_t c = 0; c < a.cells.size(); ++c) {
    if (!SameQoe(a.cells[c], b.cells[c])) return false;
  }
  return true;
}

/// Invariants of one cell's run: RBs never exceed the TTI budget and
/// every static video client played at least one segment. Empty when
/// they hold, else what broke.
std::string CellInvariants(std::uint64_t ttis, std::uint64_t rbs_used,
                           int num_rbs, const ScenarioResult& result) {
  if (ttis == 0) return "no TTI ran";
  if (rbs_used > ttis * static_cast<std::uint64_t>(num_rbs)) {
    return "rbs_used exceeds ttis x num_rbs";
  }
  if (result.video.empty()) return "no video client";
  for (std::size_t i = 0; i < result.video.size(); ++i) {
    if (result.video[i].segments < 1) {
      return "video client " + std::to_string(i) + " played no segment";
    }
  }
  return {};
}

/// Mean bitrate and bitrate changes per client over every video client
/// that played a segment: the static clients and, under churn, the
/// admitted churned sessions.
void SetQoe(Result& result, const std::vector<const ScenarioResult*>& runs) {
  double kbps = 0.0;
  double changes = 0.0;
  double clients = 0.0;
  for (const ScenarioResult* r : runs) {
    for (const auto* group : {&r->video, &r->churned}) {
      for (const flare::ClientMetrics& m : *group) {
        if (m.segments < 1) continue;
        kbps += m.avg_bitrate_bps / 1e3;
        changes += m.bitrate_changes;
        clients += 1.0;
      }
    }
  }
  result.Set("qoe_bitrate_kbps", kbps / clients, "kbps");
  result.Set("qoe_changes", changes / clients, "count");
  result.Note("QoE over " + std::to_string(static_cast<long>(clients)) +
              " clients");
}

std::vector<double> SolveMicros(const ScenarioResult& r) {
  std::vector<double> us;
  for (const double ms : r.solve_times_ms) us.push_back(ms * 1e3);
  return us;
}

/// Host times of units of work repeated on identical inputs; each unit
/// keeps its fastest repetition.
class FastestTimes {
 public:
  /// One repetition's times, one per unit. False when the number of units
  /// differs from the earlier repetitions'.
  bool Add(const std::vector<double>& times) {
    if (units_.empty()) {
      units_ = times;
      return true;
    }
    if (units_.size() != times.size()) return false;
    for (std::size_t i = 0; i < times.size(); ++i) {
      units_[i] = std::min(units_[i], times[i]);
    }
    return true;
  }
  /// Per unit, its fastest repetition.
  const std::vector<double>& units() const { return units_; }

 private:
  std::vector<double> units_;
};

/// One BAI decision of a run as its BaiTraceSink recorded it: the cell,
/// the observations the controller was fed and the rungs it enforced.
struct RecordedBai {
  int cell = 0;
  std::vector<flare::FlowObservation> observations;
  std::vector<int> levels;
};

/// Regroups a sink's rows (one per flow per BAI, a BAI's rows adjacent)
/// into decisions.
std::vector<RecordedBai> RecordedBais(const flare::BaiTraceSink& sink) {
  std::vector<RecordedBai> bais;
  const flare::BaiTraceRow* last = nullptr;
  for (const flare::BaiTraceRow& row : sink.bai_rows()) {
    if (last == nullptr || row.cell != last->cell || row.t_s != last->t_s) {
      bais.push_back(RecordedBai{row.cell, {}, {}});
    }
    flare::FlowObservation obs;
    obs.id = row.flow;
    obs.bits_per_rb = row.smoothed_bits_per_rb;
    bais.back().observations.push_back(obs);
    bais.back().levels.push_back(row.enforced_level);
    last = &row;
  }
  return bais;
}

/// The ladder a client of `config` registers, as the server decodes it.
std::vector<double> ClientLadderBps(const ScenarioConfig& config) {
  const flare::Mpd mpd = flare::MakeMpd(
      config.ladder_kbps.empty() ? flare::TestbedLadderKbps()
                                 : config.ladder_kbps,
      config.segment_duration_s);
  flare::ClientInfo info;
  for (const flare::Representation& rep : mpd.representations) {
    info.ladder_bps.push_back(rep.bitrate_bps);
  }
  return flare::DecodeClientInfo(flare::EncodeClientInfo(info))->ladder_bps;
}

/// Replays a run's recorded decisions through fresh FlareRateControllers
/// (one per cell, configured like the run's), timing each DecideBai, and
/// adds the times to `decide_us`. Returns how many
/// decisions enforced other rungs than the run did.
std::uint64_t ReplayBais(const std::vector<RecordedBai>& bais,
                         const ScenarioConfig& config,
                         FastestTimes& decide_us) {
  const std::vector<double> ladder = ClientLadderBps(config);
  const double rb_rate = static_cast<double>(config.num_rbs) * 1000.0;
  std::map<int, flare::FlareRateController> controllers;
  std::vector<double> us;
  us.reserve(bais.size());
  std::uint64_t mismatched = 0;
  for (const RecordedBai& bai : bais) {
    flare::FlareRateController& controller =
        controllers.try_emplace(bai.cell, config.oneapi.params).first->second;
    for (const flare::FlowObservation& obs : bai.observations) {
      controller.AddFlow(obs.id, ladder);  // idempotent per flow
    }
    const auto start = Clock::now();
    const flare::BaiDecision decision =
        controller.DecideBai(bai.observations, config.n_data, rb_rate);
    us.push_back(MicrosBetween(start, Clock::now()));
    bool same = decision.assignments.size() == bai.levels.size();
    for (std::size_t i = 0; same && i < bai.levels.size(); ++i) {
      same = decision.assignments[i].id == bai.observations[i].id &&
             decision.assignments[i].level == bai.levels[i];
    }
    if (!same) ++mismatched;
  }
  if (!decide_us.Add(us)) ++mismatched;
  return mismatched;
}

/// Seconds to construct one world per config (each on its own Simulator
/// and PCRF, allocated outside the timed span).
double BuildWorldsSeconds(const std::vector<ScenarioConfig>& configs,
                          const std::vector<flare::Rng>& rngs) {
  std::vector<std::unique_ptr<flare::Simulator>> sims;
  std::vector<std::unique_ptr<flare::Pcrf>> pcrfs;
  for (std::size_t i = 0; i < configs.size(); ++i) {
    sims.push_back(std::make_unique<flare::Simulator>());
    pcrfs.push_back(std::make_unique<flare::Pcrf>());
  }
  std::vector<std::unique_ptr<flare::ScenarioWorld>> worlds;
  const auto start = Clock::now();
  for (std::size_t i = 0; i < configs.size(); ++i) {
    worlds.push_back(std::make_unique<flare::ScenarioWorld>(
        configs[i], *sims[i], *pcrfs[i], rngs[i]));
  }
  const double seconds = SecondsBetween(start, Clock::now());
  worlds.clear();  // before the simulators they reference
  return seconds;
}

struct WorldRun {
  double build_s = 0.0;
  std::vector<double> slice_s;  // host time of RunUntil, per kSlice
  double wall_s = 0.0;          // host time of RunUntil, all slices
  std::uint64_t events = 0;
  std::uint64_t ttis = 0;
  std::uint64_t rbs_used = 0;
  std::size_t depth_max = 0;
  ScenarioResult result;
};

/// Builds one world, runs it to its horizon in kSlice steps (the same
/// events as one RunUntil) and collects it. With `probe_depth` a probe
/// samples the event-queue depth every kDepthProbePeriod; the probe's own
/// events are left out of `events`.
WorldRun RunWorld(const ScenarioConfig& config, bool probe_depth) {
  WorldRun run;
  std::uint64_t probes = 0;
  flare::Simulator sim;
  flare::Pcrf pcrf;
  const auto build_start = Clock::now();
  auto world = std::make_unique<flare::ScenarioWorld>(
      config, sim, pcrf, flare::Rng(config.seed));
  run.build_s = SecondsBetween(build_start, Clock::now());
  world->Start();
  if (probe_depth) {
    sim.Every(0, kDepthProbePeriod, [&] {
      ++probes;
      run.depth_max = std::max(run.depth_max, sim.queue_depth());
    });
  }
  const flare::SimTime horizon = flare::FromSeconds(config.duration_s);
  for (flare::SimTime from = 0; from < horizon; from += kSlice) {
    const auto start = Clock::now();
    sim.RunUntil(std::min(from + kSlice, horizon));
    const double host_s = SecondsBetween(start, Clock::now());
    run.slice_s.push_back(host_s);
    run.wall_s += host_s;
  }
  run.events = sim.events_processed() - probes;
  run.ttis = world->cell().ttis_elapsed();
  run.rbs_used = world->cell().total_rbs_used();
  run.result = world->Collect();
  return run;
}

/// One untraced pass over the mobile worlds, each run `reps` times.
struct MobilePass {
  double sim_s = 0.0;   // simulated seconds, one repetition of each world
  double host_s = 0.0;  // host seconds, fastest repetition of each slice
  std::vector<double> slice_rate;  // per slice, at its fastest repetition
  std::vector<double> build_s;
  std::vector<double> decide_us;  // per BAI, fastest replay
  double wall_s = 0.0;            // host time of every repetition
  std::vector<ScenarioResult> results;
};

/// With `bais` (each world's recorded decisions), every timed run of a
/// world is followed by one replay of every world's decisions.
MobilePass RunMobilePass(const std::vector<ScenarioConfig>& configs, int reps,
                         const std::vector<std::vector<RecordedBai>>* bais,
                         Result& result) {
  MobilePass pass;
  const std::size_t worlds = configs.size();
  std::vector<FastestTimes> slice_s(worlds);
  std::vector<FastestTimes> decide_us(worlds);
  std::vector<std::string> why(worlds);
  pass.results.resize(worlds);
  // Whole passes over the worlds, so the repetitions of a world lie
  // seconds apart rather than in one slow spell of the host.
  for (int r = 0; r < reps; ++r) {
    for (std::size_t k = 0; k < worlds; ++k) {
      WorldRun run = RunWorld(configs[k], /*probe_depth=*/false);
      if (why[k].empty()) {
        why[k] = CellInvariants(run.ttis, run.rbs_used, configs[k].num_rbs,
                                run.result);
      }
      if (why[k].empty() && r > 0 && !SameQoe(pass.results[k], run.result)) {
        why[k] = "repetition " + std::to_string(r) + " differs from the first";
      }
      if (!slice_s[k].Add(run.slice_s) && why[k].empty()) {
        why[k] = "repetitions ran different slices";
      }
      pass.build_s.push_back(run.build_s);
      pass.wall_s += run.wall_s;
      if (r == 0) pass.results[k] = std::move(run.result);
      for (std::size_t j = 0; bais != nullptr && j < worlds; ++j) {
        const std::uint64_t mismatched =
            ReplayBais((*bais)[j], configs[j], decide_us[j]);
        if (mismatched > 0 && why[j].empty()) {
          why[j] = std::to_string(mismatched) +
                   " replayed BAI decisions differ from the run's";
        }
      }
    }
  }
  const double slice_sim_s = flare::ToSeconds(kSlice);
  for (std::size_t k = 0; k < worlds; ++k) {
    result.Record(why[k].empty(),
                  "mobile_cell world " + std::to_string(k) + ": " + why[k]);
    pass.sim_s += configs[k].duration_s;
    for (const double s : slice_s[k].units()) {
      pass.host_s += s;
      pass.slice_rate.push_back(slice_sim_s / s);
    }
    const std::vector<double> decide = decide_us[k].units();
    pass.decide_us.insert(pass.decide_us.end(), decide.begin(), decide.end());
  }
  return pass;
}

/// Per-layer numbers of a traced simulator run, emitted under the same
/// names by both simulator workloads.
struct SimLayers {
  std::uint64_t events = 0;
  std::size_t depth_max = 0;
  std::uint64_t ttis = 0;
  std::uint64_t rbs_used = 0;
  std::uint64_t itbs_calls = 0;  // FadedMobilityChannel::ItbsAt
  std::vector<double> tti_us;
  std::uint64_t bais = 0;
  std::vector<double> solve_us;
  std::uint64_t epochs = 0;
  std::uint64_t mailbox_messages = 0;
  std::vector<double> epoch_ms;
  std::vector<double> barrier_wait_ms;
  std::vector<double> drain_ms;
  std::uint64_t sessions_arrived = 0;
  std::uint64_t sessions_blocked = 0;
  std::uint64_t switches = 0;
  std::uint64_t stalls = 0;
  double world_build_ms = 0.0;
  double traced_wall_s = 0.0;    // the runs' timed spans
  double untraced_wall_s = 0.0;  // the same runs untraced (medians)
  double pass_wall_s = 0.0;      // whole traced pass, for the CPU ratio
  double pass_cpu_s = 0.0;
  int workers = 1;
  // Layer-probe inputs.
  int mobility_ues = 0;
  int candidates = 0;
  int num_rbs = 0;
  bool pss = true;  // which scheduler the workload's cells run
};

std::uint64_t SumCounters(const flare::MetricsRegistry& registry,
                          const std::string& name) {
  std::uint64_t sum = 0;
  const std::string suffix = "." + name;
  for (const auto& [key, counter] : registry.counters()) {
    if (key == name || (key.size() > suffix.size() &&
                        key.compare(key.size() - suffix.size(),
                                    suffix.size(), suffix) == 0)) {
      sum += counter.value();
    }
  }
  return sum;
}

std::vector<double> SpanDurations(const flare::SpanTracer& spans,
                                  const char* name, double scale) {
  std::vector<double> out;
  for (const flare::TraceEvent& e : spans.events()) {
    if (e.ph == 'X' && std::strcmp(e.name, name) == 0) {
      out.push_back(e.dur_us * scale);
    }
  }
  return out;
}

/// Wall µs per TTI from the cell's "tti.window" spans (args carry the
/// window's TTI count).
std::vector<double> TtiMicros(const flare::SpanTracer& spans) {
  std::vector<double> out;
  for (const flare::TraceEvent& e : spans.events()) {
    if (e.ph != 'X' || std::strcmp(e.name, "tti.window") != 0) continue;
    const std::size_t at = e.args.find("\"ttis\":");
    if (at == std::string::npos) continue;
    const double ttis = std::strtod(e.args.c_str() + at + 7, nullptr);
    if (ttis > 0.0) out.push_back(e.dur_us / ttis);
  }
  return out;
}

void EmitSimLayers(Result& result, const SimLayers& l, std::uint64_t seed) {
  const double event_ns = EventQueueNs(l.depth_max, seed);
  const double itbs_ns = MobilityItbsNs(std::max(l.mobility_ues, 1), seed);
  const double pss_ns = AllocateNs(SchedulerUnderTest::kPss, l.candidates,
                                   l.num_rbs, seed);
  const double gbr_ns = AllocateNs(SchedulerUnderTest::kTwoPhaseGbr,
                                   l.candidates, l.num_rbs, seed);
  const Distribution tti = Summarize(l.tti_us);
  const Distribution decide = Summarize(l.solve_us);
  const Distribution epoch = Summarize(l.epoch_ms);
  const Distribution barrier = Summarize(l.barrier_wait_ms);
  const Distribution drain = Summarize(l.drain_ms);

  result.Set("sim.events", static_cast<double>(l.events), "count");
  result.Set("sim.event_ns", event_ns, "ns");
  result.Set("sim.queue_depth_max", static_cast<double>(l.depth_max),
             "count");
  result.Set("lte.ttis", static_cast<double>(l.ttis), "count");
  result.Set("lte.tti_us.p50", tti.p50, "us");
  result.Set("lte.tti_us.p99", tti.p99, "us");
  result.Set("lte.itbs_calls", static_cast<double>(l.itbs_calls), "count");
  result.Set("lte.itbs_ns", itbs_ns, "ns");
  result.Set("lte.allocate_ns.pss", pss_ns, "ns");
  result.Set("lte.allocate_ns.two_phase_gbr", gbr_ns, "ns");
  result.Set("lte.rbs_used", static_cast<double>(l.rbs_used), "count");
  result.Set("core.bais", static_cast<double>(l.bais), "count");
  result.Set("core.decide_bai_us.p50", decide.p50, "us");
  result.Set("core.decide_bai_us.p99", decide.p99, "us");
  result.Set("runner.epochs", static_cast<double>(l.epochs), "count");
  result.Set("runner.mailbox_messages",
             static_cast<double>(l.mailbox_messages), "count");
  result.Set("runner.epoch_ms.p50", epoch.p50, "ms");
  result.Set("runner.epoch_ms.p99", epoch.p99, "ms");
  result.Set("runner.barrier_wait_ms.p99", barrier.p99, "ms");
  result.Set("runner.drain_ms.p99", drain.p99, "ms");
  result.Set("runner.cpu_busy_ratio",
             l.pass_cpu_s / (l.pass_wall_s * l.workers), "ratio");
  result.Set("churn.sessions_arrived",
             static_cast<double>(l.sessions_arrived), "count");
  result.Set("churn.sessions_blocked",
             static_cast<double>(l.sessions_blocked), "count");
  result.Set("scenario.world_build_ms", l.world_build_ms, "ms");
  result.Set("has.switches", static_cast<double>(l.switches), "count");
  result.Set("has.stalls", static_cast<double>(l.stalls), "count");
  result.Set("svc.encode_ns", EncodeAssignmentNs(), "ns");
  result.Set("client.parse_ns", ParseAssignmentNs(), "ns");

  // Attribution: count x per-call cost of the layers timed above, over
  // the worker time the traced runs had. The rest (transport, has, net,
  // the remainder of each TTI) is unattributed.
  const double solve_s = Sum(l.solve_us) / 1e6;
  const double sched_ns = l.pss ? pss_ns : gbr_ns;
  const double attributed_s =
      (static_cast<double>(l.events) * event_ns +
       static_cast<double>(l.itbs_calls) * itbs_ns +
       static_cast<double>(l.ttis) * sched_ns) /
          1e9 +
      solve_s;
  const double share = attributed_s / (l.traced_wall_s * l.workers);
  result.Set("layers.attributed_share", share, "ratio");
  result.Set("trace.overhead_pct",
             (l.traced_wall_s / l.untraced_wall_s - 1.0) * 100.0, "%");

  result.Note("lte.tti_us: " + Describe(tti, "us"));
  result.Note("core.decide_bai_us: " + Describe(decide, "us"));
  if (epoch.n > 0) {
    result.Note("runner.epoch_ms: " + Describe(epoch, "ms"));
    result.Note("runner.barrier_wait_ms: " + Describe(barrier, "ms"));
    result.Note("runner.drain_ms: " + Describe(drain, "ms"));
  }
  result.Note("unattributed share (transport, has, net, rest of the TTI): " +
              std::to_string(1.0 - share));
}

}  // namespace

Result RunMobileCell(const Options& options) {
  Result result;
  const int worlds = std::max(
      3, static_cast<int>(kWorldsPerSecond * options.seconds + 0.5));
  std::vector<ScenarioConfig> configs;
  for (int k = 0; k < worlds; ++k) {
    configs.push_back(MobileConfig(options.seed, k, kWorldS));
  }
  std::vector<double> build_s;
  for (int r = 0; r < kMobileSetupReps; ++r) {
    const ScenarioConfig& config = configs[r % worlds];
    build_s.push_back(BuildWorldsSeconds({config}, {flare::Rng(config.seed)}));
  }

  if (!options.trace) {
    // The reference runs come first: RunScenario on each config, with a
    // BAI trace attached whose decisions the passes replay.
    std::vector<ScenarioResult> reference;
    std::vector<std::vector<RecordedBai>> bais;
    for (const ScenarioConfig& config : configs) {
      flare::BaiTraceSink sink;
      ScenarioConfig traced = config;
      traced.bai_trace = &sink;
      reference.push_back(flare::RunScenario(traced));
      bais.push_back(RecordedBais(sink));
    }
    const MobilePass pass = RunMobilePass(configs, kMobileReps, &bais, result);
    const double rss_mb = PeakRssMb();
    std::vector<const ScenarioResult*> runs;
    for (int k = 0; k < worlds; ++k) {
      const auto world = static_cast<std::size_t>(k);
      result.Record(
          SameQoe(reference[world], pass.results[world]),
          "mobile_cell world " + std::to_string(k) +
              ": QoE differs from RunScenario on the same config and seed");
      runs.push_back(&pass.results[world]);
    }
    build_s.insert(build_s.end(), pass.build_s.begin(), pass.build_s.end());
    result.Set("setup_s", Median(build_s), "s");
    result.Set("cell_sim_s_per_s", pass.sim_s / pass.host_s, "cell-s/s");
    result.Set("peak_rss_mb", rss_mb, "MB");
    SetQoe(result, runs);
    const Distribution decide = Summarize(pass.decide_us);
    result.Set("fanout_p50_us", decide.p50, "us");
    result.Set("fanout_p99_us", decide.p99, "us");
    result.Note(std::to_string(worlds) + " worlds of " +
                std::to_string(static_cast<int>(kWorldS)) + " s, " +
                std::to_string(kMobileReps) +
                " repetitions each; fastest repetition per slice: " +
                Describe(Summarize(pass.slice_rate), "cell-s/s"));
    result.Note("fanout (host time of each BAI decision, fastest of " +
                std::to_string(kMobileReps * worlds) + " replays): " +
                Describe(decide, "us"));
    return result;
  }

  // Traced run: half the worlds untraced as the overhead baseline, then
  // the same worlds with the program's metrics and span exports attached.
  configs.resize(static_cast<std::size_t>(std::max(2, worlds / 2)));
  const MobilePass untraced = RunMobilePass(configs, 1, nullptr, result);
  SimLayers layers;
  layers.world_build_ms = Median(build_s) * 1e3;
  layers.untraced_wall_s = untraced.wall_s;
  flare::MetricsRegistry registry;
  flare::SpanTracer spans;
  const double cpu_start = ProcessCpuSeconds();
  const auto pass_start = Clock::now();
  for (std::size_t k = 0; k < configs.size(); ++k) {
    ScenarioConfig traced = configs[k];
    traced.metrics = &registry;
    traced.span_trace = &spans;
    const WorldRun run = RunWorld(traced, /*probe_depth=*/true);
    const std::string why =
        CellInvariants(run.ttis, run.rbs_used, traced.num_rbs, run.result);
    result.Record(why.empty() && SameQoe(run.result, untraced.results[k]),
                  "mobile_cell world " + std::to_string(k) +
                      ": traced run differs from the untraced run " + why);
    layers.traced_wall_s += run.wall_s;
    layers.events += run.events;
    layers.depth_max = std::max(layers.depth_max, run.depth_max);
    layers.ttis += run.ttis;
    layers.rbs_used += run.rbs_used;
    layers.itbs_calls += run.ttis * static_cast<std::uint64_t>(
                                        traced.n_video + traced.n_data);
    const std::vector<double> solve = SolveMicros(run.result);
    layers.solve_us.insert(layers.solve_us.end(), solve.begin(), solve.end());
  }
  layers.pass_wall_s = SecondsBetween(pass_start, Clock::now());
  layers.pass_cpu_s = ProcessCpuSeconds() - cpu_start;
  layers.tti_us = TtiMicros(spans);
  layers.bais = SumCounters(registry, "oneapi.bais");
  layers.switches = SumCounters(registry, "player.switches");
  layers.stalls = SumCounters(registry, "player.stalls");
  layers.mobility_ues = configs[0].n_video + configs[0].n_data;
  layers.candidates = layers.mobility_ues;
  layers.num_rbs = configs[0].num_rbs;
  layers.pss = true;
  EmitSimLayers(result, layers, options.seed);
  return result;
}

Result RunMulticellChurn(const Options& options) {
  Result result;
  int deployments = std::max(
      2, static_cast<int>(kDeploymentsPerSecond * options.seconds + 0.5));
  if (options.trace) deployments = std::max(1, deployments / 2);

  const auto count = static_cast<std::size_t>(deployments);
  // Untraced, the reference runs come first: the serial runtime
  // (workers=0) on the same configs, with metrics attached for the RB
  // invariant and a BAI trace whose decisions the passes replay.
  std::vector<MultiCellResult> reference;
  std::vector<std::vector<std::string>> invariants;  // per deployment, cell
  std::vector<std::vector<RecordedBai>> bais;
  for (std::size_t d = 0; d < count && !options.trace; ++d) {
    MultiCellConfig serial =
        MulticellConfig(options.seed, static_cast<int>(d), 0);
    flare::MetricsRegistry registry;
    flare::BaiTraceSink sink;
    serial.metrics = &registry;
    serial.bai_trace = &sink;
    reference.push_back(flare::RunMultiCellScenario(serial));
    bais.push_back(RecordedBais(sink));
    invariants.emplace_back();
    for (std::size_t c = 0; c < reference.back().cells.size(); ++c) {
      const std::string prefix = "cell" + std::to_string(c) + ".";
      invariants.back().push_back(CellInvariants(
          registry.GetCounter(prefix + "cell.ttis").value(),
          registry.GetCounter(prefix + "cell.rbs_used").value(),
          serial.cell.num_rbs, reference.back().cells[c]));
    }
  }

  // Each deployment timed `reps` times, in whole passes over the
  // deployments like mobile_cell's worlds, each timed run preceded by
  // set-ups of its eight worlds and followed by replays of its recorded
  // decisions. The traced run's untraced baseline times each deployment
  // once.
  const int reps = options.trace ? 1 : kMulticellReps;
  struct Series {
    std::vector<double> build_s;
    std::vector<FastestTimes> run_s;  // per deployment
    double wall_s = 0.0;               // host time of every repetition
    std::vector<FastestTimes> decide_us;  // per deployment
    std::vector<std::string> why;
    std::vector<MultiCellResult> runs;
  };
  Series series;
  series.run_s.resize(count);
  series.decide_us.resize(count);
  series.why.resize(count);
  series.runs.resize(count);
  for (int r = 0; r < reps; ++r) {
    for (std::size_t d = 0; d < count; ++d) {
      const MultiCellConfig config =
          MulticellConfig(options.seed, static_cast<int>(d), kWorkers);
      const std::vector<ScenarioConfig> cells = MulticellCellConfigs(config);
      std::vector<flare::Rng> rngs;
      const flare::Rng master(config.cell.seed);
      for (int c = 0; c < kCells; ++c) {
        rngs.push_back(master.SplitStream(static_cast<std::uint64_t>(c)));
      }
      for (int s = 0; s < kMulticellSetupsPerRun; ++s) {
        series.build_s.push_back(BuildWorldsSeconds(cells, rngs));
      }
      const auto start = Clock::now();
      MultiCellResult run = flare::RunMultiCellScenario(config);
      const double wall_s = SecondsBetween(start, Clock::now());
      series.wall_s += wall_s;
      series.run_s[d].Add({wall_s});
      std::string& why = series.why[d];
      if (r == 0) {
        series.runs[d] = std::move(run);
      } else if (!SameCells(series.runs[d], run) && why.empty()) {
        why = "repetition " + std::to_string(r) + " differs from the first";
      }
      for (std::size_t j = 0; !options.trace && j < count; ++j) {
        const std::uint64_t mismatched =
            ReplayBais(bais[j], config.cell, series.decide_us[j]);
        if (mismatched > 0 && series.why[j].empty()) {
          series.why[j] = std::to_string(mismatched) +
                          " replayed BAI decisions differ from the run's";
        }
      }
    }
  }
  for (std::size_t d = 0; d < count; ++d) {
    result.Record(series.why[d].empty(), "multicell_churn deployment " +
                                             std::to_string(d) + ": " +
                                             series.why[d]);
  }

  if (!options.trace) {
    const double rss_mb = PeakRssMb();
    std::vector<const ScenarioResult*> cells;
    std::vector<double> rate;  // per deployment
    std::vector<double> decide_us;
    double host_s = 0.0;
    for (std::size_t d = 0; d < count; ++d) {
      const MultiCellResult& timed = series.runs[d];
      for (std::size_t c = 0; c < kCells; ++c) {
        std::string why =
            reference[d].cells.size() != kCells || timed.cells.size() != kCells
                ? "cell count differs"
                : invariants[d][c];
        if (why.empty() && !SameQoe(reference[d].cells[c], timed.cells[c])) {
          why = "QoE differs from the serial RunMultiCellScenario";
        }
        result.Record(why.empty(), "multicell_churn deployment " +
                                       std::to_string(d) + " cell " +
                                       std::to_string(c) + ": " + why);
        if (c < timed.cells.size()) cells.push_back(&timed.cells[c]);
      }
      const double run_s = series.run_s[d].units()[0];
      host_s += run_s;
      rate.push_back(kCells * kMulticellDurationS / run_s);
      const std::vector<double> decide = series.decide_us[d].units();
      decide_us.insert(decide_us.end(), decide.begin(), decide.end());
    }
    result.Set("setup_s", Median(series.build_s), "s");
    result.Set("cell_sim_s_per_s",
               kCells * kMulticellDurationS * deployments / host_s,
               "cell-s/s");
    result.Set("peak_rss_mb", rss_mb, "MB");
    SetQoe(result, cells);
    const Distribution decide = Summarize(decide_us);
    result.Set("fanout_p50_us", decide.p50, "us");
    result.Set("fanout_p99_us", decide.p99, "us");
    result.Note(std::to_string(deployments) + " deployments of " +
                std::to_string(kCells) + " cells x " +
                std::to_string(static_cast<int>(kMulticellDurationS)) +
                " s, " + std::to_string(reps) +
                " repetitions each; fastest repetition per deployment: " +
                Describe(Summarize(rate), "cell-s/s"));
    result.Note("fanout (host time of each BAI decision, fastest of " +
                std::to_string(reps * deployments) + " replays): " +
                Describe(decide, "us"));
    return result;
  }

  // Traced run: the same deployments again with the program's metrics and
  // span exports attached.
  SimLayers layers;
  layers.workers = kWorkers;
  layers.untraced_wall_s = series.wall_s;
  layers.world_build_ms = Median(series.build_s) * 1e3 / kCells;
  flare::MetricsRegistry registry;
  flare::SpanTracer spans;
  const double cpu_start = ProcessCpuSeconds();
  const auto pass_start = Clock::now();
  for (int d = 0; d < deployments; ++d) {
    MultiCellConfig traced = MulticellConfig(options.seed, d, kWorkers);
    flare::MetricsRegistry shard_registry;
    flare::SpanTracer shard_spans;
    traced.metrics = &shard_registry;
    traced.span_trace = &shard_spans;
    const auto start = Clock::now();
    const MultiCellResult run = flare::RunMultiCellScenario(traced);
    layers.traced_wall_s += SecondsBetween(start, Clock::now());

    std::string why;
    if (!SameCells(run, series.runs[static_cast<std::size_t>(d)])) {
      why = "traced run differs from untraced run";
    }
    for (int c = 0; c < kCells && why.empty(); ++c) {
      const std::string prefix = "cell" + std::to_string(c) + ".";
      why = CellInvariants(
          shard_registry.GetCounter(prefix + "cell.ttis").value(),
          shard_registry.GetCounter(prefix + "cell.rbs_used").value(),
          traced.cell.num_rbs, run.cells[static_cast<std::size_t>(c)]);
    }
    result.Record(why.empty(), "multicell_churn traced deployment " +
                                   std::to_string(d) + ": " + why);
    // Gauges overwrite on merge: take each deployment's depths first.
    for (const auto& [name, gauge] : shard_registry.gauges()) {
      if (name.size() >= 15 &&
          name.compare(name.size() - 15, 15, "sim.queue_depth") == 0) {
        layers.depth_max = std::max(
            layers.depth_max, static_cast<std::size_t>(gauge.value()));
      }
    }
    registry.MergeFrom(shard_registry, "");
    spans.AbsorbShard(shard_spans);
    for (const ScenarioResult& cell : run.cells) {
      const std::vector<double> us = SolveMicros(cell);
      layers.solve_us.insert(layers.solve_us.end(), us.begin(), us.end());
      layers.sessions_arrived += cell.sessions_arrived;
      layers.sessions_blocked += cell.sessions_blocked;
    }
    layers.epochs += run.barrier_epochs;
    layers.mailbox_messages += run.mailbox_messages;
  }
  layers.pass_wall_s = SecondsBetween(pass_start, Clock::now());
  layers.pass_cpu_s = ProcessCpuSeconds() - cpu_start;

  layers.events = SumCounters(registry, "sim.events");
  layers.ttis = SumCounters(registry, "cell.ttis");
  layers.rbs_used = SumCounters(registry, "cell.rbs_used");
  layers.itbs_calls = 0;  // static-iTbs channels: no mobility to evaluate
  layers.tti_us = TtiMicros(spans);
  layers.bais = SumCounters(registry, "oneapi.bais");
  layers.epoch_ms = SpanDurations(spans, "epoch", 1e-3);
  layers.barrier_wait_ms = SpanDurations(spans, "barrier.wait", 1e-3);
  layers.drain_ms = SpanDurations(spans, "barrier.drain", 1e-3);
  layers.switches = SumCounters(registry, "player.switches");
  layers.stalls = SumCounters(registry, "player.stalls");
  // Scheduler inputs sized like one cell: the static clients plus the
  // mean churned population (Little's law).
  const ScenarioConfig cell = MulticellConfig(options.seed, 0, 0).cell;
  layers.candidates =
      cell.n_video + cell.n_data +
      static_cast<int>(kChurnArrivalsPerS * kChurnMeanHoldS + 0.5);
  layers.mobility_ues = layers.candidates;
  layers.num_rbs = cell.num_rbs;
  layers.pss = false;
  EmitSimLayers(result, layers, options.seed);
  return result;
}

}  // namespace perfbench
