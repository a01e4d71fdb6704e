// Golden-trace regression harness: short, fully deterministic reference
// scenarios whose BAI trace CSVs are checked in under tests/golden/. A
// fresh run must reproduce the stored bytes exactly; any drift in the
// scheduler, solver, transport or trace formatting fails with a diff-able
// artifact instead of a silent behaviour change.
//
// When a change *intentionally* alters the traces, regenerate with
//   FLARE_REGEN_GOLDEN=1 ./build/tests/golden_trace_test
// and commit the updated CSVs after reviewing the diff.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "obs/bai_trace.h"
#include "scenario/scenario.h"

#ifndef FLARE_GOLDEN_DIR
#error "FLARE_GOLDEN_DIR must point at tests/golden (set by CMake)"
#endif

namespace flare {
namespace {

bool RegenRequested() {
  const char* env = std::getenv("FLARE_REGEN_GOLDEN");
  return env != nullptr && env[0] != '\0' && std::string(env) != "0";
}

std::string GoldenPath(const std::string& name) {
  return std::string(FLARE_GOLDEN_DIR) + "/" + name;
}

/// Run `config` with a trace sink attached and return the trace CSV.
std::string TraceCsv(ScenarioConfig config) {
  BaiTraceSink trace;
  config.bai_trace = &trace;
  // Golden bytes must not depend on solver wall clock.
  config.oneapi.deterministic_timing = true;
  RunScenario(config);
  std::ostringstream out;
  trace.WriteCsv(out);
  return out.str();
}

void CheckAgainstGolden(const std::string& name, const std::string& fresh) {
  const std::string path = GoldenPath(name);
  if (RegenRequested()) {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << fresh;
    ASSERT_TRUE(out.good()) << "short write to " << path;
    GTEST_SKIP() << "regenerated " << path;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good())
      << path << " missing — run with FLARE_REGEN_GOLDEN=1 to create it";
  std::ostringstream stored;
  stored << in.rdbuf();
  // One EXPECT_EQ over the whole file: gtest prints the first differing
  // line, which names the BAI where behaviour drifted.
  EXPECT_EQ(stored.str(), fresh)
      << "trace drift vs " << path
      << " (regenerate with FLARE_REGEN_GOLDEN=1 if intentional)";
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

}  // namespace
}  // namespace flare
