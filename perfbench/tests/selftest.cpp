// Self-tests of the benchmark's own logic: exact quantiles and the
// assignment-to-tick pairing. perfbench/run.py runs them before every
// benchmark run; a failure stops the run.
#include <cmath>
#include <cstdio>
#include <vector>

#include "harness.h"
#include "ledger.h"

namespace {

int g_failures = 0;

void Expect(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "selftest line %d: %s\n", line, what);
    ++g_failures;
  }
}
#define EXPECT(cond) Expect((cond), #cond, __LINE__)

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void TestQuantiles() {
  using perfbench::Quantile;
  EXPECT(Quantile({}, 0.5) == 0.0);
  EXPECT(Quantile({7.0}, 0.99) == 7.0);
  // Linear interpolation between order statistics, input order ignored.
  EXPECT(Near(Quantile({4, 1, 3, 2}, 0.5), 2.5));
  EXPECT(Near(Quantile({1, 2, 3, 4, 5}, 0.25), 2.0));
  EXPECT(Quantile({1, 2, 3}, 0.0) == 1.0);
  EXPECT(Quantile({1, 2, 3}, 1.0) == 3.0);
  EXPECT(Quantile({1, 2, 3}, 2.0) == 3.0);  // clamped
  std::vector<double> ramp;
  for (int i = 0; i <= 1000; ++i) ramp.push_back(i);
  EXPECT(Near(Quantile(ramp, 0.99), 990.0));
  // Unlike decade-bucket interpolation, a skewed sample keeps its median.
  std::vector<double> skewed(999, 0.137);
  skewed.push_back(50.0);
  EXPECT(Near(perfbench::Median(skewed), 0.137));
}

void TestTailSelection() {
  std::vector<double> samples;
  for (int i = 0; i < 1000; ++i) samples.push_back(i);
  // 1000 samples: p99 leaves 10 beyond it, p99.9 only 1.
  const perfbench::Distribution d = perfbench::Summarize(samples);
  EXPECT(d.n == 1000);
  EXPECT(Near(d.tail_q, 0.99));
  EXPECT(Near(d.tail, d.p99));
  EXPECT(Near(d.p50, 499.5));
  // Too few samples for any tail.
  EXPECT(perfbench::Summarize({1, 2, 3}).tail_q == 0.0);
  samples.resize(100000, 1.0);
  EXPECT(Near(perfbench::Summarize(samples).tail_q, 0.9999));
}

void TestPairing() {
  using Outcome = perfbench::FanoutLedger::Outcome;
  // Two sessions (flows 10, 11), three ticks due at 0, 100, 200 µs.
  perfbench::FanoutLedger ledger({10, 11}, 3, 0.0, 100.0);
  std::size_t tick = 99;
  // Nothing triggered yet: an assignment cannot be paired.
  EXPECT(ledger.OnAssignment(0, 10, 5.0, &tick) == Outcome::kUnpaired);
  ledger.OnTickTriggered(0);
  EXPECT(ledger.OnAssignment(0, 11, 5.0, &tick) == Outcome::kWrongFlow);
  EXPECT(ledger.OnAssignment(0, 10, 30.0, &tick) == Outcome::kPaired);
  EXPECT(tick == 0);
  // A second frame before tick 1 fired is unpaired, not tick 1's answer.
  EXPECT(ledger.OnAssignment(0, 10, 40.0, &tick) == Outcome::kUnpaired);
  ledger.OnTickTriggered(1);
  // Session 1's tick-0 assignment arrives after tick 1 was due: late.
  EXPECT(ledger.OnAssignment(1, 11, 150.0, &tick) == Outcome::kLate);
  EXPECT(tick == 0);
  EXPECT(ledger.OnAssignment(0, 10, 120.0, &tick) == Outcome::kPaired);
  EXPECT(tick == 1);
  // Fan-out counts from the due time: 30 - 0, 150 - 0, 120 - 100.
  const std::vector<std::vector<double>> expected = {{30.0, 150.0}, {20.0}, {}};
  EXPECT(ledger.fanout_us() == expected);
  // Remaining: session 0 tick 2, session 1 ticks 1 and 2.
  EXPECT(ledger.Missing() == 3);
  ledger.OnTickTriggered(2);
  EXPECT(ledger.OnAssignment(0, 10, 210.0, &tick) == Outcome::kPaired);
  EXPECT(ledger.OnAssignment(0, 10, 220.0, &tick) == Outcome::kUnpaired);
  EXPECT(ledger.Missing() == 2);
}

void TestSeeds() {
  EXPECT(perfbench::DeriveSeed(1, 0) == perfbench::DeriveSeed(1, 0));
  EXPECT(perfbench::DeriveSeed(1, 0) != perfbench::DeriveSeed(1, 1));
  EXPECT(perfbench::DeriveSeed(1, 0) != perfbench::DeriveSeed(2, 0));
}

}  // namespace

int main() {
  TestQuantiles();
  TestTailSelection();
  TestPairing();
  TestSeeds();
  if (g_failures > 0) {
    std::fprintf(stderr, "perfbench selftest: %d failure(s)\n", g_failures);
    return 1;
  }
  std::fprintf(stderr, "perfbench selftest: ok\n");
  return 0;
}
