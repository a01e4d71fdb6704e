#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <sstream>

namespace perfbench {

double SortedQuantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

double Quantile(std::vector<double> samples, double q) {
  std::sort(samples.begin(), samples.end());
  return SortedQuantile(samples, q);
}

Distribution Summarize(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  Distribution d;
  d.n = samples.size();
  d.p50 = SortedQuantile(samples, 0.5);
  d.p99 = SortedQuantile(samples, 0.99);
  for (const double q : {0.9, 0.99, 0.999, 0.9999}) {
    // At least ten samples beyond the quantile (1e-6 absorbs the
    // rounding of 1 - q).
    if (static_cast<double>(d.n) * (1.0 - q) + 1e-6 < 10.0) break;
    d.tail_q = q;
    d.tail = SortedQuantile(samples, q);
  }
  return d;
}

std::string Describe(const Distribution& d, const std::string& unit) {
  char buf[192];
  std::snprintf(buf, sizeof(buf), "p50=%.6g p99=%.6g", d.p50, d.p99);
  std::string out = buf;
  if (d.tail_q > 0.99) {
    std::snprintf(buf, sizeof(buf), " p%.6g=%.6g", d.tail_q * 100.0, d.tail);
    out += buf;
  }
  std::snprintf(buf, sizeof(buf), " %s (n=%zu)", unit.c_str(), d.n);
  return out + buf;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0.0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) / 1e9;
}

std::uint64_t DeriveSeed(std::uint64_t seed, std::uint64_t index) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (index + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

void Result::Set(const std::string& name, double value,
                 const std::string& unit) {
  for (Metric& m : metrics_) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics_.push_back(Metric{name, value, unit});
}

void Result::Record(bool ok, const std::string& what) {
  RecordMany(1, ok ? 0 : 1, what);
}

void Result::RecordMany(std::uint64_t attempted, std::uint64_t failed,
                        const std::string& what) {
  attempted_ += attempted;
  failed_ += failed;
  if (failed > 0) {
    std::fprintf(stderr, "check failed: %s (%llu of %llu)\n", what.c_str(),
                 static_cast<unsigned long long>(failed),
                 static_cast<unsigned long long>(attempted));
  }
}

}  // namespace perfbench
