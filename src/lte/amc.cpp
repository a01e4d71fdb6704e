#include "lte/amc.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "lte/tbs_table.h"

namespace flare {
namespace {

// CQI -> I_TBS, index 0 unused (CQI 0 = out of range, clamped to 1).
constexpr int kCqiToItbs[kMaxCqi + 1] = {
    0, 0, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 24, 26, 26,
};

// SINR range covered by the 15 CQI steps.
constexpr double kMinSinrDb = -6.0;
constexpr double kMaxSinrDb = 20.0;

}  // namespace

int SinrDbToCqi(double sinr_db) {
  const double span = kMaxSinrDb - kMinSinrDb;
  const double frac = (sinr_db - kMinSinrDb) / span;
  const int cqi =
      kMinCqi + static_cast<int>(std::floor(frac * (kMaxCqi - kMinCqi)));
  return std::clamp(cqi, kMinCqi, kMaxCqi);
}

int CqiToItbs(int cqi) {
  cqi = std::clamp(cqi, kMinCqi, kMaxCqi);
  return kCqiToItbs[cqi];
}

int SinrDbToItbs(double sinr_db) { return CqiToItbs(SinrDbToCqi(sinr_db)); }

double ItbsBandMarginDb(int itbs, double sinr_db) {
  // The CQIs mapping to `itbs` form one contiguous run [lo, hi].
  int lo = kMinCqi;
  while (lo <= kMaxCqi && kCqiToItbs[lo] != itbs) ++lo;
  if (lo > kMaxCqi) return -std::numeric_limits<double>::infinity();
  int hi = lo;
  while (hi < kMaxCqi && kCqiToItbs[hi + 1] == itbs) ++hi;
  // SinrDbToCqi moves from CQI c to c + 1 at kMinSinrDb + c * step.
  constexpr double kStep = (kMaxSinrDb - kMinSinrDb) / (kMaxCqi - kMinCqi);
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double below =
      lo == kMinCqi ? kInf : sinr_db - (kMinSinrDb + (lo - 1) * kStep);
  const double above =
      hi == kMaxCqi ? kInf : kMinSinrDb + hi * kStep - sinr_db;
  return std::min(below, above);
}

}  // namespace flare
