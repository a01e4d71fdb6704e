#include "has/mpd.h"

#include <algorithm>
#include <cmath>

namespace flare {

double Mpd::BitrateOf(int index) const {
  if (index < 0 || index >= NumRepresentations()) return 0.0;
  return representations[static_cast<std::size_t>(index)].bitrate_bps;
}

std::uint64_t Mpd::SegmentBytes(int index) const {
  const double bits = BitrateOf(index) * segment_duration_s;
  return static_cast<std::uint64_t>(std::llround(bits / 8.0));
}

std::uint64_t Mpd::SegmentBytesAt(int index, int segment_number) const {
  const std::uint64_t nominal = SegmentBytes(index);
  if (vbr_sigma <= 0.0 || nominal == 0) return nominal;
  // SplitMix64 over (segment, representation) -> deterministic scale
  // factor; sum of two uniforms approximates the bell shape cheaply.
  std::uint64_t z = (static_cast<std::uint64_t>(segment_number) << 20) ^
                    static_cast<std::uint64_t>(index);
  z = (z + 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  z = z ^ (z >> 31);
  const double u1 = static_cast<double>(z & 0xffffffffULL) / 4294967296.0;
  const double u2 = static_cast<double>(z >> 32) / 4294967296.0;
  // Mean 0, stddev ~0.408; rescale to vbr_sigma and clamp at +-2.5 sigma.
  const double noise = (u1 + u2 - 1.0) / 0.4082 * vbr_sigma;
  const double scale =
      std::clamp(1.0 + noise, 1.0 - 2.5 * vbr_sigma, 1.0 + 2.5 * vbr_sigma);
  const double bytes = static_cast<double>(nominal) * std::max(scale, 0.1);
  return static_cast<std::uint64_t>(std::llround(bytes));
}

int Mpd::HighestIndexBelow(double bps) const {
  int best = -1;
  for (const Representation& r : representations) {
    if (r.bitrate_bps <= bps) best = r.index;
  }
  return best;
}

bool Mpd::Valid() const {
  if (representations.empty() || segment_duration_s <= 0.0) return false;
  double prev = 0.0;
  for (std::size_t i = 0; i < representations.size(); ++i) {
    const Representation& r = representations[i];
    if (r.index != static_cast<int>(i)) return false;
    if (r.bitrate_bps <= prev) return false;
    prev = r.bitrate_bps;
  }
  return true;
}

Mpd MakeMpd(const std::vector<double>& ladder_kbps,
            double segment_duration_s, double media_duration_s,
            const std::string& title) {
  Mpd mpd;
  mpd.title = title;
  mpd.segment_duration_s = segment_duration_s;
  mpd.media_duration_s = media_duration_s;
  std::vector<double> sorted = ladder_kbps;
  std::sort(sorted.begin(), sorted.end());
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    mpd.representations.push_back(
        Representation{static_cast<int>(i), sorted[i] * 1000.0});
  }
  return mpd;
}

std::vector<double> TestbedLadderKbps() {
  return {200, 310, 450, 790, 1100, 1320, 2280, 2750};
}

std::vector<double> SimulationLadderKbps() {
  return {100, 250, 500, 1000, 2000, 3000};
}

std::vector<double> DenseLadderKbps() {
  std::vector<double> ladder;
  for (int k = 1; k <= 12; ++k) ladder.push_back(100.0 * k);
  return ladder;
}

}  // namespace flare
