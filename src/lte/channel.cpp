#include "lte/channel.h"

#include <algorithm>
#include <cmath>

#include "lte/amc.h"
#include "lte/tbs_table.h"

namespace flare {
namespace {

// Pathloss slopes in dB per decade of distance.
constexpr double kMacroDbPerDecade = 37.6;
constexpr double kFriisDbPerDecade = 20.0;

}  // namespace

ItbsOverrideChannel::Schedule TriangleItbsSchedule(int lo, int hi,
                                                   SimTime period,
                                                   SimTime offset) {
  return [lo, hi, period, offset](SimTime now) {
    if (period <= 0 || hi <= lo) return lo;
    const SimTime t = (now + offset) % period;
    const double phase =
        static_cast<double>(t) / static_cast<double>(period);  // [0,1)
    // Rise for the first half of the cycle, fall for the second.
    const double frac = phase < 0.5 ? phase * 2.0 : (1.0 - phase) * 2.0;
    const int steps = hi - lo;
    return lo + static_cast<int>(std::lround(frac * steps));
  };
}

double PathlossDb(double distance_m) {
  const double d_km = std::max(distance_m, 1.0) / 1000.0;
  return 128.1 + kMacroDbPerDecade * std::log10(d_km);
}

double FriisPathlossDb(double distance_m, double freq_hz) {
  constexpr double kC = 3.0e8;
  const double d = std::max(distance_m, 1.0);
  return kFriisDbPerDecade * std::log10(4.0 * M_PI * d * freq_hz / kC);
}

FadedMobilityChannel::FadedMobilityChannel(
    std::shared_ptr<MobilityModel> mobility, const RadioConfig& config,
    Rng rng, Position site)
    : mobility_(std::move(mobility)), config_(config), site_(site) {
  shadowing_db_ = rng.Gaussian(0.0, config_.shadowing_stddev_db);
  // Sum-of-sinusoids fading process: eight oscillators with random phases
  // and Doppler-spread-ish frequencies (0.5..8 Hz), scaled so the marginal
  // standard deviation matches fading_stddev_db. The trace repeats every
  // ~60 s, which is long relative to the BAI and segment timescales.
  constexpr int kOscillators = 8;
  constexpr double kTraceSeconds = 60.0;
  const int samples = static_cast<int>(
      kTraceSeconds * static_cast<double>(kSecond) /
      static_cast<double>(std::max<SimTime>(config_.fading_sample_period, 1)));
  std::vector<double> freq_hz(kOscillators);
  std::vector<double> phase(kOscillators);
  for (int k = 0; k < kOscillators; ++k) {
    freq_hz[k] = rng.Uniform(0.5, 8.0);
    phase[k] = rng.Uniform(0.0, 2.0 * M_PI);
  }
  const double amplitude =
      config_.fading_stddev_db * std::sqrt(2.0 / kOscillators);
  fading_trace_db_.resize(std::max(samples, 1));
  for (int i = 0; i < static_cast<int>(fading_trace_db_.size()); ++i) {
    const double t = static_cast<double>(i) *
                     ToSeconds(config_.fading_sample_period);
    double v = 0.0;
    for (int k = 0; k < kOscillators; ++k) {
      v += amplitude * std::sin(2.0 * M_PI * freq_hz[k] * t + phase[k]);
    }
    fading_trace_db_[i] = v;
  }
}

double FadedMobilityChannel::FadingDbAt(SimTime now) const {
  const auto idx = static_cast<std::size_t>(
      (now / std::max<SimTime>(config_.fading_sample_period, 1)) %
      static_cast<SimTime>(fading_trace_db_.size()));
  return fading_trace_db_[idx];
}

double FadedMobilityChannel::DistanceAt(SimTime now) {
  const Position p = mobility_->At(now);
  return std::max(std::hypot(p.x - site_.x, p.y - site_.y),
                  config_.min_distance_m);
}

double FadedMobilityChannel::SinrDb(double distance_m, SimTime now) const {
  double pathloss;
  switch (config_.pathloss) {
    case PathlossModel::kMacro3gpp:
      pathloss = PathlossDb(distance_m);
      break;
    case PathlossModel::kFriisPenetration:
    default:
      pathloss = FriisPathlossDb(distance_m) + config_.penetration_loss_db;
      break;
  }
  const double rx_dbm = config_.tx_power_dbm - pathloss + shadowing_db_ +
                        FadingDbAt(now);
  return rx_dbm - config_.noise_dbm;
}

double FadedMobilityChannel::PathlossSlopeDbPerM(double distance_m) const {
  // k log10(d) has slope k / (ln 10 d), which falls as d grows.
  const double k = config_.pathloss == PathlossModel::kMacro3gpp
                       ? kMacroDbPerDecade
                       : kFriisDbPerDecade;
  return k / (std::log(10.0) * distance_m);
}

double FadedMobilityChannel::SinrDbAt(SimTime now) {
  return SinrDb(DistanceAt(now), now);
}

int FadedMobilityChannel::ItbsAt(SimTime now) {
  if (now >= held_from_ && now < held_until_) return held_itbs_;
  ++evaluations_;
  const double distance = DistanceAt(now);
  const double sinr = SinrDb(distance, now);
  held_itbs_ = SinrDbToItbs(sinr);
  held_from_ = now;
  held_until_ = now + 1;
  // Until the fading sample ends only the distance moves the SINR. The
  // UE moves at most `move` metres by then (1% speed headroom covers the
  // mobility's rounding of leg times to whole microseconds), the clamped
  // distance is 1-Lipschitz in position and the pathloss is steepest at
  // the nearest reachable distance, so the SINR moves at most
  // slope(d_lo) * move dB. If that cannot leave the I_TBS band, hold.
  const double speed = mobility_->MaxSpeedMps();
  if (!std::isfinite(speed)) return held_itbs_;
  const SimTime period = std::max<SimTime>(config_.fading_sample_period, 1);
  const SimTime sample_end = (now / period + 1) * period;
  const double move = speed * 1.01 * ToSeconds(sample_end - now) + 1e-6;
  const double d_lo =
      std::max({distance - move, config_.min_distance_m, 1.0});
  if (PathlossSlopeDbPerM(d_lo) * move <
      ItbsBandMarginDb(held_itbs_, sinr) - 1e-6) {
    held_until_ = sample_end;
  }
  return held_itbs_;
}

}  // namespace flare
