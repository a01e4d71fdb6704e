#include "lte/mobility.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace flare {

double MobilityModel::MaxSpeedMps() const {
  return std::numeric_limits<double>::infinity();
}

Position RandomPositionInSquare(double area_m, Rng& rng) {
  const double half = area_m / 2.0;
  return Position{rng.Uniform(-half, half), rng.Uniform(-half, half)};
}

Position RandomPositionInAnnulus(double min_radius_m, double max_radius_m,
                                 Rng& rng) {
  const double lo2 = min_radius_m * min_radius_m;
  const double hi2 = max_radius_m * max_radius_m;
  const double r = std::sqrt(rng.Uniform(0.0, 1.0) * (hi2 - lo2) + lo2);
  const double angle = rng.Uniform(0.0, 2.0 * M_PI);
  return Position{r * std::cos(angle), r * std::sin(angle)};
}

RandomWaypointMobility::RandomWaypointMobility(
    const RandomWaypointConfig& config, Rng rng)
    : config_(config), rng_(rng) {
  from_ = RandomPoint();
  to_ = from_;
  leg_end_ = 0;
  pause_end_ = 0;
  PickNextLeg(0);
}

Position RandomWaypointMobility::RandomPoint() {
  return RandomPositionInSquare(config_.area_m, rng_);
}

void RandomWaypointMobility::PickNextLeg(SimTime start) {
  from_ = to_;
  to_ = RandomPoint();
  const double dx = to_.x - from_.x;
  const double dy = to_.y - from_.y;
  const double dist = std::hypot(dx, dy);
  const double speed =
      rng_.Uniform(config_.min_speed_mps, config_.max_speed_mps);
  leg_start_ = start;
  leg_end_ = start + FromSeconds(dist / std::max(speed, 0.1));
  pause_end_ = leg_end_ + FromSeconds(config_.pause_s);
}

double RandomWaypointMobility::MaxSpeedMps() const {
  return std::max({config_.min_speed_mps, config_.max_speed_mps, 0.1});
}

Position RandomWaypointMobility::At(SimTime now) {
  while (now >= pause_end_) PickNextLeg(pause_end_);
  if (now >= leg_end_) return to_;  // pausing at the waypoint
  const double frac = static_cast<double>(now - leg_start_) /
                      static_cast<double>(std::max<SimTime>(
                          leg_end_ - leg_start_, 1));
  return Position{from_.x + (to_.x - from_.x) * frac,
                  from_.y + (to_.y - from_.y) * frac};
}

}  // namespace flare
