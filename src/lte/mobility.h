// UE mobility models.
//
// The paper's ns-3 study places UEs randomly in a 2000 m x 2000 m area and,
// for the mobile scenarios, moves them like vehicles. We provide a static
// placement model and a random-waypoint model with configurable speed range
// (vehicular defaults: 10..30 m/s, zero pause).
#pragma once

#include <memory>
#include <vector>

#include "lte/types.h"
#include "util/rng.h"
#include "util/time.h"

namespace flare {

class MobilityModel {
 public:
  virtual ~MobilityModel() = default;
  /// Position at simulated time `now`. Must be non-decreasing in `now`
  /// across calls (models may advance internal state). Every draw a model
  /// makes must be tied to simulated time, not to how often it is read:
  /// channels skip reads they can prove would not change their answer.
  virtual Position At(SimTime now) = 0;
  /// Upper bound on the speed (m/s) of the trajectory At() traces; the
  /// rounding of times to whole microseconds may exceed it by up to 1%.
  /// The default, +inf, promises nothing, and channels then read the
  /// position at every query.
  virtual double MaxSpeedMps() const;
};

/// A UE that never moves.
class StaticMobility final : public MobilityModel {
 public:
  explicit StaticMobility(Position p) : position_(p) {}
  Position At(SimTime) override { return position_; }
  double MaxSpeedMps() const override { return 0.0; }

 private:
  Position position_;
};

struct RandomWaypointConfig {
  double area_m = 2000.0;       // square side length
  double min_speed_mps = 10.0;  // vehicular defaults
  double max_speed_mps = 30.0;
  double pause_s = 0.0;
};

/// Classic random-waypoint mobility inside a square area centred on (0,0)
/// (the eNodeB sits at the origin).
class RandomWaypointMobility final : public MobilityModel {
 public:
  RandomWaypointMobility(const RandomWaypointConfig& config, Rng rng);

  Position At(SimTime now) override;
  /// Legs draw speeds in [min_speed_mps, max_speed_mps), floored at
  /// 0.1 m/s.
  double MaxSpeedMps() const override;

 private:
  void PickNextLeg(SimTime start);
  Position RandomPoint();

  RandomWaypointConfig config_;
  Rng rng_;
  Position from_{};
  Position to_{};
  SimTime leg_start_ = 0;
  SimTime leg_end_ = 0;    // arrival at `to_`
  SimTime pause_end_ = 0;  // end of pause after arrival
};

/// Uniformly random static placement helper used by scenario builders.
Position RandomPositionInSquare(double area_m, Rng& rng);

/// Area-uniform placement in the annulus min_radius <= |p| <= max_radius
/// around the eNB. Scenario builders use this to control the near-far
/// spread of stationary UEs.
Position RandomPositionInAnnulus(double min_radius_m, double max_radius_m,
                                 Rng& rng);

}  // namespace flare
