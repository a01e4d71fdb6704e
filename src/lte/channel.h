// Per-UE downlink channel models. A channel answers one question each TTI:
// what I_TBS can this UE sustain right now?
//
// Three models cover the paper's setups:
//  * StaticItbsChannel    — testbed static scenario (fixed vendor iTbs knob).
//  * ItbsOverrideChannel  — testbed dynamic scenario; reproduces the iTbs
//    Override Module of the femtocell (arbitrary iTbs-vs-time schedule; a
//    triangle-wave helper matches the paper's 1->12->1 cycle with per-UE
//    phase offsets).
//  * FadedMobilityChannel — ns-3-style scenario: distance-based pathloss
//    (3GPP macro model) + log-normal shadowing + a trace-based fast-fading
//    process, mapped through AMC to an I_TBS.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "lte/mobility.h"
#include "lte/types.h"
#include "util/rng.h"
#include "util/time.h"

namespace flare {

class ChannelModel {
 public:
  virtual ~ChannelModel() = default;
  /// I_TBS this UE can sustain at time `now`. Must be a pure function of
  /// `now` as long as successive queries are non-decreasing in `now`:
  /// internal state (a mobility leg, a cached answer) may advance, but
  /// skipping or repeating a query never changes a later answer. The cell
  /// relies on this to read a UE's channel only in TTIs where the UE has
  /// data to send, and a model may answer from a cache it can prove is
  /// still exact.
  virtual int ItbsAt(SimTime now) = 0;
};

class StaticItbsChannel final : public ChannelModel {
 public:
  explicit StaticItbsChannel(int itbs) : itbs_(itbs) {}
  int ItbsAt(SimTime) override { return itbs_; }

 private:
  int itbs_;
};

/// iTbs Override Module: the I_TBS follows a caller-provided schedule.
class ItbsOverrideChannel final : public ChannelModel {
 public:
  using Schedule = std::function<int(SimTime)>;
  explicit ItbsOverrideChannel(Schedule schedule)
      : schedule_(std::move(schedule)) {}
  int ItbsAt(SimTime now) override { return schedule_(now); }

 private:
  Schedule schedule_;
};

/// Triangle wave schedule lo -> hi -> lo with the given full period,
/// starting at phase `offset` into the cycle. Matches the paper's dynamic
/// scenario (iTbs 1..12 over 4 minutes, per-UE offsets).
ItbsOverrideChannel::Schedule TriangleItbsSchedule(int lo, int hi,
                                                   SimTime period,
                                                   SimTime offset);

enum class PathlossModel {
  /// 3GPP macro: 128.1 + 37.6 log10(d_km). Steep; produces strong
  /// near-far spread (cell-edge UEs at the lowest MCS).
  kMacro3gpp,
  /// Friis free-space at 2.12 GHz plus a flat penetration loss. This is
  /// the ns-3 LTE default of the paper's era and keeps all UEs in a 2 km
  /// box within a narrow MCS band — matching the near-equal per-client
  /// averages (Jain ~0.99) the paper reports for every scheme.
  kFriisPenetration,
};

struct RadioConfig {
  PathlossModel pathloss = PathlossModel::kFriisPenetration;
  double tx_power_dbm = 30.0;      // ns-3 LTE default eNB power
  double noise_dbm = -95.0;        // thermal noise + NF over 9 MHz
  double penetration_loss_db = 16.0;  // applied under kFriisPenetration
  double shadowing_stddev_db = 3.0;
  double fading_stddev_db = 2.0;
  SimTime fading_sample_period = 10 * kMillisecond;
  double min_distance_m = 10.0;    // pathloss clamp near the eNB
};

/// 3GPP macro pathloss: 128.1 + 37.6 log10(d_km) dB.
double PathlossDb(double distance_m);

/// Friis free-space pathloss at carrier frequency `freq_hz`.
double FriisPathlossDb(double distance_m, double freq_hz = 2.12e9);

/// Pathloss + shadowing + trace-based fast fading over a mobility model.
///
/// The mobility model is shared (a UE visible to several eNodeBs has one
/// trajectory but one channel per site); `site` is the eNodeB position
/// the pathloss is computed against.
///
/// ItbsAt holds its last answer while it is provably exact: within one
/// fading sample only the distance moves the SINR, and the mobility's
/// MaxSpeedMps() and the pathloss slope bound how far the SINR can move
/// before the sample ends. If that bound stays inside the answer's AMC band
/// (less 1e-6 dB), the answer stands until the sample ends; otherwise
/// it stands for repeated queries at the same instant only.
class FadedMobilityChannel final : public ChannelModel {
 public:
  FadedMobilityChannel(std::shared_ptr<MobilityModel> mobility,
                       const RadioConfig& config, Rng rng,
                       Position site = Position{0.0, 0.0});

  int ItbsAt(SimTime now) override;

  /// SINR before AMC quantization (exposed for tests, debugging and the
  /// handover manager's measurements).
  double SinrDbAt(SimTime now);

  /// ItbsAt calls that evaluated the channel rather than answering from
  /// the held I_TBS.
  std::uint64_t evaluations() const { return evaluations_; }

 private:
  double FadingDbAt(SimTime now) const;
  /// Site distance at `now`, clamped at `min_distance_m`.
  double DistanceAt(SimTime now);
  double SinrDb(double distance_m, SimTime now) const;
  /// Largest |d pathloss / d distance| (dB/m) at distances >= `distance_m`.
  double PathlossSlopeDbPerM(double distance_m) const;

  std::shared_ptr<MobilityModel> mobility_;
  RadioConfig config_;
  Position site_;
  double shadowing_db_;
  // Pre-generated repeating fading trace ("trace based model" in Table III):
  // a sum-of-sinusoids Jakes-style process sampled every
  // `fading_sample_period`.
  std::vector<double> fading_trace_db_;
  // ItbsAt's held answer, exact for queries in [held_from_, held_until_).
  int held_itbs_ = 0;
  SimTime held_from_ = 0;
  SimTime held_until_ = 0;
  std::uint64_t evaluations_ = 0;
};

}  // namespace flare
