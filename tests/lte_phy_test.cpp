// Tests for the LTE PHY-abstraction pieces: TBS table, AMC mappings,
// channel models and mobility.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <set>

#include "lte/amc.h"
#include "lte/channel.h"
#include "lte/mobility.h"
#include "lte/tbs_table.h"
#include "util/rng.h"

namespace flare {
namespace {

TEST(TbsTable, KnownCornerValues) {
  // 36.213 Table 7.1.7.2.1-1, n_PRB = 1 column.
  EXPECT_EQ(TbsBitsPerPrb(0), 16);
  EXPECT_EQ(TbsBitsPerPrb(10), 144);
  EXPECT_EQ(TbsBitsPerPrb(26), 712);
}

TEST(TbsTable, MonotoneInItbs) {
  for (int i = kMinItbs; i < kMaxItbs; ++i) {
    EXPECT_LT(TbsBitsPerPrb(i), TbsBitsPerPrb(i + 1)) << "itbs " << i;
  }
}

TEST(TbsTable, LinearInPrbs) {
  EXPECT_EQ(TbsBits(5, 10), 10 * TbsBitsPerPrb(5));
  EXPECT_EQ(TbsBits(5, 0), 0);
  EXPECT_EQ(TbsBits(5, -3), 0);
}

TEST(TbsTable, ClampsOutOfRangeItbs) {
  EXPECT_EQ(TbsBitsPerPrb(-5), TbsBitsPerPrb(kMinItbs));
  EXPECT_EQ(TbsBitsPerPrb(100), TbsBitsPerPrb(kMaxItbs));
}

TEST(TbsTable, CellRate) {
  // 50 PRBs every 1 ms at iTbs 7 (104 bits/PRB) = 5.2 Mbit/s.
  EXPECT_DOUBLE_EQ(ItbsToCellRateBps(7, 50), 5.2e6);
}

TEST(Amc, CqiRangeCovered) {
  EXPECT_EQ(SinrDbToCqi(-100.0), kMinCqi);  // stays attached at CQI 1
  EXPECT_EQ(SinrDbToCqi(100.0), kMaxCqi);
}

TEST(Amc, MonotoneSinrToCqi) {
  int prev = 0;
  for (double sinr = -10.0; sinr <= 25.0; sinr += 0.5) {
    const int cqi = SinrDbToCqi(sinr);
    EXPECT_GE(cqi, prev);
    prev = cqi;
  }
}

TEST(Amc, MonotoneCqiToItbs) {
  int prev = -1;
  for (int cqi = kMinCqi; cqi <= kMaxCqi; ++cqi) {
    const int itbs = CqiToItbs(cqi);
    EXPECT_GE(itbs, prev);
    EXPECT_GE(itbs, kMinItbs);
    EXPECT_LE(itbs, kMaxItbs);
    prev = itbs;
  }
}

TEST(Amc, TopCqiReachesTopItbs) { EXPECT_EQ(CqiToItbs(15), kMaxItbs); }

/// SINR at which SinrDbToCqi moves from CQI `cqi` to `cqi` + 1.
double CqiUpperEdgeDb(int cqi) { return -6.0 + 26.0 * cqi / 14.0; }

TEST(Amc, BandMarginAtEveryCqiEdge) {
  constexpr double kEps = 1e-9;
  for (int cqi = kMinCqi; cqi < kMaxCqi; ++cqi) {
    const double edge = CqiUpperEdgeDb(cqi);
    const int below = SinrDbToItbs(edge - kEps);
    const int above = SinrDbToItbs(edge + kEps);
    EXPECT_EQ(below, CqiToItbs(cqi)) << "cqi " << cqi;
    EXPECT_EQ(above, CqiToItbs(cqi + 1)) << "cqi " << cqi;
    if (below != above) {
      EXPECT_NEAR(ItbsBandMarginDb(below, edge - kEps), kEps, 1e-13)
          << "cqi " << cqi;
      EXPECT_NEAR(ItbsBandMarginDb(above, edge + kEps), kEps, 1e-13)
          << "cqi " << cqi;
    } else {
      // CQI 14 and 15 share I_TBS 26: the 14|15 edge is not a band edge,
      // and the band reaches down to the 13|14 edge and up forever.
      EXPECT_EQ(cqi, 14);
      const double lower = CqiUpperEdgeDb(13);
      EXPECT_NEAR(ItbsBandMarginDb(below, edge - kEps), edge - kEps - lower,
                  1e-12);
      EXPECT_NEAR(ItbsBandMarginDb(above, edge + kEps), edge + kEps - lower,
                  1e-12);
    }
  }
}

TEST(Amc, BandMarginOpenEndedBands) {
  // CQI 1 (I_TBS 0) is unbounded below: only its upper edge counts.
  EXPECT_DOUBLE_EQ(ItbsBandMarginDb(0, -100.0), CqiUpperEdgeDb(1) + 100.0);
  EXPECT_DOUBLE_EQ(ItbsBandMarginDb(0, -1e300), CqiUpperEdgeDb(1) + 1e300);
  // I_TBS 26 (CQI 14..15) is unbounded above.
  EXPECT_DOUBLE_EQ(ItbsBandMarginDb(26, 100.0), 100.0 - CqiUpperEdgeDb(13));
  EXPECT_DOUBLE_EQ(ItbsBandMarginDb(26, 1e300), 1e300 - CqiUpperEdgeDb(13));
}

TEST(Amc, BandMarginIsNegativeOutsideTheBand) {
  EXPECT_LT(ItbsBandMarginDb(0, 10.0), 0.0);
  EXPECT_LT(ItbsBandMarginDb(26, -3.0), 0.0);
  EXPECT_LT(ItbsBandMarginDb(SinrDbToItbs(5.0), 12.0), 0.0);
  // An odd I_TBS is no CQI's: no SINR maps to it.
  EXPECT_LT(ItbsBandMarginDb(7, 3.0), 0.0);
}

TEST(Amc, PositiveBandMarginKeepsTheItbs) {
  // Everywhere within the margin (less a sliver for rounding) the
  // mapping keeps the I_TBS: the certificate FadedMobilityChannel uses.
  for (double sinr = -12.0; sinr <= 26.0; sinr += 0.0137) {
    const int itbs = SinrDbToItbs(sinr);
    const double margin = ItbsBandMarginDb(itbs, sinr);
    ASSERT_GT(margin, 0.0) << "sinr " << sinr;
    const double reach = std::min(margin, 1e3) - 1e-9;
    for (const double f : {-1.0, -0.5, -0.01, 0.01, 0.5, 1.0}) {
      EXPECT_EQ(SinrDbToItbs(sinr + f * reach), itbs)
          << "sinr " << sinr << " offset " << f * reach;
    }
  }
}

TEST(Channel, StaticItbsIsConstant) {
  StaticItbsChannel channel(9);
  EXPECT_EQ(channel.ItbsAt(0), 9);
  EXPECT_EQ(channel.ItbsAt(FromSeconds(1000)), 9);
}

TEST(Channel, TriangleSweepsFullRange) {
  const auto schedule =
      TriangleItbsSchedule(1, 12, FromSeconds(240), 0);
  std::set<int> seen;
  for (double t = 0.0; t < 240.0; t += 1.0) {
    const int itbs = schedule(FromSeconds(t));
    EXPECT_GE(itbs, 1);
    EXPECT_LE(itbs, 12);
    seen.insert(itbs);
  }
  EXPECT_EQ(static_cast<int>(seen.size()), 12);
}

TEST(Channel, TriangleRisesThenFalls) {
  const auto schedule =
      TriangleItbsSchedule(1, 12, FromSeconds(240), 0);
  EXPECT_EQ(schedule(0), 1);
  EXPECT_EQ(schedule(FromSeconds(120)), 12);  // peak at half period
  EXPECT_EQ(schedule(FromSeconds(240)), 1);   // back to start
  EXPECT_LT(schedule(FromSeconds(30)), schedule(FromSeconds(60)));
  EXPECT_GT(schedule(FromSeconds(150)), schedule(FromSeconds(200)));
}

TEST(Channel, TriangleOffsetShiftsPhase) {
  const SimTime period = FromSeconds(240);
  const auto base = TriangleItbsSchedule(1, 12, period, 0);
  const auto shifted = TriangleItbsSchedule(1, 12, period, period / 2);
  EXPECT_EQ(shifted(0), base(period / 2));
}

TEST(Channel, PathlossGrowsWithDistance) {
  EXPECT_LT(PathlossDb(100.0), PathlossDb(500.0));
  EXPECT_LT(PathlossDb(500.0), PathlossDb(1400.0));
  // 3GPP macro at 1 km: 128.1 dB.
  EXPECT_NEAR(PathlossDb(1000.0), 128.1, 1e-9);
}

TEST(Channel, FadedMobilityNearVsFar) {
  RadioConfig radio;
  Rng rng(5);
  FadedMobilityChannel near_channel(
      std::make_shared<StaticMobility>(Position{50.0, 0.0}), radio,
      rng.Fork(1));
  FadedMobilityChannel far_channel(
      std::make_shared<StaticMobility>(Position{1300.0, 0.0}), radio,
      rng.Fork(2));
  // Average over fading: near should beat far decisively.
  double near_sum = 0.0;
  double far_sum = 0.0;
  for (int i = 0; i < 100; ++i) {
    near_sum += near_channel.ItbsAt(FromSeconds(i * 0.1));
    far_sum += far_channel.ItbsAt(FromSeconds(i * 0.1));
  }
  EXPECT_GT(near_sum, far_sum);
  EXPECT_GE(far_sum / 100.0, kMinItbs);
}

TEST(Channel, FadingVariesOverTime) {
  RadioConfig radio;
  Rng rng(6);
  FadedMobilityChannel channel(
      std::make_shared<StaticMobility>(Position{400.0, 0.0}), radio,
      rng.Fork(3));
  std::set<double> sinrs;
  for (int i = 0; i < 200; ++i) {
    sinrs.insert(channel.SinrDbAt(FromSeconds(i * 0.05)));
  }
  EXPECT_GT(sinrs.size(), 10u);  // trace-based fading moves the SINR
}

// --- Lazy vs eager I_TBS -------------------------------------------------
//
// FadedMobilityChannel::ItbsAt holds an answer while a bound proves it
// unchanged. These tests replay seeded trajectories through a held
// channel and an identically seeded twin whose SINR is mapped afresh at
// every query, and require the two to agree at every instant.

/// Query instants: every TTI, sparse (random microsecond gaps of up to
/// 40 ms, so whole fading samples are skipped), or every TTI asked 1-3
/// times.
enum class QueryPattern { kEveryTti, kSparse, kRepeated };

using ChannelFactory = std::function<std::unique_ptr<FadedMobilityChannel>()>;

/// Channel over a random-waypoint UE; equal arguments give equal
/// channels with independent state.
ChannelFactory WaypointChannel(const RandomWaypointConfig& waypoint,
                               const RadioConfig& radio, std::uint64_t seed,
                               Position site = Position{0.0, 0.0}) {
  return [=] {
    Rng rng(seed);
    auto mobility =
        std::make_shared<RandomWaypointMobility>(waypoint, rng.Fork(1));
    return std::make_unique<FadedMobilityChannel>(std::move(mobility), radio,
                                                  rng.Fork(2), site);
  };
}

struct LazyEagerCount {
  std::uint64_t reads = 0;
  std::uint64_t evaluations = 0;
  std::set<int> itbs_seen;
};

/// Queries a fresh channel from `make` over [0, horizon) in `pattern`
/// and expects each answer to equal SinrDbToItbs(SinrDbAt(t)) of a twin.
LazyEagerCount ExpectLazyMatchesEager(const ChannelFactory& make,
                                      QueryPattern pattern, SimTime horizon,
                                      std::uint64_t pattern_seed) {
  const auto lazy = make();
  const auto eager = make();
  Rng pick(pattern_seed);
  LazyEagerCount count;
  std::uint64_t mismatches = 0;
  for (SimTime t = 0; t < horizon;) {
    const int expected = SinrDbToItbs(eager->SinrDbAt(t));
    const int repeats =
        pattern == QueryPattern::kRepeated
            ? static_cast<int>(pick.UniformInt(1, 3))
            : 1;
    for (int r = 0; r < repeats; ++r) {
      ++count.reads;
      const int got = lazy->ItbsAt(t);
      count.itbs_seen.insert(got);
      if (got != expected && ++mismatches <= 5) {
        ADD_FAILURE() << "t=" << t << " us: held " << got << ", fresh "
                      << expected;
      }
    }
    t += pattern == QueryPattern::kSparse ? pick.UniformInt(1, 40000)
                                          : kTti;
  }
  EXPECT_EQ(mismatches, 0u);
  count.evaluations = lazy->evaluations();
  return count;
}

constexpr QueryPattern kAllPatterns[] = {
    QueryPattern::kEveryTti, QueryPattern::kSparse, QueryPattern::kRepeated};

TEST(LazyItbs, Fig7TrajectoriesSkipMostEvaluations) {
  // The Fig 7 cell: 8 vehicular UEs on the default radio.
  LazyEagerCount total;
  for (std::uint64_t ue = 0; ue < 8; ++ue) {
    const LazyEagerCount c = ExpectLazyMatchesEager(
        WaypointChannel(RandomWaypointConfig{}, RadioConfig{}, 100 + ue),
        QueryPattern::kEveryTti, FromSeconds(120), ue);
    total.reads += c.reads;
    total.evaluations += c.evaluations;
  }
  EXPECT_EQ(total.reads, 8u * 120'000u);
  // At most 90% can be skipped: one evaluation per 10 ms fading sample.
  EXPECT_LE(total.evaluations * 5, total.reads)
      << total.evaluations << " evaluations for " << total.reads
      << " reads";
}

TEST(LazyItbs, BothPathlossModelsPausesAndLegTurns) {
  // A 300 m square turns legs every few seconds, and 1.5 s pauses hold
  // the UE still; tx power puts the SINR across the CQI range (and past
  // both ends) for each pathloss model.
  RandomWaypointConfig waypoint;
  waypoint.area_m = 300.0;
  waypoint.pause_s = 1.5;
  for (const PathlossModel model :
       {PathlossModel::kFriisPenetration, PathlossModel::kMacro3gpp}) {
    RadioConfig radio;
    radio.pathloss = model;
    radio.tx_power_dbm = 5.0;
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      for (const QueryPattern pattern : kAllPatterns) {
        SCOPED_TRACE(::testing::Message()
                     << "model " << static_cast<int>(model) << " seed "
                     << seed << " pattern " << static_cast<int>(pattern));
        const LazyEagerCount c = ExpectLazyMatchesEager(
            WaypointChannel(waypoint, radio, seed), pattern, FromSeconds(60),
            seed);
        EXPECT_GE(c.itbs_seen.size(), 6u);
      }
    }
  }
}

TEST(LazyItbs, SiteOnThePathHitsTheMinDistanceClamp) {
  // Put the site where the UE is at t = 7 s: the UE drives through it,
  // so the distance falls under min_distance_m and the clamp engages.
  RandomWaypointConfig waypoint;
  waypoint.area_m = 500.0;
  for (const PathlossModel model :
       {PathlossModel::kFriisPenetration, PathlossModel::kMacro3gpp}) {
    // SINR in the CQI range within a few tens of metres of the site.
    RadioConfig radio;
    radio.pathloss = model;
    radio.tx_power_dbm = model == PathlossModel::kMacro3gpp ? -35.0 : -15.0;
    for (std::uint64_t seed = 4; seed <= 6; ++seed) {
      RandomWaypointMobility probe(waypoint, Rng(seed).Fork(1));
      const Position site = probe.At(FromSeconds(7));
      for (const QueryPattern pattern : kAllPatterns) {
        const LazyEagerCount c = ExpectLazyMatchesEager(
            WaypointChannel(waypoint, radio, seed, site), pattern,
            FromSeconds(14), seed);
        if (pattern != QueryPattern::kSparse) {
          EXPECT_GE(c.itbs_seen.size(), 6u);
        }
      }
    }
  }
}

TEST(LazyItbs, SinrWithinMicroDecibelsOfACqiEdge) {
  // tx power places the SINR at t0 within 1e-6 dB of a CQI edge: the
  // certificate must not hold across the edge. Fading off, so during a
  // pause the SINR sits at the edge for a whole second.
  RandomWaypointConfig waypoint;
  waypoint.area_m = 400.0;
  waypoint.pause_s = 1.0;
  for (const PathlossModel model :
       {PathlossModel::kFriisPenetration, PathlossModel::kMacro3gpp}) {
    RadioConfig radio;
    radio.pathloss = model;
    radio.fading_stddev_db = 0.0;
    radio.tx_power_dbm = 0.0;
    for (std::uint64_t seed = 7; seed <= 9; ++seed) {
      // One instant inside a pause, one while driving.
      RandomWaypointMobility probe(waypoint, Rng(seed).Fork(1));
      SimTime paused = -1;
      SimTime moving = -1;
      for (SimTime t = kTti; t < FromSeconds(30); t += kTti) {
        const Position a = probe.At(t - kTti);
        const Position b = probe.At(t);
        if (a.x == b.x && a.y == b.y) {
          if (paused < 0) paused = t;
        } else if (moving < 0 && t > FromSeconds(2)) {
          moving = t;
        }
      }
      ASSERT_GE(paused, 0);
      ASSERT_GE(moving, 0);
      for (const SimTime t0 : {paused, moving}) {
        const double base = WaypointChannel(waypoint, radio, seed)()
                                ->SinrDbAt(t0);
        for (const int cqi : {3, 9, 13}) {
          for (const double offset : {-1e-6, -3e-7, 0.0, 3e-7, 1e-6}) {
            RadioConfig edge = radio;
            edge.tx_power_dbm = CqiUpperEdgeDb(cqi) + offset - base;
            for (const QueryPattern pattern : kAllPatterns) {
              ExpectLazyMatchesEager(WaypointChannel(waypoint, edge, seed),
                                     pattern, t0 + FromSeconds(1), seed);
            }
          }
        }
      }
    }
  }
}

TEST(LazyItbs, StaticUeAtACqiEdgeIsNeverHeldAcross) {
  RadioConfig radio;
  radio.fading_stddev_db = 0.0;
  radio.shadowing_stddev_db = 0.0;
  radio.tx_power_dbm = 0.0;
  const auto make = [&radio] {
    return std::make_unique<FadedMobilityChannel>(
        std::make_shared<StaticMobility>(Position{250.0, 0.0}), radio,
        Rng(3));
  };
  const double base = make()->SinrDbAt(0);
  for (const double offset : {-1e-6, 0.0, 1e-6}) {
    radio.tx_power_dbm = CqiUpperEdgeDb(6) + offset - base;
    const LazyEagerCount c = ExpectLazyMatchesEager(
        make, QueryPattern::kEveryTti, FromSeconds(1), 1);
    EXPECT_EQ(c.reads, 1000u);
  }
  // Away from an edge a UE that never moves is evaluated once per sample.
  radio.tx_power_dbm = CqiUpperEdgeDb(6) + 0.5 - base;
  const LazyEagerCount c =
      ExpectLazyMatchesEager(make, QueryPattern::kEveryTti, FromSeconds(1), 1);
  EXPECT_EQ(c.evaluations, 100u);
}

TEST(LazyItbs, BoundUsesTheSlopeAtTheNearestReachableDistance) {
  // A UE drives straight at the site at 30 m/s and is 12 m out when a
  // fading sample starts, 0.2196 dB below a CQI edge. By the sample's last
  // microsecond it is 11.70003 m out and 0.21985 dB higher: across the
  // edge. The slope at 12 m would bound the rise by 0.21932 dB and wrongly
  // hold; the slope at 12 m less the largest possible move does not.
  class Approach final : public MobilityModel {
   public:
    Position At(SimTime now) override {
      return Position{15.0 - 30.0 * ToSeconds(now), 0.0};
    }
    double MaxSpeedMps() const override { return 30.0; }
  };
  RadioConfig radio;
  radio.fading_stddev_db = 0.0;
  radio.shadowing_stddev_db = 0.0;
  radio.tx_power_dbm = 0.0;
  const SimTime t0 = 100 * kMillisecond;  // a sample boundary, 12 m out
  const SimTime last = t0 + radio.fading_sample_period - 1;
  const auto make = [&radio] {
    return std::make_unique<FadedMobilityChannel>(
        std::make_shared<Approach>(), radio, Rng(1));
  };
  radio.tx_power_dbm = CqiUpperEdgeDb(9) - 0.2196 - make()->SinrDbAt(t0);
  const auto lazy = make();
  const auto eager = make();
  const int before = SinrDbToItbs(eager->SinrDbAt(t0));
  const int after = SinrDbToItbs(eager->SinrDbAt(last));
  ASSERT_EQ(after, before + 2);  // the edge is crossed within the sample
  EXPECT_EQ(lazy->ItbsAt(t0), before);
  EXPECT_EQ(lazy->ItbsAt(last), after);
}

TEST(LazyItbs, UnboundedSpeedEvaluatesEveryQuery) {
  // A mobility model that promises no speed bound gets no hold.
  class Wander final : public MobilityModel {
   public:
    Position At(SimTime now) override {
      return Position{100.0 + 50.0 * std::sin(ToSeconds(now)), 0.0};
    }
  };
  RadioConfig radio;
  radio.tx_power_dbm = 0.0;
  const ChannelFactory make = [&radio] {
    return std::make_unique<FadedMobilityChannel>(std::make_shared<Wander>(),
                                                  radio, Rng(8));
  };
  const LazyEagerCount c =
      ExpectLazyMatchesEager(make, QueryPattern::kEveryTti, FromSeconds(2), 1);
  EXPECT_EQ(c.evaluations, c.reads);
}

TEST(Mobility, StaticStaysPut) {
  StaticMobility m(Position{3.0, 4.0});
  const Position p = m.At(FromSeconds(100));
  EXPECT_EQ(p.x, 3.0);
  EXPECT_EQ(p.y, 4.0);
}

TEST(Mobility, RandomWaypointStaysInArea) {
  RandomWaypointConfig config;
  config.area_m = 1000.0;
  RandomWaypointMobility m(config, Rng(11));
  for (double t = 0.0; t < 600.0; t += 1.0) {
    const Position p = m.At(FromSeconds(t));
    EXPECT_GE(p.x, -500.0);
    EXPECT_LE(p.x, 500.0);
    EXPECT_GE(p.y, -500.0);
    EXPECT_LE(p.y, 500.0);
  }
}

TEST(Mobility, RandomWaypointActuallyMoves) {
  RandomWaypointConfig config;
  RandomWaypointMobility m(config, Rng(12));
  const Position a = m.At(0);
  const Position b = m.At(FromSeconds(30));
  const double dist = std::hypot(a.x - b.x, a.y - b.y);
  EXPECT_GT(dist, 10.0);  // vehicular speeds cover >10 m in 30 s
}

TEST(Mobility, SpeedIsBounded) {
  RandomWaypointConfig config;
  config.min_speed_mps = 10.0;
  config.max_speed_mps = 30.0;
  RandomWaypointMobility m(config, Rng(13));
  Position prev = m.At(0);
  for (double t = 1.0; t < 300.0; t += 1.0) {
    const Position p = m.At(FromSeconds(t));
    const double speed = std::hypot(p.x - prev.x, p.y - prev.y);
    EXPECT_LE(speed, 30.0 * 1.42 + 1e-6);  // diagonal waypoint switches
    prev = p;
  }
}

TEST(Mobility, RandomPlacementInSquare) {
  Rng rng(14);
  for (int i = 0; i < 100; ++i) {
    const Position p = RandomPositionInSquare(2000.0, rng);
    EXPECT_GE(p.x, -1000.0);
    EXPECT_LE(p.x, 1000.0);
    EXPECT_GE(p.y, -1000.0);
    EXPECT_LE(p.y, 1000.0);
  }
}

}  // namespace
}  // namespace flare
