// Media Presentation Description (MPD) model.
//
// HAS divides a video into fixed-duration segments, each encoded at every
// rung of a bitrate ladder; the MPD advertises the ladder and timing. We
// model the fields the rate-adaptation path needs (the FLARE plugin reads
// the ladder from it and forwards the available bitrates to the OneAPI
// server).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace flare {

struct Representation {
  int index = 0;          // 0-based rung on the ladder, ascending bitrate
  double bitrate_bps = 0.0;
};

struct Mpd {
  std::string title;
  double segment_duration_s = 10.0;
  double media_duration_s = 0.0;  // 0 => unbounded (looped/live source)
  std::vector<Representation> representations;  // ascending bitrate
  /// VBR spread: relative standard deviation of per-segment sizes around
  /// the nominal bitrate (0 = constant-bitrate encoding). Sizes vary
  /// deterministically per (segment, representation) so every client
  /// fetching the same segment sees the same bytes.
  double vbr_sigma = 0.0;

  int NumRepresentations() const {
    return static_cast<int>(representations.size());
  }
  double BitrateOf(int index) const;
  /// Nominal size of one segment at ladder index `index`.
  std::uint64_t SegmentBytes(int index) const;
  /// Actual size of segment `segment_number` at index `index`: nominal
  /// under CBR, deterministic pseudo-random variation under VBR.
  std::uint64_t SegmentBytesAt(int index, int segment_number) const;
  /// Highest index whose bitrate is <= `bps`; -1 if even the lowest rung
  /// exceeds it (callers typically clamp to 0).
  int HighestIndexBelow(double bps) const;
  bool Valid() const;  // non-empty, ascending, positive rates/duration
};

/// Build an MPD from a ladder given in Kbps (the unit the paper uses).
Mpd MakeMpd(const std::vector<double>& ladder_kbps,
            double segment_duration_s, double media_duration_s = 0.0,
            const std::string& title = "video");

// Ladders used in the paper.
/// Testbed encoding (Section IV-A), Kbps.
std::vector<double> TestbedLadderKbps();
/// ns-3 simulation ladder (Table III), Kbps.
std::vector<double> SimulationLadderKbps();
/// Dense ladder for the relaxation experiments (Figures 8-10), Kbps.
std::vector<double> DenseLadderKbps();

}  // namespace flare
