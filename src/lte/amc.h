// Adaptive modulation and coding (AMC): SINR -> CQI -> I_TBS.
//
// The CQI selection follows the usual link-level abstraction: CQI 1..15
// spans roughly -6 dB .. +20 dB SINR, and each CQI maps to an I_TBS via a
// monotone table approximating the ns-3 LteAmc/36.213 mapping. Exact link
// adaptation curves differ per vendor; only monotonicity and the spanned
// rate range affect the experiments.
#pragma once

namespace flare {

inline constexpr int kMinCqi = 1;
inline constexpr int kMaxCqi = 15;

/// SINR (dB) to CQI. Values below the CQI-1 threshold still return CQI 1:
/// the UE stays attached at the lowest MCS rather than dropping out.
int SinrDbToCqi(double sinr_db);

/// CQI to I_TBS (36.213-style monotone mapping).
int CqiToItbs(int cqi);

/// Composition of the two mappings.
int SinrDbToItbs(double sinr_db);

/// Distance in dB from `sinr_db` to the nearest SINR at which
/// SinrDbToItbs would leave `itbs`, i.e. to the nearer edge of the band
/// of SINRs mapping to `itbs` (CQI 14 and 15 share I_TBS 26, so that band
/// has no upper edge; CQI 1 has no lower edge). Negative when `sinr_db`
/// lies outside the band. The edges are exact real numbers, not the
/// floating-point switch points, so a caller keeps a small slack.
double ItbsBandMarginDb(int itbs, double sinr_db);

}  // namespace flare
