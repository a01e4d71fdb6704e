// Layer probes: the per-call cost of each layer's public entry point,
// timed on inputs sized like a workload. Multiplied by the counts a run
// reads from the program's own exports, they attribute the run's wall
// time to layers without adding instrumentation to the program.
//
// Every probe times several batches of calls and returns the median
// nanoseconds per call, so one descheduled batch does not move it.
#pragma once

#include <cstddef>
#include <cstdint>

namespace perfbench {

/// EventQueue::Push plus RunNext on a queue holding `depth` events (a
/// hold model: each popped event is replaced by one 1..1000 µs later).
double EventQueueNs(std::size_t depth, std::uint64_t seed);

/// FadedMobilityChannel::ItbsAt for `ues` vehicular UEs, one call per UE
/// per 1 ms TTI, as the cell refreshes them.
double MobilityItbsNs(int ues, std::uint64_t seed);

enum class SchedulerUnderTest { kPss, kTwoPhaseGbr };
/// Scheduler::Allocate over `candidates` backlogged flows (one data flow,
/// the rest GBR video) in a `num_rbs` cell.
double AllocateNs(SchedulerUnderTest which, int candidates, int num_rbs,
                  std::uint64_t seed);

/// EncodeFrame of an EncodeRateAssignment payload.
double EncodeAssignmentNs();
/// ParseFrame plus DecodeRateAssignment of one assignment frame, as a
/// client handles it.
double ParseAssignmentNs();

}  // namespace perfbench
