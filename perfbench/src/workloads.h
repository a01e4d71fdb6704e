// The benchmark's workloads. Each builds its inputs from Options::seed,
// measures for about Options::seconds, checks the program's outputs, and
// fills a Result: the end-to-end metrics, or with Options::trace the
// per-layer metrics of a separate traced run.
#pragma once

#include "harness.h"

namespace perfbench {

/// One FLARE cell in the Fig 7 configuration, one thread, batch job.
Result RunMobileCell(const Options& options);
/// Eight churned testbed cells on the sharded runtime at workers=2.
Result RunMulticellChurn(const Options& options);
/// An in-process OneApiService fanning out to 1000 loopback sessions on
/// an open-loop 100 ms BAI schedule.
Result RunOneapidFanout(const Options& options);

}  // namespace perfbench
