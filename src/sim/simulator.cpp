#include "sim/simulator.h"

#include <algorithm>
#include <memory>
#include <utility>

namespace flare {

void Simulator::Every(SimTime start, SimTime period, EventFn fn) {
  recurring_.push_back(
      std::make_unique<Recurring>(Recurring{std::move(fn), period}));
  At(start, Tick{this, recurring_.back().get()});
}

void Simulator::RunUntil(SimTime until) {
  stopped_ = false;
  while (!stopped_ && !queue_.Empty() && queue_.NextTime() <= until) {
    now_ = queue_.NextTime();
    queue_.RunNext();
    ++events_processed_;
    events_metric_.Add();
  }
  // Even if no event lands exactly at `until`, the run semantically covers
  // [0, until]; advance the clock so metrics see the full horizon. A Stop()
  // keeps the clock at the stopping event instead.
  if (!stopped_) now_ = std::max(now_, until);
  queue_depth_metric_.Set(static_cast<double>(queue_.Size()));
}

void Simulator::SetMetrics(MetricsRegistry* registry) {
  events_metric_ = MakeCounterHandle(registry, "sim.events");
  queue_depth_metric_ = MakeGaugeHandle(registry, "sim.queue_depth");
}

}  // namespace flare
