#include "sim/simulator.h"

#include <algorithm>
#include <memory>
#include <utility>

namespace flare {

void Simulator::Every(SimTime start, SimTime period, EventFn fn) {
  ScheduleTick(start, period, std::make_shared<EventFn>(std::move(fn)));
}

void Simulator::ScheduleTick(SimTime at, SimTime period,
                             std::shared_ptr<EventFn> task) {
  // A fresh wrapper is built for every occurrence: the queued callable
  // owns the task, runs it, and hands ownership to the next occurrence.
  // (The previous implementation stored the wrapper in a shared_ptr that
  // its own capture list kept alive — a reference cycle that leaked every
  // recurring task's callable for the life of the process.)
  At(at, [this, period, task = std::move(task)]() mutable {
    (*task)();
    ScheduleTick(now_ + period, period, std::move(task));
  });
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
