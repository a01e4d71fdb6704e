#include "sim/parallel_runner.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <string>
#include <utility>

namespace flare {
namespace {

double SteadyNowUs() {
  return static_cast<double>(
             std::chrono::duration_cast<std::chrono::nanoseconds>(
                 std::chrono::steady_clock::now().time_since_epoch())
                 .count()) /
         1000.0;
}

}  // namespace

void EventDomain::Advance(SimTime until, SimTime epoch_start) {
  if (tracer_ == nullptr) {
    sim_.RunUntil(until);
    return;
  }
  const bool timed = !tracer_->deterministic();
  const double wall_begin = timed ? SteadyNowUs() : 0.0;
  sim_.RunUntil(until);
  last_advance_wall_us_ = timed ? SteadyNowUs() - wall_begin : 0.0;
  tracer_->CompleteSpan(kLaneRunner, "runner", "advance",
                        static_cast<double>(epoch_start),
                        last_advance_wall_us_);
}

ParallelRunner::ParallelRunner(const Options& options) : options_(options) {
  options_.epoch = std::max<SimTime>(options_.epoch, kTti);
  options_.workers = std::max(options_.workers, 0);
}

ParallelRunner::~ParallelRunner() {
  if (workers_.empty()) return;
  {
    std::lock_guard<std::mutex> lock(barrier_mu_);
    stop_workers_ = true;
  }
  epoch_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

EventDomain& ParallelRunner::AddDomain() {
  if (started_) {
    throw std::logic_error(
        "ParallelRunner::AddDomain after RunUntil: worker partitions are "
        "fixed at the first run");
  }
  domains_.emplace_back(new EventDomain());
  return *domains_.back();
}

void ParallelRunner::SetObservers(MetricsRegistry* registry,
                                  SpanTracer* tracer, bool deterministic) {
  tracer_ = tracer;
  deterministic_ = deterministic;
  epoch_ms_metric_ = MakeHistogramHandle(registry, "runner.epoch_ms");
  barrier_wait_ms_metric_ =
      MakeHistogramHandle(registry, "runner.barrier_wait_ms");
  epochs_metric_ = MakeCounterHandle(registry, "runner.epochs");
}

void ParallelRunner::SpawnWorkers() {
  const std::size_t n_domains = domains_.size();
  const std::size_t n_workers = std::min<std::size_t>(
      static_cast<std::size_t>(options_.workers), n_domains);
  // Static id-ordered partition: worker w owns the contiguous domain
  // range [w*D/N, (w+1)*D/N) for the whole run. Ownership is fixed, so
  // epochs build no closures and touch no shared job queue.
  for (std::size_t w = 0; w < n_workers; ++w) {
    const std::size_t begin = w * n_domains / n_workers;
    const std::size_t end = (w + 1) * n_domains / n_workers;
    workers_.emplace_back([this, begin, end] { WorkerLoop(begin, end); });
  }
}

void ParallelRunner::RunEpochOnWorkers(SimTime until, SimTime epoch_start) {
  std::unique_lock<std::mutex> lock(barrier_mu_);
  epoch_until_ = until;
  epoch_start_ = epoch_start;
  workers_remaining_ = workers_.size();
  ++generation_;
  // Every worker has a non-empty partition, so waking them all is work,
  // not a thundering herd.
  epoch_cv_.notify_all();
  done_cv_.wait(lock, [this] { return workers_remaining_ == 0; });
  if (worker_error_ != nullptr) {
    std::exception_ptr error = std::exchange(worker_error_, nullptr);
    lock.unlock();
    std::rethrow_exception(error);
  }
}

void ParallelRunner::WorkerLoop(std::size_t begin, std::size_t end) {
  std::uint64_t seen = 0;  // workers spawn before the first generation
  std::unique_lock<std::mutex> lock(barrier_mu_);
  for (;;) {
    epoch_cv_.wait(lock,
                   [this, seen] { return stop_workers_ || generation_ != seen; });
    if (stop_workers_) return;
    seen = generation_;
    const SimTime until = epoch_until_;
    const SimTime epoch_start = epoch_start_;
    lock.unlock();
    // A throwing domain must still arrive at the barrier or the
    // coordinator waits forever; the first error is rethrown there.
    std::exception_ptr error;
    try {
      for (std::size_t i = begin; i < end; ++i) {
        domains_[i]->Advance(until, epoch_start);
      }
    } catch (...) {
      error = std::current_exception();
    }
    lock.lock();
    if (error != nullptr && worker_error_ == nullptr) {
      worker_error_ = std::move(error);
    }
    if (--workers_remaining_ == 0) done_cv_.notify_one();
  }
}

void ParallelRunner::RunUntil(SimTime horizon) {
  if (!started_) {
    started_ = true;
    SpawnWorkers();
  }
  SimTime now = 0;
  while (now < horizon) {
    const SimTime epoch_start = now;
    now = std::min<SimTime>(now + options_.epoch, horizon);
    // Wall-clock reads are skipped entirely in deterministic mode so the
    // recorded bytes cannot depend on thread scheduling.
    const bool timed =
        !deterministic_ && (tracer_ != nullptr || epoch_ms_metric_.enabled());
    const double phase_begin = timed ? SteadyNowUs() : 0.0;
    if (!workers_.empty()) {
      RunEpochOnWorkers(now, epoch_start);
    } else {
      for (auto& d : domains_) d->Advance(now, epoch_start);
    }
    const double phase_us = timed ? SteadyNowUs() - phase_begin : 0.0;
    // Post-barrier the coordinator owns every shard (the barrier join is
    // the happens-before edge), so it may append the per-domain wait spans.
    for (auto& d : domains_) {
      if (d->tracer_ == nullptr) continue;
      const double wait_us =
          std::max(0.0, phase_us - d->last_advance_wall_us_);
      d->tracer_->CompleteSpan(kLaneRunner, "runner", "barrier.wait",
                               static_cast<double>(now), wait_us);
      barrier_wait_ms_metric_.Observe(wait_us / 1000.0);
    }
    ++epochs_;
    epochs_metric_.Add();
    epoch_ms_metric_.Observe(phase_us / 1000.0);
    if (tracer_ != nullptr) {
      tracer_->CompleteSpan(kLaneRunner, "runner", "epoch",
                            static_cast<double>(epoch_start), phase_us,
                            "{\"epoch\":" + std::to_string(epochs_) + "}");
    }
    if (barrier_hook_) barrier_hook_(now);
  }
}

}  // namespace flare
