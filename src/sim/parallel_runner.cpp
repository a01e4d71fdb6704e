#include "sim/parallel_runner.h"

#include <algorithm>
#include <chrono>
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

std::string& EventDomain::StartPost(int to) {
  DomainMessage msg;
  if (!free_.empty()) {
    msg = std::move(free_.back());
    free_.pop_back();
  }
  msg.from = id_;
  msg.to = to;
  msg.seq = next_seq_++;
  msg.payload.clear();  // keep the recycled buffer's capacity
  outbox_.push_back(std::move(msg));
  return outbox_.back().payload;
}

void EventDomain::Post(int to, std::string payload) {
  // assign() copies into the pooled buffer so its capacity survives for
  // the next epoch; the caller's string dies either way.
  StartPost(to).assign(payload);
}

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

ParallelRunner::~ParallelRunner() { StopWorkers(); }

EventDomain& ParallelRunner::AddDomain() {
  const int id = static_cast<int>(domains_.size());
  domains_.emplace_back(new EventDomain(id));
  return *domains_.back();
}

void ParallelRunner::SetObservers(MetricsRegistry* registry,
                                  SpanTracer* tracer, bool deterministic) {
  tracer_ = tracer;
  deterministic_ = deterministic;
  epoch_ms_metric_ = MakeHistogramHandle(registry, "runner.epoch_ms");
  barrier_wait_ms_metric_ =
      MakeHistogramHandle(registry, "runner.barrier_wait_ms");
  drain_ms_metric_ = MakeHistogramHandle(registry, "runner.drain_ms");
  epochs_metric_ = MakeCounterHandle(registry, "runner.epochs");
  messages_metric_ = MakeCounterHandle(registry, "runner.messages");
}

void ParallelRunner::PreparePartitions() {
  const std::size_t n_domains = domains_.size();
  const std::size_t n_workers = std::min<std::size_t>(
      static_cast<std::size_t>(options_.workers), n_domains);
  if (n_workers == 0) return;
  // Static id-ordered partition: worker w owns the contiguous domain
  // range [w*D/N, (w+1)*D/N) for the whole run. Ownership is fixed, so
  // epochs build no closures and touch no shared job queue.
  if (partitions_.size() != workers_.size() ||
      (!partitions_.empty() && partitions_.back().second != n_domains) ||
      workers_.empty()) {
    {
      std::lock_guard<std::mutex> lock(barrier_mu_);
      partitions_.resize(n_workers);
      for (std::size_t w = 0; w < n_workers; ++w) {
        partitions_[w] = {w * n_domains / n_workers,
                          (w + 1) * n_domains / n_workers};
      }
    }
    // Spawn once, lazily: domains are added after construction, and the
    // partition needs the final count. A worker spawned after earlier
    // runs must start at the current generation or it would "arrive" at
    // an epoch that already completed.
    while (workers_.size() < n_workers) {
      const std::size_t w = workers_.size();
      workers_.emplace_back(
          [this, w, gen = generation_] { WorkerLoop(w, gen); });
    }
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

void ParallelRunner::WorkerLoop(std::size_t worker, std::uint64_t seen) {
  std::unique_lock<std::mutex> lock(barrier_mu_);
  for (;;) {
    epoch_cv_.wait(lock,
                   [this, seen] { return stop_workers_ || generation_ != seen; });
    if (stop_workers_) return;
    seen = generation_;
    const SimTime until = epoch_until_;
    const SimTime epoch_start = epoch_start_;
    const auto range = partitions_[worker];
    lock.unlock();
    // A throwing domain must still arrive at the barrier or the
    // coordinator waits forever; the first error is rethrown there.
    std::exception_ptr error;
    try {
      for (std::size_t i = range.first; i < range.second; ++i) {
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

void ParallelRunner::StopWorkers() {
  if (workers_.empty()) return;
  {
    std::lock_guard<std::mutex> lock(barrier_mu_);
    stop_workers_ = true;
  }
  epoch_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
  workers_.clear();
  stop_workers_ = false;
}

void ParallelRunner::RunUntil(SimTime horizon) {
  if (options_.workers > 0) PreparePartitions();
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
    const std::uint64_t delivered_before = delivered_;
    const double drain_begin = timed ? SteadyNowUs() : 0.0;
    DeliverAtBarrier();
    const double drain_us = timed ? SteadyNowUs() - drain_begin : 0.0;
    const std::uint64_t batch = delivered_ - delivered_before;
    messages_metric_.Add(batch);
    epoch_ms_metric_.Observe((phase_us + drain_us) / 1000.0);
    drain_ms_metric_.Observe(drain_us / 1000.0);
    if (tracer_ != nullptr) {
      tracer_->CompleteSpan(kLaneRunner, "runner", "epoch",
                            static_cast<double>(epoch_start), phase_us,
                            "{\"epoch\":" + std::to_string(epochs_) + "}");
      tracer_->CompleteSpan(kLaneRunner, "runner", "barrier.drain",
                            static_cast<double>(now), drain_us);
      tracer_->Counter(kLaneRunner, "runner.mailbox_messages",
                       static_cast<double>(now),
                       static_cast<double>(batch));
    }
    if (barrier_hook_) barrier_hook_(now);
  }
}

void ParallelRunner::Deliver(const DomainMessage& msg) {
  if (msg.to == kCoordinatorDomain) {
    if (coordinator_handler_) coordinator_handler_(msg);
  } else if (msg.to >= 0 && msg.to < static_cast<int>(domains_.size())) {
    auto& handler = domains_[static_cast<std::size_t>(msg.to)]->handler_;
    if (handler) handler(msg);
  }
  ++delivered_;
}

void ParallelRunner::DeliverAtBarrier() {
  // Handlers may post follow-ups; keep draining rounds until quiescent.
  // Each round visits domains in id order and each outbox in seq order,
  // so delivery order is a pure function of what was posted — never of
  // thread scheduling. Outboxes are swapped whole into per-domain scratch
  // vectors (handlers then post into the emptied outbox without
  // invalidating the batch being walked), and every delivered entry goes
  // back to its sender's free list with payload capacity intact.
  drain_scratch_.resize(domains_.size());
  for (;;) {
    bool any = false;
    for (std::size_t i = 0; i < domains_.size(); ++i) {
      if (!domains_[i]->outbox_.empty()) {
        domains_[i]->outbox_.swap(drain_scratch_[i]);
        any = true;
      }
    }
    if (!any) return;
    for (std::size_t i = 0; i < domains_.size(); ++i) {
      std::vector<DomainMessage>& batch = drain_scratch_[i];
      for (const DomainMessage& msg : batch) Deliver(msg);
      // All entries in this scratch came from domain i's outbox; recycle
      // them (and their payload buffers) for its next epoch's posts.
      std::vector<DomainMessage>& pool = domains_[i]->free_;
      for (DomainMessage& msg : batch) pool.push_back(std::move(msg));
      batch.clear();
    }
  }
}

}  // namespace flare
