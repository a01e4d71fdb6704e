#include "sim/event_queue.h"

namespace flare {

std::uint32_t EventQueue::AcquireSlot() {
  if (free_slots_.empty()) {
    const auto base =
        static_cast<std::uint32_t>(chunks_.size() << kChunkShift);
    const std::uint32_t chunk_size = kChunkMask + 1;
    // Reserve first so ReleaseSlot never allocates (and cannot throw).
    free_slots_.reserve(base + chunk_size);
    chunks_.push_back(std::make_unique<Record[]>(chunk_size));
    // Push in reverse so the lowest new slot is handed out first.
    for (std::uint32_t i = chunk_size; i > 0; --i) {
      free_slots_.push_back(base + i - 1);
    }
  }
  const std::uint32_t slot = free_slots_.back();
  free_slots_.pop_back();
  return slot;
}

void EventQueue::ReleaseSlot(std::uint32_t slot) {
  Record& r = record(slot);
  r.destroy(r.storage);
  free_slots_.push_back(slot);
}

void EventQueue::PushKey(Key key) {
  heap_.push_back(key);
  std::size_t i = heap_.size() - 1;
  while (i > 0) {
    const std::size_t parent = (i - 1) / 4;
    if (!Before(key, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = key;
}

void EventQueue::PopRoot() {
  const Key last = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  if (n == 0) return;
  std::size_t i = 0;
  for (;;) {
    const std::size_t first = 4 * i + 1;
    if (first >= n) break;
    const std::size_t end = first + 4 < n ? first + 4 : n;
    std::size_t best = first;
    for (std::size_t c = first + 1; c < end; ++c) {
      if (Before(heap_[c], heap_[best])) best = c;
    }
    if (!Before(heap_[best], last)) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = last;
}

void EventQueue::RunNext() {
  const std::uint32_t slot = heap_.front().slot;
  PopRoot();
  // The record stays put while it runs (pushes only append chunks), and
  // the guard frees the slot after the callable returns or throws.
  struct Release {
    EventQueue& queue;
    std::uint32_t slot;
    ~Release() { queue.ReleaseSlot(slot); }
  } release{*this, slot};
  Record& r = record(slot);
  r.run(r.storage);
}

void EventQueue::Clear() {
  while (!heap_.empty()) {
    const std::uint32_t slot = heap_.back().slot;
    heap_.pop_back();
    ReleaseSlot(slot);
  }
  next_seq_ = 0;
}

}  // namespace flare
