// Discrete-event queue.
//
// Events at the same timestamp fire in scheduling order (a monotonically
// increasing sequence number breaks ties), which keeps runs deterministic
// regardless of heap internals.
//
// Layout: a 4-ary min-heap of POD {at, seq, slot} keys indexes a chunked
// slab of 64-byte records. A record holds its callable inline when it fits
// kInlineBytes (every lambda the simulator schedules does), otherwise a
// pointer to a heap copy. Records never move: chunks are allocated on
// demand and kept, so a callable runs in place and may push new events
// while it runs. Its slot is destroyed and recycled only after it returns.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/time.h"

namespace flare {

using EventFn = std::function<void()>;

class EventQueue {
 public:
  /// Callables up to this size (and max_align_t alignment) are stored in
  /// the slab record itself; larger ones cost one heap allocation.
  static constexpr std::size_t kInlineBytes = 48;

  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;
  ~EventQueue() { Clear(); }

  template <typename F>
  void Push(SimTime at, F&& fn) {
    using Fn = std::decay_t<F>;
    if (heap_.size() == heap_.capacity()) {
      heap_.reserve(heap_.empty() ? 64 : 2 * heap_.size());
    }
    const std::uint32_t slot = AcquireSlot();
    Record& r = record(slot);
    try {
      if constexpr (sizeof(Fn) <= kInlineBytes &&
                    alignof(Fn) <= alignof(std::max_align_t)) {
        ::new (static_cast<void*>(r.storage)) Fn(std::forward<F>(fn));
        r.run = [](void* p) { (*std::launder(static_cast<Fn*>(p)))(); };
        r.destroy = [](void* p) { std::launder(static_cast<Fn*>(p))->~Fn(); };
      } else {
        ::new (static_cast<void*>(r.storage))
            Fn*(new Fn(std::forward<F>(fn)));
        r.run = [](void* p) { (**std::launder(static_cast<Fn**>(p)))(); };
        r.destroy = [](void* p) { delete *std::launder(static_cast<Fn**>(p)); };
      }
    } catch (...) {
      free_slots_.push_back(slot);
      throw;
    }
    PushKey(Key{at, next_seq_++, slot});
  }

  bool Empty() const { return heap_.empty(); }
  std::size_t Size() const { return heap_.size(); }

  /// Time of the earliest pending event; undefined when empty.
  SimTime NextTime() const { return heap_.front().at; }

  /// Sequence number the next Push will take. Two pushes with the same
  /// `at` and no push between them run back to back.
  std::uint64_t NextSeq() const { return next_seq_; }

  /// Pops and runs the earliest event. Caller must check Empty() first.
  /// If the event throws, it is still destroyed and the rest of the queue
  /// is left intact.
  void RunNext();

  /// Destroys every pending callable (not one that is running) and resets
  /// the sequence counter.
  void Clear();

 private:
  struct Key {
    SimTime at;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  struct Record {
    void (*run)(void*);
    void (*destroy)(void*);
    alignas(std::max_align_t) unsigned char storage[kInlineBytes];
  };
  static constexpr std::uint32_t kChunkShift = 6;  // 64 records (4 KiB)
  static constexpr std::uint32_t kChunkMask = (1u << kChunkShift) - 1;

  static bool Before(const Key& a, const Key& b) {
    return a.at != b.at ? a.at < b.at : a.seq < b.seq;
  }
  Record& record(std::uint32_t slot) {
    return chunks_[slot >> kChunkShift][slot & kChunkMask];
  }
  std::uint32_t AcquireSlot();
  /// Destroys the slot's callable and returns the slot to the free list.
  void ReleaseSlot(std::uint32_t slot);
  /// Inserts `key` into the heap; capacity is already reserved.
  void PushKey(Key key);
  /// Removes the root of the heap.
  void PopRoot();

  std::vector<Key> heap_;
  std::vector<std::unique_ptr<Record[]>> chunks_;
  /// Free slab slots, most recently freed last (reused first).
  std::vector<std::uint32_t> free_slots_;
  std::uint64_t next_seq_ = 0;
};

}  // namespace flare
