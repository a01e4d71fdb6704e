// Minimal epoll event loop for background service threads.
//
// The telemetry plane (obs/telemetry_server) and the OneAPI daemon
// (svc/oneapi_service) each run one of these on a dedicated thread; the
// load generator (svc/loadgen) runs one on the thread that calls
// LoadGenerator::Run(). All IO happens inside the loop, and the only
// cross-thread surface is Post(), which enqueues a closure and wakes the
// loop through an eventfd.
//
// Interest contract. Watch() registers an fd with its callback once;
// afterwards SetInterest() changes only the mask. Both call epoll_ctl
// only when the kernel's view actually changes (a new fd, or a mask that
// differs from the registered one), so a service that recomputes its
// interest after every read or write pays no syscall in the steady state.
// Unwatch() makes none either: its caller closes the fd before the loop
// next waits, and closing an fd that no other descriptor shares removes
// it from the epoll set. A connection therefore costs one epoll_ctl (its
// ADD) over its whole life. epoll_ctl_calls() counts every epoll_ctl the
// loop has made for its watches, and dispatches() every IO callback it has
// run; both are safe to read from any thread.
//
// Threading contract: Watch/SetInterest/Unwatch/Run are loop-thread-only
// (call Watch before Run for the initial set, or from a Post()ed task / IO
// callback afterwards). Post(), Stop() and the two counters are safe from
// any thread.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

namespace flare {

class EpollLoop {
 public:
  /// Bitmask passed to IO callbacks; values match EPOLLIN/EPOLLOUT so the
  /// header does not leak <sys/epoll.h> into every includer.
  static constexpr std::uint32_t kReadable = 0x001;   // EPOLLIN
  static constexpr std::uint32_t kWritable = 0x004;   // EPOLLOUT
  static constexpr std::uint32_t kError = 0x008 | 0x010;  // EPOLLERR|HUP

  using IoCallback = std::function<void(std::uint32_t events)>;

  EpollLoop();
  ~EpollLoop();
  EpollLoop(const EpollLoop&) = delete;
  EpollLoop& operator=(const EpollLoop&) = delete;

  /// False when epoll/eventfd creation failed (the loop is inert).
  bool ok() const { return epoll_fd_ >= 0 && wake_fd_ >= 0; }

  /// Register a level-triggered watch, or replace a watched fd's callback
  /// and mask. The callback runs on the loop thread; it may Unwatch or
  /// re-Watch its own fd.
  void Watch(int fd, std::uint32_t events, IoCallback callback);
  /// Change a watched fd's mask and keep its callback; epoll_ctl runs
  /// only when `events` differs from the registered mask. A mask of 0
  /// pauses the fd (the kernel still reports errors and hangups). False
  /// for an fd that is not watched.
  bool SetInterest(int fd, std::uint32_t events);
  /// Drop the watch of an fd the caller closes before the loop next
  /// waits; safe for fds that were never watched. Makes no epoll_ctl: the
  /// close removes the fd from the epoll set, which holds because the fd
  /// is not shared (no dup, and CLOEXEC across fork). An event for the fd
  /// already fetched in this dispatch round is dropped, also when a new
  /// watch reuses the fd number before the round ends.
  void Unwatch(int fd);

  /// Run `task` on the loop thread at the next wakeup. Thread-safe.
  void Post(std::function<void()> task);

  /// Dispatch IO and posted tasks until Stop(). Returns immediately when
  /// construction failed.
  void Run();
  /// Request Run() to return after the current dispatch round.
  /// Thread-safe and idempotent.
  void Stop();

  /// epoll_ctl calls made for watches (ADD and MOD). Thread-safe.
  std::uint64_t epoll_ctl_calls() const {
    return epoll_ctl_calls_.load(std::memory_order_relaxed);
  }
  /// IO callbacks run so far. Thread-safe.
  std::uint64_t dispatches() const {
    return dispatches_.load(std::memory_order_relaxed);
  }

 private:
  /// One watched fd. The callback sits on the heap so it stays put while
  /// it runs, even if it watches new fds and watches_ grows.
  struct Entry {
    std::uint32_t events = 0;
    std::unique_ptr<IoCallback> callback;  // null = not watched
    /// Dispatch round in which the fd was added. Events fetched in that
    /// round predate the watch (they belong to a closed fd that had the
    /// same number), so they are not dispatched.
    std::uint64_t added_round = 0;
  };

  /// The watched entry for `fd`, or null.
  Entry* Find(int fd);
  void Control(int op, int fd, std::uint32_t events);
  void DrainWake();
  void RunPostedTasks();

  int epoll_fd_ = -1;
  int wake_fd_ = -1;  // eventfd: Post()/Stop() wakeups
  /// Indexed by fd: O(1) dispatch lookup, no per-event copy.
  std::vector<Entry> watches_;
  /// Callbacks unwatched or replaced during a dispatch round; destroyed
  /// after it, so a callback can drop its own watch while running.
  std::vector<std::unique_ptr<IoCallback>> retired_;
  /// epoll_wait calls so far; events of one wait form one round.
  std::uint64_t round_ = 0;

  // Written only by the loop thread (plain load + store); read anywhere.
  std::atomic<std::uint64_t> epoll_ctl_calls_{0};
  std::atomic<std::uint64_t> dispatches_{0};

  std::mutex post_mu_;
  std::vector<std::function<void()>> posted_;
  bool stop_requested_ = false;  // under post_mu_
};

}  // namespace flare
