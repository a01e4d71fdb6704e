#include "netio/event_loop.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <cerrno>
#include <utility>

namespace flare {

EpollLoop::EpollLoop() {
  epoll_fd_ = epoll_create1(EPOLL_CLOEXEC);
  wake_fd_ = eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (ok()) {
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = wake_fd_;
    epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev);
  }
}

EpollLoop::~EpollLoop() {
  if (epoll_fd_ >= 0) close(epoll_fd_);
  if (wake_fd_ >= 0) close(wake_fd_);
}

void EpollLoop::Control(int op, int fd, std::uint32_t events) {
  epoll_event ev{};
  ev.events = events;  // kReadable/kWritable/kError mirror EPOLL* values
  ev.data.fd = fd;
  epoll_ctl(epoll_fd_, op, fd, &ev);
  epoll_ctl_calls_.store(epoll_ctl_calls_.load(std::memory_order_relaxed) + 1,
                         std::memory_order_relaxed);
}

void EpollLoop::Watch(int fd, std::uint32_t events, IoCallback callback) {
  if (!ok() || fd < 0) return;
  if (static_cast<std::size_t>(fd) >= watches_.size()) {
    watches_.resize(static_cast<std::size_t>(fd) + 1);
  }
  Entry& entry = watches_[static_cast<std::size_t>(fd)];
  if (entry.callback == nullptr) {
    Control(EPOLL_CTL_ADD, fd, events);
    entry.added_round = round_;
  } else {
    if (entry.events != events) Control(EPOLL_CTL_MOD, fd, events);
    retired_.push_back(std::move(entry.callback));
  }
  entry.events = events;
  entry.callback = std::make_unique<IoCallback>(std::move(callback));
}

EpollLoop::Entry* EpollLoop::Find(int fd) {
  if (fd < 0 || static_cast<std::size_t>(fd) >= watches_.size()) {
    return nullptr;
  }
  Entry& entry = watches_[static_cast<std::size_t>(fd)];
  return entry.callback != nullptr ? &entry : nullptr;
}

bool EpollLoop::SetInterest(int fd, std::uint32_t events) {
  Entry* entry = Find(fd);
  if (entry == nullptr) return false;
  if (entry->events != events) {
    Control(EPOLL_CTL_MOD, fd, events);
    entry->events = events;
  }
  return true;
}

void EpollLoop::Unwatch(int fd) {
  Entry* entry = Find(fd);
  if (entry == nullptr) return;
  retired_.push_back(std::move(entry->callback));
  entry->events = 0;
}

void EpollLoop::Post(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(post_mu_);
    posted_.push_back(std::move(task));
  }
  const std::uint64_t one = 1;
  [[maybe_unused]] ssize_t n = write(wake_fd_, &one, sizeof(one));
}

void EpollLoop::Stop() {
  {
    std::lock_guard<std::mutex> lock(post_mu_);
    stop_requested_ = true;
  }
  const std::uint64_t one = 1;
  [[maybe_unused]] ssize_t n = write(wake_fd_, &one, sizeof(one));
}

void EpollLoop::DrainWake() {
  std::uint64_t count = 0;
  while (read(wake_fd_, &count, sizeof(count)) > 0) {
  }
}

void EpollLoop::RunPostedTasks() {
  std::vector<std::function<void()>> tasks;
  {
    std::lock_guard<std::mutex> lock(post_mu_);
    tasks.swap(posted_);
  }
  for (auto& task : tasks) task();
}

void EpollLoop::Run() {
  if (!ok()) return;
  epoll_event ready[64];
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(post_mu_);
      if (stop_requested_) return;
    }
    const int n = epoll_wait(epoll_fd_, ready, 64, -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      return;
    }
    ++round_;
    for (int i = 0; i < n; ++i) {
      const int fd = ready[i].data.fd;
      if (fd == wake_fd_) {
        DrainWake();
        continue;
      }
      // Look the callback up fresh: an earlier callback this round may
      // have unwatched and closed this fd, and maybe watched a new fd
      // under the same number. One that unwatches or replaces itself is
      // parked in retired_ until the round ends.
      const Entry* entry = Find(fd);
      if (entry == nullptr || entry->added_round == round_) continue;
      dispatches_.store(dispatches_.load(std::memory_order_relaxed) + 1,
                        std::memory_order_relaxed);
      // Through a raw pointer: the callback may grow watches_.
      IoCallback* callback = entry->callback.get();
      (*callback)(ready[i].events);
    }
    RunPostedTasks();
    retired_.clear();
  }
}

}  // namespace flare
