// Tests for the netio event loop and listener (src/netio): interest
// changes cost an epoll_ctl only when the mask really changes and keep
// the fd's callback, dropping a watch before the close costs none, a
// callback may drop or replace its own watch, a closed fd's stale event
// is never dispatched, and a listener out of fds says so instead of
// reporting "nothing pending".
#include "netio/event_loop.h"

#include <fcntl.h>
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <future>
#include <thread>

#include "fd_limit.h"
#include "netio/http_client.h"
#include "netio/tcp.h"

namespace flare {
namespace {

using Clock = std::chrono::steady_clock;

/// A connected AF_UNIX stream pair, closed on destruction.
struct SocketPair {
  SocketPair() {
    EXPECT_EQ(socketpair(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK, 0, fds), 0);
  }
  ~SocketPair() {
    for (int fd : fds) {
      if (fd >= 0) close(fd);
    }
  }
  int fds[2] = {-1, -1};
};

/// Runs `loop` on its own thread; Stop()s and joins on destruction.
class LoopThread {
 public:
  explicit LoopThread(EpollLoop* loop)
      : loop_(loop), thread_([loop] { loop->Run(); }) {}
  ~LoopThread() {
    loop_->Stop();
    thread_.join();
  }
  /// Run `task` on the loop thread and wait for it.
  void Sync(std::function<void()> task) {
    std::promise<void> done;
    loop_->Post([&] {
      task();
      done.set_value();
    });
    done.get_future().wait();
  }

 private:
  EpollLoop* loop_;
  std::thread thread_;
};

template <typename Pred>
bool WaitFor(Pred predicate, int timeout_ms = 2000) {
  const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
  while (!predicate()) {
    if (Clock::now() >= deadline) return predicate();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

void SendByte(int fd) {
  const char byte = 'x';
  ASSERT_EQ(send(fd, &byte, 1, MSG_NOSIGNAL), 1);
}

void DrainSocket(int fd) {
  char buf[64];
  while (recv(fd, buf, sizeof(buf), 0) > 0) {
  }
}

TEST(EpollLoop, EpollCtlOnlyWhenTheMaskChanges) {
  EpollLoop loop;
  ASSERT_TRUE(loop.ok());
  SocketPair pair;
  const int fd = pair.fds[0];
  EXPECT_EQ(loop.epoll_ctl_calls(), 0u);

  loop.Watch(fd, EpollLoop::kReadable, [](std::uint32_t) {});
  EXPECT_EQ(loop.epoll_ctl_calls(), 1u);  // ADD
  // Unchanged mask: no syscall, however often it is restated.
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(loop.SetInterest(fd, EpollLoop::kReadable));
  }
  EXPECT_EQ(loop.epoll_ctl_calls(), 1u);
  // Changed mask: exactly one MOD each way.
  const std::uint32_t both = EpollLoop::kReadable | EpollLoop::kWritable;
  EXPECT_TRUE(loop.SetInterest(fd, both));
  EXPECT_EQ(loop.epoll_ctl_calls(), 2u);
  EXPECT_TRUE(loop.SetInterest(fd, both));
  EXPECT_EQ(loop.epoll_ctl_calls(), 2u);
  EXPECT_TRUE(loop.SetInterest(fd, EpollLoop::kReadable));
  EXPECT_EQ(loop.epoll_ctl_calls(), 3u);
  // Re-watching with the same mask swaps the callback without a syscall.
  loop.Watch(fd, EpollLoop::kReadable, [](std::uint32_t) {});
  EXPECT_EQ(loop.epoll_ctl_calls(), 3u);
  // An fd that is not watched is refused, also without a syscall.
  EXPECT_FALSE(loop.SetInterest(pair.fds[1], EpollLoop::kReadable));
  EXPECT_FALSE(loop.SetInterest(-1, EpollLoop::kReadable));
  EXPECT_EQ(loop.epoll_ctl_calls(), 3u);
  // Unwatch leaves the epoll set to the caller's close: no DEL.
  loop.Unwatch(fd);
  EXPECT_EQ(loop.epoll_ctl_calls(), 3u);
  loop.Unwatch(fd);  // already gone: no-op
  EXPECT_EQ(loop.epoll_ctl_calls(), 3u);
  EXPECT_FALSE(loop.SetInterest(fd, EpollLoop::kReadable));
}

TEST(EpollLoop, AcceptedThenClosedConnectionCostsOneEpollCtl) {
  EpollLoop loop;
  TcpListener listener;
  ASSERT_TRUE(listener.Listen("127.0.0.1", 0));
  std::atomic<int> closed{0};
  // The services' connection lifecycle: watch on accept, unwatch and
  // close on EOF.
  loop.Watch(listener.fd(), EpollLoop::kReadable, [&](std::uint32_t) {
    int fd = -1;
    while (listener.Accept(&fd) == AcceptStatus::kAccepted) {
      loop.Watch(fd, EpollLoop::kReadable | EpollLoop::kError,
                 [&loop, &closed, fd](std::uint32_t) {
                   char buf[64];
                   if (recv(fd, buf, sizeof(buf), 0) > 0) return;
                   loop.Unwatch(fd);
                   close(fd);
                   closed.fetch_add(1);
                 });
    }
  });
  LoopThread runner(&loop);
  constexpr int kConnections = 20;
  for (int i = 0; i < kConnections; ++i) {
    const int client =
        BlockingConnect("127.0.0.1", listener.bound_port(), 2000);
    ASSERT_GE(client, 0);
    close(client);
  }
  ASSERT_TRUE(WaitFor([&] { return closed.load() == kConnections; }));
  runner.Sync([] {});
  // One ADD for the listener and one per connection; no DEL.
  EXPECT_EQ(loop.epoll_ctl_calls(), 1u + kConnections);
}

TEST(EpollLoop, StaleEventOfAClosedFdIsNeverDispatched) {
  EpollLoop loop;
  SocketPair first;
  SocketPair second;
  // Both fds are readable, so one epoll_wait returns both. Whichever
  // callback runs first closes the other fd and watches a fresh, idle
  // socket under the same fd number. The event already fetched for the
  // closed fd must not reach the new watch.
  std::atomic<int> calls{0};
  std::atomic<int> stale{0};
  int fresh[2] = {-1, -1};
  const auto make = [&](int self, SocketPair* other) {
    return [&, self, other](std::uint32_t) {
      DrainSocket(self);
      if (calls.fetch_add(1) > 0) return;
      // Stop after this round whatever the checks below find.
      loop.Post([&] { loop.Stop(); });
      ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK, 0, fresh),
                0);
      const int reused = other->fds[0];
      loop.Unwatch(reused);
      close(reused);
      other->fds[0] = -1;
      // Move the idle end onto the closed fd's number.
      ASSERT_EQ(fcntl(fresh[0], F_DUPFD_CLOEXEC, reused), reused);
      close(fresh[0]);
      fresh[0] = reused;
      loop.Watch(reused, EpollLoop::kReadable,
                 [&](std::uint32_t) { stale.fetch_add(1); });
    };
  };
  loop.Watch(first.fds[0], EpollLoop::kReadable, make(first.fds[0], &second));
  loop.Watch(second.fds[0], EpollLoop::kReadable,
             make(second.fds[0], &first));
  SendByte(first.fds[1]);
  SendByte(second.fds[1]);
  loop.Run();  // one round: the first callback's posted Stop ends it
  EXPECT_EQ(calls.load(), 1);
  EXPECT_EQ(stale.load(), 0);
  EXPECT_EQ(loop.dispatches(), 1u);
  for (int fd : fresh) {
    if (fd >= 0) close(fd);
  }
}

TEST(EpollLoop, CallbackSurvivesInterestChanges) {
  EpollLoop loop;
  SocketPair pair;
  const int fd = pair.fds[0];
  std::atomic<int> reads{0};
  std::atomic<int> writables{0};
  // The service pattern: write interest is dropped once the socket took
  // the data, by the callback itself.
  loop.Watch(fd, EpollLoop::kReadable, [&](std::uint32_t events) {
    if ((events & EpollLoop::kReadable) != 0) {
      DrainSocket(fd);
      reads.fetch_add(1);
    }
    if ((events & EpollLoop::kWritable) != 0) {
      writables.fetch_add(1);
      loop.SetInterest(fd, EpollLoop::kReadable);
    }
  });
  LoopThread runner(&loop);

  SendByte(pair.fds[1]);
  ASSERT_TRUE(WaitFor([&] { return reads.load() == 1; }));
  runner.Sync([&] {
    EXPECT_TRUE(loop.SetInterest(fd, EpollLoop::kReadable |
                                         EpollLoop::kWritable));
  });
  ASSERT_TRUE(WaitFor([&] { return writables.load() == 1; }));
  // The callback registered first still handles reads afterwards.
  SendByte(pair.fds[1]);
  ASSERT_TRUE(WaitFor([&] { return reads.load() == 2; }));
  runner.Sync([] {});
  EXPECT_EQ(writables.load(), 1);  // write interest really dropped
  EXPECT_EQ(loop.epoll_ctl_calls(), 3u);  // ADD, MOD, MOD
  EXPECT_GE(loop.dispatches(), 3u);
}

TEST(EpollLoop, CallbackMayUnwatchItself) {
  EpollLoop loop;
  SocketPair first;
  SocketPair second;
  std::atomic<int> calls{0};
  // Each callback drops and closes both watched fds, then keeps using its
  // own captured state: the running std::function must outlive its
  // Unwatch. Whichever fd dispatches first, the other is never dispatched
  // after it is unwatched within the same round.
  const auto make = [&](int* self, int* other) {
    return [&loop, &calls, self, other](std::uint32_t) {
      for (int* fd : {self, other}) {
        loop.Unwatch(*fd);
        close(*fd);
        *fd = -1;
      }
      calls.fetch_add(1);
    };
  };
  loop.Watch(first.fds[0], EpollLoop::kReadable,
             make(&first.fds[0], &second.fds[0]));
  loop.Watch(second.fds[0], EpollLoop::kReadable,
             make(&second.fds[0], &first.fds[0]));
  SendByte(first.fds[1]);
  SendByte(second.fds[1]);
  LoopThread runner(&loop);
  ASSERT_TRUE(WaitFor([&] { return calls.load() >= 1; }));
  runner.Sync([] {});
  EXPECT_EQ(calls.load(), 1);
  EXPECT_EQ(loop.dispatches(), 1u);
}

TEST(EpollLoop, CallbackMayReplaceItself) {
  EpollLoop loop;
  SocketPair pair;
  const int fd = pair.fds[0];
  std::atomic<int> first_calls{0};
  std::atomic<int> second_calls{0};
  loop.Watch(fd, EpollLoop::kReadable, [&](std::uint32_t) {
    DrainSocket(fd);
    loop.Watch(fd, EpollLoop::kReadable, [&](std::uint32_t) {
      DrainSocket(fd);
      second_calls.fetch_add(1);
    });
    first_calls.fetch_add(1);  // still alive after being replaced
  });
  LoopThread runner(&loop);
  SendByte(pair.fds[1]);
  ASSERT_TRUE(WaitFor([&] { return first_calls.load() == 1; }));
  SendByte(pair.fds[1]);
  ASSERT_TRUE(WaitFor([&] { return second_calls.load() == 1; }));
  EXPECT_EQ(first_calls.load(), 1);
}

TEST(TcpListener, FdExhaustionIsReportedNotHidden) {
  TcpListener listener;
  ASSERT_TRUE(listener.Listen("127.0.0.1", 0));
  int fd = -1;
  EXPECT_EQ(listener.Accept(&fd), AcceptStatus::kNone);
  EXPECT_EQ(fd, -1);

  const int client =
      BlockingConnect("127.0.0.1", listener.bound_port(), 2000);
  ASSERT_GE(client, 0);
  {
    // No fd number below the limit is free: the queued connection cannot
    // be accepted, and Accept must say why.
    FdLimit limit(static_cast<rlim_t>(LowestFreeFd()));
    ASSERT_TRUE(limit.ok());
    EXPECT_EQ(listener.Accept(&fd), AcceptStatus::kFdExhausted);
    EXPECT_EQ(fd, -1);
  }
  // With the limit restored the same connection is still queued.
  EXPECT_EQ(listener.Accept(&fd), AcceptStatus::kAccepted);
  EXPECT_GE(fd, 0);
  if (fd >= 0) close(fd);
  close(client);
}

}  // namespace
}  // namespace flare
