// Shared fd-exhaustion helpers for the netio and service tests: lower
// this process's soft RLIMIT_NOFILE just far enough that the next socket
// or accept fails with EMFILE, and restore it whatever the test's outcome.
#pragma once

#include <fcntl.h>
#include <sys/resource.h>
#include <unistd.h>

namespace flare {

/// Lowers the soft RLIMIT_NOFILE to `soft` and restores the saved limit on
/// destruction.
class FdLimit {
 public:
  explicit FdLimit(rlim_t soft) {
    ok_ = getrlimit(RLIMIT_NOFILE, &saved_) == 0;
    rlimit lowered = saved_;
    lowered.rlim_cur = soft;
    ok_ = ok_ && setrlimit(RLIMIT_NOFILE, &lowered) == 0;
  }
  ~FdLimit() { setrlimit(RLIMIT_NOFILE, &saved_); }
  FdLimit(const FdLimit&) = delete;
  FdLimit& operator=(const FdLimit&) = delete;
  bool ok() const { return ok_; }

 private:
  rlimit saved_{};
  bool ok_ = false;
};

/// The lowest fd number not in use: every number below it is taken, so a
/// limit of LowestFreeFd() + k leaves room for exactly k more fds.
inline int LowestFreeFd() {
  const int probe = open("/dev/null", O_RDONLY | O_CLOEXEC);
  if (probe >= 0) close(probe);
  return probe;
}

}  // namespace flare
