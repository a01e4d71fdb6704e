#include "netio/tcp.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace flare {

bool SetNonBlocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0) return false;
  return fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

TcpListener::~TcpListener() { Close(); }

bool TcpListener::Listen(const std::string& address, std::uint16_t port) {
  Close();
  fd_ = socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd_ < 0) return false;
  const int one = 1;
  setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (inet_pton(AF_INET, address.c_str(), &addr.sin_addr) != 1) {
    Close();
    return false;
  }
  if (bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      listen(fd_, 64) != 0) {
    Close();
    return false;
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (getsockname(fd_, reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
    bound_port_ = ntohs(bound.sin_port);
  }
  return true;
}

AcceptStatus TcpListener::Accept(int* fd) {
  *fd = -1;
  if (fd_ < 0) return AcceptStatus::kNone;
  for (;;) {
    const int conn =
        accept4(fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (conn >= 0) {
      *fd = conn;
      return AcceptStatus::kAccepted;
    }
    switch (errno) {
      case EINTR:
      case ECONNABORTED:  // the peer gave up while queued: take the next
        continue;
      case EMFILE:
      case ENFILE:
      case ENOBUFS:
      case ENOMEM:
        return AcceptStatus::kFdExhausted;
      default:
        return AcceptStatus::kNone;
    }
  }
}

void TcpListener::Close() {
  if (fd_ >= 0) close(fd_);
  fd_ = -1;
  bound_port_ = 0;
}

TcpConnection::TcpConnection(int fd) : fd_(fd) {
  if (fd_ >= 0) {
    SetNonBlocking(fd_);
    const int one = 1;
    setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }
}

TcpConnection::~TcpConnection() { Close(); }

IoStatus TcpConnection::ReadSome() {
  if (fd_ < 0) return IoStatus::kError;
  char buf[4096];
  bool any = false;
  for (;;) {
    const ssize_t n = recv(fd_, buf, sizeof(buf), 0);
    if (n > 0) {
      inbox_.append(buf, static_cast<std::size_t>(n));
      any = true;
      continue;
    }
    if (n == 0) return IoStatus::kEof;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return any ? IoStatus::kOk : IoStatus::kWouldBlock;
    }
    if (errno == EINTR) continue;
    return IoStatus::kError;
  }
}

IoStatus TcpConnection::Flush() {
  if (fd_ < 0) return IoStatus::kError;
  while (outbox_offset_ < outbox_.size()) {
    const ssize_t n =
        send(fd_, outbox_.data() + outbox_offset_,
             outbox_.size() - outbox_offset_, MSG_NOSIGNAL);
    ++sends_;
    if (n > 0) {
      outbox_offset_ += static_cast<std::size_t>(n);
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      // Compact occasionally so a long-lived stream does not keep the
      // already-written prefix around forever.
      if (outbox_offset_ > 64 * 1024) {
        outbox_.erase(0, outbox_offset_);
        outbox_offset_ = 0;
      }
      return IoStatus::kWouldBlock;
    }
    if (errno == EINTR) continue;
    return IoStatus::kError;
  }
  outbox_.clear();
  outbox_offset_ = 0;
  return IoStatus::kOk;
}

void TcpConnection::Close() {
  if (fd_ >= 0) close(fd_);
  fd_ = -1;
}

}  // namespace flare
