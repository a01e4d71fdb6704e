// Non-blocking TCP building blocks for EpollLoop services.
//
// TcpListener binds/listens (port 0 picks an ephemeral port — tests and
// the telemetry server report the real port via bound_port()) and
// accepts non-blocking connections. TcpConnection owns one accepted fd
// with buffered reads and writes: producers append to the outbox with
// Queue(), Flush() pushes as much as the socket takes, and
// pending_bytes() lets the owner enforce a cap so one slow peer can
// never grow memory without bound. Graceful shutdown = CloseAfterFlush()
// + draining Flush() until done.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace flare {

enum class IoStatus {
  kOk,          // made progress
  kWouldBlock,  // nothing to do right now (EAGAIN)
  kEof,         // peer closed its side
  kError,       // unrecoverable socket error
};

/// Outcome of one TcpListener::Accept().
enum class AcceptStatus {
  kAccepted,     // a new connection fd was handed out
  kNone,         // nothing pending (EAGAIN), or the listener is closed
  kFdExhausted,  // EMFILE/ENFILE (or no socket memory): a connection is
                 // still queued, and a level-triggered watch on the
                 // listener fires again at once until an fd frees up
};

/// Make `fd` non-blocking; returns false on fcntl failure.
bool SetNonBlocking(int fd);

class TcpListener {
 public:
  TcpListener() = default;
  ~TcpListener();
  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;

  /// Bind `address:port` (port 0 = ephemeral) and listen, non-blocking
  /// with SO_REUSEADDR. Returns false on any failure.
  bool Listen(const std::string& address, std::uint16_t port);
  /// Accept one pending connection as a non-blocking fd into `*fd`
  /// (ownership passes to the caller); `*fd` is -1 unless kAccepted. On
  /// kFdExhausted the owner should stop watching the listener until one
  /// of its own fds closes, or it spins.
  AcceptStatus Accept(int* fd);

  int fd() const { return fd_; }
  /// The actual bound port (resolves port 0 via getsockname).
  std::uint16_t bound_port() const { return bound_port_; }
  void Close();

 private:
  int fd_ = -1;
  std::uint16_t bound_port_ = 0;
};

class TcpConnection {
 public:
  /// Takes ownership of `fd` (made non-blocking).
  explicit TcpConnection(int fd);
  ~TcpConnection();
  TcpConnection(const TcpConnection&) = delete;
  TcpConnection& operator=(const TcpConnection&) = delete;

  int fd() const { return fd_; }
  bool open() const { return fd_ >= 0; }

  /// Read everything currently available into inbox(). kOk when bytes
  /// arrived, kWouldBlock when the socket is drained, kEof/kError when
  /// the connection is finished.
  IoStatus ReadSome();
  /// Bytes received so far; the protocol layer consumes from here.
  std::string& inbox() { return inbox_; }

  /// Append to the outbox (no syscall; call Flush to push).
  void Queue(std::string_view data) { outbox_.append(data); }
  /// Write as much queued data as the socket accepts (MSG_NOSIGNAL —
  /// a dead peer surfaces as kError, never SIGPIPE). kOk when the outbox
  /// is empty afterwards, kWouldBlock when bytes remain.
  IoStatus Flush();
  std::size_t pending_bytes() const {
    return outbox_.size() - outbox_offset_;
  }
  /// send() calls Flush has made on this connection, EAGAIN ones included.
  std::uint64_t sends() const { return sends_; }

  /// Graceful shutdown: close once the outbox drains.
  void CloseAfterFlush() { close_after_flush_ = true; }
  bool close_after_flush() const { return close_after_flush_; }
  /// True once the outbox is empty and CloseAfterFlush was requested.
  bool FlushedAndDone() const {
    return close_after_flush_ && pending_bytes() == 0;
  }

  void Close();

 private:
  int fd_ = -1;
  std::string inbox_;
  std::string outbox_;
  std::size_t outbox_offset_ = 0;  // bytes of outbox_ already written
  std::uint64_t sends_ = 0;
  bool close_after_flush_ = false;
};

}  // namespace flare
