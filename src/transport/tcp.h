#pragma once

// Real TCP transport over loopback, with a single-threaded poll() event loop.
//
// This is the deployment-shaped path: RIS initiates and maintains a TCP
// connection to the route server (§2.2), so the server listens and RIS
// dials. Non-blocking sockets, buffered writes, edge-free readiness via
// level-triggered poll().

#include <poll.h>

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "transport/transport.h"
#include "util/result.h"

namespace rnl::transport {

/// Level-triggered poll() loop. Single-threaded: all callbacks run inside
/// run_once() on the calling thread.
class TcpEventLoop {
 public:
  using IoHandler = std::function<void()>;

  ~TcpEventLoop() { *alive_ = false; }

  /// Registers interest; `readable`/`writable` may be empty.
  void watch(int fd, IoHandler readable, IoHandler writable);
  void update_write_interest(int fd, bool interested);
  void unwatch(int fd);

  /// Liveness token for transports/listeners that may outlive the loop
  /// (destruction order between a loop and the objects registered on it is
  /// the caller's choice): flips to false when the loop is destroyed, so a
  /// late close() skips the unwatch instead of touching a dead loop.
  [[nodiscard]] std::shared_ptr<const bool> alive_token() const {
    return alive_;
  }

  /// Polls once with `timeout_ms` and dispatches ready handlers. Returns the
  /// number of handlers dispatched. EINTR is not an error: a signal landing
  /// mid-poll (profilers, timers, a debugger attaching) restarts the wait
  /// with the budget left, counted from the first interruption, instead of
  /// being reported as zero-ready. Any other poll() failure is recorded in
  /// last_poll_errno(). Not re-entrant: a handler must not call run_once().
  std::size_t run_once(int timeout_ms);
  /// Runs until `predicate()` is true or `max_iterations` run out.
  bool run_until(const std::function<bool()>& predicate,
                 int max_iterations = 10'000, int timeout_ms = 10);

  /// errno from the most recent poll() failure other than EINTR; 0 if the
  /// last poll succeeded (or was merely interrupted).
  [[nodiscard]] int last_poll_errno() const { return last_poll_errno_; }

 private:
  struct Watch {
    IoHandler readable;
    IoHandler writable;
    bool want_write = false;
  };
  std::map<int, Watch> watches_;
  /// run_once's poll set, rebuilt from watches_ on every call; a member so
  /// it keeps its capacity.
  std::vector<pollfd> pollfds_;
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
  int last_poll_errno_ = 0;
};

class TcpTransport final : public Transport {
 public:
  /// Takes ownership of a connected non-blocking socket.
  TcpTransport(TcpEventLoop& loop, int fd);
  ~TcpTransport() override;

  void send(util::BytesView bytes) override;
  void close() override;
  [[nodiscard]] bool is_open() const override { return fd_ >= 0; }
  void set_receive_handler(ReceiveHandler handler) override;
  void set_close_handler(CloseHandler handler) override;

  /// Bytes the kernel would not take yet, buffered in userspace until
  /// POLLOUT drains them.
  [[nodiscard]] std::size_t queued_bytes() const override {
    return write_buffer_.size();
  }
  void set_egress_watermarks(std::size_t high, std::size_t low) override;
  [[nodiscard]] bool writable() const override { return !backpressured_; }
  void set_drain_handler(DrainHandler handler) override {
    drain_handler_ = std::move(handler);
  }

 private:
  void on_readable();
  void on_writable();

  TcpEventLoop& loop_;
  std::shared_ptr<const bool> loop_alive_;
  int fd_;
  ReceiveHandler receive_handler_;
  CloseHandler close_handler_;
  DrainHandler drain_handler_;
  util::Bytes write_buffer_;
  util::Bytes read_spill_;  // bytes received before a handler was installed
  std::size_t egress_high_ = 0;
  std::size_t egress_low_ = 0;
  bool backpressured_ = false;
};

/// Listening socket on 127.0.0.1. Accepted connections are handed to the
/// callback as ready-to-use transports.
class TcpListener {
 public:
  using AcceptHandler = std::function<void(std::unique_ptr<TcpTransport>)>;

  TcpListener(TcpEventLoop& loop);
  ~TcpListener();

  /// Binds and listens; port 0 picks an ephemeral port (see port()).
  util::Status listen(std::uint16_t port, AcceptHandler on_accept);
  [[nodiscard]] std::uint16_t port() const { return port_; }
  void stop();

 private:
  TcpEventLoop& loop_;
  std::shared_ptr<const bool> loop_alive_;
  int fd_ = -1;
  std::uint16_t port_ = 0;
  AcceptHandler on_accept_;
};

/// Blocking-ish connect to 127.0.0.1:port (loopback connects complete
/// immediately in practice); returns a ready transport.
util::Result<std::unique_ptr<TcpTransport>> tcp_connect(TcpEventLoop& loop,
                                                        std::uint16_t port);

}  // namespace rnl::transport
