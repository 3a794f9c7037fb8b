#include "transport/tcp.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <optional>

#include "util/logging.h"

namespace rnl::transport {

namespace {
void set_nonblocking(int fd) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}
}  // namespace

// ---------------------------------------------------------------------------
// TcpEventLoop
// ---------------------------------------------------------------------------

void TcpEventLoop::watch(int fd, IoHandler readable, IoHandler writable) {
  watches_[fd] = Watch{std::move(readable), std::move(writable), false};
}

void TcpEventLoop::update_write_interest(int fd, bool interested) {
  auto it = watches_.find(fd);
  if (it != watches_.end()) it->second.want_write = interested;
}

void TcpEventLoop::unwatch(int fd) { watches_.erase(fd); }

std::size_t TcpEventLoop::run_once(int timeout_ms) {
  if (watches_.empty()) return 0;
  // Rebuilt in place each call: the vector keeps its capacity, so a steady
  // loop allocates nothing here.
  std::vector<pollfd>& fds = pollfds_;
  fds.clear();
  for (const auto& [fd, watch] : watches_) {
    short events = 0;
    if (watch.readable) events |= POLLIN;
    if (watch.want_write && watch.writable) events |= POLLOUT;
    fds.push_back(pollfd{fd, events, 0});
  }
  // A signal interrupting poll() is routine, not a readiness report of
  // zero: restart with the remaining timeout budget so run_once() keeps
  // waiting out its timeout even under a signal storm. Other errnos are
  // surfaced distinctly via last_poll_errno(). The clock is read only once
  // a poll() has been interrupted, so the common uninterrupted call pays no
  // clock read; the budget then counts from that first interruption.
  last_poll_errno_ = 0;
  int ready;
  std::optional<std::chrono::steady_clock::time_point> deadline;
  int remaining_ms = timeout_ms;
  while (true) {
    ready = ::poll(fds.data(), fds.size(), remaining_ms);
    if (ready >= 0) break;
    if (errno != EINTR) {
      last_poll_errno_ = errno;
      RNL_LOG(kError, "transport") << "TcpEventLoop: poll() failed: "
                                   << std::strerror(last_poll_errno_);
      return 0;
    }
    if (timeout_ms >= 0) {
      const auto now = std::chrono::steady_clock::now();
      if (!deadline) deadline = now + std::chrono::milliseconds(timeout_ms);
      auto left =
          std::chrono::duration_cast<std::chrono::milliseconds>(*deadline - now);
      remaining_ms = left.count() > 0 ? static_cast<int>(left.count()) : 0;
    }
  }
  if (ready == 0) return 0;
  std::size_t dispatched = 0;
  for (const auto& pfd : fds) {
    // The handler may unwatch fds (including its own); re-check membership.
    auto it = watches_.find(pfd.fd);
    if (it == watches_.end()) continue;
    if ((pfd.revents & (POLLIN | POLLERR | POLLHUP)) != 0 &&
        it->second.readable) {
      it->second.readable();
      ++dispatched;
    }
    it = watches_.find(pfd.fd);
    if (it == watches_.end()) continue;
    if ((pfd.revents & POLLOUT) != 0 && it->second.writable) {
      it->second.writable();
      ++dispatched;
    }
  }
  return dispatched;
}

bool TcpEventLoop::run_until(const std::function<bool()>& predicate,
                             int max_iterations, int timeout_ms) {
  for (int i = 0; i < max_iterations; ++i) {
    if (predicate()) return true;
    run_once(timeout_ms);
  }
  return predicate();
}

// ---------------------------------------------------------------------------
// TcpTransport
// ---------------------------------------------------------------------------

TcpTransport::TcpTransport(TcpEventLoop& loop, int fd)
    : loop_(loop), loop_alive_(loop.alive_token()), fd_(fd) {
  set_nonblocking(fd_);
  int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  loop_.watch(
      fd_, [this] { on_readable(); }, [this] { on_writable(); });
}

TcpTransport::~TcpTransport() { close(); }

void TcpTransport::send(util::BytesView bytes) {
  if (fd_ < 0 || bytes.empty()) return;
  if (write_buffer_.empty()) {
    // Fast path: try a direct write first.
    ssize_t n = ::send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL);
    if (n == static_cast<ssize_t>(bytes.size())) return;
    if (n < 0) {
      if (errno != EAGAIN && errno != EWOULDBLOCK) {
        close();
        return;
      }
      n = 0;
    }
    bytes = bytes.subspan(static_cast<std::size_t>(n));
  }
  write_buffer_.insert(write_buffer_.end(), bytes.begin(), bytes.end());
  if (egress_high_ != 0 && !backpressured_ &&
      write_buffer_.size() >= egress_high_) {
    backpressured_ = true;
  }
  if (*loop_alive_) loop_.update_write_interest(fd_, true);
}

void TcpTransport::set_egress_watermarks(std::size_t high, std::size_t low) {
  egress_high_ = high;
  egress_low_ = low > high ? high : low;
  if (egress_high_ == 0) {
    backpressured_ = false;
  } else if (write_buffer_.size() >= egress_high_) {
    backpressured_ = true;
  }
}

void TcpTransport::on_writable() {
  if (fd_ < 0 || write_buffer_.empty()) {
    if (*loop_alive_) loop_.update_write_interest(fd_, false);
    return;
  }
  ssize_t n =
      ::send(fd_, write_buffer_.data(), write_buffer_.size(), MSG_NOSIGNAL);
  if (n < 0) {
    if (errno != EAGAIN && errno != EWOULDBLOCK) close();
    return;
  }
  write_buffer_.erase(write_buffer_.begin(), write_buffer_.begin() + n);
  if (write_buffer_.empty() && *loop_alive_) {
    loop_.update_write_interest(fd_, false);
  }
  if (backpressured_ && write_buffer_.size() <= egress_low_) {
    backpressured_ = false;
    if (drain_handler_) drain_handler_();
  }
}

void TcpTransport::on_readable() {
  std::uint8_t buffer[16 * 1024];
  while (fd_ >= 0) {
    ssize_t n = ::recv(fd_, buffer, sizeof buffer, 0);
    if (n > 0) {
      util::BytesView view(buffer, static_cast<std::size_t>(n));
      if (receive_handler_) {
        receive_handler_(view);
      } else {
        read_spill_.insert(read_spill_.end(), view.begin(), view.end());
      }
      // A short read drained the kernel queue: stop here instead of paying
      // a recv() that only returns EAGAIN. poll() is level-triggered, so
      // bytes (or a FIN) arriving later are reported on the next round.
      if (static_cast<std::size_t>(n) < sizeof buffer) return;
      continue;
    }
    if (n == 0) {  // orderly shutdown by peer
      close();
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    close();
    return;
  }
}

void TcpTransport::set_receive_handler(ReceiveHandler handler) {
  receive_handler_ = std::move(handler);
  if (receive_handler_ && !read_spill_.empty()) {
    util::Bytes spill = std::move(read_spill_);
    read_spill_.clear();
    receive_handler_(spill);
  }
}

void TcpTransport::set_close_handler(CloseHandler handler) {
  close_handler_ = std::move(handler);
}

void TcpTransport::close() {
  if (fd_ < 0) return;
  // The loop may already be gone if the owner is torn down after it; the
  // alive token turns the unwatch into a no-op instead of a use-after-free.
  if (*loop_alive_) loop_.unwatch(fd_);
  ::close(fd_);
  fd_ = -1;
  if (close_handler_) close_handler_();
}

// ---------------------------------------------------------------------------
// TcpListener
// ---------------------------------------------------------------------------

TcpListener::TcpListener(TcpEventLoop& loop)
    : loop_(loop), loop_alive_(loop.alive_token()) {}

TcpListener::~TcpListener() { stop(); }

util::Status TcpListener::listen(std::uint16_t port,
                                 AcceptHandler on_accept) {
  on_accept_ = std::move(on_accept);
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return util::Error{"socket() failed"};
  int one = 1;
  ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd_);
    fd_ = -1;
    return util::Error{std::string("bind() failed: ") + std::strerror(errno)};
  }
  socklen_t len = sizeof addr;
  ::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);
  if (::listen(fd_, 16) != 0) {
    ::close(fd_);
    fd_ = -1;
    return util::Error{"listen() failed"};
  }
  set_nonblocking(fd_);
  loop_.watch(
      fd_,
      [this] {
        while (true) {
          int client = ::accept(fd_, nullptr, nullptr);
          if (client < 0) return;
          if (on_accept_) {
            on_accept_(std::make_unique<TcpTransport>(loop_, client));
          } else {
            ::close(client);
          }
        }
      },
      nullptr);
  return util::Status::Ok();
}

void TcpListener::stop() {
  if (fd_ < 0) return;
  if (*loop_alive_) loop_.unwatch(fd_);
  ::close(fd_);
  fd_ = -1;
}

util::Result<std::unique_ptr<TcpTransport>> tcp_connect(TcpEventLoop& loop,
                                                        std::uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return util::Error{"socket() failed"};
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return util::Error{std::string("connect() failed: ") +
                       std::strerror(errno)};
  }
  return std::make_unique<TcpTransport>(loop, fd);
}

}  // namespace rnl::transport
