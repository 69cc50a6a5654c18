#include "net/event_loop.hpp"

#include <sys/epoll.h>

#include <array>
#include <cerrno>
#include <cstring>

#include "util/error.hpp"

namespace qgnn::net {

namespace {

std::uint32_t to_epoll(std::uint32_t events) {
  std::uint32_t out = 0;
  if (events & kReadable) out |= EPOLLIN | EPOLLRDHUP;
  if (events & kWritable) out |= EPOLLOUT;
  return out;
}

std::uint32_t from_epoll(std::uint32_t events) {
  std::uint32_t out = 0;
  // Hangups and errors surface as readability: the callback's next read
  // reports EOF/error and it tears the connection down on its own path.
  if (events & (EPOLLIN | EPOLLRDHUP | EPOLLHUP | EPOLLERR)) {
    out |= kReadable;
  }
  if (events & EPOLLOUT) out |= kWritable;
  return out;
}

/// The loop whose event handlers this thread is running, if any.
thread_local const EpollLoop* t_dispatching = nullptr;

/// Marks the handler-dispatch phase of one poll_once round.
class DispatchScope {
 public:
  explicit DispatchScope(const EpollLoop* loop) : prev_(t_dispatching) {
    t_dispatching = loop;
  }
  ~DispatchScope() { t_dispatching = prev_; }
  DispatchScope(const DispatchScope&) = delete;
  DispatchScope& operator=(const DispatchScope&) = delete;

 private:
  const EpollLoop* prev_;
};

}  // namespace

EpollLoop::EpollLoop() : epoll_fd_(::epoll_create1(EPOLL_CLOEXEC)) {
  if (!epoll_fd_.valid()) {
    throw IoError(std::string("epoll_create1: ") + std::strerror(errno));
  }
  auto pipe_fds = make_pipe();
  wake_read_ = std::move(pipe_fds.first);
  wake_write_ = std::move(pipe_fds.second);
  set_nonblocking(wake_read_);
  set_nonblocking(wake_write_);
  add(wake_read_.get(), kReadable, [this](std::uint32_t) {
    drain_wake_pipe();
  });
  last_tick_ = std::chrono::steady_clock::now();
}

EpollLoop::~EpollLoop() = default;

void EpollLoop::add(int fd, std::uint32_t events, EventFn on_event) {
  epoll_event ev{};
  ev.events = to_epoll(events);
  ev.data.fd = fd;
  if (::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_ADD, fd, &ev) != 0) {
    throw IoError(std::string("epoll_ctl(ADD): ") + std::strerror(errno));
  }
  handlers_[fd] = std::move(on_event);
}

void EpollLoop::modify(int fd, std::uint32_t events) {
  epoll_event ev{};
  ev.events = to_epoll(events);
  ev.data.fd = fd;
  if (::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_MOD, fd, &ev) != 0) {
    throw IoError(std::string("epoll_ctl(MOD): ") + std::strerror(errno));
  }
}

void EpollLoop::remove(int fd) {
  if (handlers_.erase(fd) == 0) return;
  // The fd may already be closed (EBADF) — removal stays best-effort.
  ::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_DEL, fd, nullptr);
}

void EpollLoop::set_tick(std::chrono::milliseconds interval,
                         TickFn on_tick) {
  QGNN_REQUIRE(interval.count() > 0, "tick interval must be positive");
  tick_interval_ = interval;
  on_tick_ = std::move(on_tick);
}

void EpollLoop::run() {
  while (poll_once(tick_interval_)) {
  }
}

bool EpollLoop::poll_once(std::chrono::milliseconds timeout) {
  if (stop_.load(std::memory_order_acquire)) return false;

  std::array<epoll_event, 64> events;  // NOLINT(*-member-init)
  int n = ::epoll_wait(epoll_fd_.get(), events.data(),
                       static_cast<int>(events.size()),
                       static_cast<int>(timeout.count()));
  if (n < 0) {
    if (errno == EINTR) n = 0;  // deliver the tick, then keep looping
    else throw IoError(std::string("epoll_wait: ") + std::strerror(errno));
  }

  {
    const DispatchScope dispatching(this);
    for (int i = 0; i < n; ++i) {
      const int fd = events[static_cast<std::size_t>(i)].data.fd;
      const auto it = handlers_.find(fd);
      if (it == handlers_.end()) continue;  // removed by an earlier callback
      // Copy the handler: the callback may remove (and invalidate) itself.
      const EventFn handler = it->second;
      handler(from_epoll(events[static_cast<std::size_t>(i)].events));
    }
  }

  if (post_dispatch_) post_dispatch_();

  if (on_tick_) {
    const auto now = std::chrono::steady_clock::now();
    if (now - last_tick_ >= tick_interval_) {
      last_tick_ = now;
      on_tick_();
    }
  }
  return !stop_.load(std::memory_order_acquire);
}

void EpollLoop::wake() {
  // A handler's wake needs no pipe byte: post_dispatch_ runs after the
  // handlers in the same poll_once.
  if (t_dispatching == this) return;
  const char byte = 1;
  // A full pipe means a wake is already pending.
  (void)write_some(wake_write_, &byte, 1);
}

void EpollLoop::request_stop() {
  stop_.store(true, std::memory_order_release);
  wake();
}

bool EpollLoop::stop_requested() const {
  return stop_.load(std::memory_order_acquire);
}

void EpollLoop::drain_wake_pipe() {
  char buf[256];
  while (read_some(wake_read_, buf, sizeof(buf)).status == IoStatus::kOk) {
  }
}

}  // namespace qgnn::net
