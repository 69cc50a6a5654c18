#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <unordered_map>

#include "net/socket.hpp"
#include "util/annotations.hpp"

namespace qgnn::net {

/// Readiness bits passed to event callbacks (a platform-neutral subset of
/// epoll's): kReadable also covers peer-hangup so callbacks observe EOF
/// through their normal read path.
inline constexpr std::uint32_t kReadable = 1u << 0;
inline constexpr std::uint32_t kWritable = 1u << 1;

/// Minimal epoll(7) event loop: level-triggered fd watching plus a
/// cross-thread wake channel and an optional periodic tick.
///
/// Threading contract: add/modify/remove/run are loop-thread-only (or
/// pre-run setup); wake() and request_stop() may be called from any
/// thread. Callbacks run on the loop thread and may add/remove fds,
/// including their own.
class EpollLoop {
 public:
  using EventFn = std::function<void(std::uint32_t events)>;
  using TickFn = std::function<void()>;

  EpollLoop();
  ~EpollLoop();

  EpollLoop(const EpollLoop&) = delete;
  EpollLoop& operator=(const EpollLoop&) = delete;

  /// Watch `fd` for `events` (kReadable/kWritable ORed). The fd stays
  /// owned by the caller.
  void add(int fd, std::uint32_t events, EventFn on_event);
  void modify(int fd, std::uint32_t events);
  void remove(int fd);
  bool watching(int fd) const { return handlers_.count(fd) > 0; }

  /// Run the periodic callback roughly every `interval` while the loop
  /// runs (coarse: bounded by epoll_wait timeout granularity).
  void set_tick(std::chrono::milliseconds interval, TickFn on_tick);

  /// Invoked on the loop thread after every dispatch round — the hook a
  /// server uses to move cross-thread work (queued via wake()) onto the
  /// loop. Set before run().
  void set_post_dispatch(TickFn fn) { post_dispatch_ = std::move(fn); }

  /// Dispatch events until request_stop(). Also invoked tick callbacks.
  void run() QGNN_EVENT_LOOP_ONLY;

  /// One dispatch round with the given wait bound; returns false when a
  /// stop was requested. Exposed for tests.
  bool poll_once(std::chrono::milliseconds timeout) QGNN_EVENT_LOOP_ONLY;

  /// Wake the loop if it is blocked in epoll_wait (any thread). From one
  /// of this loop's own event handlers it is a no-op: the post-dispatch
  /// hook runs later in the same round anyway. Calls from the tick or
  /// post-dispatch hooks still wake the next round.
  void wake();
  /// Make run() return after the current dispatch round (any thread).
  void request_stop();
  bool stop_requested() const;

 private:
  void drain_wake_pipe();

  Fd epoll_fd_;
  Fd wake_read_;
  Fd wake_write_;
  std::unordered_map<int, EventFn> handlers_;
  std::chrono::milliseconds tick_interval_{250};
  TickFn on_tick_;
  TickFn post_dispatch_;
  std::chrono::steady_clock::time_point last_tick_;
  // Set from other threads; the wake pipe write makes it visible promptly.
  std::atomic<bool> stop_{false};
};

}  // namespace qgnn::net
