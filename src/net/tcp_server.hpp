#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/event_loop.hpp"
#include "net/framing.hpp"
#include "net/socket.hpp"
#include "util/annotations.hpp"

namespace qgnn::net {

struct TcpServerConfig {
  std::string host = "127.0.0.1";
  /// 0 binds an ephemeral port; read it back with port() after start().
  std::uint16_t port = 0;
  /// Open-connection cap. At the cap the listener is unregistered from
  /// the event loop (accept backpressure: the kernel backlog, then the
  /// clients' connect calls, absorb the excess) and re-registered as
  /// soon as a connection closes.
  int max_connections = 256;
  int listen_backlog = 128;
  std::size_t max_line_bytes = kMaxLineBytes;
  /// Per-connection cap on requests handed to the handler but not yet
  /// answered via post(). At the cap the connection's fd stops being
  /// read (TCP backpressure on that client) until responses catch up —
  /// a pipelining client cannot queue unboundedly.
  int max_pipeline = 64;
  /// A connection whose un-flushed response backlog exceeds this is
  /// dropped (the peer stopped reading).
  std::size_t max_write_buffer = 8u << 20;
  /// When true, SIGINT/SIGTERM trigger graceful_shutdown() from inside
  /// the loop (listener closed, in-flight requests drained, buffers
  /// flushed) instead of killing the process mid-batch.
  bool install_signal_handlers = false;
};

struct TcpServerStats {
  std::uint64_t connections_accepted = 0;
  std::uint64_t connections_dropped = 0;  // error/overflow closes
  std::uint64_t accept_deferrals = 0;     // cap reached, accept paused
  std::uint64_t lines_in = 0;
  std::uint64_t lines_out = 0;
  std::uint64_t oversized_lines = 0;
  std::uint64_t bytes_read = 0;
  std::uint64_t bytes_written = 0;
  int open_connections = 0;
};

/// Line-oriented TCP front end: one epoll loop thread owns every socket;
/// request processing happens wherever the handler takes it (worker pool,
/// ServeHandle::submit, a shard router) and answers come back through the
/// thread-safe post(). Partial lines, coalesced packets, and pipelined
/// requests are handled by the per-connection LineFramer; oversized lines
/// are answered through the on_oversized callback and the stream resumes
/// at the next newline.
class TcpServer {
 public:
  /// Called on the loop thread for every complete request line. Must not
  /// block; hand the work off and post() the response later (or post()
  /// inline for cheap requests).
  using LineHandler =
      std::function<void(std::uint64_t conn_id, std::string&& line)>;
  /// Builds the error response for an oversized request line.
  using OversizedHandler =
      std::function<std::string(std::size_t dropped_bytes)>;

  TcpServer(TcpServerConfig config, LineHandler on_line);
  ~TcpServer();

  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;

  void set_oversized_handler(OversizedHandler fn);

  /// Bind, listen, and spawn the loop thread. Throws IoError on bind
  /// failure.
  void start();
  /// The bound port (valid after start()).
  std::uint16_t port() const { return port_; }
  bool running() const { return running_; }

  /// Queue `line` (newline appended) for the connection; thread-safe.
  /// Lines posted to an already-closed connection are dropped silently —
  /// the client is gone.
  void post(std::uint64_t conn_id, std::string line);

  /// Stop accepting, let in-flight requests finish and their responses
  /// flush, then stop the loop. Returns true when fully drained, false
  /// when the timeout forced connections closed. Thread-safe; also what
  /// the signal path triggers.
  bool graceful_shutdown(std::chrono::milliseconds drain_timeout =
                             std::chrono::milliseconds(5000));
  /// Immediate stop: close everything now.
  void stop();

  TcpServerStats stats() const;

 private:
  struct Connection {
    Fd fd;
    LineFramer framer;
    std::string write_buf;
    std::size_t write_off = 0;
    int in_flight = 0;
    bool want_write = false;
    bool paused = false;  // reads suspended (pipeline cap)
    explicit Connection(Fd f, std::size_t max_line)
        : fd(std::move(f)), framer(max_line) {}
  };

  void loop_main();
  void on_acceptable();
  void on_connection_event(std::uint64_t id, std::uint32_t events);
  void handle_readable(std::uint64_t id, Connection& conn);
  void flush_writes(std::uint64_t id, Connection& conn);
  void update_interest(Connection& conn);
  void close_connection(std::uint64_t id, bool dropped);
  void drain_outbox();
  void maybe_resume_accepting();
  bool drained() const;

  const TcpServerConfig config_;
  const LineHandler on_line_;
  OversizedHandler on_oversized_;

  EpollLoop loop_;
  Fd listener_;
  std::uint16_t port_ = 0;
  bool running_ = false;
  bool accepting_ = false;
  bool draining_ = false;
  std::chrono::steady_clock::time_point drain_deadline_;
  std::thread loop_thread_;

  std::uint64_t next_conn_id_ = 1;
  std::unordered_map<std::uint64_t, std::unique_ptr<Connection>> conns_;

  // Cross-thread response queue, moved onto connections by the loop.
  // Critical sections under outbox_mutex_ are a vector append or swap —
  // short enough that post() from the loop thread itself (cache hits
  // answered inline) cannot stall the loop. Such a post writes no wake
  // byte either: drain_outbox runs later in the same loop round.
  mutable std::mutex outbox_mutex_;
  std::vector<std::pair<std::uint64_t, std::string>> outbox_
      QGNN_GUARDED_BY(outbox_mutex_);
  bool shutdown_requested_ QGNN_GUARDED_BY(outbox_mutex_) = false;
  std::chrono::milliseconds requested_drain_timeout_{5000};

  mutable std::mutex stats_mutex_;
  TcpServerStats stats_ QGNN_GUARDED_BY(stats_mutex_);
  bool drained_cleanly_ QGNN_GUARDED_BY(stats_mutex_) = true;
};

}  // namespace qgnn::net
