#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <optional>
#include <vector>

#include "autograd/matrix.hpp"
#include "graph/graph.hpp"
#include "serve/graph_key.hpp"
#include "util/annotations.hpp"

namespace qgnn::serve {

/// One in-flight predict request, owned by the calling thread's stack for
/// the duration of MicroBatcher::run. The executor fills the output
/// fields; `done` is the completion flag (guarded by the batcher mutex).
struct BatchRequest {
  BatchRequest(const Graph* g, std::optional<GraphKey> k,
               std::chrono::steady_clock::time_point admitted)
      : graph(g), key(k), admit_time(admitted) {}

  const Graph* graph;
  /// The graph's key, set whenever the cache or a prediction tap needs it;
  /// the executor's cache insert uses it instead of hashing again.
  std::optional<GraphKey> key;
  /// When the request entered the serving queues (for a submitted request,
  /// the submit-queue push): the queue-wait stage runs from here to batch
  /// formation.
  std::chrono::steady_clock::time_point admit_time;
  /// Set by MicroBatcher::run; starts the max_delay deadline.
  std::chrono::steady_clock::time_point enqueue_time;

  // Filled by the executor:
  Matrix result;                     // (1 x output_dim)
  std::uint64_t generation = 0;      // model generation used
  std::uint64_t batch_id = 0;        // id of the coalescing forward pass
  int batch_size = 0;                // requests in that pass
  std::exception_ptr error;          // set instead of result on failure
  bool done = false;
};

/// Leader/follower micro-batching queue.
///
/// Concurrent callers enqueue their request and block. The first caller to
/// find no active leader becomes the leader: it waits until the queue
/// holds `max_batch` requests or the oldest pending request has waited
/// `max_delay`, drains up to `max_batch` requests, releases leadership (so
/// a follower can lead the next batch concurrently), and invokes the
/// executor outside the lock. Followers sleep until their request is
/// marked done. With max_batch == 1 a request never waits for company —
/// that is the one-forward-per-request baseline configuration.
///
/// The executor receives the drained requests and must fill result (or
/// error), generation, batch_id, and batch_size for every one of them; it
/// runs on the leader's thread. Completion flags are flipped under the
/// batcher mutex afterwards, so readers never race on result fields.
class MicroBatcher {
 public:
  using Executor = std::function<void(std::vector<BatchRequest*>&)>;

  MicroBatcher(int max_batch, std::chrono::microseconds max_delay,
               Executor executor);

  /// Enqueue `req`, block until it is done, and rethrow its error if the
  /// executor failed. The calling thread may serve as batch leader for
  /// its own and other callers' requests while it waits.
  void run(BatchRequest& req);

  /// Total coalesced executor invocations so far.
  std::uint64_t batches_executed() const;

 private:
  const int max_batch_;
  const std::chrono::microseconds max_delay_;
  const Executor executor_;

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<BatchRequest*> pending_ QGNN_GUARDED_BY(mutex_);
  bool leader_active_ QGNN_GUARDED_BY(mutex_) = false;
  std::uint64_t batches_executed_ QGNN_GUARDED_BY(mutex_) = 0;
};

}  // namespace qgnn::serve
