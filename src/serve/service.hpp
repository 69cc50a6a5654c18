#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "obs/metrics.hpp"
#include "serve/batcher.hpp"
#include "serve/graph_key.hpp"
#include "serve/model_registry.hpp"
#include "serve/prediction_cache.hpp"
#include "util/annotations.hpp"

namespace qgnn::serve {

struct ServeConfig {
  /// Requests coalesced into one forward pass. 1 = no batching (the
  /// baseline serve_bench compares against).
  int max_batch = 16;
  /// Longest a pending request waits for the batch to fill before the
  /// leader flushes it anyway.
  std::chrono::microseconds max_queue_delay{500};
  /// LRU prediction-cache entries; 0 disables caching.
  std::size_t cache_capacity = 4096;
  /// Model name used by the one-argument predict overload.
  std::string default_model = "default";
  /// Worker threads behind the asynchronous try_submit path; each can
  /// carry one in-flight predict, so this bounds how many async requests
  /// can coalesce into a micro-batch at once. Started lazily on first
  /// try_submit; the synchronous predict paths never start them.
  int submit_workers = 4;
  /// Pending-submission cap for try_submit. A full queue makes
  /// try_submit return false — the caller sheds instead of queueing
  /// unboundedly.
  std::size_t submit_queue_cap = 1024;
  /// Score every answered prediction against the exact simulator: run the
  /// QAOA ansatz at the predicted angles and report the approximation
  /// ratio in Prediction::approximation_ratio. Costs one 2^n statevector
  /// evaluation per request (cheap for paper-scale graphs thanks to the
  /// QaoaEvalEngine fast paths); graphs beyond kMaxQubits nodes are
  /// silently skipped (ar_verified stays false). Off by default.
  bool verify_ar = false;
};

/// Outcome of one predict call.
struct Prediction {
  Matrix values;  // (1 x output_dim): [gamma_0.., beta_0..]
  std::string model;
  std::uint64_t generation = 0;
  /// Id of the coalesced forward pass that produced the values; 0 for
  /// cache hits (no forward ran). All requests answered by one forward
  /// share a batch_id and, by construction, a generation.
  std::uint64_t batch_id = 0;
  int batch_size = 0;  // 0 for cache hits
  bool cache_hit = false;
  double latency_us = 0.0;
  /// Exact-simulator quality score <C>/OPT of the predicted angles, set
  /// only when ServeConfig::verify_ar is on and the graph is simulable.
  double approximation_ratio = 0.0;
  bool ar_verified = false;
  /// The request graph's cache key, minted once by the handle and carried
  /// to the prediction tap. Set whenever the cache or a tap needed it.
  std::optional<GraphKey> key;
};

/// Outcome of ServeHandle::try_cache_predict.
struct CacheProbe {
  /// The answered request on a hit; nullopt on any miss.
  std::optional<Prediction> hit;
  /// The graph's key once it was computed (every hit, and every miss that
  /// got as far as the cache). Pass it to try_submit with the same graph so
  /// the request is not hashed again.
  std::optional<GraphKey> key;
};

/// Aggregate serving metrics; the perf baseline future PRs diff against.
struct ServeStats {
  std::uint64_t requests = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_evictions = 0;
  std::uint64_t batches = 0;          // coalesced forward passes
  std::uint64_t batched_requests = 0; // requests answered by a forward
  double mean_batch_size = 0.0;
  double latency_us_mean = 0.0;
  double latency_us_p50 = 0.0;
  double latency_us_p90 = 0.0;
  double latency_us_p99 = 0.0;
  /// Completed requests divided by the wall-clock span from the first
  /// request's start to the latest completion. 0 before any request.
  double requests_per_second = 0.0;

  /// Per-stage distributions, populated only while observability is on
  /// (obs::enabled()); all-zero summaries otherwise. Units are
  /// microseconds except batch_size, which counts requests per coalesced
  /// forward pass — its `sum` equals batched_requests.
  obs::HistogramSummary queue_wait_us;    // admission -> batch formation
  obs::HistogramSummary batch_form_us;    // union GraphBatch construction
  obs::HistogramSummary forward_us;       // model forward pass
  obs::HistogramSummary cache_lookup_us;  // LRU probe (key not included)
  obs::HistogramSummary batch_size;
  obs::HistogramSummary verify_us;        // verify_ar exact simulation

  /// Predictions scored by the exact simulator (verify_ar on and graph
  /// within the simulable cap). Counted regardless of obs::enabled().
  std::uint64_t ar_verifications = 0;
};

/// In-process handle to the warm-start inference service: model registry +
/// per-model micro-batcher + canonical-hash LRU cache. predict() is safe
/// to call from any number of threads; the NDJSON CLI (examples/
/// qgnn_serve.cpp), the tests, and serve_bench all drive this API.
///
/// Request life cycle: resolve the model entry -> compute the graph's key
/// (canonical_hash, once per request; the key then travels with the
/// request) and probe the cache -> on miss, enqueue into the model's
/// MicroBatcher; the batch leader re-resolves the entry ONCE for the whole
/// batch (so a hot-swap never mixes generations within a batch), fans
/// per-request feature extraction out on the PR-1 thread pool, runs one
/// block-diagonal forward pass, and distributes the per-graph rows, caching
/// each under the key its request carried. Batched rows are
/// bit-identical to single-request predictions at any thread count: the
/// union batch shares no state across member graphs and every per-node
/// kernel accumulates in the same order as the single-graph path.
class ServeHandle {
 public:
  explicit ServeHandle(ServeConfig config = {});
  ~ServeHandle();

  ServeHandle(const ServeHandle&) = delete;
  ServeHandle& operator=(const ServeHandle&) = delete;

  /// Register (or hot-swap) a model. Thread-safe, including while
  /// predictions for the same name are in flight.
  void register_model(const std::string& name, GnnModel model);
  /// Load every checkpoint in `dir` into the registry (see
  /// ModelRegistry::load_directory). Returns the number loaded.
  std::size_t load_models(const std::string& dir);

  /// Predict QAOA parameters for `g` with the named model. Blocks until
  /// the answer is available (cache hit, or the coalescing forward pass
  /// completes). Throws InvalidArgument for unknown models or graphs
  /// larger than the model's FeatureConfig allows.
  Prediction predict(const std::string& model_name, const Graph& g);
  /// Same, with config.default_model.
  Prediction predict(const Graph& g);

  /// Bulk prediction from a single caller: resolve the model, probe the
  /// cache for every graph, run the misses through coalesced forward
  /// passes of up to config.max_batch graphs each, and return one
  /// Prediction per input graph in input order. Result values are
  /// bit-identical to calling predict() per graph, but no batcher wake
  /// coordination is involved — with max_batch == 1 this is literally one
  /// forward pass per request, which is the baseline serve_bench's bulk
  /// sweep compares micro-batching against.
  std::vector<Prediction> predict_many(const std::string& model_name,
                                       const std::vector<Graph>& graphs);
  /// Same, with config.default_model.
  std::vector<Prediction> predict_many(const std::vector<Graph>& graphs);

  /// Completion callback of the async submit path. Exactly one of the
  /// two arguments is meaningful: on success `error` is null; on failure
  /// the Prediction is default-constructed. Runs on a submit worker
  /// thread and must not throw.
  using SubmitCallback =
      std::function<void(Prediction, std::exception_ptr)>;

  /// Asynchronous predict for event-driven callers (the TCP front end):
  /// enqueue and return immediately; a submit worker runs the usual
  /// predict (same cache, batcher, and verify paths — results are
  /// bit-identical to the blocking API) and invokes `done`. Returns
  /// false without enqueueing when submit_queue_cap is reached — the
  /// overload signal the serving tier's load shedding acts on. The push
  /// is the request's admission: its one queue-wait sample (histogram
  /// and tap) runs from here to the start of its batch. `key` is the
  /// CacheProbe::key of a try_cache_predict on this same graph, if any;
  /// without it the worker computes the key.
  bool try_submit(std::string model_name, Graph g, SubmitCallback done,
                  std::optional<GraphKey> key = std::nullopt);
  bool try_submit(Graph g, SubmitCallback done);

  /// Non-blocking cache fast path for event-loop callers: when the graph
  /// is already cached, return the full hit-path Prediction (recency
  /// refreshed, hit counted, verify/latency bookkeeping identical to
  /// predict(), one cache-lookup sample) without touching the submit
  /// queue or workers — an event-loop thread can answer a hit inline
  /// instead of paying two thread handoffs. Any miss, unknown model,
  /// invalid graph, or disabled cache leaves `hit` empty with no side
  /// effects; the caller falls through to try_submit, passing the probe's
  /// key along, and the submitted predict owns both the miss accounting
  /// and the error report.
  CacheProbe try_cache_predict(const std::string& model_name, const Graph& g);
  CacheProbe try_cache_predict(const Graph& g);

  /// Observer invoked with every queue-wait sample (microseconds) that
  /// is recorded into the queue-wait histogram — the hook SLO-aware load
  /// shedding uses to see the live signal without polling cumulative
  /// percentiles. Set before serving; not thread-safe against in-flight
  /// requests. Pass nullptr to clear. Called regardless of
  /// obs::enabled() so shedding keeps working with observability off.
  void set_queue_wait_tap(std::function<void(double)> tap);

  /// Observer invoked with every completed prediction (all paths: cache
  /// hits, coalesced misses, bulk predict_many, the async submit workers,
  /// and the inline cache fast path) — the hook the hard-example miner
  /// (src/mine) uses to watch live traffic without sitting in the request
  /// path's return type. The Prediction always carries its key. Runs on
  /// the completing request's thread after the latency stamp; it must be
  /// cheap and must not throw. Same discipline as set_queue_wait_tap: set
  /// before serving, not thread-safe against in-flight requests, nullptr
  /// clears.
  void set_prediction_tap(
      std::function<void(const Graph&, const Prediction&)> tap);

  /// Pending async submissions (tests and shed diagnostics).
  std::size_t submit_queue_depth() const;
  /// Block until every submitted request has completed (drain before
  /// shutdown). No new try_submit calls may race with drain.
  void drain_submits();

  ServeStats stats() const;
  const ServeConfig& config() const { return config_; }
  ModelRegistry& registry() { return registry_; }

 private:
  using Clock = std::chrono::steady_clock;

  /// The graph's key when the cache or the prediction tap needs one: the
  /// carried key if the request has one, else canonical_hash(g) — the
  /// only place a key is minted.
  std::optional<GraphKey> key_for(const Graph& g,
                                  std::optional<GraphKey> carried) const;
  /// predict(), with the key a caller already computed and the time the
  /// request was admitted (for a submitted request, the queue push).
  Prediction predict_keyed(const std::string& model_name, const Graph& g,
                           std::optional<GraphKey> key,
                           std::optional<Clock::time_point> admitted);
  /// Answer `out` from a cache entry: values, generation and the cached
  /// verify score (scored and stored now if the entry has none yet).
  void answer_from_cache(Prediction& out, CachedPrediction cached,
                         const CacheKey& key, const Graph& g);
  /// Stamp latency since `start`, count the request, and run the tap.
  void complete(Prediction& out, const Graph& g, Clock::time_point start);
  void note_first_request(Clock::time_point start);

  /// The per-model batcher, created on first use.
  MicroBatcher& batcher_for(const std::string& model_name);
  /// Coalesced forward pass for one drained batch (leader thread).
  void execute_batch(const std::string& model_name,
                     std::vector<BatchRequest*>& batch);
  /// Score `p` against the exact simulator when config_.verify_ar is on.
  /// Runs on the calling thread, before the latency stamp, so reported
  /// latencies stay honest about what the request actually paid for.
  void maybe_verify(Prediction& p, const Graph& g);
  void record_latency(double latency_us);

  struct SubmitJob {
    std::string model;
    Graph graph;
    std::optional<GraphKey> key;
    SubmitCallback done;
    Clock::time_point enqueue_time;
  };
  void submit_worker_main();
  void start_submit_workers_locked() QGNN_REQUIRES(submit_mutex_);

  const ServeConfig config_;
  ModelRegistry registry_;
  PredictionCache cache_;

  std::function<void(double)> queue_wait_tap_;
  std::function<void(const Graph&, const Prediction&)> prediction_tap_;

  mutable std::mutex submit_mutex_;
  std::condition_variable submit_cv_;
  std::condition_variable submit_idle_cv_;
  std::deque<SubmitJob> submit_queue_ QGNN_GUARDED_BY(submit_mutex_);
  std::vector<std::thread> submit_threads_ QGNN_GUARDED_BY(submit_mutex_);
  /// Popped but not yet completed.
  std::size_t submits_in_flight_ QGNN_GUARDED_BY(submit_mutex_) = 0;
  bool submit_stop_ QGNN_GUARDED_BY(submit_mutex_) = false;

  mutable std::mutex batchers_mutex_;
  std::unordered_map<std::string, std::unique_ptr<MicroBatcher>> batchers_
      QGNN_GUARDED_BY(batchers_mutex_);

  std::atomic<std::uint64_t> next_batch_id_{0};

  mutable std::mutex stats_mutex_;
  std::uint64_t requests_ QGNN_GUARDED_BY(stats_mutex_) = 0;
  std::uint64_t batched_requests_ QGNN_GUARDED_BY(stats_mutex_) = 0;
  /// Forward passes run by predict_many.
  std::uint64_t bulk_batches_ QGNN_GUARDED_BY(stats_mutex_) = 0;
  std::uint64_t ar_verifications_ QGNN_GUARDED_BY(stats_mutex_) = 0;

  // Stage histograms are per-handle (not in the global MetricsRegistry):
  // serve_bench and the tests create many handles with different configs
  // in one process, and shared histograms would blend their percentiles.
  // Request latency is always recorded (it feeds the pre-existing
  // ServeStats percentiles); the stage histograms honour obs::enabled().
  obs::LatencyHistogram latency_us_;
  obs::LatencyHistogram queue_wait_us_;
  obs::LatencyHistogram batch_form_us_;
  obs::LatencyHistogram forward_us_;
  obs::LatencyHistogram cache_lookup_us_;
  obs::LatencyHistogram batch_size_hist_;
  obs::LatencyHistogram verify_us_;

  bool have_first_request_ QGNN_GUARDED_BY(stats_mutex_) = false;
  std::chrono::steady_clock::time_point first_request_
      QGNN_GUARDED_BY(stats_mutex_);
  std::chrono::steady_clock::time_point last_completion_
      QGNN_GUARDED_BY(stats_mutex_);
};

}  // namespace qgnn::serve
