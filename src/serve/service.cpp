#include "serve/service.hpp"

#include <algorithm>

#include "dataset/features.hpp"
#include "gnn/graph_batch.hpp"
#include "graph/canonical.hpp"
#include "obs/names.hpp"
#include "obs/trace.hpp"
#include "qaoa/ansatz.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace qgnn::serve {

namespace {

double elapsed_us(std::chrono::steady_clock::time_point start,
                  std::chrono::steady_clock::time_point end) {
  return std::chrono::duration<double, std::micro>(end - start).count();
}

}  // namespace

ServeHandle::ServeHandle(ServeConfig config)
    : config_(std::move(config)), cache_(config_.cache_capacity) {
  QGNN_REQUIRE(config_.max_batch >= 1, "max_batch must be >= 1");
  QGNN_REQUIRE(config_.max_queue_delay.count() >= 0,
               "max_queue_delay must be >= 0");
  QGNN_REQUIRE(config_.submit_workers >= 1, "submit_workers must be >= 1");
  QGNN_REQUIRE(config_.submit_queue_cap >= 1,
               "submit_queue_cap must be >= 1");
}

ServeHandle::~ServeHandle() {
  {
    std::lock_guard<std::mutex> lk(submit_mutex_);
    submit_stop_ = true;
  }
  submit_cv_.notify_all();
  for (std::thread& t : submit_threads_) t.join();
}

void ServeHandle::register_model(const std::string& name, GnnModel model) {
  registry_.register_model(name, std::move(model));
}

std::size_t ServeHandle::load_models(const std::string& dir) {
  return registry_.load_directory(dir);
}

Prediction ServeHandle::predict(const Graph& g) {
  return predict(config_.default_model, g);
}

Prediction ServeHandle::predict(const std::string& model_name,
                                const Graph& g) {
  return predict_keyed(model_name, g, std::nullopt, std::nullopt);
}

std::optional<GraphKey> ServeHandle::key_for(
    const Graph& g, std::optional<GraphKey> carried) const {
  if (carried || (!cache_.enabled() && !prediction_tap_)) return carried;
  return GraphKey(canonical_hash(g));
}

void ServeHandle::note_first_request(Clock::time_point start) {
  std::lock_guard<std::mutex> lk(stats_mutex_);
  if (!have_first_request_) {
    have_first_request_ = true;
    first_request_ = start;
  }
}

void ServeHandle::answer_from_cache(Prediction& out, CachedPrediction cached,
                                    const CacheKey& key, const Graph& g) {
  out.values = std::move(cached.values);
  out.generation = key.generation;
  out.cache_hit = true;
  if (config_.verify_ar && cached.ar_verified) {
    out.approximation_ratio = cached.approximation_ratio;
    out.ar_verified = true;
  } else {
    maybe_verify(out, g);
    if (out.ar_verified) cache_.set_ar(key, out.approximation_ratio);
  }
}

void ServeHandle::complete(Prediction& out, const Graph& g,
                           Clock::time_point start) {
  out.latency_us = elapsed_us(start, Clock::now());
  record_latency(out.latency_us);
  if (prediction_tap_) prediction_tap_(g, out);
}

Prediction ServeHandle::predict_keyed(
    const std::string& model_name, const Graph& g,
    std::optional<GraphKey> key, std::optional<Clock::time_point> admitted) {
  QGNN_TRACE_SPAN(obs::names::kServePredictSpan);
  const auto start = Clock::now();
  note_first_request(start);

  // Fail fast (and per-request) on anything that would otherwise poison a
  // whole coalesced batch inside the executor.
  const auto entry = registry_.get(model_name);
  QGNN_REQUIRE(g.num_nodes() >= 1, "cannot predict on an empty graph");
  QGNN_REQUIRE(g.num_nodes() <= entry->model->config().features.max_nodes,
               "graph exceeds the model's feature config max_nodes");

  Prediction out;
  out.model = model_name;
  out.key = key_for(g, key);

  if (cache_.enabled()) {
    const bool obs_on = obs::enabled();
    const auto lookup_start = obs_on ? Clock::now() : Clock::time_point{};
    const CacheKey cache_key{model_name, entry->generation,
                             out.key->value()};
    auto cached = cache_.lookup(cache_key);
    if (obs_on) {
      cache_lookup_us_.record(elapsed_us(lookup_start, Clock::now()));
    }
    if (cached) {
      answer_from_cache(out, std::move(*cached), cache_key, g);
      complete(out, g, start);
      return out;
    }
  }

  BatchRequest req(&g, out.key, admitted.value_or(Clock::now()));
  batcher_for(model_name).run(req);  // blocks; rethrows executor errors

  out.values = std::move(req.result);
  out.generation = req.generation;
  out.batch_id = req.batch_id;
  out.batch_size = req.batch_size;
  maybe_verify(out, g);
  if (cache_.enabled() && out.ar_verified &&
      req.generation == entry->generation) {
    cache_.set_ar(CacheKey{model_name, req.generation, out.key->value()},
                  out.approximation_ratio);
  }
  {
    std::lock_guard<std::mutex> lk(stats_mutex_);
    ++batched_requests_;
  }
  complete(out, g, start);
  return out;
}

std::vector<Prediction> ServeHandle::predict_many(
    const std::vector<Graph>& graphs) {
  return predict_many(config_.default_model, graphs);
}

std::vector<Prediction> ServeHandle::predict_many(
    const std::string& model_name, const std::vector<Graph>& graphs) {
  const auto start = Clock::now();
  if (graphs.empty()) return {};
  note_first_request(start);

  const auto entry = registry_.get(model_name);
  const int max_nodes = entry->model->config().features.max_nodes;

  std::vector<Prediction> out(graphs.size());
  std::vector<std::size_t> misses;
  misses.reserve(graphs.size());
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    const Graph& g = graphs[i];
    QGNN_REQUIRE(g.num_nodes() >= 1, "cannot predict on an empty graph");
    QGNN_REQUIRE(g.num_nodes() <= max_nodes,
                 "graph exceeds the model's feature config max_nodes");
    out[i].model = model_name;
    out[i].key = key_for(g, std::nullopt);
    if (cache_.enabled()) {
      const bool obs_on = obs::enabled();
      const auto lookup_start = obs_on ? Clock::now() : Clock::time_point{};
      const CacheKey key{model_name, entry->generation,
                         out[i].key->value()};
      auto cached = cache_.lookup(key);
      if (obs_on) {
        cache_lookup_us_.record(elapsed_us(lookup_start, Clock::now()));
      }
      if (cached) {
        answer_from_cache(out[i], std::move(*cached), key, g);
        complete(out[i], g, start);
        continue;
      }
    }
    misses.push_back(i);
  }

  // Coalesce the misses into forward passes of up to max_batch graphs.
  // execute_batch re-resolves the registry entry per pass, so a hot-swap
  // between passes is visible but generations never mix within one.
  const auto window = static_cast<std::size_t>(config_.max_batch);
  for (std::size_t lo = 0; lo < misses.size(); lo += window) {
    const std::size_t hi = std::min(misses.size(), lo + window);
    std::vector<BatchRequest> reqs;
    reqs.reserve(hi - lo);
    const auto admitted = Clock::now();  // queue-wait stage starts here
    for (std::size_t k = lo; k < hi; ++k) {
      reqs.emplace_back(&graphs[misses[k]], out[misses[k]].key, admitted);
    }
    std::vector<BatchRequest*> ptrs;
    ptrs.reserve(reqs.size());
    for (BatchRequest& r : reqs) ptrs.push_back(&r);
    execute_batch(model_name, ptrs);
    {
      std::lock_guard<std::mutex> lk(stats_mutex_);
      ++bulk_batches_;
      batched_requests_ += hi - lo;
    }
    for (std::size_t k = lo; k < hi; ++k) {
      BatchRequest& r = reqs[k - lo];
      if (r.error) std::rethrow_exception(r.error);
      const Graph& g = graphs[misses[k]];
      Prediction& p = out[misses[k]];
      p.values = std::move(r.result);
      p.generation = r.generation;
      p.batch_id = r.batch_id;
      p.batch_size = r.batch_size;
      maybe_verify(p, g);
      if (cache_.enabled() && p.ar_verified) {
        cache_.set_ar(CacheKey{model_name, p.generation, p.key->value()},
                      p.approximation_ratio);
      }
      complete(p, g, start);
    }
  }
  return out;
}

MicroBatcher& ServeHandle::batcher_for(const std::string& model_name) {
  std::lock_guard<std::mutex> lk(batchers_mutex_);
  auto it = batchers_.find(model_name);
  if (it == batchers_.end()) {
    auto executor = [this, model_name](std::vector<BatchRequest*>& batch) {
      execute_batch(model_name, batch);
    };
    it = batchers_
             .emplace(model_name, std::make_unique<MicroBatcher>(
                                      config_.max_batch,
                                      config_.max_queue_delay,
                                      std::move(executor)))
             .first;
  }
  return *it->second;
}

void ServeHandle::execute_batch(const std::string& model_name,
                                std::vector<BatchRequest*>& batch) {
  // One registry resolution for the whole batch: every member gets the
  // same generation even if register_model swaps the name mid-flight.
  const auto entry = registry_.get(model_name);
  const FeatureConfig& features = entry->model->config().features;

  const bool obs_on = obs::enabled();
  auto stage_start = std::chrono::steady_clock::time_point{};
  if (obs_on || queue_wait_tap_) {
    stage_start = std::chrono::steady_clock::now();
    for (const BatchRequest* r : batch) {
      const double wait = elapsed_us(r->admit_time, stage_start);
      if (obs_on) queue_wait_us_.record(wait);
      if (queue_wait_tap_) queue_wait_tap_(wait);
    }
    if (obs_on) batch_size_hist_.record(static_cast<double>(batch.size()));
  }

  try {
    GraphBatch union_batch;
    {
      QGNN_TRACE_SPAN(obs::names::kServeBatchFormSpan);
      if (ThreadPool::global().size() > 1 && batch.size() > 1) {
        // Per-request feature extraction fans out on the PR-1 thread pool.
        // Each part depends only on its own graph, so the result — and
        // hence the union forward — is identical at any thread count.
        std::vector<GraphBatch> parts(batch.size());
        ThreadPool::global().parallel_for(
            0, batch.size(), 1, [&](std::uint64_t lo, std::uint64_t hi) {
              for (std::uint64_t i = lo; i < hi; ++i) {
                parts[i] = make_graph_batch(*batch[i]->graph, features);
              }
            });
        union_batch = concat_graph_batches(parts);
      } else {
        // A single-lane pool gains nothing from the fan-out; build the
        // union directly (bit-identical: the same append code computes
        // every entry, minus the per-part copies).
        std::vector<const Graph*> graphs;
        graphs.reserve(batch.size());
        for (const BatchRequest* r : batch) graphs.push_back(r->graph);
        union_batch = make_graph_batch(graphs, features);
      }
    }
    auto forward_start = std::chrono::steady_clock::time_point{};
    if (obs_on) {
      forward_start = std::chrono::steady_clock::now();
      batch_form_us_.record(elapsed_us(stage_start, forward_start));
    }
    Matrix rows;
    {
      QGNN_TRACE_SPAN(obs::names::kServeForwardSpan);
      rows = entry->model->predict(union_batch);
    }
    if (obs_on) {
      forward_us_.record(
          elapsed_us(forward_start, std::chrono::steady_clock::now()));
    }

    const std::uint64_t batch_id =
        next_batch_id_.fetch_add(1, std::memory_order_relaxed) + 1;
    for (std::size_t i = 0; i < batch.size(); ++i) {
      Matrix row(1, rows.cols());
      for (std::size_t j = 0; j < rows.cols(); ++j) row(0, j) = rows(i, j);
      if (cache_.enabled()) {
        cache_.insert(CacheKey{model_name, entry->generation,
                               batch[i]->key.value().value()},
                      row);
      }
      batch[i]->result = std::move(row);
      batch[i]->generation = entry->generation;
      batch[i]->batch_id = batch_id;
      batch[i]->batch_size = static_cast<int>(batch.size());
    }
  } catch (...) {
    const std::exception_ptr error = std::current_exception();
    for (BatchRequest* r : batch) r->error = error;
  }
}

void ServeHandle::maybe_verify(Prediction& p, const Graph& g) {
  if (!config_.verify_ar) return;
  // Beyond the statevector cap the exact check is unavailable; leave
  // ar_verified false rather than failing an otherwise valid prediction.
  if (g.num_nodes() > kMaxQubits) return;
  const bool obs_on = obs::enabled();
  const auto verify_start = obs_on ? std::chrono::steady_clock::now()
                                   : std::chrono::steady_clock::time_point{};
  // One cut-table build + one engine evaluation per request. The table
  // (and with it the exact optimum) is built by doubling for unit-weight
  // graphs, and the engine's phase-table and fused-mixer kernels do the
  // evaluation, cheap enough to run inline on the request thread at
  // paper-scale n.
  const QaoaAnsatz ansatz(g);
  p.approximation_ratio =
      ansatz.approximation_ratio(target_to_params(p.values));
  p.ar_verified = true;
  if (obs_on) {
    verify_us_.record(
        elapsed_us(verify_start, std::chrono::steady_clock::now()));
  }
  std::lock_guard<std::mutex> lk(stats_mutex_);
  ++ar_verifications_;
}

bool ServeHandle::try_submit(Graph g, SubmitCallback done) {
  return try_submit(config_.default_model, std::move(g), std::move(done));
}

CacheProbe ServeHandle::try_cache_predict(const Graph& g) {
  return try_cache_predict(config_.default_model, g);
}

CacheProbe ServeHandle::try_cache_predict(const std::string& model_name,
                                          const Graph& g) {
  CacheProbe probe;
  if (!cache_.enabled()) return probe;
  std::shared_ptr<const ModelEntry> entry;
  try {
    entry = registry_.get(model_name);
  } catch (const Error&) {
    return probe;  // slow path owns the error report
  }
  if (g.num_nodes() < 1 ||
      g.num_nodes() > entry->model->config().features.max_nodes) {
    return probe;
  }

  const auto start = Clock::now();
  probe.key = key_for(g, std::nullopt);
  const bool obs_on = obs::enabled();
  const auto lookup_start = obs_on ? Clock::now() : Clock::time_point{};
  const CacheKey key{model_name, entry->generation, probe.key->value()};
  auto cached = cache_.probe(key);
  // A miss records no lookup sample: the submitted predict's authoritative
  // lookup does, so every request contributes exactly one.
  if (!cached) return probe;
  if (obs_on) cache_lookup_us_.record(elapsed_us(lookup_start, Clock::now()));

  note_first_request(start);
  Prediction out;
  out.model = model_name;
  out.key = probe.key;
  answer_from_cache(out, std::move(*cached), key, g);
  complete(out, g, start);
  probe.hit = std::move(out);
  return probe;
}

bool ServeHandle::try_submit(std::string model_name, Graph g,
                             SubmitCallback done,
                             std::optional<GraphKey> key) {
  QGNN_REQUIRE(done != nullptr, "try_submit requires a completion callback");
  {
    std::lock_guard<std::mutex> lk(submit_mutex_);
    if (submit_queue_.size() >= config_.submit_queue_cap) return false;
    if (submit_threads_.empty()) start_submit_workers_locked();
    submit_queue_.push_back(SubmitJob{std::move(model_name), std::move(g),
                                      key, std::move(done), Clock::now()});
  }
  submit_cv_.notify_one();
  return true;
}

void ServeHandle::set_queue_wait_tap(std::function<void(double)> tap) {
  queue_wait_tap_ = std::move(tap);
}

void ServeHandle::set_prediction_tap(
    std::function<void(const Graph&, const Prediction&)> tap) {
  prediction_tap_ = std::move(tap);
}

std::size_t ServeHandle::submit_queue_depth() const {
  std::lock_guard<std::mutex> lk(submit_mutex_);
  return submit_queue_.size();
}

void ServeHandle::drain_submits() {
  std::unique_lock<std::mutex> lk(submit_mutex_);
  submit_idle_cv_.wait(lk, [this] {
    return submit_queue_.empty() && submits_in_flight_ == 0;
  });
}

void ServeHandle::start_submit_workers_locked() {
  submit_threads_.reserve(static_cast<std::size_t>(config_.submit_workers));
  for (int i = 0; i < config_.submit_workers; ++i) {
    submit_threads_.emplace_back([this] { submit_worker_main(); });
  }
}

void ServeHandle::submit_worker_main() {
  for (;;) {
    SubmitJob job;
    {
      std::unique_lock<std::mutex> lk(submit_mutex_);
      submit_cv_.wait(lk,
                      [this] { return submit_stop_ || !submit_queue_.empty(); });
      if (submit_stop_ && submit_queue_.empty()) return;
      job = std::move(submit_queue_.front());
      submit_queue_.pop_front();
      ++submits_in_flight_;
    }
    // The queue push was the request's admission: its queue-wait sample
    // (recorded when its batch forms) covers the submit-queue wait too, so
    // an overloaded submit pool shows up in queue-wait percentiles and in
    // the SLO tap that drives load shedding.
    Prediction p;
    std::exception_ptr error;
    try {
      p = predict_keyed(job.model, job.graph, job.key, job.enqueue_time);
    } catch (...) {
      error = std::current_exception();
    }
    job.done(std::move(p), error);
    {
      std::lock_guard<std::mutex> lk(submit_mutex_);
      --submits_in_flight_;
    }
    submit_idle_cv_.notify_all();
  }
}

void ServeHandle::record_latency(double latency_us) {
  const auto now = std::chrono::steady_clock::now();
  latency_us_.record(latency_us);
  std::lock_guard<std::mutex> lk(stats_mutex_);
  ++requests_;
  last_completion_ = std::max(last_completion_, now);
}

ServeStats ServeHandle::stats() const {
  ServeStats s;
  const PredictionCache::Counters cache = cache_.counters();
  s.cache_hits = cache.hits;
  s.cache_misses = cache.misses;
  s.cache_evictions = cache.evictions;

  {
    std::lock_guard<std::mutex> lk(stats_mutex_);
    s.requests = requests_;
    s.batched_requests = batched_requests_;
    s.batches = bulk_batches_;
    s.ar_verifications = ar_verifications_;
    if (have_first_request_ && requests_ > 0 &&
        last_completion_ > first_request_) {
      const double span_s =
          std::chrono::duration<double>(last_completion_ - first_request_)
              .count();
      s.requests_per_second = static_cast<double>(requests_) / span_s;
    }
  }
  {
    std::lock_guard<std::mutex> lk(batchers_mutex_);
    for (const auto& [name, batcher] : batchers_) {
      s.batches += batcher->batches_executed();
    }
  }
  if (s.batches > 0) {
    s.mean_batch_size = static_cast<double>(s.batched_requests) /
                        static_cast<double>(s.batches);
  }
  // Request-latency percentiles come from the shared log-bucketed
  // histogram: bounded memory regardless of request count, and the same
  // quantile math every exporter (serve_bench, the stats command) sees.
  const obs::HistogramSummary latency = latency_us_.summary();
  s.latency_us_mean = latency.mean;
  s.latency_us_p50 = latency.p50;
  s.latency_us_p90 = latency.p90;
  s.latency_us_p99 = latency.p99;

  s.queue_wait_us = queue_wait_us_.summary();
  s.batch_form_us = batch_form_us_.summary();
  s.forward_us = forward_us_.summary();
  s.cache_lookup_us = cache_lookup_us_.summary();
  s.batch_size = batch_size_hist_.summary();
  s.verify_us = verify_us_.summary();
  return s;
}

}  // namespace qgnn::serve
