#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "gnn/layers.hpp"
#include "gnn/model.hpp"
#include "graph/canonical.hpp"
#include "graph/generators.hpp"
#include "quantum/statevector.hpp"
#include "serve/model_registry.hpp"
#include "serve/prediction_cache.hpp"
#include "serve/protocol.hpp"
#include "obs/metrics.hpp"
#include "serve/service.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace qgnn {
namespace {

using serve::CacheKey;
using serve::ModelRegistry;
using serve::Prediction;
using serve::PredictionCache;
using serve::ServeConfig;
using serve::ServeHandle;

GnnModel make_model(GnnArch arch, std::uint64_t seed) {
  GnnModelConfig config;
  config.arch = arch;
  Rng rng(seed);
  return GnnModel(config, rng);
}

std::vector<Graph> test_graphs(int count, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Graph> graphs;
  graphs.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    const int n = rng.uniform_int(4, 12);
    const int d = n % 2 == 0 ? 3 : 4;
    graphs.push_back(random_regular_graph(n, d, rng));
  }
  return graphs;
}

void expect_bit_identical(const Matrix& a, const Matrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) {
      EXPECT_EQ(a(i, j), b(i, j)) << "mismatch at (" << i << "," << j << ")";
    }
  }
}

/// Restores the global pool size on scope exit so tests don't leak their
/// thread-count choice into later tests.
struct PoolSizeGuard {
  ~PoolSizeGuard() {
    ThreadPool::set_global_threads(ThreadPool::configured_threads());
  }
};

/// Restores the global observability switch on scope exit.
struct ObsEnabledGuard {
  bool saved = obs::enabled();
  ~ObsEnabledGuard() { obs::set_enabled(saved); }
};

// ---- acceptance: batched == single, at any thread count -----------------

TEST(Serve, BatchedPredictionsBitIdenticalToSingleAcrossThreadCounts) {
  PoolSizeGuard guard;
  const auto graphs = test_graphs(24, 101);
  for (const GnnArch arch : all_gnn_archs()) {
    const GnnModel reference = make_model(arch, 5);
    std::vector<Matrix> expected;
    expected.reserve(graphs.size());
    for (const Graph& g : graphs) expected.push_back(reference.predict(g));

    for (const int threads : {1, 2, 4}) {
      ThreadPool::set_global_threads(threads);
      ServeConfig config;
      config.max_batch = 8;
      config.max_queue_delay = std::chrono::microseconds(2000);
      config.cache_capacity = 0;  // force every request through a forward
      ServeHandle serve(config);
      serve.register_model("m", make_model(arch, 5));

      std::vector<Prediction> results(graphs.size());
      std::vector<std::thread> clients;
      std::atomic<std::size_t> next{0};
      for (int c = 0; c < 6; ++c) {
        clients.emplace_back([&] {
          std::size_t i;
          while ((i = next.fetch_add(1)) < graphs.size()) {
            results[i] = serve.predict("m", graphs[i]);
          }
        });
      }
      for (auto& t : clients) t.join();

      for (std::size_t i = 0; i < graphs.size(); ++i) {
        SCOPED_TRACE(to_string(arch) + " threads=" + std::to_string(threads) +
                     " graph=" + std::to_string(i));
        expect_bit_identical(results[i].values, expected[i]);
      }
    }
  }
}

TEST(Serve, RequestsActuallyCoalesce) {
  ServeConfig config;
  config.max_batch = 8;
  config.max_queue_delay = std::chrono::microseconds(20000);
  config.cache_capacity = 0;
  ServeHandle serve(config);
  serve.register_model("m", make_model(GnnArch::kGCN, 1));

  const auto graphs = test_graphs(32, 7);
  std::vector<Prediction> results(graphs.size());
  std::vector<std::thread> clients;
  std::atomic<std::size_t> next{0};
  for (int c = 0; c < 8; ++c) {
    clients.emplace_back([&] {
      std::size_t i;
      while ((i = next.fetch_add(1)) < graphs.size()) {
        results[i] = serve.predict("m", graphs[i]);
      }
    });
  }
  for (auto& t : clients) t.join();

  const auto stats = serve.stats();
  EXPECT_EQ(stats.requests, graphs.size());
  EXPECT_EQ(stats.batched_requests, graphs.size());
  // With 8 concurrent clients and a generous delay, at least some forward
  // passes must have served more than one request.
  EXPECT_LT(stats.batches, graphs.size());
  EXPECT_GT(stats.mean_batch_size, 1.0);
  int max_observed = 0;
  for (const Prediction& p : results) {
    max_observed = std::max(max_observed, p.batch_size);
  }
  EXPECT_GT(max_observed, 1);
  EXPECT_LE(max_observed, config.max_batch);
}

// ---- acceptance: cache hits return the same values as cold misses -------

TEST(Serve, CacheHitsReturnSameValuesAsColdMisses) {
  ServeConfig config;
  config.max_batch = 1;
  config.cache_capacity = 64;
  ServeHandle serve(config);
  serve.register_model("default", make_model(GnnArch::kGCN, 2));

  // Cycle graphs of distinct sizes are pairwise non-isomorphic, so the
  // first pass is guaranteed to be all cache misses. (Random regular
  // graphs can repeat up to isomorphism — e.g. every 3-regular graph on
  // 4 nodes is K4 — which would make a "cold" request hit the cache.)
  std::vector<Graph> graphs;
  for (int n = 4; n < 12; ++n) graphs.push_back(cycle_graph(n));
  std::vector<Prediction> cold;
  cold.reserve(graphs.size());
  for (const Graph& g : graphs) cold.push_back(serve.predict(g));
  for (const Prediction& p : cold) EXPECT_FALSE(p.cache_hit);

  for (std::size_t i = 0; i < graphs.size(); ++i) {
    const Prediction warm = serve.predict(graphs[i]);
    EXPECT_TRUE(warm.cache_hit);
    EXPECT_EQ(warm.generation, cold[i].generation);
    expect_bit_identical(warm.values, cold[i].values);
  }

  const auto stats = serve.stats();
  EXPECT_EQ(stats.cache_hits, graphs.size());
  EXPECT_EQ(stats.cache_misses, graphs.size());
}

TEST(Serve, IsomorphicGraphsShareACacheEntry) {
  ServeConfig config;
  config.max_batch = 1;
  config.cache_capacity = 64;
  ServeHandle serve(config);
  serve.register_model("default", make_model(GnnArch::kGCN, 3));

  Rng rng(17);
  const Graph g = random_regular_graph(10, 3, rng);
  std::vector<int> perm{3, 1, 4, 0, 9, 5, 8, 2, 7, 6};
  const Graph relabelled = g.permuted(perm);

  const Prediction first = serve.predict(g);
  const Prediction second = serve.predict(relabelled);
  EXPECT_FALSE(first.cache_hit);
  EXPECT_TRUE(second.cache_hit) << "canonical hashing should identify "
                                   "relabelled isomorphic graphs";
  expect_bit_identical(second.values, first.values);
}

TEST(Serve, CacheEvictsLeastRecentlyUsed) {
  PredictionCache cache(2);
  const Matrix m(1, 2, 0.5);
  cache.insert(CacheKey{"m", 1, 100}, m);
  cache.insert(CacheKey{"m", 1, 200}, m);
  EXPECT_TRUE(cache.lookup(CacheKey{"m", 1, 100}).has_value());  // refresh
  cache.insert(CacheKey{"m", 1, 300}, m);  // evicts 200, not 100
  EXPECT_TRUE(cache.lookup(CacheKey{"m", 1, 100}).has_value());
  EXPECT_FALSE(cache.lookup(CacheKey{"m", 1, 200}).has_value());
  EXPECT_TRUE(cache.lookup(CacheKey{"m", 1, 300}).has_value());

  const auto counters = cache.counters();
  EXPECT_EQ(counters.evictions, 1u);
  EXPECT_EQ(counters.size, 2u);
  EXPECT_EQ(counters.hits, 3u);
  EXPECT_EQ(counters.misses, 1u);
}

TEST(Serve, HotSwapInvalidatesCacheViaGenerationKey) {
  ServeConfig config;
  config.max_batch = 1;
  config.cache_capacity = 64;
  ServeHandle serve(config);
  serve.register_model("default", make_model(GnnArch::kGCN, 4));

  Rng rng(23);
  const Graph g = random_regular_graph(8, 3, rng);
  const Prediction before = serve.predict(g);
  EXPECT_EQ(before.generation, 1u);

  serve.register_model("default", make_model(GnnArch::kGCN, 999));
  const Prediction after = serve.predict(g);
  EXPECT_EQ(after.generation, 2u);
  EXPECT_FALSE(after.cache_hit) << "old generation's entry must not serve "
                                   "the swapped model";
}

// ---- acceptance: hot-swap never mixes generations within one batch ------

TEST(Serve, HotSwapNeverMixesGenerationsWithinABatch) {
  ServeConfig config;
  config.max_batch = 8;
  config.max_queue_delay = std::chrono::microseconds(500);
  config.cache_capacity = 0;
  ServeHandle serve(config);
  serve.register_model("m", make_model(GnnArch::kGCN, 10));

  const auto graphs = test_graphs(16, 31);
  std::atomic<bool> stop{false};
  std::mutex results_mutex;
  std::vector<Prediction> results;

  std::vector<std::thread> clients;
  for (int c = 0; c < 6; ++c) {
    clients.emplace_back([&, c] {
      Rng rng(static_cast<std::uint64_t>(c) + 77);
      while (!stop.load()) {
        const Graph& g =
            graphs[rng.index(graphs.size())];
        const Prediction p = serve.predict("m", g);
        std::lock_guard<std::mutex> lk(results_mutex);
        results.push_back(p);
      }
    });
  }

  // Swap the model repeatedly while requests are in flight.
  for (int swap = 0; swap < 20; ++swap) {
    serve.register_model("m",
                         make_model(GnnArch::kGCN, 100 + static_cast<std::uint64_t>(swap)));
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  stop.store(true);
  for (auto& t : clients) t.join();

  ASSERT_GT(results.size(), 0u);
  std::map<std::uint64_t, std::set<std::uint64_t>> generations_by_batch;
  std::uint64_t max_generation = 0;
  for (const Prediction& p : results) {
    ASSERT_GT(p.batch_id, 0u);
    generations_by_batch[p.batch_id].insert(p.generation);
    max_generation = std::max(max_generation, p.generation);
  }
  for (const auto& [batch_id, gens] : generations_by_batch) {
    EXPECT_EQ(gens.size(), 1u)
        << "batch " << batch_id << " mixed " << gens.size() << " generations";
  }
  EXPECT_GT(max_generation, 1u) << "swaps should have landed mid-stream";
}

// ---- batching behavior ---------------------------------------------------

TEST(Serve, SingleRequestFlushesAfterMaxDelay) {
  ServeConfig config;
  config.max_batch = 64;  // never fills
  config.max_queue_delay = std::chrono::microseconds(1000);
  config.cache_capacity = 0;
  ServeHandle serve(config);
  serve.register_model("default", make_model(GnnArch::kGCN, 6));

  Rng rng(41);
  const Prediction p = serve.predict(random_regular_graph(8, 3, rng));
  EXPECT_EQ(p.batch_size, 1);
  EXPECT_GT(p.batch_id, 0u);
}

TEST(Serve, UnknownModelAndOversizedGraphAreRejected) {
  ServeHandle serve;
  serve.register_model("default", make_model(GnnArch::kGCN, 8));
  Rng rng(43);
  const Graph g = random_regular_graph(8, 3, rng);
  EXPECT_THROW(serve.predict("nope", g), InvalidArgument);
  const Graph too_big = cycle_graph(40);  // default max_nodes is 15
  EXPECT_THROW(serve.predict("default", too_big), InvalidArgument);
}

TEST(Serve, LatencyAndThroughputStatsPopulate) {
  ServeConfig config;
  config.max_batch = 4;
  ServeHandle serve(config);
  serve.register_model("default", make_model(GnnArch::kGCN, 9));
  const auto graphs = test_graphs(10, 53);
  for (const Graph& g : graphs) serve.predict(g);

  const auto stats = serve.stats();
  EXPECT_EQ(stats.requests, graphs.size());
  EXPECT_GT(stats.latency_us_p50, 0.0);
  EXPECT_GE(stats.latency_us_p99, stats.latency_us_p50);
  EXPECT_GE(stats.latency_us_p90, stats.latency_us_p50);
  EXPECT_GT(stats.requests_per_second, 0.0);
}

// ---- registry ------------------------------------------------------------

TEST(Serve, RegistryLoadsCheckpointDirectoryAndHotSwaps) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() / "qgnn_serve_registry_test";
  fs::remove_all(dir);
  fs::create_directories(dir);

  make_model(GnnArch::kGCN, 1).save((dir / "alpha.txt").string());
  make_model(GnnArch::kGAT, 2).save((dir / "beta.model").string());
  // Non-checkpoint files must be ignored.
  { std::ofstream((dir / "README.md").string()) << "not a model\n"; }

  ModelRegistry registry;
  EXPECT_EQ(registry.load_directory(dir.string()), 2u);
  EXPECT_EQ(registry.names(), (std::vector<std::string>{"alpha", "beta"}));
  EXPECT_EQ(registry.get("alpha")->generation, 1u);
  EXPECT_EQ(registry.get("beta")->model->config().arch, GnnArch::kGAT);

  registry.register_model("alpha", make_model(GnnArch::kGIN, 3));
  EXPECT_EQ(registry.get("alpha")->generation, 2u);
  EXPECT_EQ(registry.get("alpha")->model->config().arch, GnnArch::kGIN);
  EXPECT_THROW(registry.get("gamma"), InvalidArgument);

  fs::remove_all(dir);
}

TEST(Serve, RegistryRejectsOddOutputDim) {
  GnnModelConfig config;
  config.output_dim = 3;  // not a (gamma, beta) stack
  Rng rng(1);
  ModelRegistry registry;
  EXPECT_THROW(registry.register_model("bad", GnnModel(config, rng)), Error);
}

// ---- NDJSON protocol -----------------------------------------------------

TEST(Serve, NdjsonRoundTrip) {
  ServeConfig config;
  config.max_batch = 1;
  ServeHandle serve(config);
  serve.register_model("default", make_model(GnnArch::kGCN, 12));

  std::istringstream in(
      "{\"id\": 1, \"nodes\": 4, \"edges\": [[0,1],[1,2],[2,3],[3,0]]}\n"
      "\n"
      "{\"id\": \"req-2\", \"model\": \"default\", \"nodes\": 3, "
      "\"edges\": [[0,1],[1,2],[2,0]]}\n"
      "{\"id\": 3, \"nodes\": 3}\n"
      "this is not json\n");
  std::ostringstream out;
  EXPECT_EQ(serve::run_ndjson_server(in, out, serve), 4u);

  std::istringstream lines(out.str());
  std::string line;
  std::vector<serve::JsonValue> responses;
  while (std::getline(lines, line)) {
    responses.push_back(serve::parse_json(line));
  }
  ASSERT_EQ(responses.size(), 4u);

  EXPECT_EQ(responses[0].find("id")->number, 1.0);
  EXPECT_TRUE(responses[0].find("ok")->boolean);
  EXPECT_EQ(responses[0].find("values")->array.size(), 2u);
  EXPECT_EQ(responses[0].find("generation")->number, 1.0);

  EXPECT_EQ(responses[1].find("id")->string, "req-2");
  EXPECT_TRUE(responses[1].find("ok")->boolean);

  EXPECT_FALSE(responses[2].find("ok")->boolean);  // missing edges
  EXPECT_NE(responses[2].find("error"), nullptr);

  EXPECT_FALSE(responses[3].find("ok")->boolean);  // unparsable line
}

TEST(Serve, NdjsonPipelinedWorkersAnswerEveryRequest) {
  ServeConfig config;
  config.max_batch = 8;
  config.max_queue_delay = std::chrono::microseconds(2000);
  ServeHandle serve(config);
  serve.register_model("default", make_model(GnnArch::kGCN, 13));

  std::ostringstream requests;
  for (int i = 0; i < 40; ++i) {
    const int n = 4 + i % 6;
    requests << "{\"id\": " << i << ", \"nodes\": " << n << ", \"edges\": [";
    for (int v = 0; v < n; ++v) {
      requests << (v ? "," : "") << "[" << v << "," << (v + 1) % n << "]";
    }
    requests << "]}\n";
  }
  std::istringstream in(requests.str());
  std::ostringstream out;
  EXPECT_EQ(serve::run_ndjson_server(in, out, serve, /*workers=*/4), 40u);

  std::istringstream lines(out.str());
  std::string line;
  std::set<int> ids;
  while (std::getline(lines, line)) {
    const auto resp = serve::parse_json(line);
    EXPECT_TRUE(resp.find("ok")->boolean);
    ids.insert(static_cast<int>(resp.find("id")->number));
  }
  EXPECT_EQ(ids.size(), 40u) << "every id answered exactly once";
}

TEST(Serve, NdjsonStatsCommandRoundTrip) {
  ObsEnabledGuard obs_guard;
  obs::set_enabled(true);
  ServeConfig config;
  config.max_batch = 4;
  config.cache_capacity = 64;
  ServeHandle serve(config);
  serve.register_model("default", make_model(GnnArch::kGCN, 21));

  // Three predicts (the third repeats the first, so it is a cache hit)
  // followed by the stats command; workers=1 keeps responses in order.
  std::istringstream in(
      "{\"id\": 1, \"nodes\": 4, \"edges\": [[0,1],[1,2],[2,3],[3,0]]}\n"
      "{\"id\": 2, \"nodes\": 3, \"edges\": [[0,1],[1,2],[2,0]]}\n"
      "{\"id\": 1, \"nodes\": 4, \"edges\": [[0,1],[1,2],[2,3],[3,0]]}\n"
      "{\"cmd\": \"stats\", \"id\": 99}\n");
  std::ostringstream out;
  EXPECT_EQ(serve::run_ndjson_server(in, out, serve, /*workers=*/1), 4u);

  std::istringstream lines(out.str());
  std::string line;
  std::vector<serve::JsonValue> responses;
  while (std::getline(lines, line)) {
    responses.push_back(serve::parse_json(line));
  }
  ASSERT_EQ(responses.size(), 4u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(responses[static_cast<std::size_t>(i)].find("ok")->boolean);
  }

  const serve::JsonValue& reply = responses[3];
  EXPECT_EQ(reply.find("id")->number, 99.0);
  EXPECT_TRUE(reply.find("ok")->boolean);
  const serve::JsonValue* stats = reply.find("stats");
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->find("requests")->number, 3.0);
  EXPECT_EQ(stats->find("cache_hits")->number, 1.0);
  EXPECT_EQ(stats->find("cache_misses")->number, 2.0);
  EXPECT_GT(stats->find("latency_us_p50")->number, 0.0);

  // The per-stage histograms are populated while observability is on.
  const serve::JsonValue* forward = stats->find("forward_us");
  ASSERT_NE(forward, nullptr);
  EXPECT_GE(forward->find("count")->number, 1.0);
  EXPECT_GT(forward->find("mean")->number, 0.0);
  const serve::JsonValue* queue_wait = stats->find("queue_wait_us");
  ASSERT_NE(queue_wait, nullptr);
  EXPECT_GE(queue_wait->find("count")->number, 2.0);
  EXPECT_EQ(stats->find("batch_size")->find("sum")->number,
            stats->find("batched_requests")->number);
}

TEST(Serve, UnknownCmdProducesErrorResponse) {
  ServeHandle serve;
  serve.register_model("default", make_model(GnnArch::kGCN, 22));
  std::istringstream in("{\"cmd\": \"selfdestruct\", \"id\": 5}\n");
  std::ostringstream out;
  serve::run_ndjson_server(in, out, serve);
  const auto resp = serve::parse_json(out.str());
  EXPECT_EQ(resp.find("id")->number, 5.0);
  EXPECT_FALSE(resp.find("ok")->boolean);
  EXPECT_NE(resp.find("error")->string.find("unknown cmd"),
            std::string::npos);
}

TEST(Serve, ConcurrentPredictAccountingIsExact) {
  ObsEnabledGuard obs_guard;
  obs::set_enabled(true);
  ServeConfig config;
  config.max_batch = 8;
  config.max_queue_delay = std::chrono::microseconds(500);
  config.cache_capacity = 256;
  ServeHandle serve(config);
  serve.register_model("default", make_model(GnnArch::kGCN, 23));

  // 16 distinct graphs requested many times over from 8 threads: plenty
  // of duplicates, so hits, misses, and coalesced batches all occur.
  const auto graphs = test_graphs(16, 77);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 32;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&serve, &graphs, t] {
      for (int i = 0; i < kPerThread; ++i) {
        serve.predict(
            graphs[static_cast<std::size_t>(t * 7 + i) % graphs.size()]);
      }
    });
  }
  for (auto& t : threads) t.join();

  const auto stats = serve.stats();
  const auto total =
      static_cast<std::uint64_t>(kThreads) * static_cast<std::uint64_t>(
                                                 kPerThread);
  // Exactness under concurrency: every request does exactly one cache
  // probe (hit XOR miss), and every miss is answered by exactly one
  // coalesced forward pass.
  EXPECT_EQ(stats.requests, total);
  EXPECT_EQ(stats.cache_hits + stats.cache_misses, total);
  EXPECT_EQ(stats.batched_requests, stats.cache_misses);
  // The batch-size histogram counts one sample per forward pass and its
  // sum is the number of requests those passes answered.
  EXPECT_EQ(stats.batch_size.count, stats.batches);
  EXPECT_EQ(stats.batch_size.sum,
            static_cast<double>(stats.batched_requests));
}

TEST(Serve, JsonParserRejectsGarbage) {
  EXPECT_THROW(serve::parse_json("{"), InvalidArgument);
  EXPECT_THROW(serve::parse_json("{\"a\": }"), InvalidArgument);
  EXPECT_THROW(serve::parse_json("[1,2,]"), InvalidArgument);
  EXPECT_THROW(serve::parse_json("12abc"), InvalidArgument);
  EXPECT_THROW(serve::parse_json("{} trailing"), InvalidArgument);
  EXPECT_EQ(serve::parse_json("[1, 2.5, -3e2]").array.size(), 3u);
  EXPECT_EQ(serve::parse_json("\"a\\nb\"").string, "a\nb");
}

TEST(Serve, VerifyArScoresPredictionsOnAllPaths) {
  ServeConfig config;
  config.max_batch = 4;
  config.max_queue_delay = std::chrono::microseconds(0);
  config.verify_ar = true;
  ServeHandle serve(config);
  serve.register_model("default", make_model(GnnArch::kGCN, 21));

  const auto graphs = test_graphs(6, 77);
  // predict_many: miss path (first round) then hit path (second round).
  for (int round = 0; round < 2; ++round) {
    const auto preds = serve.predict_many(graphs);
    for (const Prediction& p : preds) {
      EXPECT_TRUE(p.ar_verified);
      EXPECT_GT(p.approximation_ratio, 0.0);
      EXPECT_LE(p.approximation_ratio, 1.0);
      EXPECT_EQ(p.cache_hit, round == 1);
    }
  }
  // predict: cache-hit path, plus one fresh miss through the batcher.
  const Prediction hit = serve.predict(graphs[0]);
  EXPECT_TRUE(hit.cache_hit);
  EXPECT_TRUE(hit.ar_verified);
  Rng rng(78);
  const Prediction miss = serve.predict(random_regular_graph(9, 4, rng));
  EXPECT_FALSE(miss.cache_hit);
  EXPECT_TRUE(miss.ar_verified);
  EXPECT_GT(miss.approximation_ratio, 0.0);

  // The simulator runs once per distinct graph: the score is cached with
  // the prediction values, so the hit rounds above reused it instead of
  // recomputing the identical number.
  const auto stats = serve.stats();
  EXPECT_EQ(stats.ar_verifications, graphs.size() + 1);
}

TEST(Serve, VerifyArIsDeterministicAcrossCacheHitAndMiss) {
  ServeConfig config;
  config.max_batch = 1;
  config.verify_ar = true;
  ServeHandle serve(config);
  serve.register_model("default", make_model(GnnArch::kGCN, 22));
  Rng rng(79);
  const Graph g = random_regular_graph(10, 3, rng);
  const Prediction cold = serve.predict(g);
  const Prediction warm = serve.predict(g);
  ASSERT_FALSE(cold.cache_hit);
  ASSERT_TRUE(warm.cache_hit);
  // Same prediction row, same graph, same exact simulator: the score must
  // be bit-identical however the answer was produced.
  EXPECT_EQ(cold.approximation_ratio, warm.approximation_ratio);
}

TEST(Serve, VerifyArOffByDefaultAndSkipsOversizedGraphs) {
  {
    ServeHandle serve;
    serve.register_model("default", make_model(GnnArch::kGCN, 23));
    Rng rng(80);
    const Prediction p = serve.predict(random_regular_graph(8, 3, rng));
    EXPECT_FALSE(p.ar_verified);
    EXPECT_EQ(p.approximation_ratio, 0.0);
    EXPECT_EQ(serve.stats().ar_verifications, 0u);
  }
  {
    // A model that accepts graphs beyond the statevector cap: prediction
    // succeeds, verification silently skips.
    ServeConfig config;
    config.verify_ar = true;
    ServeHandle serve(config);
    GnnModelConfig model_config;
    model_config.features.max_nodes = kMaxQubits + 4;
    Rng mrng(24);
    serve.register_model("default", GnnModel(model_config, mrng));
    Rng rng(81);
    const Prediction small = serve.predict(random_regular_graph(10, 3, rng));
    EXPECT_TRUE(small.ar_verified);
    const Prediction big =
        serve.predict(random_regular_graph(kMaxQubits + 2, 3, rng));
    EXPECT_FALSE(big.ar_verified);
    EXPECT_EQ(serve.stats().ar_verifications, 1u);
  }
}

TEST(Serve, VerifyArPopulatesStageHistogramOnlyWhenObsEnabled) {
  ObsEnabledGuard guard;
  ServeConfig config;
  config.verify_ar = true;
  config.cache_capacity = 0;
  Rng rng(82);
  const Graph g = random_regular_graph(8, 3, rng);

  obs::set_enabled(true);
  ServeHandle on(config);
  on.register_model("default", make_model(GnnArch::kGCN, 25));
  on.predict(g);
  EXPECT_EQ(on.stats().verify_us.count, 1u);

  obs::set_enabled(false);
  ServeHandle off(config);
  off.register_model("default", make_model(GnnArch::kGCN, 25));
  off.predict(g);
  EXPECT_EQ(off.stats().verify_us.count, 0u);
  EXPECT_EQ(off.stats().ar_verifications, 1u);  // counted regardless
}

// ---- the carried graph key ----------------------------------------------

/// Prediction-tap recorder: every tapped request's key must be present and
/// equal to canonical_hash of the graph the tap sees.
struct KeyTap {
  std::mutex mutex;
  int seen = 0;
  int wrong = 0;

  void attach(ServeHandle& serve) {
    serve.set_prediction_tap([this](const Graph& g, const Prediction& p) {
      std::lock_guard<std::mutex> lk(mutex);
      ++seen;
      if (!p.key || p.key->value() != canonical_hash(g)) ++wrong;
    });
  }
};

TEST(Serve, PredictionTapSeesTheCanonicalKeyOnEveryPath) {
  ServeConfig config;
  config.max_batch = 4;
  config.max_queue_delay = std::chrono::microseconds(0);
  config.verify_ar = true;
  ServeHandle serve(config);
  serve.register_model("default", make_model(GnnArch::kGCN, 31));
  KeyTap tap;
  tap.attach(serve);

  // Cycles of distinct sizes: pairwise non-isomorphic, so every first
  // request is a miss.
  std::vector<Graph> graphs;
  for (int n = 4; n < 12; ++n) graphs.push_back(cycle_graph(n));
  // predict_many: misses, then hits.
  serve.predict_many({graphs.begin(), graphs.begin() + 4});
  serve.predict_many({graphs.begin(), graphs.begin() + 4});
  // predict: a miss through the batcher, then a hit.
  serve.predict(graphs[4]);
  const Prediction hit = serve.predict(graphs[4]);
  EXPECT_TRUE(hit.cache_hit);
  // try_submit with no prior probe: the submit worker computes the key.
  for (std::size_t i = 5; i < graphs.size(); ++i) {
    ASSERT_TRUE(serve.try_submit(graphs[i], [](Prediction p,
                                               std::exception_ptr error) {
      EXPECT_EQ(error, nullptr);
      EXPECT_FALSE(p.cache_hit);
    }));
  }
  serve.drain_submits();
  // The inline hit path, on a relabelled copy: same key, same entry.
  Rng rng(92);
  std::vector<int> perm(static_cast<std::size_t>(graphs[6].num_nodes()));
  for (std::size_t i = 0; i < perm.size(); ++i) {
    perm[i] = static_cast<int>(i);
  }
  rng.shuffle(perm);
  const serve::CacheProbe probe =
      serve.try_cache_predict(graphs[6].permuted(perm));
  ASSERT_TRUE(probe.hit.has_value());
  EXPECT_EQ(probe.key, probe.hit->key);
  EXPECT_EQ(probe.key->value(), canonical_hash(graphs[6]));

  EXPECT_EQ(tap.seen, 4 + 4 + 2 + 3 + 1);
  EXPECT_EQ(tap.wrong, 0);
  // Each distinct graph was verified once: the carried key found the
  // cached score on every later hit.
  EXPECT_EQ(serve.stats().ar_verifications, graphs.size());
}

TEST(Serve, KeyComputedOnlyWhenTheCacheOrATapNeedsIt) {
  ServeConfig config;
  config.cache_capacity = 0;
  ServeHandle serve(config);
  serve.register_model("default", make_model(GnnArch::kGCN, 32));
  const auto graphs = test_graphs(2, 93);

  EXPECT_FALSE(serve.predict(graphs[0]).key.has_value());
  EXPECT_FALSE(serve.predict_many(graphs)[1].key.has_value());
  const serve::CacheProbe probe = serve.try_cache_predict(graphs[0]);
  EXPECT_FALSE(probe.hit.has_value());
  EXPECT_FALSE(probe.key.has_value());

  // With the cache off, a tap alone still gets its key.
  KeyTap tap;
  tap.attach(serve);
  const Prediction p = serve.predict(graphs[1]);
  ASSERT_TRUE(p.key.has_value());
  EXPECT_EQ(p.key->value(), canonical_hash(graphs[1]));
  EXPECT_EQ(tap.seen, 1);
  EXPECT_EQ(tap.wrong, 0);
}

}  // namespace
}  // namespace qgnn
