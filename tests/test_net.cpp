// Networked serving tier tests: NDJSON framing (split, coalesced,
// oversized, trailing garbage) on the stdin and TCP paths, transport
// bit-identity, the consistent-hash shard router (disjoint caches,
// stable assignment), SLO load shedding, and graceful drain.
//
// This binary provides its own main(): ShardProcess re-executes
// /proc/self/exe with --shard-worker, so the test binary itself hosts
// the shard workers the router tests spawn.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <fstream>
#include <map>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "gnn/layers.hpp"
#include "gnn/model.hpp"
#include "graph/canonical.hpp"
#include "graph/graph.hpp"
#include "net/framing.hpp"
#include "net/socket.hpp"
#include "obs/metrics.hpp"
#include "serve/protocol.hpp"
#include "serve/router.hpp"
#include "serve/service.hpp"
#include "serve/shard_worker.hpp"
#include "serve/slo.hpp"
#include "serve/tcp_service.hpp"
#include "util/rng.hpp"

namespace {

using namespace qgnn;
using serve::JsonValue;

// ---------------------------------------------------------------------------
// Helpers

Graph cycle_graph(int n) {
  Graph g(n);
  for (int i = 0; i < n; ++i) g.add_edge(i, (i + 1) % n);
  return g;
}

std::string cycle_request(int id, int n) {
  std::string edges;
  for (int i = 0; i < n; ++i) {
    if (i > 0) edges += ",";
    edges += "[" + std::to_string(i) + "," + std::to_string((i + 1) % n) +
             "]";
  }
  return "{\"id\":" + std::to_string(id) + ",\"nodes\":" +
         std::to_string(n) + ",\"edges\":[" + edges + "]}";
}

/// Blocking NDJSON client over one TCP connection.
class TcpClient {
 public:
  explicit TcpClient(std::uint16_t port)
      : fd_(net::tcp_connect("127.0.0.1", port)) {}

  void send(const std::string& line) { net::write_all(fd_, line + "\n"); }
  void send_raw(const std::string& bytes) { net::write_all(fd_, bytes); }

  std::string recv_line() {
    std::string line;
    EXPECT_TRUE(net::read_line(fd_, carry_, line)) << "connection closed";
    return line;
  }

  /// Read `n` response lines and index them by numeric id.
  std::map<int, JsonValue> recv_by_id(int n) {
    std::map<int, JsonValue> out;
    for (int i = 0; i < n; ++i) {
      JsonValue doc = serve::parse_json(recv_line());
      const JsonValue* id = doc.find("id");
      EXPECT_NE(id, nullptr) << "response without id";
      if (id == nullptr) continue;
      out[static_cast<int>(id->number)] = std::move(doc);
    }
    return out;
  }

 private:
  net::Fd fd_;
  std::string carry_;
};

/// Register the same demo model qgnn_serve --demo and the shard workers
/// build: default GCN config, weights from Rng(42).
void register_demo(serve::ServeHandle& handle) {
  GnnModelConfig model_config;
  Rng rng(42);
  handle.register_model("default", GnnModel(model_config, rng));
}

std::vector<double> values_of(const JsonValue& response) {
  const JsonValue* values = response.find("values");
  EXPECT_NE(values, nullptr);
  std::vector<double> out;
  if (values != nullptr) {
    for (const JsonValue& v : values->array) out.push_back(v.number);
  }
  return out;
}

// ---------------------------------------------------------------------------
// LineFramer

TEST(LineFramer, SplitFeedOneByteAtATime) {
  net::LineFramer framer;
  std::vector<std::string> lines;
  const std::string input = "{\"a\":1}\n{\"b\":2}\n";
  for (char c : input) {
    framer.feed(&c, 1, [&](std::string&& l) { lines.push_back(l); },
                [](std::size_t) { FAIL() << "unexpected overflow"; });
  }
  EXPECT_EQ(lines, (std::vector<std::string>{"{\"a\":1}", "{\"b\":2}"}));
  EXPECT_EQ(framer.partial_bytes(), 0u);
}

TEST(LineFramer, CoalescedLinesOneFeed) {
  net::LineFramer framer;
  std::vector<std::string> lines;
  const std::string input = "a\nb\nc\npartial";
  framer.feed(input.data(), input.size(),
              [&](std::string&& l) { lines.push_back(l); },
              [](std::size_t) { FAIL(); });
  EXPECT_EQ(lines, (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(framer.partial_bytes(), 7u);  // trailing garbage, no newline
  EXPECT_EQ(framer.take_partial(), "partial");
  EXPECT_EQ(framer.partial_bytes(), 0u);
}

TEST(LineFramer, CrlfAndBlankLinesDropped) {
  net::LineFramer framer;
  std::vector<std::string> lines;
  const std::string input = "a\r\n\r\n\nb\n";
  framer.feed(input.data(), input.size(),
              [&](std::string&& l) { lines.push_back(l); },
              [](std::size_t) { FAIL(); });
  EXPECT_EQ(lines, (std::vector<std::string>{"a", "b"}));
}

TEST(LineFramer, OversizedLineReportedOnceAndRecovers) {
  net::LineFramer framer(8);
  std::vector<std::string> lines;
  int overflows = 0;
  std::size_t dropped = 0;
  const auto on_line = [&](std::string&& l) { lines.push_back(l); };
  const auto on_overflow = [&](std::size_t d) {
    ++overflows;
    dropped = d;
  };
  // One 20-byte line split across feeds, then a small valid line.
  const std::string big(20, 'x');
  framer.feed(big.data(), 10, on_line, on_overflow);
  EXPECT_TRUE(framer.discarding());
  framer.feed(big.data() + 10, 10, on_line, on_overflow);
  const std::string rest = "\nok\n";
  framer.feed(rest.data(), rest.size(), on_line, on_overflow);
  EXPECT_EQ(overflows, 1);  // reported once, not per feed
  EXPECT_GE(dropped, 8u);
  EXPECT_FALSE(framer.discarding());
  EXPECT_EQ(lines, (std::vector<std::string>{"ok"}));
}

// ---------------------------------------------------------------------------
// stdin path framing

TEST(StdinServer, OversizedLineAnswersCleanErrorAndResumes) {
  serve::ServeHandle handle;
  register_demo(handle);
  std::istringstream in(std::string(512, 'x') + "\n" +
                        cycle_request(7, 4) + "\n");
  std::ostringstream out;
  const std::size_t handled =
      serve::run_ndjson_server(in, out, handle, 1, /*max_line_bytes=*/128);
  EXPECT_EQ(handled, 2u);
  std::istringstream responses(out.str());
  std::string first;
  std::string second;
  ASSERT_TRUE(std::getline(responses, first));
  ASSERT_TRUE(std::getline(responses, second));
  EXPECT_NE(first.find("\"ok\":false"), std::string::npos);
  EXPECT_NE(first.find("exceeds"), std::string::npos);
  const JsonValue doc = serve::parse_json(second);
  EXPECT_TRUE(doc.find("ok")->boolean);
  EXPECT_EQ(static_cast<int>(doc.find("id")->number), 7);
}

TEST(StdinServer, FinalUnterminatedLineIsProcessed) {
  serve::ServeHandle handle;
  register_demo(handle);
  // No trailing newline on the last request: getline parity.
  std::istringstream in(cycle_request(1, 4) + "\n" + cycle_request(2, 5));
  std::ostringstream out;
  const std::size_t handled = serve::run_ndjson_server(in, out, handle, 1);
  EXPECT_EQ(handled, 2u);
  EXPECT_EQ(handle.stats().requests, 2u);
}

// ---------------------------------------------------------------------------
// TCP path framing

TEST(TcpService, SplitWritesAndPipelinedReads) {
  serve::ServeHandle handle;
  register_demo(handle);
  serve::NdjsonTcpService service(handle, {});
  service.start();
  TcpClient client(service.port());

  // One request split into three raw writes.
  const std::string req = cycle_request(1, 4) + "\n";
  client.send_raw(req.substr(0, 5));
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  client.send_raw(req.substr(5, 9));
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  client.send_raw(req.substr(14));
  const JsonValue split_resp = serve::parse_json(client.recv_line());
  EXPECT_TRUE(split_resp.find("ok")->boolean);
  EXPECT_EQ(static_cast<int>(split_resp.find("id")->number), 1);

  // Many requests coalesced into one write (pipelining).
  std::string burst;
  for (int id = 10; id < 20; ++id) burst += cycle_request(id, 4 + id % 5) + "\n";
  client.send_raw(burst);
  std::map<int, JsonValue> responses;
  client.recv_by_id(10).swap(responses);
  ASSERT_EQ(responses.size(), 10u);
  for (int id = 10; id < 20; ++id) {
    ASSERT_TRUE(responses.count(id)) << "missing response " << id;
    EXPECT_TRUE(responses[id].find("ok")->boolean);
  }
  EXPECT_TRUE(service.graceful_shutdown());
  handle.drain_submits();
}

TEST(TcpService, OversizedLineKeepsConnectionAlive) {
  serve::ServeHandle handle;
  register_demo(handle);
  serve::TcpServiceConfig config;
  config.net.max_line_bytes = 256;
  serve::NdjsonTcpService service(handle, config);
  service.start();
  TcpClient client(service.port());

  client.send(std::string(600, 'y'));
  const std::string error_line = client.recv_line();
  EXPECT_NE(error_line.find("\"ok\":false"), std::string::npos);
  EXPECT_NE(error_line.find("exceeds"), std::string::npos);

  // The stream resumed at the next newline; the connection still works.
  client.send(cycle_request(3, 5));
  const JsonValue resp = serve::parse_json(client.recv_line());
  EXPECT_TRUE(resp.find("ok")->boolean);
  EXPECT_EQ(static_cast<int>(resp.find("id")->number), 3);
  EXPECT_EQ(service.net_stats().oversized_lines, 1u);
  EXPECT_TRUE(service.graceful_shutdown());
  handle.drain_submits();
}

TEST(TcpService, ControlCommandsAndStatsSubObjects) {
  serve::ServeHandle handle;
  register_demo(handle);
  serve::NdjsonTcpService service(handle, {});
  service.start();
  TcpClient client(service.port());

  client.send("{\"cmd\":\"ping\",\"id\":1}");
  const JsonValue pong = serve::parse_json(client.recv_line());
  EXPECT_TRUE(pong.find("pong")->boolean);

  client.send("{\"cmd\":\"stats\",\"id\":2}");
  const JsonValue stats = serve::parse_json(client.recv_line());
  const JsonValue* body = stats.find("stats");
  ASSERT_NE(body, nullptr);
  EXPECT_NE(body->find("net"), nullptr);   // TCP front end extras
  EXPECT_NE(body->find("slo"), nullptr);
  EXPECT_GE(body->find("net")->find("lines_in")->number, 2.0);
  EXPECT_TRUE(service.graceful_shutdown());
  handle.drain_submits();
}

// ---------------------------------------------------------------------------
// Transport bit-identity

TEST(TcpService, BitIdenticalToInProcessPredictions) {
  serve::ServeHandle direct;
  register_demo(direct);
  serve::ServeHandle served;
  register_demo(served);
  serve::NdjsonTcpService service(served, {});
  service.start();
  TcpClient client(service.port());

  for (int n = 4; n <= 9; ++n) {
    client.send(cycle_request(n, n));
    const JsonValue resp = serve::parse_json(client.recv_line());
    ASSERT_TRUE(resp.find("ok")->boolean);
    const std::vector<double> wire = values_of(resp);
    const serve::Prediction p = direct.predict(cycle_graph(n));
    ASSERT_EQ(wire.size(), static_cast<std::size_t>(p.values.cols()));
    for (std::size_t j = 0; j < wire.size(); ++j) {
      // Exact equality: shortest-round-trip serialization plus identical
      // compute paths make the transports bit-identical.
      EXPECT_EQ(wire[j], p.values(0, static_cast<int>(j)))
          << "n=" << n << " j=" << j;
    }
  }
  EXPECT_TRUE(service.graceful_shutdown());
  served.drain_submits();
}

TEST(TcpService, InlineCacheHitIsBitIdenticalAndCounted) {
  serve::ServeHandle handle;  // default config: cache enabled
  register_demo(handle);
  serve::NdjsonTcpService service(handle, {});
  service.start();
  TcpClient client(service.port());

  // Sequential round trips so the first response's cache insert lands
  // before the second request is parsed.
  client.send(cycle_request(1, 6));
  const JsonValue miss = serve::parse_json(client.recv_line());
  client.send(cycle_request(2, 6));
  const JsonValue hit = serve::parse_json(client.recv_line());

  ASSERT_TRUE(miss.find("ok")->boolean);
  ASSERT_TRUE(hit.find("ok")->boolean);
  EXPECT_FALSE(miss.find("cached")->boolean);
  EXPECT_TRUE(hit.find("cached")->boolean);  // answered on the loop thread
  EXPECT_EQ(values_of(miss), values_of(hit));
  const serve::ServeStats stats = handle.stats();
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.cache_misses, 1u);
  EXPECT_TRUE(service.graceful_shutdown());
  handle.drain_submits();
}

/// Write-family system calls (write, pwrite, writev) this process has
/// made so far, from /proc/self/io; -1 where that file is unavailable.
/// send() is not counted, so socket writes never show up here.
long long process_write_calls() {
  std::ifstream in("/proc/self/io");
  std::string key;
  long long value = 0;
  while (in >> key >> value) {
    if (key == "syscw:") return value;
  }
  return -1;
}

TEST(TcpService, InlineCacheHitsWriteNoWakeByte) {
  if (process_write_calls() < 0) GTEST_SKIP() << "no /proc/self/io";
  serve::ServeHandle handle;
  register_demo(handle);
  serve::NdjsonTcpService service(handle, {});
  service.start();
  TcpClient client(service.port());
  client.send(cycle_request(0, 6));  // the miss that fills the cache
  ASSERT_FALSE(serve::parse_json(client.recv_line()).find("cached")->boolean);

  // Each hit is answered inside the loop's handler dispatch and sent by
  // the drain later in the same round, so it needs no wake-pipe write.
  // Over loopback the responses go out through send(), which syscw does
  // not count: the only write calls left would be wake bytes.
  constexpr int kHits = 200;
  const long long before = process_write_calls();
  for (int i = 1; i <= kHits; ++i) {
    client.send(cycle_request(i, 6));
    ASSERT_TRUE(
        serve::parse_json(client.recv_line()).find("cached")->boolean);
  }
  const long long writes = process_write_calls() - before;
  EXPECT_LT(writes, kHits / 10)
      << writes << " write calls for " << kHits << " inline cache hits";
  EXPECT_TRUE(service.graceful_shutdown());
  handle.drain_submits();
}

/// NDJSON request line for an unweighted graph.
std::string graph_request(int id, const Graph& g) {
  std::string edges;
  for (const Edge& e : g.edges()) {
    if (!edges.empty()) edges += ",";
    edges += "[" + std::to_string(e.u) + "," + std::to_string(e.v) + "]";
  }
  return "{\"id\":" + std::to_string(id) + ",\"nodes\":" +
         std::to_string(g.num_nodes()) + ",\"edges\":[" + edges + "]}";
}

TEST(TcpService, CarriedKeyReachesTapAndStagesSampleOncePerRequest) {
  struct ObsOn {
    bool saved = obs::enabled();
    ObsOn() { obs::set_enabled(true); }
    ~ObsOn() { obs::set_enabled(saved); }
  } obs_on;
  serve::ServeHandle handle;
  register_demo(handle);
  std::mutex mutex;
  int tapped = 0;
  int wrong_keys = 0;
  handle.set_prediction_tap(
      [&](const Graph& g, const serve::Prediction& p) {
        std::lock_guard<std::mutex> lk(mutex);
        ++tapped;
        if (!p.key || p.key->value() != canonical_hash(g)) ++wrong_keys;
      });
  serve::NdjsonTcpService service(handle, {});
  service.start();
  TcpClient client(service.port());

  // N misses through the submit queue and batcher, then M = N inline
  // hits: relabelled copies of the same graphs share their cache entries.
  const int kMisses = 5;
  Rng rng(12);
  for (int i = 0; i < kMisses; ++i) {
    client.send(graph_request(i, cycle_graph(5 + i)));
    const JsonValue resp = serve::parse_json(client.recv_line());
    ASSERT_TRUE(resp.find("ok")->boolean);
    EXPECT_FALSE(resp.find("cached")->boolean);
  }
  for (int i = 0; i < kMisses; ++i) {
    const Graph g = cycle_graph(5 + i);
    std::vector<int> perm(static_cast<std::size_t>(g.num_nodes()));
    for (std::size_t k = 0; k < perm.size(); ++k) {
      perm[k] = static_cast<int>(k);
    }
    rng.shuffle(perm);
    client.send(graph_request(100 + i, g.permuted(perm)));
    const JsonValue resp = serve::parse_json(client.recv_line());
    ASSERT_TRUE(resp.find("ok")->boolean);
    EXPECT_TRUE(resp.find("cached")->boolean) << "relabelled copy " << i;
  }
  EXPECT_TRUE(service.graceful_shutdown());
  handle.drain_submits();

  const serve::ServeStats stats = handle.stats();
  EXPECT_EQ(stats.cache_misses, static_cast<std::uint64_t>(kMisses));
  EXPECT_EQ(stats.cache_hits, static_cast<std::uint64_t>(kMisses));
  // One queue-wait sample per miss (submit push to batch start) and one
  // cache-lookup sample per request, hit or miss.
  EXPECT_EQ(stats.queue_wait_us.count, static_cast<std::uint64_t>(kMisses));
  EXPECT_EQ(stats.cache_lookup_us.count,
            static_cast<std::uint64_t>(2 * kMisses));
  EXPECT_EQ(tapped, 2 * kMisses);
  EXPECT_EQ(wrong_keys, 0);
}

// ---------------------------------------------------------------------------
// Consistent-hash ring

TEST(Router, RingAssignmentStableAndBalanced) {
  serve::RouterConfig config;
  std::vector<serve::ShardAddress> addrs(4);
  serve::ShardRouter router(config, addrs);  // never started: ring only

  std::map<std::size_t, int> load;
  for (int i = 0; i < 4096; ++i) {
    const std::uint64_t hash = derive_seed(7, static_cast<std::uint64_t>(i));
    const std::size_t shard = router.shard_for_hash(hash);
    EXPECT_EQ(router.shard_for_hash(hash), shard);  // deterministic
    ++load[shard];
  }
  ASSERT_EQ(load.size(), 4u);  // every shard owns part of the key space
  for (const auto& [shard, count] : load) {
    // 64 vnodes/shard keeps the imbalance modest; generous bounds so the
    // test pins behavior, not the exact hash layout.
    EXPECT_GT(count, 4096 / 16) << "shard " << shard << " starved";
  }
}

TEST(Router, IsomorphicGraphsShareAShard) {
  serve::RouterConfig config;
  std::vector<serve::ShardAddress> addrs(3);
  serve::ShardRouter router(config, addrs);
  // Relabelled cycles are isomorphic, so their canonical hashes match and
  // the ring sends them to the same shard's cache.
  Graph a(5);
  for (int i = 0; i < 5; ++i) a.add_edge(i, (i + 1) % 5);
  Graph b(5);
  b.add_edge(2, 4);
  b.add_edge(4, 1);
  b.add_edge(1, 3);
  b.add_edge(3, 0);
  b.add_edge(0, 2);
  EXPECT_EQ(canonical_hash(a), canonical_hash(b));
  EXPECT_EQ(router.shard_for_hash(canonical_hash(a)),
            router.shard_for_hash(canonical_hash(b)));
}

// ---------------------------------------------------------------------------
// Sharded serving end to end

TEST(Router, TwoShardsDisjointCachesAndBitIdentity) {
  serve::ShardWorkerOptions worker;  // defaults mirror make_demo_handle
  std::vector<serve::ShardProcess> procs;
  std::vector<serve::ShardAddress> addrs;
  for (int i = 0; i < 2; ++i) {
    procs.push_back(serve::ShardProcess::spawn(worker));
    addrs.push_back({"127.0.0.1", procs.back().port()});
  }
  serve::RouterConfig config;
  serve::ShardRouter router(config, addrs);
  router.start();
  TcpClient client(router.port());

  const int kDistinct = 8;  // cycles n=4..11
  // Sweep 1: every graph is new — one cache miss on its owning shard.
  for (int k = 0; k < kDistinct; ++k) client.send(cycle_request(k, 4 + k));
  std::map<int, JsonValue> sweep1;
  client.recv_by_id(kDistinct).swap(sweep1);
  ASSERT_EQ(sweep1.size(), static_cast<std::size_t>(kDistinct));

  // Bit-identity: router responses match the in-process handle exactly.
  serve::ServeHandle direct;
  register_demo(direct);
  for (int k = 0; k < kDistinct; ++k) {
    ASSERT_TRUE(sweep1[k].find("ok")->boolean) << "request " << k;
    const std::vector<double> wire = values_of(sweep1[k]);
    const serve::Prediction p = direct.predict(cycle_graph(4 + k));
    ASSERT_EQ(wire.size(), static_cast<std::size_t>(p.values.cols()));
    for (std::size_t j = 0; j < wire.size(); ++j) {
      EXPECT_EQ(wire[j], p.values(0, static_cast<int>(j))) << "k=" << k;
    }
  }

  // Sweep 2: the same graphs — all hits, each on the same shard as before.
  for (int k = 0; k < kDistinct; ++k) {
    client.send(cycle_request(100 + k, 4 + k));
  }
  std::map<int, JsonValue> sweep2;
  client.recv_by_id(kDistinct).swap(sweep2);

  client.send("{\"cmd\":\"stats\",\"id\":999}");
  const JsonValue stats = serve::parse_json(client.recv_line());
  const JsonValue* body = stats.find("stats");
  ASSERT_NE(body, nullptr);
  const JsonValue* shards = body->find("shards");
  ASSERT_NE(shards, nullptr);
  ASSERT_EQ(shards->array.size(), 2u);

  double total_misses = 0;
  double total_hits = 0;
  double total_routed = 0;
  for (const JsonValue& entry : shards->array) {
    EXPECT_TRUE(entry.find("healthy")->boolean);
    const JsonValue* shard_stats = entry.find("stats");
    ASSERT_NE(shard_stats, nullptr);
    ASSERT_TRUE(shard_stats->is_object()) << "shard did not answer stats";
    total_misses += shard_stats->find("cache_misses")->number;
    total_hits += shard_stats->find("cache_hits")->number;
    total_routed += entry.find("routed")->number;
  }
  // Disjoint key spaces: each distinct graph missed exactly once across
  // the whole tier, and the repeat sweep hit the owner's cache.
  EXPECT_EQ(total_misses, kDistinct);
  EXPECT_EQ(total_hits, kDistinct);
  EXPECT_EQ(total_routed, 2.0 * kDistinct);
  EXPECT_GE(body->find("router")->find("admitted")->number,
            2.0 * kDistinct);

  EXPECT_TRUE(router.graceful_shutdown());
  for (auto& p : procs) p.terminate();
}

TEST(Router, DrainRoutesAroundShardAndHealthReports) {
  serve::ShardWorkerOptions worker;
  std::vector<serve::ShardProcess> procs;
  std::vector<serve::ShardAddress> addrs;
  for (int i = 0; i < 2; ++i) {
    procs.push_back(serve::ShardProcess::spawn(worker));
    addrs.push_back({"127.0.0.1", procs.back().port()});
  }
  serve::RouterConfig config;
  serve::ShardRouter router(config, addrs);
  router.start();
  TcpClient client(router.port());

  client.send("{\"cmd\":\"drain\",\"shard\":0,\"id\":1}");
  const JsonValue ack = serve::parse_json(client.recv_line());
  EXPECT_TRUE(ack.find("ok")->boolean);

  // With shard 0 draining, every request spills to shard 1.
  for (int k = 0; k < 6; ++k) client.send(cycle_request(k, 4 + k));
  std::map<int, JsonValue> responses;
  client.recv_by_id(6).swap(responses);
  for (int k = 0; k < 6; ++k) EXPECT_TRUE(responses[k].find("ok")->boolean);

  client.send("{\"cmd\":\"health\",\"id\":2}");
  const JsonValue health = serve::parse_json(client.recv_line());
  const JsonValue* shards = health.find("shards");
  ASSERT_NE(shards, nullptr);
  ASSERT_EQ(shards->array.size(), 2u);
  EXPECT_TRUE(shards->array[0].find("draining")->boolean);
  EXPECT_EQ(shards->array[0].find("routed")->number, 0.0);
  EXPECT_EQ(shards->array[1].find("routed")->number, 6.0);

  client.send("{\"cmd\":\"undrain\",\"shard\":0,\"id\":3}");
  EXPECT_TRUE(serve::parse_json(client.recv_line()).find("ok")->boolean);

  EXPECT_TRUE(router.graceful_shutdown());
  for (auto& p : procs) p.terminate();
}

// ---------------------------------------------------------------------------
// SLO load shedding

TEST(Slo, ControllerShedsOnBreachAndRecoversWithHysteresis) {
  serve::SloConfig config;
  config.slo_us = 1000.0;
  config.min_samples = 4;
  config.refresh = std::chrono::milliseconds(0);  // refresh every check
  config.window = std::chrono::milliseconds(10000);
  serve::SloController slo(config);
  EXPECT_FALSE(slo.should_shed());  // cold start: under min_samples

  for (int i = 0; i < 8; ++i) slo.record_queue_wait(5000.0);
  EXPECT_TRUE(slo.should_shed());
  EXPECT_TRUE(slo.shedding());
  EXPECT_GT(slo.windowed_p99_us(), 1000.0);

  // Recovery requires dropping below resume_fraction * slo, not just
  // below slo: flood the window with fast samples.
  for (int i = 0; i < 2000; ++i) slo.record_queue_wait(10.0);
  EXPECT_FALSE(slo.should_shed());
  EXPECT_FALSE(slo.shedding());
}

TEST(Slo, DisabledControllerNeverSheds) {
  serve::SloController slo(serve::SloConfig{});
  for (int i = 0; i < 100; ++i) slo.record_queue_wait(1e9);
  EXPECT_FALSE(slo.should_shed());
}

TEST(Slo, TcpServiceShedsUnderOverloadRejectPolicy) {
  serve::ServeConfig serve_config;
  serve_config.submit_workers = 1;  // throttle the consumer
  serve_config.cache_capacity = 0;  // hits bypass admission; force misses
  serve::ServeHandle handle(serve_config);
  register_demo(handle);
  serve::TcpServiceConfig config;
  config.slo.slo_us = 50.0;  // 50us queue-wait p99: trivially breached
  config.slo.min_samples = 4;
  config.slo.refresh = std::chrono::milliseconds(0);
  serve::NdjsonTcpService service(handle, config);
  service.start();
  TcpClient client(service.port());

  // Burst 1 initially races admission (samples only exist once workers
  // pop jobs); its queue waits feed the window, and its own tail may
  // already get shed. Burst 2 then arrives with the window breached.
  const int kBurst = 32;
  int ok = 0;
  int shed = 0;
  int burst2_shed = 0;
  for (int burst = 0; burst < 2; ++burst) {
    std::string lines;
    for (int i = 0; i < kBurst; ++i) {
      const int id = burst * 100 + i;
      lines += cycle_request(id, 4 + i % 12) + "\n";
    }
    client.send_raw(lines);
    std::map<int, JsonValue> responses;
    client.recv_by_id(kBurst).swap(responses);
    for (auto& [id, doc] : responses) {
      if (doc.find("ok")->boolean) {
        ++ok;
      } else {
        const JsonValue* is_shed = doc.find("shed");
        ASSERT_NE(is_shed, nullptr) << "non-shed failure: " << id;
        EXPECT_TRUE(doc.find("retriable")->boolean);
        ++shed;
        if (burst == 1) ++burst2_shed;
      }
    }
  }
  EXPECT_GT(burst2_shed, 0) << "breached window never shed burst 2";
  EXPECT_GT(ok, 0) << "admission never let anything through";
  EXPECT_EQ(service.slo_counters().shed, static_cast<std::uint64_t>(shed));
  EXPECT_EQ(service.slo_counters().admitted, static_cast<std::uint64_t>(ok));
  EXPECT_TRUE(service.graceful_shutdown());
  handle.drain_submits();
}

TEST(Slo, DegradePolicyAnswersWithFixedAngles) {
  serve::ServeConfig serve_config;
  serve_config.submit_workers = 1;
  serve_config.cache_capacity = 0;  // hits bypass admission; force misses
  serve::ServeHandle handle(serve_config);
  register_demo(handle);
  serve::TcpServiceConfig config;
  config.slo.slo_us = 50.0;
  config.slo.policy = serve::ShedPolicy::kDegrade;
  config.slo.min_samples = 4;
  config.slo.refresh = std::chrono::milliseconds(0);
  serve::NdjsonTcpService service(handle, config);
  service.start();
  TcpClient client(service.port());

  // Same two-burst shape as the reject-policy test: burst 1 populates
  // the queue-wait window (its own tail may already degrade), burst 2
  // is served degraded.
  const int kBurst = 32;
  int degraded = 0;
  int burst2_degraded = 0;
  for (int burst = 0; burst < 2; ++burst) {
    std::string lines;
    for (int i = 0; i < kBurst; ++i) {
      const int id = burst * 100 + i;
      lines += cycle_request(id, 4 + i % 12) + "\n";
    }
    client.send_raw(lines);
    std::map<int, JsonValue> responses;
    client.recv_by_id(kBurst).swap(responses);
    for (auto& [id, doc] : responses) {
      ASSERT_TRUE(doc.find("ok")->boolean) << "degrade mode never rejects";
      if (doc.find("degraded") != nullptr) {
        EXPECT_EQ(doc.find("model")->string, "fixed_angles");
        EXPECT_EQ(values_of(doc).size(), 2u);  // depth-1: [gamma, beta]
        ++degraded;
        if (burst == 1) ++burst2_degraded;
      }
    }
  }
  EXPECT_GT(burst2_degraded, 0) << "breached window never degraded burst 2";
  EXPECT_EQ(service.slo_counters().degraded,
            static_cast<std::uint64_t>(degraded));
  EXPECT_TRUE(service.graceful_shutdown());
  handle.drain_submits();
}

// ---------------------------------------------------------------------------
// Async submit path

TEST(TrySubmit, CompletesAndMatchesBlockingPredict) {
  serve::ServeHandle handle;
  register_demo(handle);
  const Graph g = cycle_graph(6);
  const serve::Prediction blocking = handle.predict(g);

  std::mutex mutex;
  std::condition_variable cv;
  bool done = false;
  serve::Prediction async_p;
  ASSERT_TRUE(handle.try_submit(
      g, [&](serve::Prediction p, std::exception_ptr error) {
        EXPECT_EQ(error, nullptr);
        std::lock_guard<std::mutex> lk(mutex);
        async_p = std::move(p);
        done = true;
        cv.notify_one();
      }));
  std::unique_lock<std::mutex> lk(mutex);
  cv.wait(lk, [&] { return done; });
  ASSERT_EQ(async_p.values.cols(), blocking.values.cols());
  for (int j = 0; j < async_p.values.cols(); ++j) {
    EXPECT_EQ(async_p.values(0, j), blocking.values(0, j));
  }
  handle.drain_submits();
}

TEST(TrySubmit, FullQueueRejectsInsteadOfBlocking) {
  serve::ServeConfig config;
  config.submit_workers = 1;
  config.submit_queue_cap = 2;
  serve::ServeHandle handle(config);
  register_demo(handle);

  std::atomic<int> completed{0};
  int rejected = 0;
  for (int i = 0; i < 64; ++i) {
    const bool queued = handle.try_submit(
        cycle_graph(4 + i % 12),
        [&](serve::Prediction, std::exception_ptr) { ++completed; });
    if (!queued) ++rejected;
  }
  handle.drain_submits();
  EXPECT_GT(rejected, 0) << "cap=2 must reject under a 64-request burst";
  EXPECT_EQ(completed.load() + rejected, 64);
}

TEST(TrySubmit, UnknownModelReportsErrorThroughCallback) {
  serve::ServeHandle handle;
  register_demo(handle);
  std::mutex mutex;
  std::condition_variable cv;
  bool done = false;
  std::exception_ptr seen;
  ASSERT_TRUE(handle.try_submit(
      "no-such-model", cycle_graph(4),
      [&](serve::Prediction, std::exception_ptr error) {
        std::lock_guard<std::mutex> lk(mutex);
        seen = error;
        done = true;
        cv.notify_one();
      }));
  std::unique_lock<std::mutex> lk(mutex);
  cv.wait(lk, [&] { return done; });
  EXPECT_NE(seen, nullptr);
  handle.drain_submits();
}

}  // namespace

int main(int argc, char** argv) {
  // Router tests spawn shard workers by re-executing this binary.
  qgnn::serve::maybe_run_shard_worker(argc, argv);
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
