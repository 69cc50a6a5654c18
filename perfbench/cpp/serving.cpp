// serve_hot and serve_cold: the NDJSON TCP server (NdjsonTcpService over a
// ServeHandle with its default cache and verify_ar on) serving the trained
// GCN in perfbench/model. One client thread drives a closed loop with one
// request in flight, as a QAOA runner does before it runs its circuit.
//
//   serve_hot:  a few hundred distinct graphs, repeated. Set-up's warm pass
//               caches them, so every timed request is a hit answered on the
//               event loop: parsing, canonical_hash, the LRU probe and the
//               socket path do the work.
//   serve_cold: every request is a graph the run has not sent before, so
//               every request misses and runs admission, the submit queue,
//               the micro-batcher, the forward pass and verify_ar.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <iostream>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>

#include "bench.hpp"
#include "core/pipeline.hpp"
#include "dataset/factory.hpp"
#include "dataset/features.hpp"
#include "gnn/trainer.hpp"
#include "graph/canonical.hpp"
#include "mine/miner.hpp"
#include "mine/relabel.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "qaoa/ansatz.hpp"
#include "qaoa/initializers.hpp"
#include "serve/protocol.hpp"
#include "serve/tcp_service.hpp"

namespace perfbench {

namespace {

/// (n, d) classes the serving graphs cycle through. All have tens of
/// thousands or more isomorphism classes, so serve_cold can draw every
/// request fresh without exhausting a class.
constexpr int kMix[][2] = {{13, 6}, {14, 4}, {14, 5}, {14, 6}};
constexpr std::size_t kMixSize = sizeof(kMix) / sizeof(kMix[0]);

constexpr std::size_t kRound = 64;  // requests per whole round
constexpr std::size_t kHotGraphs = 256;  // distinct keys of serve_hot
constexpr std::size_t kColdSetupGraphs = 64;  // set-up's first requests
/// serve_cold draws its pool before timing, sized for this request rate;
/// the timed phase ends early if a run ever outpaces it.
constexpr double kColdPoolRate = 1000.0;
/// Requests per measurement window. Host contention comes in episodes of
/// seconds; medians over ~0.3 s windows are not moved by episodes that
/// cover less than half of the run.
constexpr std::size_t kHotWindow = 16 * kRound;
constexpr std::size_t kColdWindow = 2 * kRound;
constexpr int kSetupRepeats = 5;
/// Served graphs the quality metrics use: a fixed prefix of the timed
/// requests, so they are a function of the seed alone.
constexpr std::size_t kQualityGraphs = 256;
constexpr std::size_t kConvergenceGraphs = 32;
/// Pool graphs the traced run replays through single functions.
constexpr std::size_t kReplayGraphs = 1024;
/// Fine-tune epochs of a mining cycle: the --mine-epochs default of
/// src/mine/serve_hook.cpp.
constexpr int kMineEpochs = 30;
/// Mining cycles before and after the timed phase, apart in time so that
/// one episode of host contention does not hit all of them, and
/// fine-tunes per cycle.
constexpr int kCyclesBefore = 2;
constexpr int kCyclesAfter = 3;
constexpr int kFineTunesPerCycle = 8;

/// Blocking NDJSON client over a plain POSIX socket (kept apart from the
/// library's net code so client cost does not move with it).
class Client {
 public:
  explicit Client(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) throw std::runtime_error("socket failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      ::close(fd_);
      throw std::runtime_error("connect failed");
    }
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }
  ~Client() { ::close(fd_); }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  void send(const std::string& bytes) {
    std::size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t n = ::send(fd_, bytes.data() + off, bytes.size() - off,
                               MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) throw std::runtime_error("send failed");
      off += static_cast<std::size_t>(n);
    }
  }

  /// Next line without its newline; false on EOF or error.
  bool recv_line(std::string& line) {
    for (;;) {
      const std::size_t nl = carry_.find('\n');
      if (nl != std::string::npos) {
        line.assign(carry_, 0, nl);
        carry_.erase(0, nl + 1);
        return true;
      }
      char buf[8192];
      const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      carry_.append(buf, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  std::string carry_;
};

/// One served instance: handle, TCP front end and a connected client.
struct Server {
  std::unique_ptr<qgnn::serve::ServeHandle> handle;
  std::unique_ptr<qgnn::serve::NdjsonTcpService> service;
  std::unique_ptr<Client> client;

  ~Server() {
    client.reset();
    if (service) service->stop();
  }
};

/// The workload's requests and what the checks compare them with, made
/// before any timing. Each graph is dropped once its request line, its
/// expected values and its AR check are made, so the timed phase holds
/// only what it sends and compares. serve_cold's pool has 1000 requests
/// per timed second; held as graphs it would dominate peak_rss_mb.
struct Pool {
  std::vector<std::string> lines;  // requests with id 0, patched per send
  std::vector<double> expected;    // in-process GnnModel::predict, flat
  std::size_t cols = 0;            // values per request
  /// Graphs with their exhaustive optimum, and the values served for
  /// them, of the quality prefix.
  std::vector<qgnn::DatasetEntry> quality;
  std::vector<qgnn::Matrix> quality_served;
  /// The first pool graphs, kept for the traced run's replays only.
  std::vector<qgnn::Graph> replay;

  std::size_t size() const { return lines.size(); }
  std::span<const double> values(std::size_t i) const {
    return {expected.data() + i * cols, cols};
  }
};

/// Latencies and outcome counts of a run of requests.
struct Log {
  std::vector<double> latency_us;
  /// Traced requests only: client latency minus the handle's own
  /// latency_us from the same response.
  std::vector<double> outside_us;
  std::vector<Clock::time_point> window_end;
  std::uint64_t failed = 0;
  bool broken = false;  // the connection stopped answering
  std::string sample_response;  // the first answer, for the run log
};

/// Send pool entries [first, first + count), one in flight, checking each
/// answer after its latency is taken.
void drive(Client& client, const Pool& pool, std::size_t first,
           std::size_t count, bool want_hit, const char* phase, bool traced,
           std::uint64_t& next_id, Log& log, RunResult& result) {
  std::string line;
  for (std::size_t k = 0; k < count && !log.broken; ++k) {
    const std::size_t index = first + k;
    const std::uint64_t id = next_id++;
    std::string request = pool.lines[index];
    // Lines are stored with id 0 after the "{\"id\":" prefix; patch in the
    // real id without re-serialising the edges.
    request.replace(6, 1, std::to_string(id));
    request += '\n';
    std::optional<qgnn::obs::TraceSpan> s;
    if (traced) s.emplace("bench.request");
    const auto t0 = Clock::now();
    client.send(request);
    const bool answered = client.recv_line(line);
    const double latency = us_between(t0, Clock::now());
    log.latency_us.push_back(latency);
    s.reset();
    double handle_us = -1.0;
    const Verdict v = check_response(answered, line, id, want_hit,
                                     pool.values(index), phase, result,
                                     &handle_us);
    if (traced && v == Verdict::kOk && handle_us >= 0.0) {
      log.outside_us.push_back(latency - handle_us);
    }
    if (log.sample_response.empty()) log.sample_response = line;
    if (v == Verdict::kFailed) ++log.failed;
    log.broken = !answered;
  }
}

std::unique_ptr<Server> start_server(const Options& opts) {
  auto server = std::make_unique<Server>();
  qgnn::serve::ServeConfig config;
  config.verify_ar = true;
  server->handle = std::make_unique<qgnn::serve::ServeHandle>(config);
  server->handle->register_model(config.default_model,
                                 qgnn::GnnModel::load(opts.model_path));
  server->service = std::make_unique<qgnn::serve::NdjsonTcpService>(
      *server->handle, qgnn::serve::TcpServiceConfig{});
  server->service->start();
  server->client = std::make_unique<Client>(server->service->port());
  return server;
}

struct Phase {
  Log log;
  double seconds = 0.0;
  qgnn::serve::ServeStats before;
  qgnn::serve::ServeStats after;
};

Phase timed_phase(Server& server, bool hot, const Pool& pool,
                  std::size_t& cursor, double seconds, bool traced,
                  std::uint64_t& next_id, RunResult& result) {
  Phase p;
  const std::size_t window = hot ? kHotWindow : kColdWindow;
  p.before = server.handle->stats();
  const auto t0 = Clock::now();
  while (!p.log.broken) {
    if (hot) {
      // Whole windows walk the hot set in order; kHotGraphs divides
      // kHotWindow, so every key is requested equally often.
      for (std::size_t k = 0; k < window; k += kHotGraphs) {
        drive(*server.client, pool, 0, kHotGraphs, true, "timed", traced,
              next_id, p.log, result);
      }
    } else {
      if (cursor + window > pool.size()) break;  // pool exhausted
      drive(*server.client, pool, cursor, window, false, "timed", traced,
            next_id, p.log, result);
      cursor += window;
    }
    p.log.window_end.push_back(Clock::now());
    if (seconds_between(t0, Clock::now()) >= seconds) break;
  }
  p.seconds = seconds_between(t0, Clock::now());
  p.after = server.handle->stats();
  return p;
}

/// Per-window medians of a phase: request rate, p50 and p90 latency.
struct WindowStats {
  double req_per_s = 0.0;
  double p50_us = 0.0;
  double p90_us = 0.0;
};

WindowStats window_stats(const Phase& p, Clock::time_point start,
                         std::size_t window) {
  std::vector<double> rates, p50s, p90s;
  Clock::time_point begin = start;
  for (std::size_t w = 0; w < p.log.window_end.size(); ++w) {
    const auto first = p.log.latency_us.begin() + static_cast<long>(w * window);
    if (p.log.latency_us.end() - first < static_cast<long>(window)) break;
    const std::vector<double> part(first, first + static_cast<long>(window));
    rates.push_back(static_cast<double>(window) /
                    seconds_between(begin, p.log.window_end[w]));
    p50s.push_back(quantile(part, 0.5));
    p90s.push_back(quantile(part, 0.9));
    begin = p.log.window_end[w];
  }
  return {median(rates), median(p50s), median(p90s)};
}

/// Quality of the served warm starts on the quality prefix: closed-form
/// AR, the Table 1 gain over a seeded random start, and Nelder-Mead
/// evaluations from them to the target AR.
struct Quality {
  double served_ar = 0.0;
  double ar_gain_pp = 0.0;
  double evals_to_target = 0.0;
};

Quality quality(const Options& opts,
                const std::vector<qgnn::DatasetEntry>& entries,
                const std::vector<qgnn::Matrix>& served, RunResult& result) {
  Quality q;
  const std::uint64_t random_seed = qgnn::derive_seed(opts.seed, 2002);
  const std::vector<double> ar_random =
      qgnn::random_baseline_ar(entries, 1, random_seed);
  std::vector<double> ar_served;
  for (std::size_t k = 0; k < entries.size(); ++k) {
    const qgnn::Graph& g = entries[k].graph;
    ar_served.push_back(
        oracle_ar(g, served[k](0, 0), served[k](0, 1), entries[k].optimum));
    qgnn::Rng rng(qgnn::derive_seed(random_seed, k));
    qgnn::RandomInitializer init(rng.child());
    const qgnn::QaoaParams draw = init.initialize(g, 1);
    const double rnd =
        oracle_ar(g, draw.gammas[0], draw.betas[0], entries[k].optimum);
    result.expect(std::abs(rnd - ar_random[k]) <= 1e-9,
                  "quality: random AR " + std::to_string(k) + " != oracle");
  }
  q.served_ar = mean(ar_served);
  q.ar_gain_pp = (mean(ar_served) - mean(ar_random)) * 100.0;

  const auto model = std::make_shared<const qgnn::GnnModel>(
      qgnn::GnnModel::load(opts.model_path));
  const std::vector<qgnn::DatasetEntry> conv(
      entries.begin(),
      entries.begin() + static_cast<long>(
                            std::min(kConvergenceGraphs, entries.size())));
  const qgnn::ConvergenceStats s = qgnn::convergence_comparison(
      model, conv, kTargetAr, kConvergenceBudget,
      qgnn::derive_seed(opts.seed, 2003));
  result.expect(s.total == static_cast<int>(conv.size()) &&
                    s.reached_gnn <= s.total,
                "quality: convergence counts");
  q.evals_to_target = evals_to_target(s.mean_evals_gnn, s.reached_gnn, s.total);
  return q;
}

/// The offline work of mining cycles (mine::Miner::run_cycle) on served
/// graphs, sized by the program's own defaults:
///   - a shard of MinerConfig::min_spill served graphs, the smallest a
///     cycle takes, relabelled by mine::relabel_entries with the default
///     RelabelConfig (Adam, 500 evaluations, one worker);
///   - the train / panel split of MinerConfig::panel_fraction;
///   - a fine-tune of a copy of the served model on the train part with
///     the --mine defaults of src/mine/serve_hook.cpp: 30 epochs, periodic
///     loss, no validation split.
/// The buffer, the shard spill, checkpoints, the gate and the hot swap are
/// left out, so the served model never changes. Cycle k takes the k-th
/// shard of the served graphs, so label_ar averages over every cycle's
/// labels; the rates are medians over cycles and fine-tunes.
class MiningCycles {
 public:
  MiningCycles(const Options& opts,
               const std::vector<qgnn::DatasetEntry>& served)
      : opts_(opts), served_(served) {}

  void run(int cycles, RunResult& result) {
    const qgnn::mine::MinerConfig defaults;
    const std::size_t shard = defaults.min_spill;
    const std::size_t panel = std::max<std::size_t>(
        1, static_cast<std::size_t>(static_cast<double>(shard) *
                                    defaults.panel_fraction));
    qgnn::TrainerConfig tune;
    tune.epochs = kMineEpochs;
    tune.validation_fraction = 0.0;
    tune.loss = qgnn::LossKind::kPeriodic;
    tune.periodic_periods =
        qgnn::qaoa_angle_periods(qgnn::mine::RelabelConfig{}.depth);
    for (int c = 0; c < cycles; ++c, ++next_) {
      const std::string where = "mining cycle " + std::to_string(next_);
      const std::size_t first = next_ * shard;
      if (first + shard > served_.size()) {
        result.fail(where + ": too few served graphs for its shard");
        return;
      }
      std::vector<qgnn::DatasetEntry> labelled(
          served_.begin() + static_cast<long>(first),
          served_.begin() + static_cast<long>(first + shard));
      qgnn::mine::RelabelConfig relabel;
      relabel.seed = qgnn::derive_seed(opts_.seed, 2004 + next_);
      const auto t0 = Clock::now();
      qgnn::mine::relabel_entries(relabel, labelled);
      label_rates_.push_back(static_cast<double>(labelled.size()) /
                             seconds_between(t0, Clock::now()));
      for (std::size_t k = 0; k < labelled.size(); ++k) {
        check_label(labelled[k], where + " label " + std::to_string(k),
                    result);
        label_ars_.push_back(labelled[k].approximation_ratio);
      }

      // Fine-tune several times: one takes only tens of milliseconds.
      // Repeats must agree bit for bit, compared by the tuned model's
      // prediction on a panel graph.
      const std::vector<qgnn::DatasetEntry> train(
          labelled.begin(), labelled.end() - static_cast<long>(panel));
      const qgnn::Graph& probe = labelled.back().graph;
      qgnn::Matrix first_tuned;
      for (int t = 0; t < kFineTunesPerCycle; ++t) {
        qgnn::GnnModel copy = qgnn::GnnModel::load(opts_.model_path);
        std::vector<qgnn::TrainSample> samples =
            qgnn::to_train_samples(train, copy.config().features);
        const double sample_epochs =
            static_cast<double>(samples.size()) * tune.epochs;
        qgnn::Rng rng(qgnn::derive_seed(opts_.seed, 3004 + next_));
        const auto t1 = Clock::now();
        qgnn::train_gnn(copy, std::move(samples), tune, rng);
        train_rates_.push_back(sample_epochs /
                               seconds_between(t1, Clock::now()));
        const qgnn::Matrix tuned = copy.predict(probe);
        if (t == 0) {
          first_tuned = tuned;
        } else {
          result.expect(same_bits(tuned(0, 0), first_tuned(0, 0)) &&
                            same_bits(tuned(0, 1), first_tuned(0, 1)),
                        where + ": fine-tune differs between repeats");
        }
      }
    }
  }

  double label_ar() const { return mean(label_ars_); }
  double label_graphs_per_s() const { return median(label_rates_); }
  double train_samples_per_s() const { return median(train_rates_); }

 private:
  const Options& opts_;
  const std::vector<qgnn::DatasetEntry>& served_;
  std::size_t next_ = 0;  // cycles run so far
  std::vector<double> label_ars_;
  std::vector<double> label_rates_;
  std::vector<double> train_rates_;
};

/// Random d-regular graph on n nodes: a circulant start mixed by 20 * m
/// random double-edge swaps. The library's generator falls back to
/// rejection sampling that costs about a millisecond per dense graph,
/// which would dominate drawing serve_cold's pool.
qgnn::Graph random_regular(int n, int d, qgnn::Rng& rng) {
  std::vector<std::uint64_t> adj(static_cast<std::size_t>(n), 0);
  std::vector<std::pair<int, int>> edges;
  auto link = [&](int u, int v) {
    adj[static_cast<std::size_t>(u)] |= std::uint64_t{1} << v;
    adj[static_cast<std::size_t>(v)] |= std::uint64_t{1} << u;
  };
  auto unlink = [&](int u, int v) {
    adj[static_cast<std::size_t>(u)] &= ~(std::uint64_t{1} << v);
    adj[static_cast<std::size_t>(v)] &= ~(std::uint64_t{1} << u);
  };
  for (int u = 0; u < n; ++u) {
    for (int k = 1; k <= d / 2; ++k) edges.emplace_back(u, (u + k) % n);
  }
  if (d % 2 == 1) {
    for (int u = 0; u < n / 2; ++u) edges.emplace_back(u, u + n / 2);
  }
  for (const auto& [u, v] : edges) link(u, v);
  const int swaps = 20 * static_cast<int>(edges.size());
  for (int s = 0; s < swaps; ++s) {
    auto& e1 = edges[rng.index(edges.size())];
    auto& e2 = edges[rng.index(edges.size())];
    const int a = e1.first;
    const int b = e1.second;
    int c = e2.first;
    int x = e2.second;
    if (rng.bernoulli(0.5)) std::swap(c, x);
    // (a,b),(c,x) -> (a,c),(b,x): needs four distinct nodes and no new
    // parallel edge.
    if (a == c || a == x || b == c || b == x) continue;
    if ((adj[static_cast<std::size_t>(a)] >> c) & 1U) continue;
    if ((adj[static_cast<std::size_t>(b)] >> x) & 1U) continue;
    unlink(a, b);
    unlink(c, x);
    link(a, c);
    link(b, x);
    e1 = {a, c};
    e2 = {b, x};
  }
  qgnn::Graph g(n);
  for (int u = 0; u < n; ++u) {
    for (int v = u + 1; v < n; ++v) {
      if ((adj[static_cast<std::size_t>(u)] >> v) & 1U) g.add_edge(u, v);
    }
  }
  return g;
}

Pool make_pool(const Options& opts, bool hot, RunResult& result) {
  const std::size_t count =
      hot ? kHotGraphs
          : kColdSetupGraphs +
                kColdWindow * static_cast<std::size_t>(std::ceil(
                                  kColdPoolRate * opts.seconds / kColdWindow));
  const std::size_t quality_first = hot ? 0 : kColdSetupGraphs;
  Pool pool;
  pool.lines.reserve(count);
  ServingGraphs draw(qgnn::derive_seed(opts.seed, hot ? 1 : 2));
  const qgnn::GnnModel model = qgnn::GnnModel::load(opts.model_path);
  for (std::size_t i = 0; i < count; ++i) {
    qgnn::Graph g = draw.next();
    const qgnn::Matrix m = model.predict(g);
    const double optimum = exhaustive_maxcut(g);
    // Every answer for this graph must carry exactly these values (checked
    // per response), so this is the AR of each of them. Recomputed with
    // the closed form and the exhaustive optimum, it lies in (0, 1].
    const double ar = oracle_ar(g, m(0, 0), m(0, 1), optimum);
    result.expect(ar > 0.0 && ar <= 1.0 + 1e-12,
                  "served AR " + std::to_string(ar) + " of graph " +
                      std::to_string(i) + " outside (0, 1]");
    pool.cols = m.cols();
    pool.expected.insert(pool.expected.end(), m.data(), m.data() + m.cols());
    pool.lines.push_back(request_line(0, g));
    if (opts.trace && i < kReplayGraphs) pool.replay.push_back(g);
    if (i >= quality_first && i < quality_first + kQualityGraphs) {
      qgnn::DatasetEntry e;
      e.degree = g.max_degree();
      e.optimum = optimum;
      e.graph = std::move(g);
      pool.quality.push_back(std::move(e));
      pool.quality_served.push_back(m);
    }
  }
  return pool;
}

}  // namespace

qgnn::Graph ServingGraphs::next() {
  const auto& nd = kMix[seen_.size() % kMixSize];
  for (;;) {
    qgnn::Graph g = random_regular(nd[0], nd[1], rng_);
    if (seen_.insert(qgnn::canonical_hash(g)).second) return g;
  }
}

Verdict check_response(bool answered, const std::string& line,
                       std::uint64_t id, bool want_hit,
                       std::span<const double> expected, const char* phase,
                       RunResult& result, double* handle_us) {
  if (!answered) return Verdict::kFailed;
  const std::string where =
      std::string(phase) + " request " + std::to_string(id);
  const Response r = parse_response(line);
  if (!r.parsed) {
    result.fail(where + ": unparsable response " + line.substr(0, 200));
    return Verdict::kWrong;
  }
  if (r.id != id) {
    result.fail(where + ": answered with id " + std::to_string(r.id));
    return Verdict::kWrong;
  }
  if (!r.ok) return Verdict::kFailed;
  if (r.cached != want_hit) {
    result.fail(where + (want_hit ? ": miss where a hit was due"
                                  : ": hit where a miss was due"));
    return Verdict::kWrong;
  }
  bool same = r.values.size() == expected.size();
  for (std::size_t j = 0; same && j < expected.size(); ++j) {
    same = same_bits(r.values[j], expected[j]);
  }
  if (!same) {
    result.fail(where + ": served values differ from GnnModel::predict");
    return Verdict::kWrong;
  }
  if (handle_us != nullptr) *handle_us = r.latency_us;
  return Verdict::kOk;
}

void run_serving(const Options& opts, bool hot, RunResult& result) {
  // Inputs and check references, before any timing. serve_cold's pool
  // starts with the set-up graphs, then the timed requests; all are
  // pairwise distinct cache keys.
  const Pool pool = make_pool(opts, hot, result);
  const double inputs_peak_rss_mb = peak_rss_mb();
  MiningCycles mining(opts, pool.quality);
  if (!opts.trace) mining.run(kCyclesBefore, result);

  // Set up several times; keep the last server for the timed phase. Every
  // set-up's requests count as attempted.
  std::uint64_t next_id = 1;
  std::vector<double> setup_s;
  std::unique_ptr<Server> server;
  Log warm;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    server.reset();
    warm.broken = false;  // a fresh connection
    const auto t0 = Clock::now();
    server = start_server(opts);
    // serve_hot's warm pass caches every key; serve_cold's first requests
    // (graphs kept apart from the timed pool) warm the miss path.
    drive(*server->client, pool, 0, hot ? kHotGraphs : kColdSetupGraphs,
          false, "set-up", false, next_id, warm, result);
    setup_s.push_back(seconds_between(t0, Clock::now()));
  }

  std::size_t cursor = kColdSetupGraphs;
  const double untraced_s = opts.trace ? opts.seconds / 2 : opts.seconds;
  const auto untraced_start = Clock::now();
  const Phase untraced = timed_phase(*server, hot, pool, cursor, untraced_s,
                                     false, next_id, result);
  std::optional<Phase> traced;
  Clock::time_point traced_start;
  if (opts.trace) {
    qgnn::obs::MetricsRegistry::global().reset();
    start_tracing();
    traced_start = Clock::now();
    traced = timed_phase(*server, hot, pool, cursor, opts.seconds / 2, true,
                         next_id, result);
    stop_tracing(opts);
  }
  server.reset();

  result.attempted = warm.latency_us.size() + untraced.log.latency_us.size() +
                     (traced ? traced->log.latency_us.size() : 0);
  result.failed = warm.failed + untraced.log.failed +
                  (traced ? traced->log.failed : 0);
  const std::uint64_t requests =
      untraced.after.requests - untraced.before.requests;
  const std::uint64_t hits =
      untraced.after.cache_hits - untraced.before.cache_hits;
  result.expect(requests == untraced.log.latency_us.size(),
                "ServeStats counted " + std::to_string(requests) +
                    " requests for " +
                    std::to_string(untraced.log.latency_us.size()));
  result.expect(hits == (hot ? requests : 0),
                "ServeStats counted " + std::to_string(hits) + " hits");
  const std::size_t quality_first = hot ? 0 : kColdSetupGraphs;
  result.expect(hot || quality_first + pool.quality.size() <= cursor,
                "serve_cold served fewer graphs than the quality prefix");
  if (!hot && cursor + kColdWindow > pool.size()) {
    std::cout << "# note: serve_cold used its whole pool of " << pool.size()
              << " graphs before the time was up\n";
  }
  const std::size_t served_graphs = hot ? kHotGraphs : cursor;

  const Quality q = quality(opts, pool.quality, pool.quality_served, result);
  const std::size_t window = hot ? kHotWindow : kColdWindow;
  const WindowStats ws = window_stats(untraced, untraced_start, window);
  if (!opts.trace) {
    mining.run(kCyclesAfter, result);
    result.set("label_graphs_per_s", mining.label_graphs_per_s(), "graphs/s");
    result.set("label_ar", mining.label_ar(), "ratio");
    result.set("train_samples_per_s", mining.train_samples_per_s(),
               "samples/s");
    result.set("req_per_s", ws.req_per_s, "req/s");
    result.set("latency_p50_us", ws.p50_us, "us");
    result.set("latency_p90_us", ws.p90_us, "us");
    result.set("served_ar", q.served_ar, "ratio");
    result.set("setup_s", median(setup_s), "s");
    result.set("peak_rss_mb", peak_rss_mb(), "MB");
    std::cout << "# info: ar_gain_pp=" << q.ar_gain_pp
              << " evals_to_target=" << q.evals_to_target
              << " requests=" << untraced.log.latency_us.size()
              << " distinct_graphs=" << served_graphs
              << " latency_p99_us=" << quantile(untraced.log.latency_us, 0.99)
              << " windows=" << untraced.log.window_end.size()
              << " inputs_peak_rss_mb=" << inputs_peak_rss_mb << "\n";
    return;
  }

  // Traced run: per-layer metrics of the traced phase.
  const Phase& t = *traced;
  const qgnn::serve::ServeStats& s = t.after;
  const WindowStats tws = window_stats(t, traced_start, window);
  result.set("gnn.ar_gain_pp", q.ar_gain_pp, "pp");
  result.set("qaoa.evals_to_target", q.evals_to_target, "evaluations");
  result.set("serve.in_handle_us", s.latency_us_p50, "us");
  result.set("net.outside_handle_us", median(t.log.outside_us), "us");
  const std::vector<std::string> replay_lines(
      pool.lines.begin(),
      pool.lines.begin() + static_cast<long>(pool.replay.size()));
  const std::vector<qgnn::Graph>& replay_graphs = pool.replay;
  result.set("serve.parse_us",
             replay_us(replay_lines, 0.2, [](const std::string& line) {
               (void)qgnn::serve::parse_request(line);
             }),
             "us");
  std::uint64_t sink = 0;
  result.set("graph.hash_us", replay_us(replay_graphs, 0.2, [&](const auto& g) {
               sink ^= qgnn::canonical_hash(g);
             }),
             "us");
  result.set("qaoa.cost_build_us",
             replay_us(replay_graphs, 0.2, [](const auto& g) {
               const qgnn::QaoaAnsatz a(g);
               (void)a.num_qubits();
             }),
             "us");
  {
    const std::vector<qgnn::QaoaAnsatz> ansatze(replay_graphs.begin(),
                                                replay_graphs.end());
    const qgnn::QaoaParams params({0.4}, {0.3});
    double acc = 0.0;
    result.set("qaoa.eval_us", replay_us(ansatze, 0.2, [&](const auto& a) {
                 acc += a.expectation(params);
               }),
               "us");
    result.expect(std::isfinite(acc), "qaoa.eval_us replay");
  }
  const std::uint64_t t_requests = t.after.requests - t.before.requests;
  const std::uint64_t t_hits = t.after.cache_hits - t.before.cache_hits;
  result.set("serve.cache_hit_ratio",
             t_requests == 0 ? 0.0
                             : static_cast<double>(t_hits) /
                                   static_cast<double>(t_requests),
             "ratio");
  result.set("serve.queue_wait_us", s.queue_wait_us.p50, "us");
  result.set("serve.batch_size_mean", s.mean_batch_size, "requests");
  result.set("serve.cache_lookup_us", s.cache_lookup_us.p50, "us");
  result.set("gnn.forward_us", s.forward_us.p50, "us");
  result.set("serve.verify_us", s.verify_us.p50, "us");
  result.set("obs.trace_overhead_pct",
             (ws.req_per_s / tws.req_per_s - 1.0) * 100.0, "%");
  // Counters the traced phase left in the global registry, and one
  // response as the client saw it.
  std::cout << "# info: traced_misses="
            << t.after.cache_misses - t.before.cache_misses
            << " queue_wait_samples=" << s.queue_wait_us.count
            << " cache_lookup_samples=" << s.cache_lookup_us.count
            << " registry:";
  for (const auto& [name, value] :
       qgnn::obs::MetricsRegistry::global().snapshot().counters) {
    std::cout << " " << name << "=" << value;
  }
  std::cout << " hash_sink=" << (sink & 1) << "\n# info: response "
            << t.log.sample_response << "\n";
}

}  // namespace perfbench
