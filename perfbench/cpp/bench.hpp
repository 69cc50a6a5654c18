#pragma once

// Shared declarations of the benchmark binary. It links the qgnn
// libraries and measures them from outside: it times calls into their
// public functions, reads the counters they already export, and checks
// their outputs against computations of its own (oracle.cpp).

#include <chrono>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <unordered_set>
#include <vector>

#include "autograd/matrix.hpp"
#include "dataset/dataset.hpp"
#include "graph/graph.hpp"
#include "util/rng.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory for run outputs (Chrome traces).
  std::string out_dir = ".bench_build/out";
  /// Model file the serving workloads load.
  std::string model_path = "perfbench/model/serve_gcn.txt";
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Everything one run reports: the final JSON line plus the check log.
struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
  std::vector<std::string> check_failures;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  /// Record a failed output check; the run then reports correct=false.
  void fail(const std::string& what);
  /// fail(what) unless `ok`.
  void expect(bool ok, const std::string& what) {
    if (!ok) fail(what);
  }
};

// --- shared workload settings ---------------------------------------------

/// Target AR and Nelder-Mead budget of evals_to_target, on every workload.
inline constexpr double kTargetAr = 0.70;
inline constexpr int kConvergenceBudget = 60;

/// Mean evaluations to the target over `total` graphs, where `reached` of
/// them reached it after `mean_reached` evaluations on average and the
/// rest count at the full budget.
inline double evals_to_target(double mean_reached, int reached, int total) {
  return (mean_reached * reached +
          static_cast<double>(kConvergenceBudget) * (total - reached)) /
         total;
}

// --- statistics ------------------------------------------------------------

/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}
double mean(const std::vector<double>& values);

/// Mean microseconds per call of `fn` over `items`, repeated until at
/// least `min_s` seconds have passed.
template <typename Items, typename Fn>
double replay_us(const Items& items, double min_s, Fn fn) {
  const auto t0 = Clock::now();
  std::size_t calls = 0;
  do {
    for (const auto& item : items) fn(item);
    calls += items.size();
  } while (seconds_between(t0, Clock::now()) < min_s);
  return us_between(t0, Clock::now()) / static_cast<double>(calls);
}

// --- process and host ------------------------------------------------------

/// Peak resident set of this process so far, in MB (getrusage).
double peak_rss_mb();

/// Share of host CPU time stolen by the hypervisor between start() and
/// share(), from the aggregate "cpu" line of /proc/stat. Negative when
/// /proc/stat is unreadable.
class StealMeter {
 public:
  void start();
  double share() const;

 private:
  std::uint64_t steal_ = 0;
  std::uint64_t total_ = 0;
  bool ok_ = false;
};

/// Print the run context lines ("# context: ...") to stdout.
void print_context(const Options& opts, double steal_share);

/// Start / stop the library's trace collector together with the obs
/// metrics switch, and write the Chrome trace on stop.
void start_tracing();
void stop_tracing(const Options& opts);

// --- independent reference computations (oracle.cpp) ----------------------

/// Exact depth-1 QAOA expected cut of an unweighted graph, from the closed
/// form of Wang, Hadfield, Jiang and Rieffel (PRA 97, 022304, Eq. 14).
double closed_form_p1(const qgnn::Graph& g, double gamma, double beta);

/// Maximum cut by exhaustive Gray-code enumeration.
double exhaustive_maxcut(const qgnn::Graph& g);

/// NDJSON predict request for `g`, exactly as a client writes it.
std::string request_line(std::uint64_t id, const qgnn::Graph& g);

/// The fields of a predict response the checks read.
struct Response {
  bool parsed = false;
  std::uint64_t id = 0;
  bool ok = false;
  bool cached = false;
  std::vector<double> values;
  /// The handle's own time for the request; negative when absent.
  double latency_us = -1.0;
};
/// Parse one response line; parsed=false on any unexpected shape.
Response parse_response(const std::string& line);

/// Exact bit equality of two doubles.
bool same_bits(double a, double b);

// --- output checks (shared with the self-test) ----------------------------

/// Check one label: its optimum against the exhaustive search, its <C>
/// against the closed form at the label's angles (within 1e-9), and its AR
/// against <C>/optimum.
void check_label(const qgnn::DatasetEntry& e, const std::string& where,
                 RunResult& result);

/// Check labels made by generate_dataset_batched(config) against the
/// sequential labeller (generate_dataset), which must agree bit for bit.
/// Nelder-Mead labels are so close to stationary that a 1e-6 move of an
/// angle shifts <C> by as little as ~1e-12, under the closed form's own
/// agreement, so only this replay sees such a move.
void check_label_replay(const qgnn::DatasetGenConfig& config,
                        const std::vector<qgnn::DatasetEntry>& labels,
                        const std::string& where, RunResult& result);

/// Result of checking one response of a serving workload.
enum class Verdict {
  kOk,
  kFailed,  // no answer, or an "ok":false answer: a failed operation
  kWrong,   // answered, but a check failed (recorded in `result`)
};

/// Check one exchange: answered under its own id with ok:true, the
/// expected cache outcome, and values bit-identical to `expected` (the
/// loaded model's in-process GnnModel::predict on the same graph). When
/// `handle_us` is given, it receives the response's latency_us field.
Verdict check_response(bool answered, const std::string& line,
                       std::uint64_t id, bool want_hit,
                       std::span<const double> expected, const char* phase,
                       RunResult& result, double* handle_us = nullptr);

// --- workloads -------------------------------------------------------------

void run_paper_pipeline(const Options& opts, RunResult& result);
void run_serving(const Options& opts, bool hot, RunResult& result);

/// Feed each output check a deliberately wrong output and confirm it
/// fails. Returns the number of checks that did not catch their fault.
int run_selftest(const Options& opts);

// --- shared by the workloads -----------------------------------------------

/// Serving workloads' graph mix: random regular graphs cycling through
/// fixed (n, d) classes, so every seed has the same size mix, pairwise
/// distinct by canonical_hash (the cache key). Drawn one at a time, so a
/// large pool need not hold its graphs.
class ServingGraphs {
 public:
  explicit ServingGraphs(std::uint64_t seed) : rng_(seed) {}
  qgnn::Graph next();

 private:
  qgnn::Rng rng_;
  std::unordered_set<std::uint64_t> seen_;
};

/// Closed-form AR of (gamma, beta) on `g`, given its exhaustive optimum;
/// the checks and served_ar use it.
double oracle_ar(const qgnn::Graph& g, double gamma, double beta,
                 double optimum);

}  // namespace perfbench
