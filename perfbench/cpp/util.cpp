#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <numeric>
#include <sstream>
#include <thread>

#include "bench.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "simd/dispatch.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

void RunResult::fail(const std::string& what) {
  correct = false;
  // Keep the log short: the first failures say what broke.
  if (check_failures.size() < 20) check_failures.push_back(what);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

namespace {

/// (steal, total) jiffies from the aggregate cpu line of /proc/stat.
bool read_cpu_jiffies(std::uint64_t& steal, std::uint64_t& total) {
  std::ifstream in("/proc/stat");
  std::string label;
  if (!(in >> label) || label != "cpu") return false;
  std::vector<std::uint64_t> fields;
  std::uint64_t x = 0;
  // user nice system idle iowait irq softirq steal (guest time is already
  // included in user and nice).
  for (int i = 0; i < 8 && (in >> x); ++i) fields.push_back(x);
  if (fields.size() < 8) return false;
  steal = fields[7];
  total = std::accumulate(fields.begin(), fields.end(), std::uint64_t{0});
  return true;
}

}  // namespace

void StealMeter::start() { ok_ = read_cpu_jiffies(steal_, total_); }

double StealMeter::share() const {
  std::uint64_t steal = 0;
  std::uint64_t total = 0;
  if (!ok_ || !read_cpu_jiffies(steal, total) || total <= total_) return -1.0;
  return static_cast<double>(steal - steal_) /
         static_cast<double>(total - total_);
}

void print_context(const Options& opts, double steal_share) {
  std::cout << "# context: workload=" << opts.workload << " seed=" << opts.seed
            << " seconds=" << opts.seconds << " trace=" << opts.trace << "\n"
            << "# context: nproc=" << std::thread::hardware_concurrency()
            << " pool_threads=" << qgnn::ThreadPool::global().size()
            << " simd_isa=" << qgnn::simd::active_isa_name()
            << " build=" <<
#ifdef NDEBUG
      "NDEBUG"
#else
      "asserts"
#endif
            << "\n"
            << "# context: host_cpu_steal_share=";
  if (steal_share < 0.0) {
    std::cout << "unavailable\n";
  } else {
    std::cout << steal_share << "\n";
  }
}

void start_tracing() {
  qgnn::obs::set_enabled(true);
  qgnn::obs::TraceCollector::global().start();
}

void stop_tracing(const Options& opts) {
  auto& collector = qgnn::obs::TraceCollector::global();
  collector.stop();
  qgnn::obs::set_enabled(false);
  std::filesystem::create_directories(opts.out_dir);
  const std::string path = opts.out_dir + "/trace_" + opts.workload + "_" +
                           std::to_string(opts.seed) + ".json";
  collector.write_chrome_trace_file(path);
  std::cout << "# trace: " << path << " events=" << collector.event_count()
            << " dropped=" << collector.dropped_events() << "\n";
}

}  // namespace perfbench
