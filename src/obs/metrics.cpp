#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>

namespace qgnn::obs {

namespace {

bool env_enables_obs() {
  const char* env = std::getenv("QGNN_OBS");
  if (env == nullptr) return true;
  return std::strcmp(env, "0") != 0 && std::strcmp(env, "false") != 0 &&
         std::strcmp(env, "off") != 0;
}

std::atomic<bool>& enabled_flag() {
  static std::atomic<bool> flag{env_enables_obs()};
  return flag;
}

}  // namespace

bool enabled() { return enabled_flag().load(std::memory_order_relaxed); }

void set_enabled(bool on) {
  enabled_flag().store(on, std::memory_order_relaxed);
}

namespace detail {

std::size_t shard_index() {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t index =
      next.fetch_add(1, std::memory_order_relaxed) % kShards;
  return index;
}

}  // namespace detail

// ---- Counter ------------------------------------------------------------

std::uint64_t Counter::value() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard.value.load(std::memory_order_relaxed);
  }
  return total;
}

void Counter::reset() {
  for (auto& shard : shards_) {
    shard.value.store(0, std::memory_order_relaxed);
  }
}

// ---- Gauge --------------------------------------------------------------

void Gauge::record_max(double v) {
  double current = value_.load(std::memory_order_relaxed);
  while (v > current &&
         !value_.compare_exchange_weak(current, v,
                                       std::memory_order_relaxed)) {
  }
}

// ---- LatencyHistogram ---------------------------------------------------

LatencyHistogram::LatencyHistogram()
    : counts_(kBuckets),
      min_(std::numeric_limits<double>::infinity()),
      max_(-std::numeric_limits<double>::infinity()) {}

std::size_t LatencyHistogram::bucket_of(double value) {
  if (!(value > 0.0) || !std::isfinite(value)) return 0;  // incl. NaN
  int exp = 0;
  // frexp: value = mantissa * 2^exp with mantissa in [0.5, 1).
  const double mantissa = std::frexp(value, &exp);
  const int octave = exp - 1 - kMinExp;  // 2^(exp-1) <= value < 2^exp
  if (octave < 0) return 0;
  if (octave >= kMaxExp - kMinExp) return kBuckets - 1;
  // Linear sub-bucketing of the mantissa range [0.5, 1).
  const int sub = std::min(
      kSubBuckets - 1,
      static_cast<int>((mantissa - 0.5) * 2.0 * kSubBuckets));
  return 1 + static_cast<std::size_t>(octave * kSubBuckets + sub);
}

double LatencyHistogram::bucket_lo(std::size_t bucket) {
  if (bucket == 0) return 0.0;
  if (bucket >= kBuckets - 1) return std::ldexp(1.0, kMaxExp);
  const std::size_t linear = bucket - 1;
  const int octave = static_cast<int>(linear) / kSubBuckets;
  const int sub = static_cast<int>(linear) % kSubBuckets;
  const double base = std::ldexp(1.0, kMinExp + octave);
  return base * (1.0 + static_cast<double>(sub) / kSubBuckets);
}

double LatencyHistogram::bucket_hi(std::size_t bucket) {
  if (bucket == 0) return std::ldexp(1.0, kMinExp);
  if (bucket >= kBuckets - 1) {
    return std::numeric_limits<double>::infinity();
  }
  return bucket_lo(bucket + 1);
}

void LatencyHistogram::record(double value) {
  if (std::isnan(value)) return;
  const std::size_t shard = detail::shard_index();
  counts_[bucket_of(value)][shard].value.fetch_add(
      1, std::memory_order_relaxed);
  sums_[shard].value.fetch_add(value, std::memory_order_relaxed);

  double seen = min_.load(std::memory_order_relaxed);
  while (value < seen &&
         !min_.compare_exchange_weak(seen, value,
                                     std::memory_order_relaxed)) {
  }
  seen = max_.load(std::memory_order_relaxed);
  while (value > seen &&
         !max_.compare_exchange_weak(seen, value,
                                     std::memory_order_relaxed)) {
  }
}

std::uint64_t LatencyHistogram::merged_bucket(std::size_t bucket) const {
  std::uint64_t total = 0;
  for (const auto& shard : counts_[bucket]) {
    total += shard.value.load(std::memory_order_relaxed);
  }
  return total;
}

std::uint64_t LatencyHistogram::count() const {
  std::uint64_t total = 0;
  for (std::size_t b = 0; b < kBuckets; ++b) total += merged_bucket(b);
  return total;
}

double LatencyHistogram::sum() const {
  double total = 0.0;
  for (const auto& shard : sums_) {
    total += shard.value.load(std::memory_order_relaxed);
  }
  return total;
}

double LatencyHistogram::min() const {
  const double v = min_.load(std::memory_order_relaxed);
  return std::isfinite(v) ? v : 0.0;
}

double LatencyHistogram::max() const {
  const double v = max_.load(std::memory_order_relaxed);
  return std::isfinite(v) ? v : 0.0;
}

double LatencyHistogram::percentile(double q) const {
  q = std::clamp(q, 0.0, 1.0);
  const std::uint64_t total = count();
  if (total == 0) return 0.0;

  // Rank walk: find the bucket holding the ceil(q * total)-th sample
  // (1-based), then interpolate linearly inside it.
  const std::uint64_t rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(
             std::ceil(q * static_cast<double>(total))));
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    const std::uint64_t in_bucket = merged_bucket(b);
    if (in_bucket == 0) continue;
    if (seen + in_bucket >= rank) {
      const double lo = bucket_lo(b);
      const double hi = std::isfinite(bucket_hi(b)) ? bucket_hi(b) : lo;
      const double frac = static_cast<double>(rank - seen) /
                          static_cast<double>(in_bucket);
      const double value = lo + (hi - lo) * frac;
      // The true extrema are tracked exactly; never report beyond them.
      return std::clamp(value, min(), max());
    }
    seen += in_bucket;
  }
  return max();
}

HistogramSummary LatencyHistogram::summary() const {
  HistogramSummary s;
  s.count = count();
  s.sum = sum();
  s.mean = s.count > 0 ? s.sum / static_cast<double>(s.count) : 0.0;
  s.min = min();
  s.max = max();
  s.p50 = percentile(0.50);
  s.p90 = percentile(0.90);
  s.p99 = percentile(0.99);
  return s;
}

void LatencyHistogram::merge(const LatencyHistogram& other) {
  const std::size_t shard = detail::shard_index();
  for (std::size_t b = 0; b < kBuckets; ++b) {
    const std::uint64_t n = other.merged_bucket(b);
    if (n > 0) {
      counts_[b][shard].value.fetch_add(n, std::memory_order_relaxed);
    }
  }
  sums_[shard].value.fetch_add(other.sum(), std::memory_order_relaxed);
  const double other_min = other.min_.load(std::memory_order_relaxed);
  const double other_max = other.max_.load(std::memory_order_relaxed);
  if (std::isfinite(other_min)) {
    double seen = min_.load(std::memory_order_relaxed);
    while (other_min < seen &&
           !min_.compare_exchange_weak(seen, other_min,
                                       std::memory_order_relaxed)) {
    }
  }
  if (std::isfinite(other_max)) {
    double seen = max_.load(std::memory_order_relaxed);
    while (other_max > seen &&
           !max_.compare_exchange_weak(seen, other_max,
                                       std::memory_order_relaxed)) {
    }
  }
}

void LatencyHistogram::reset() {
  for (auto& bucket : counts_) {
    for (auto& shard : bucket) {
      shard.value.store(0, std::memory_order_relaxed);
    }
  }
  for (auto& shard : sums_) {
    shard.value.store(0.0, std::memory_order_relaxed);
  }
  min_.store(std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
  max_.store(-std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
}

// ---- MetricsRegistry ----------------------------------------------------

MetricsRegistry& MetricsRegistry::global() {
  // Intentionally leaked: threads that outlive static destruction hold
  // metric handles into it. The global thread pool is destroyed after a
  // function-local static registry, and its workers, woken to stop,
  // record their last idle time into a Counter that would already be
  // freed. A leaked singleton has no destruction order to get wrong.
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lk(mutex_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lk(mutex_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

LatencyHistogram& MetricsRegistry::histogram(const std::string& name) {
  std::lock_guard<std::mutex> lk(mutex_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<LatencyHistogram>();
  return *slot;
}

MetricsRegistry::Snapshot MetricsRegistry::snapshot() const {
  Snapshot snap;
  std::lock_guard<std::mutex> lk(mutex_);
  for (const auto& [name, counter] : counters_) {
    snap.counters[name] = counter->value();
  }
  for (const auto& [name, gauge] : gauges_) {
    snap.gauges[name] = gauge->value();
  }
  for (const auto& [name, hist] : histograms_) {
    snap.histograms[name] = hist->summary();
  }
  return snap;
}

void MetricsRegistry::reset() {
  std::lock_guard<std::mutex> lk(mutex_);
  for (auto& [name, counter] : counters_) counter->reset();
  for (auto& [name, gauge] : gauges_) gauge->reset();
  for (auto& [name, hist] : histograms_) hist->reset();
}

}  // namespace qgnn::obs
