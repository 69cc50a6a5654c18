#include "mine/mining_buffer.hpp"

#include <cmath>
#include <filesystem>

#include "dataset/features.hpp"
#include "dataset/packed.hpp"
#include "obs/metrics.hpp"
#include "obs/names.hpp"

namespace qgnn::mine {

namespace fs = std::filesystem;

MiningBuffer::MiningBuffer(MiningConfig config) : config_(config) {
  QGNN_REQUIRE(config_.capacity >= 1, "mining buffer capacity must be >= 1");
  QGNN_REQUIRE(config_.seen_capacity >= 1,
               "novelty seen-set capacity must be >= 1");
  QGNN_REQUIRE(config_.ar_threshold >= 0.0 && config_.ar_threshold <= 1.0,
               "AR threshold out of [0, 1]");
}

bool MiningBuffer::seen_insert_locked(std::uint64_t hash) {
  if (seen_.count(hash) != 0) return false;
  if (seen_.size() >= config_.seen_capacity) {
    seen_.erase(seen_order_.front());
    seen_order_.pop_front();
  }
  seen_.insert(hash);
  seen_order_.push_back(hash);
  return true;
}

void MiningBuffer::observe(const Graph& g, const serve::Prediction& p) {
  auto& registry = obs::MetricsRegistry::global();
  registry.counter(obs::names::kMineObserved).add(1);
  {
    std::lock_guard<std::mutex> lk(mutex_);
    ++counters_.observed;
  }

  const bool low_ar_candidate =
      config_.ar_threshold > 0.0 && p.ar_verified &&
      p.approximation_ratio < config_.ar_threshold;
  const bool novelty_candidate = config_.mine_novel && !p.cache_hit;
  if (!low_ar_candidate && !novelty_candidate) return;
  if (g.num_nodes() > config_.max_mined_nodes) return;
  if (p.values.rows() != 1 || p.values.cols() < 2 ||
      p.values.cols() % 2 != 0) {
    return;  // not a (1 x 2p) angle row; nothing to relabel against
  }

  // The key the serving path minted for this request: the canonical hash,
  // so isomorphic requests share novelty and dedup identity.
  if (!p.key) return;
  const std::uint64_t hash = p.key->value();

  std::lock_guard<std::mutex> lk(mutex_);
  // Novelty is judged against the buffer's lifetime memory: the first
  // sighting of a structure class mines it, every revisit is old news
  // (the cache would have answered it anyway once cached).
  const bool novel = novelty_candidate && seen_insert_locked(hash);
  if (config_.mine_novel && !novelty_candidate) {
    // A verified cache hit still refreshes the memory so a later eviction
    // does not make the same structure look novel again.
    seen_insert_locked(hash);
  }
  if (!low_ar_candidate && !novel) return;

  if (pending_.count(hash) != 0) {
    ++counters_.deduped;
    registry.counter(obs::names::kMineDeduped).add(1);
    return;
  }
  if (ring_.size() >= config_.capacity) {
    pending_.erase(ring_.front().canonical);
    ring_.pop_front();
    ++counters_.dropped;
    registry.counter(obs::names::kMineDropped).add(1);
  }

  MinedSample sample;
  sample.canonical = hash;
  sample.graph = g;
  sample.predicted = p.values;
  sample.approximation_ratio = p.approximation_ratio;
  sample.ar_verified = p.ar_verified;
  ring_.push_back(std::move(sample));
  pending_.insert(hash);
  if (low_ar_candidate) {
    ++counters_.mined_low_ar;
    registry.counter(obs::names::kMineMinedLowAr).add(1);
  } else {
    ++counters_.mined_novel;
    registry.counter(obs::names::kMineMinedNovel).add(1);
  }
  registry.gauge(obs::names::kMineBufferDepth)
      .set(static_cast<double>(ring_.size()));
}

std::size_t MiningBuffer::size() const {
  std::lock_guard<std::mutex> lk(mutex_);
  return ring_.size();
}

MiningBuffer::Counters MiningBuffer::counters() const {
  std::lock_guard<std::mutex> lk(mutex_);
  return counters_;
}

std::vector<MinedSample> MiningBuffer::drain() {
  std::lock_guard<std::mutex> lk(mutex_);
  std::vector<MinedSample> out(std::make_move_iterator(ring_.begin()),
                               std::make_move_iterator(ring_.end()));
  ring_.clear();
  pending_.clear();
  obs::MetricsRegistry::global()
      .gauge(obs::names::kMineBufferDepth)
      .set(0.0);
  return out;
}

std::vector<DatasetEntry> to_provisional_entries(
    const std::vector<MinedSample>& samples) {
  std::vector<DatasetEntry> entries;
  entries.reserve(samples.size());
  std::size_t depth_cols = 0;
  for (const MinedSample& s : samples) {
    if (s.predicted.rows() != 1 || s.predicted.cols() < 2 ||
        s.predicted.cols() % 2 != 0) {
      continue;
    }
    if (depth_cols == 0) depth_cols = s.predicted.cols();
    if (s.predicted.cols() != depth_cols) continue;  // uniform depth only
    DatasetEntry e;
    e.graph = s.graph;
    e.label = target_to_params(s.predicted);
    e.expectation = 0.0;
    e.optimum = 0.0;
    e.approximation_ratio = s.approximation_ratio;
    const int n = s.graph.num_nodes();
    const double mean_degree =
        n > 0 ? 2.0 * static_cast<double>(s.graph.num_edges()) /
                    static_cast<double>(n)
              : 0.0;
    e.degree = static_cast<int>(std::lround(mean_degree));
    entries.push_back(std::move(e));
  }
  return entries;
}

std::string spill_shard(const std::string& dir, std::uint64_t seq,
                        const std::vector<DatasetEntry>& entries) {
  QGNN_REQUIRE(!entries.empty(), "refusing to spill an empty shard");
  fs::create_directories(dir);
  char name[32];
  std::snprintf(name, sizeof name, "mined_%06llu.qds",
                static_cast<unsigned long long>(seq));
  const std::string path = dir + "/" + name;
  save_packed_dataset(path, entries);
  obs::MetricsRegistry::global()
      .counter(obs::names::kMineSpilled)
      .add(entries.size());
  return path;
}

}  // namespace qgnn::mine
