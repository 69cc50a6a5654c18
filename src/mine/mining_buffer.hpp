#pragma once

#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <unordered_set>
#include <vector>

#include "dataset/dataset.hpp"
#include "serve/service.hpp"
#include "util/annotations.hpp"

namespace qgnn::mine {

/// What the MiningBuffer considers a hard example worth harvesting from
/// live traffic (DESIGN.md §12).
struct MiningConfig {
  /// Mine requests whose verify_ar score came in below this threshold.
  /// 0 disables the low-AR criterion (then only novelty mines).
  double ar_threshold = 0.0;
  /// Mine cache-missing requests whose canonical hash has never been seen
  /// by this buffer — structure classes the training set did not cover.
  bool mine_novel = false;
  /// Bounded ring: when full, the oldest pending sample is dropped (and
  /// counted) rather than growing without bound under serve pressure.
  std::size_t capacity = 1024;
  /// Bound on the novelty seen-set; oldest hashes are forgotten first.
  std::size_t seen_capacity = 1 << 16;
  /// Graphs beyond this node count cannot be exactly re-labelled (the
  /// statevector cap) and are never mined.
  int max_mined_nodes = 20;
};

/// One harvested request: everything the relabel job needs to turn the
/// production graph into a training example, plus the serving-time
/// prediction for provenance.
struct MinedSample {
  std::uint64_t canonical = 0;
  Graph graph;
  Matrix predicted;  // the (1 x 2p) row the incumbent answered with
  double approximation_ratio = 0.0;
  bool ar_verified = false;
};

/// Bounded, dedup-by-canonical-hash ring fed from the ServeHandle
/// prediction tap. observe() is cheap and thread-safe (one mutex, no
/// simulation, no I/O) so it can run on request threads; drain() hands the
/// pending samples to the mining cycle.
class MiningBuffer {
 public:
  explicit MiningBuffer(MiningConfig config = {});

  /// The prediction-tap target: decide whether (g, p) is a hard example
  /// and enqueue it. Novelty and dedup go by p.key, the canonical key the
  /// serving path computed for this request (the buffer never hashes); a
  /// Prediction without a key is counted as observed and never mined.
  /// Never throws.
  void observe(const Graph& g, const serve::Prediction& p);

  std::size_t size() const;

  /// Exact internal accounting (the same numbers are mirrored into the
  /// global obs registry under the mine.* names).
  struct Counters {
    std::uint64_t observed = 0;
    std::uint64_t mined_low_ar = 0;
    std::uint64_t mined_novel = 0;
    std::uint64_t deduped = 0;
    std::uint64_t dropped = 0;
  };
  Counters counters() const;

  /// Remove and return every pending sample (FIFO order).
  std::vector<MinedSample> drain();

  const MiningConfig& config() const { return config_; }

 private:
  bool seen_insert_locked(std::uint64_t hash) QGNN_REQUIRES(mutex_);

  const MiningConfig config_;
  mutable std::mutex mutex_;
  std::deque<MinedSample> ring_ QGNN_GUARDED_BY(mutex_);
  /// Hashes currently in ring_.
  std::unordered_set<std::uint64_t> pending_ QGNN_GUARDED_BY(mutex_);
  /// Novelty memory.
  std::unordered_set<std::uint64_t> seen_ QGNN_GUARDED_BY(mutex_);
  std::deque<std::uint64_t> seen_order_ QGNN_GUARDED_BY(mutex_);
  Counters counters_ QGNN_GUARDED_BY(mutex_);
};

/// Convert mined samples to provisional DatasetEntry rows for spilling:
/// label = the predicted angles (to be replaced by the relabel job),
/// approximation_ratio = the achieved serving-time AR. Samples whose
/// prediction width disagrees with the first sample's depth are skipped
/// (packed shards require a uniform depth).
std::vector<DatasetEntry> to_provisional_entries(
    const std::vector<MinedSample>& samples);

/// Write `entries` as packed shard `<dir>/mined_<seq>.qds` via the atomic
/// qgnnpak1 writer (creating `dir` if needed); returns the path.
std::string spill_shard(const std::string& dir, std::uint64_t seq,
                        const std::vector<DatasetEntry>& entries);

}  // namespace qgnn::mine
