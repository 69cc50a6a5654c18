#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dataset/dataset.hpp"

namespace qgnn {

/// Checkpointing knobs for the dataset factory. None of these affect the
/// labels or the bytes of the output file, only how the run is committed
/// to disk. Byte-identity across every setting here is pinned by the
/// `dataset` test label.
struct FactoryConfig {
  /// Records per checkpoint shard; <= 0 disables checkpointing (the whole
  /// run is labelled in memory and written once).
  int checkpoint_every = 0;

  /// Directory for shards + resume manifest. Required when
  /// checkpoint_every > 0.
  std::string checkpoint_dir;

  /// Resume from checkpoint_dir's manifest: records covered by committed
  /// shards are loaded back instead of re-labelled, and the final file
  /// comes out byte-identical to an uninterrupted run.
  bool resume = false;

  /// Test/CI hook simulating a killed run: stop (returning false) after
  /// committing this many shards in this process. 0 = run to completion.
  int stop_after_shards = 0;
};

/// Fingerprint of every generation-relevant field of `config` (instance
/// count, node/degree ranges, depth, budget, optimizer, symmetrization,
/// seed). Scheduling fields are deliberately excluded: a resumed run may
/// change threads or shard size and still continue a manifest.
std::uint64_t dataset_config_fingerprint(const DatasetGenConfig& config);

/// The one per-item labeller: label `entry` in place as item `index` of a
/// run seeded with config.seed, from a random start drawn from the
/// derive_seed(seed, index) stream, through run_qaoa and the label
/// canonicalization. generate_dataset and every run_dataset_factory wave
/// call it for each item; the online mining relabel job (src/mine) calls
/// it for mined production graphs. Determinism is per (config, graph,
/// index), never per thread or call order.
void label_dataset_entry(const DatasetGenConfig& config, DatasetEntry& entry,
                         std::size_t index);

/// Same as generate_dataset; kept for callers that use this name.
std::vector<DatasetEntry> generate_dataset_batched(
    const DatasetGenConfig& config, const ProgressFn& progress = {});

/// Full factory run: label `config.num_instances` graphs with
/// generate_dataset's loop (on the global thread pool) and write the
/// packed dataset to `out_path`. With checkpointing enabled, every
/// completed wave is committed as a packed shard plus a resume manifest,
/// so a killed run restarts from the last committed shard
/// (factory.resume = true) and the final file is byte-identical to an
/// uninterrupted run.
///
/// Returns true when `out_path` was written; false when the run stopped
/// early via factory.stop_after_shards (the manifest is committed, the
/// final file is not).
bool run_dataset_factory(const DatasetGenConfig& config,
                         const FactoryConfig& factory,
                         const std::string& out_path,
                         const ProgressFn& progress = {});

}  // namespace qgnn
