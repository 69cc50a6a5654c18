#include "dataset/factory.hpp"

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <sstream>
#include <utility>

#include "dataset/packed.hpp"
#include "obs/metrics.hpp"
#include "obs/names.hpp"
#include "qaoa/qaoa.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace qgnn {

namespace fs = std::filesystem;

namespace {

// Registry handles cached once, so the labelling loop never takes the
// registry mutex per item.
obs::Counter& graphs_labeled_counter() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter(
      obs::names::kDatasetGraphsLabeled);
  return c;
}

obs::LatencyHistogram& label_wave_histogram() {
  static obs::LatencyHistogram& h = obs::MetricsRegistry::global().histogram(
      obs::names::kDatasetLabelWaveUs);
  return h;
}

obs::LatencyHistogram& shard_commit_histogram() {
  static obs::LatencyHistogram& h = obs::MetricsRegistry::global().histogram(
      obs::names::kDatasetShardCommitUs);
  return h;
}

void check_gen_config(const DatasetGenConfig& config) {
  QGNN_REQUIRE(config.num_instances >= 1, "need at least one instance");
  QGNN_REQUIRE(config.min_nodes >= 2, "graphs need at least two nodes");
  QGNN_REQUIRE(config.max_nodes <= kMaxQubits,
               "max nodes exceeds simulator range");
  QGNN_REQUIRE(config.min_nodes <= config.max_nodes, "node range inverted");
  QGNN_REQUIRE(config.depth >= 1, "QAOA depth must be at least 1");
}

/// Phase 1 (serial, cheap): the graph sequence, via generate_graphs's RNG
/// stream. Regular degree is recovered from the graph itself (every kept
/// instance is d-regular with d >= 1).
std::vector<DatasetEntry> draw_instances(const DatasetGenConfig& config) {
  check_gen_config(config);
  std::vector<Graph> graphs = generate_graphs(config);
  std::vector<DatasetEntry> entries(graphs.size());
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    entries[i].degree = graphs[i].degree(0);
    entries[i].graph = std::move(graphs[i]);
  }
  return entries;
}

/// Phase 2 (parallel, dominant): label entries[lo, hi) on the global
/// thread pool, one item per task. Every item seeds its own streams from
/// (config.seed, index), so labels are bit-identical at any thread count
/// and independent of completion order. Progress counts against the
/// whole run: every entry before `lo` is already labelled or restored
/// from a checkpoint.
void label_range(const DatasetGenConfig& config,
                 std::vector<DatasetEntry>& entries, std::size_t lo,
                 std::size_t hi, const ProgressFn& progress) {
  const bool obs_on = obs::enabled();
  std::mutex progress_mutex;
  int labelled = static_cast<int>(lo);
  ThreadPool::global().parallel_for(
      lo, hi, 1, [&](std::uint64_t ilo, std::uint64_t ihi) {
        for (std::uint64_t i = ilo; i < ihi; ++i) {
          label_dataset_entry(config, entries[i], i);
          if (obs_on) graphs_labeled_counter().add(1);
          if (progress) {
            std::lock_guard<std::mutex> lk(progress_mutex);
            progress(++labelled, static_cast<int>(entries.size()));
          }
        }
      });
}

// ---------------------------------------------------------------------------
// Resume manifest: a small line-oriented text file committed (atomically,
// temp + rename) after every shard, recording which record ranges are
// already on disk.

struct ManifestShard {
  std::string file;
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
};

struct Manifest {
  std::uint64_t fingerprint = 0;
  std::uint64_t total = 0;
  std::uint64_t committed = 0;
  std::vector<ManifestShard> shards;
};

constexpr const char* kManifestHeader = "qgnn-factory-manifest v1";
constexpr const char* kManifestName = "manifest.txt";

void write_manifest(const fs::path& dir, const Manifest& m) {
  const fs::path path = dir / kManifestName;
  const fs::path tmp = dir / (std::string(kManifestName) + ".tmp");
  {
    std::ofstream out(tmp);
    if (!out) throw IoError("cannot write manifest: " + tmp.string());
    out << kManifestHeader << '\n';
    out << "fingerprint " << m.fingerprint << '\n';
    out << "total " << m.total << '\n';
    out << "committed " << m.committed << '\n';
    for (const ManifestShard& s : m.shards) {
      out << "shard " << s.file << ' ' << s.begin << ' ' << s.end << '\n';
    }
    if (!out.flush()) {
      throw IoError("manifest write failed: " + tmp.string());
    }
  }
  std::error_code ec;
  fs::rename(tmp, path, ec);
  if (ec) {
    throw IoError("cannot rename " + tmp.string() + " to " + path.string() +
                  ": " + ec.message());
  }
}

Manifest read_manifest(const fs::path& path) {
  std::ifstream in(path);
  if (!in) throw IoError("cannot open manifest: " + path.string());
  auto bad = [&](int line_no, const std::string& reason) -> IoError {
    return IoError(path.string() + ":" + std::to_string(line_no) + ": " +
                   reason);
  };

  Manifest m;
  std::string line;
  int line_no = 1;
  if (!std::getline(in, line) || line != kManifestHeader) {
    throw bad(1, "bad manifest header (expected '" +
                     std::string(kManifestHeader) + "')");
  }
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    std::istringstream is(line);
    std::string key;
    is >> key;
    if (key == "fingerprint") {
      if (!(is >> m.fingerprint)) throw bad(line_no, "bad fingerprint line");
    } else if (key == "total") {
      if (!(is >> m.total)) throw bad(line_no, "bad total line");
    } else if (key == "committed") {
      if (!(is >> m.committed)) throw bad(line_no, "bad committed line");
    } else if (key == "shard") {
      ManifestShard s;
      if (!(is >> s.file >> s.begin >> s.end) || s.end < s.begin) {
        throw bad(line_no, "bad shard line");
      }
      m.shards.push_back(std::move(s));
    } else {
      throw bad(line_no, "unknown manifest key '" + key + "'");
    }
  }
  return m;
}

/// Validate a resumed manifest against the current run and load every
/// committed record back into `entries`. Throws IoError with a pointed
/// message on any inconsistency — resuming must never silently relabel or
/// mix configs.
void restore_from_manifest(const Manifest& m, const fs::path& dir,
                           const DatasetGenConfig& config,
                           std::vector<DatasetEntry>& entries) {
  const fs::path path = dir / kManifestName;
  if (m.fingerprint != dataset_config_fingerprint(config)) {
    throw IoError(path.string() +
                  ": manifest was written by a different generation config "
                  "(fingerprint mismatch); not resuming");
  }
  if (m.total != entries.size()) {
    throw IoError(path.string() + ": manifest total " +
                  std::to_string(m.total) + " does not match configured " +
                  std::to_string(entries.size()) + " instances");
  }
  std::uint64_t expect_begin = 0;
  for (const ManifestShard& s : m.shards) {
    if (s.begin != expect_begin || s.end > m.committed) {
      throw IoError(path.string() + ": shard list is not contiguous at '" +
                    s.file + "'");
    }
    expect_begin = s.end;
    const fs::path shard_path = dir / s.file;
    std::vector<DatasetEntry> shard = load_packed_dataset(shard_path.string());
    if (shard.size() != s.end - s.begin) {
      throw IoError(shard_path.string() + ": shard holds " +
                    std::to_string(shard.size()) + " records, manifest says " +
                    std::to_string(s.end - s.begin));
    }
    for (std::size_t i = 0; i < shard.size(); ++i) {
      entries[static_cast<std::size_t>(s.begin) + i] = std::move(shard[i]);
    }
  }
  if (expect_begin != m.committed) {
    throw IoError(path.string() + ": shards cover " +
                  std::to_string(expect_begin) + " records, manifest claims " +
                  std::to_string(m.committed) + " committed");
  }
}

std::string shard_filename(std::size_t index) {
  std::ostringstream os;
  os << "shard_";
  os.width(6);
  os.fill('0');
  os << index << ".qds";
  return os.str();
}

}  // namespace

void label_dataset_entry(const DatasetGenConfig& config, DatasetEntry& entry,
                         std::size_t index) {
  QaoaRunConfig run;
  run.depth = config.depth;
  run.optimizer = config.optimizer;
  run.max_evaluations = config.optimizer_evaluations;
  run.sample_shots = 0;  // labels only need <C>; skip sampling cost
  Rng item_rng(derive_seed(config.seed, index));
  RandomInitializer initializer(item_rng.child());
  Rng sample_rng = item_rng.child();
  const QaoaResult result =
      run_qaoa(entry.graph, initializer, run, sample_rng);
  entry.label = config.symmetrize_labels
                    ? canonicalize_params_symmetric(result.best_params)
                    : canonicalize_params(result.best_params);
  entry.expectation = result.best_expectation;
  entry.optimum = result.optimum;
  entry.approximation_ratio = result.best_ar;
}

std::uint64_t dataset_config_fingerprint(const DatasetGenConfig& config) {
  std::ostringstream os;
  os << "qgnn-dataset-v1|" << config.num_instances << '|' << config.min_nodes
     << '|' << config.max_nodes << '|' << config.min_degree << '|'
     << config.max_degree << '|' << config.depth << '|'
     << config.optimizer_evaluations << '|'
     << static_cast<int>(config.optimizer) << '|'
     << (config.symmetrize_labels ? 1 : 0) << '|' << config.seed;
  const std::string s = os.str();
  std::uint64_t h = 1469598103934665603ULL;  // FNV-1a 64
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

std::vector<DatasetEntry> generate_dataset(const DatasetGenConfig& config,
                                           const ProgressFn& progress) {
  std::vector<DatasetEntry> entries = draw_instances(config);
  label_range(config, entries, 0, entries.size(), progress);
  return entries;
}

std::vector<DatasetEntry> generate_dataset_batched(
    const DatasetGenConfig& config, const ProgressFn& progress) {
  return generate_dataset(config, progress);
}

bool run_dataset_factory(const DatasetGenConfig& config,
                         const FactoryConfig& factory,
                         const std::string& out_path,
                         const ProgressFn& progress) {
  std::vector<DatasetEntry> entries = draw_instances(config);
  const std::size_t total = entries.size();
  const bool obs_on = obs::enabled();

  if (factory.checkpoint_every <= 0) {
    obs::ScopedTimer wave_timer(obs_on ? &label_wave_histogram() : nullptr);
    label_range(config, entries, 0, total, progress);
    save_packed_dataset(out_path, entries);
    return true;
  }

  QGNN_REQUIRE(!factory.checkpoint_dir.empty(),
               "checkpointing requires FactoryConfig::checkpoint_dir");
  const fs::path dir(factory.checkpoint_dir);
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    throw IoError("cannot create checkpoint directory: " + dir.string());
  }

  Manifest m;
  m.fingerprint = dataset_config_fingerprint(config);
  m.total = total;
  if (factory.resume && fs::exists(dir / kManifestName)) {
    m = read_manifest(dir / kManifestName);
    restore_from_manifest(m, dir, config, entries);
  } else {
    write_manifest(dir, m);  // fresh run: commit the empty state up front
  }

  const auto every = static_cast<std::size_t>(factory.checkpoint_every);
  int committed_this_run = 0;
  for (std::size_t wave_lo = static_cast<std::size_t>(m.committed);
       wave_lo < total; wave_lo += every) {
    const std::size_t wave_hi = std::min(total, wave_lo + every);
    {
      obs::ScopedTimer wave_timer(obs_on ? &label_wave_histogram() : nullptr);
      label_range(config, entries, wave_lo, wave_hi, progress);
    }
    {
      obs::ScopedTimer commit_timer(obs_on ? &shard_commit_histogram()
                                           : nullptr);
      const std::string shard = shard_filename(m.shards.size());
      save_packed_dataset(
          (dir / shard).string(),
          std::vector<DatasetEntry>(
              entries.begin() + static_cast<std::ptrdiff_t>(wave_lo),
              entries.begin() + static_cast<std::ptrdiff_t>(wave_hi)));
      m.shards.push_back({shard, wave_lo, wave_hi});
      m.committed = wave_hi;
      write_manifest(dir, m);
    }
    ++committed_this_run;
    if (factory.stop_after_shards > 0 &&
        committed_this_run >= factory.stop_after_shards && wave_hi < total) {
      return false;  // simulated kill: manifest committed, final file not
    }
  }

  save_packed_dataset(out_path, entries);
  return true;
}

}  // namespace qgnn
