// Dataset factory conformance (dataset/factory.hpp): labels stay pinned
// to recorded digests, the bytes never depend on the thread count, and a
// run survives a kill-and-resume cycle (re-executing this binary, like
// test_determinism does) with a byte-identical final file.
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <unistd.h>
#include <vector>

#include <gtest/gtest.h>

#include "dataset/dataset.hpp"
#include "dataset/factory.hpp"
#include "dataset/packed.hpp"
#include "util/crc32.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace qgnn {
namespace {

namespace fs = std::filesystem;

DatasetGenConfig tiny_config() {
  DatasetGenConfig config;
  config.num_instances = 12;
  config.min_nodes = 2;
  config.max_nodes = 7;
  config.optimizer_evaluations = 40;
  config.seed = 99;
  return config;
}

fs::path temp_dir(const std::string& name) {
  return fs::temp_directory_path() /
         ("qgnn_factory_" + std::to_string(::getpid()) + "_" + name);
}

std::string read_bytes(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return std::move(buf).str();
}

std::uint32_t labels_crc32(const DatasetGenConfig& config) {
  const std::vector<std::uint8_t> bytes =
      pack_dataset(generate_dataset(config));
  return crc32_ieee(bytes.data(), bytes.size());
}

/// CRC32 of pack_dataset's image for seeded configs that cover every
/// labelling shape: one call mixing n = 2..14 (its graphs reach each of
/// the size bands n <= 8, 9..10, 11..12 and 13..14), 40 large states
/// (n = 13..14), depth 2, symmetrized labels and the Adam optimizer. The
/// digests were recorded from the earlier lockstep labelling engine,
/// which gave each of those bands its own lane width and wrote the same
/// bytes as the per-item labeller at every width. They pin the labels
/// across that engine's removal and hold at every ISA and thread count.
TEST(DatasetFactory, LabelsMatchPinnedDigests) {
  struct Case {
    const char* name;
    DatasetGenConfig config;
    std::uint32_t crc;
  };
  std::vector<Case> cases;

  DatasetGenConfig mixed;
  mixed.num_instances = 30;
  mixed.min_nodes = 2;
  mixed.max_nodes = 14;
  mixed.optimizer_evaluations = 60;
  mixed.seed = 5;
  cases.push_back({"mixed n=2..14", mixed, 0xebf0d182u});

  DatasetGenConfig large;
  large.num_instances = 40;
  large.min_nodes = 13;
  large.max_nodes = 14;
  large.optimizer_evaluations = 30;
  large.seed = 6;
  cases.push_back({"n=13..14", large, 0x815290f1u});

  DatasetGenConfig deep = tiny_config();
  deep.depth = 2;
  deep.max_nodes = 10;
  deep.optimizer_evaluations = 60;
  deep.seed = 7;
  cases.push_back({"depth 2", deep, 0x1882d779u});

  DatasetGenConfig symmetric = tiny_config();
  symmetric.max_nodes = 9;
  symmetric.symmetrize_labels = true;
  symmetric.seed = 8;
  cases.push_back({"symmetrized", symmetric, 0x72b1f40au});

  DatasetGenConfig adam = tiny_config();
  adam.num_instances = 6;
  adam.optimizer = QaoaOptimizer::kAdam;
  adam.optimizer_evaluations = 15;
  adam.seed = 9;
  cases.push_back({"adam", adam, 0x4525a554u});

  for (const Case& c : cases) {
    EXPECT_EQ(labels_crc32(c.config), c.crc)
        << c.name << ": labels drifted from the pinned digest";
  }
}

TEST(DatasetFactory, ThreadCountNeverChangesTheBytes) {
  const DatasetGenConfig config = tiny_config();
  const auto reference = pack_dataset(generate_dataset(config));
  for (const int threads : {1, 2, 8}) {
    ThreadPool::set_global_threads(threads);
    EXPECT_EQ(pack_dataset(generate_dataset(config)), reference)
        << "threads=" << threads;
  }
  ThreadPool::set_global_threads(ThreadPool::configured_threads());
}

TEST(DatasetFactory, AdamFallbackMatchesSequential) {
  // Optimizers other than Nelder-Mead label through the same loop: a
  // checkpointed factory run writes exactly generate_dataset's bytes.
  DatasetGenConfig config = tiny_config();
  config.num_instances = 4;
  config.optimizer = QaoaOptimizer::kAdam;
  config.optimizer_evaluations = 15;
  const fs::path base = temp_dir("adam");
  fs::remove_all(base);
  FactoryConfig factory;
  factory.checkpoint_every = 3;
  factory.checkpoint_dir = (base / "ckpt").string();
  const fs::path out = base / "out.qds";
  ASSERT_TRUE(run_dataset_factory(config, factory, out.string()));
  const std::vector<std::uint8_t> expect =
      pack_dataset(generate_dataset(config));
  EXPECT_EQ(read_bytes(out), std::string(expect.begin(), expect.end()));
  fs::remove_all(base);
}

TEST(DatasetFactory, ProgressReachesTotal) {
  const DatasetGenConfig config = tiny_config();
  int last = 0;
  const auto entries = generate_dataset(config, [&](int done, int total) {
    EXPECT_LE(done, total);
    last = done;
  });
  EXPECT_EQ(entries.size(), 12u);
  EXPECT_EQ(last, 12);
}

TEST(DatasetFactory, StopAfterShardsThenResumeIsByteIdentical) {
  const DatasetGenConfig config = tiny_config();
  const fs::path base = temp_dir("inproc");
  fs::remove_all(base);
  fs::create_directories(base);

  // Uninterrupted, checkpoint-free reference run.
  const fs::path ref = base / "ref.qds";
  ASSERT_TRUE(run_dataset_factory(config, {}, ref.string()));

  // Interrupted run: commit two 5-record shards, then stop.
  FactoryConfig factory;
  factory.checkpoint_every = 5;
  factory.checkpoint_dir = (base / "ckpt").string();
  factory.stop_after_shards = 2;
  const fs::path out = base / "resumed.qds";
  ASSERT_FALSE(run_dataset_factory(config, factory, out.string()));
  EXPECT_FALSE(fs::exists(out)) << "stopped run must not write the output";
  EXPECT_TRUE(fs::exists(base / "ckpt" / "manifest.txt"));

  // Resume to completion; the final file matches the uninterrupted run.
  factory.stop_after_shards = 0;
  factory.resume = true;
  ASSERT_TRUE(run_dataset_factory(config, factory, out.string()));
  EXPECT_EQ(read_bytes(out), read_bytes(ref));

  fs::remove_all(base);
}

TEST(DatasetFactory, ResumeRejectsMismatchedConfig) {
  const DatasetGenConfig config = tiny_config();
  const fs::path base = temp_dir("mismatch");
  fs::remove_all(base);

  FactoryConfig factory;
  factory.checkpoint_every = 5;
  factory.checkpoint_dir = (base / "ckpt").string();
  factory.stop_after_shards = 1;
  ASSERT_FALSE(
      run_dataset_factory(config, factory, (base / "out.qds").string()));

  DatasetGenConfig other = config;
  other.seed = 1000;  // different labels; resuming would corrupt the set
  factory.resume = true;
  factory.stop_after_shards = 0;
  EXPECT_THROW(
      run_dataset_factory(other, factory, (base / "out.qds").string()),
      IoError);
  fs::remove_all(base);
}

TEST(DatasetFactory, ResumeRejectsCorruptManifest) {
  const fs::path base = temp_dir("badmanifest");
  fs::remove_all(base);
  const fs::path ckpt = base / "ckpt";
  fs::create_directories(ckpt);
  {
    std::ofstream m(ckpt / "manifest.txt");
    m << "qgnn-factory-manifest v1\nfingerprint oops\n";
  }
  FactoryConfig factory;
  factory.checkpoint_every = 5;
  factory.checkpoint_dir = ckpt.string();
  factory.resume = true;
  try {
    run_dataset_factory(tiny_config(), factory, (base / "out.qds").string());
    FAIL() << "corrupt manifest accepted";
  } catch (const IoError& e) {
    // The error names the manifest and the offending line.
    EXPECT_NE(std::string(e.what()).find("manifest.txt:2"), std::string::npos)
        << e.what();
  }
  fs::remove_all(base);
}

TEST(DatasetFactory, FingerprintTracksGenerationFieldsOnly) {
  const DatasetGenConfig config = tiny_config();
  DatasetGenConfig different = config;
  different.seed += 1;
  EXPECT_NE(dataset_config_fingerprint(config),
            dataset_config_fingerprint(different));
  different = config;
  different.depth += 1;
  EXPECT_NE(dataset_config_fingerprint(config),
            dataset_config_fingerprint(different));
  EXPECT_EQ(dataset_config_fingerprint(config),
            dataset_config_fingerprint(tiny_config()));
}

/// Worker mode for the cross-process kill/resume test. Environment:
///   QGNN_FACTORY_OUT   output file (also selects worker mode)
///   QGNN_FACTORY_CKPT  checkpoint dir
///   QGNN_FACTORY_STOP  stop after N shards ("0" = run to completion)
/// Thread count comes from QGNN_NUM_THREADS, read by the fresh process's
/// global pool — a true cold-start at that width, not an in-process resize.
TEST(DatasetFactoryEmit, EmitWorker) {
  const char* out = std::getenv("QGNN_FACTORY_OUT");
  if (out == nullptr) {
    GTEST_SKIP() << "worker mode only (set QGNN_FACTORY_OUT)";
  }
  const char* ckpt = std::getenv("QGNN_FACTORY_CKPT");
  const char* stop = std::getenv("QGNN_FACTORY_STOP");
  ASSERT_NE(ckpt, nullptr);
  ASSERT_NE(stop, nullptr);
  FactoryConfig factory;
  factory.checkpoint_every = 5;
  factory.checkpoint_dir = ckpt;
  factory.stop_after_shards = static_cast<std::size_t>(std::stoi(stop));
  factory.resume = true;  // no-op on the first run (no manifest yet)
  const bool finished =
      run_dataset_factory(tiny_config(), factory, out);
  ASSERT_EQ(finished, factory.stop_after_shards == 0);
}

TEST(DatasetFactory, KilledAndResumedRunsAreByteIdenticalAcrossThreads) {
  const fs::path self = fs::read_symlink("/proc/self/exe");
  const fs::path base = temp_dir("reexec");
  fs::remove_all(base);
  fs::create_directories(base);

  // Reference bytes from an uninterrupted in-process run.
  const fs::path ref = base / "ref.qds";
  ASSERT_TRUE(run_dataset_factory(tiny_config(), {}, ref.string()));
  const std::string expect = read_bytes(ref);

  for (const int threads : {1, 2, 8}) {
    const fs::path dir = base / ("t" + std::to_string(threads));
    const fs::path out = dir / "out.qds";
    const fs::path ckpt = dir / "ckpt";
    fs::create_directories(dir);
    auto worker = [&](int stop_after) {
      std::ostringstream cmd;
      cmd << "QGNN_NUM_THREADS=" << threads << " QGNN_FACTORY_OUT='"
          << out.string() << "' QGNN_FACTORY_CKPT='" << ckpt.string()
          << "' QGNN_FACTORY_STOP=" << stop_after << " '" << self.string()
          << "' --gtest_filter=DatasetFactoryEmit.EmitWorker >/dev/null 2>&1";
      return std::system(cmd.str().c_str());
    };
    // First process labels one shard and "dies"; the second resumes.
    ASSERT_EQ(worker(1), 0) << "threads=" << threads;
    ASSERT_FALSE(fs::exists(out));
    ASSERT_EQ(worker(0), 0) << "threads=" << threads;
    EXPECT_EQ(read_bytes(out), expect)
        << "kill+resume at threads=" << threads
        << " changed the output bytes";
  }
  fs::remove_all(base);
}

}  // namespace
}  // namespace qgnn
