// Closed-loop hard-example mining (src/mine, DESIGN.md §12) plus the
// infrastructure it rides on: hardened GnnModel::save, the resumable
// trainer checkpoint, the mining buffer, the relabel job, the eval gate,
// and the end-to-end serve -> mine -> relabel -> fine-tune -> gate ->
// hot-swap loop with rollback.

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <mutex>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "dataset/factory.hpp"
#include "dataset/features.hpp"
#include "dataset/packed.hpp"
#include "gnn/checkpoint.hpp"
#include "gnn/model.hpp"
#include "gnn/trainer.hpp"
#include "graph/canonical.hpp"
#include "graph/generators.hpp"
#include "mine/gate.hpp"
#include "mine/miner.hpp"
#include "mine/mining_buffer.hpp"
#include "mine/relabel.hpp"
#include "mine/serve_hook.hpp"
#include "serve/protocol.hpp"
#include "serve/service.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace qgnn {
namespace {

namespace fs = std::filesystem;

fs::path temp_path(const std::string& name) {
  return fs::temp_directory_path() /
         ("qgnn_mine_" + std::to_string(::getpid()) + "_" + name);
}

std::string read_bytes(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return std::move(buf).str();
}

void write_bytes(const fs::path& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << "cannot write " << path;
}

GnnModel make_model(std::uint64_t seed) {
  GnnModelConfig config;
  Rng rng(seed);
  return GnnModel(config, rng);
}

/// Structurally distinct 3-regular graphs: the buffer dedups by the
/// isomorphism-invariant canonical hash, so repeated draws from a small
/// (n, d) family collapse to a handful of classes. Drawing from n in
/// {10, 12, 14} (dozens to thousands of classes each) and rejecting
/// hash collisions yields `count` pairwise non-isomorphic graphs that
/// still share one structural family — so a model fine-tuned on some of
/// them generalises to the held-out rest.
std::vector<Graph> distinct_structure_graphs(std::uint64_t seed,
                                             std::size_t count) {
  Rng rng(seed);
  std::vector<Graph> graphs;
  std::set<std::uint64_t> hashes;
  const int sizes[] = {10, 12, 14};
  std::size_t draw = 0;
  while (graphs.size() < count) {
    const int n = sizes[draw++ % 3];
    Graph g = random_regular_graph(n, 3, rng);
    if (hashes.insert(canonical_hash(g)).second) {
      graphs.push_back(std::move(g));
    }
  }
  return graphs;
}

void expect_bit_identical(const Matrix& a, const Matrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) {
      EXPECT_EQ(a(i, j), b(i, j)) << "mismatch at (" << i << "," << j << ")";
    }
  }
}

/// Restores the global pool size on scope exit.
struct PoolSizeGuard {
  ~PoolSizeGuard() {
    ThreadPool::set_global_threads(ThreadPool::configured_threads());
  }
};

// ---- satellite: hardened model save/load --------------------------------

TEST(ModelSave, WritesCrcTrailerAtomicallyAndRoundTrips) {
  const fs::path path = temp_path("model_roundtrip.txt");
  const GnnModel model = make_model(3);
  model.save(path.string());

  EXPECT_FALSE(fs::exists(path.string() + ".tmp"))
      << "temp file must not survive a successful save";
  const std::string bytes = read_bytes(path);
  EXPECT_NE(bytes.find("\ncrc32 "), std::string::npos)
      << "saved model must carry a CRC trailer";

  const GnnModel loaded = GnnModel::load(path.string());
  Rng rng(9);
  const Graph g = random_regular_graph(8, 3, rng);
  expect_bit_identical(model.predict(g), loaded.predict(g));
  fs::remove(path);
}

TEST(ModelSave, TruncatedFileRejected) {
  const fs::path path = temp_path("model_truncated.txt");
  make_model(3).save(path.string());
  const std::string bytes = read_bytes(path);
  write_bytes(path, bytes.substr(0, bytes.size() * 4 / 5));
  EXPECT_THROW(GnnModel::load(path.string()), IoError);
  fs::remove(path);
}

TEST(ModelSave, GarbledWeightByteRejected) {
  const fs::path path = temp_path("model_garbled.txt");
  make_model(3).save(path.string());
  std::string bytes = read_bytes(path);
  // Flip one digit in the middle of the weight block.
  const std::size_t pos = bytes.size() / 2;
  std::size_t flip = bytes.find_first_of("0123456789", pos);
  ASSERT_NE(flip, std::string::npos);
  bytes[flip] = bytes[flip] == '7' ? '3' : '7';
  write_bytes(path, bytes);
  EXPECT_THROW(GnnModel::load(path.string()), IoError);
  fs::remove(path);
}

TEST(ModelSave, MalformedCrcTrailerRejected) {
  const fs::path path = temp_path("model_badtrailer.txt");
  make_model(3).save(path.string());
  std::string bytes = read_bytes(path);
  const std::size_t trailer = bytes.rfind("crc32 ");
  ASSERT_NE(trailer, std::string::npos);
  bytes = bytes.substr(0, trailer) + "crc32 notanumber\n";
  write_bytes(path, bytes);
  EXPECT_THROW(GnnModel::load(path.string()), IoError);
  fs::remove(path);
}

TEST(ModelSave, FileWithoutTrailerRejected) {
  // A file truncated exactly at the trailer boundary parses cleanly, so
  // the loader must treat a missing trailer as truncation, not as a
  // legacy format.
  const fs::path path = temp_path("model_legacy.txt");
  make_model(3).save(path.string());
  const std::string bytes = read_bytes(path);
  const std::size_t trailer = bytes.rfind("crc32 ");
  ASSERT_NE(trailer, std::string::npos);
  write_bytes(path, bytes.substr(0, trailer));
  try {
    GnnModel::load(path.string());
    FAIL() << "expected IoError";
  } catch (const IoError& e) {
    EXPECT_NE(std::string(e.what()).find("trailer"), std::string::npos)
        << e.what();
  }
  fs::remove(path);
}

// ---- trainer checkpoint format ------------------------------------------

TrainCheckpoint sample_checkpoint() {
  TrainCheckpoint ck;
  ck.fingerprint = 0x1234abcd5678ef01ULL;
  ck.next_epoch = 7;
  std::ostringstream engine;
  engine << std::mt19937_64(99);
  ck.rng_state = engine.str();
  ck.order = {3, 1, 4, 1, 5, 9, 2, 6};
  ck.learning_rate = 2.5e-3;
  Matrix w(2, 3);
  w(0, 0) = 1.5;
  w(1, 2) = -0.25;
  ck.weights = {w};
  ck.adam.m = {w};
  ck.adam.v = {w};
  ck.adam.t = 41;
  ck.plateau.best = 0.125;
  ck.plateau.bad_epochs = 2;
  ck.plateau.reductions = 1;
  ck.best_validation_loss = 0.5;
  ck.bad_epochs = 1;
  ck.best_epoch = 5;
  ck.best_weights = {w};
  EpochStats e;
  e.epoch = 6;
  e.train_loss = 0.75;
  e.validation_loss = 0.5;
  e.learning_rate = 2.5e-3;
  ck.epochs = {e};
  return ck;
}

TEST(TrainCheckpointFormat, RoundTripsExactly) {
  const fs::path path = temp_path("ckpt_roundtrip.ckpt");
  const TrainCheckpoint ck = sample_checkpoint();
  save_train_checkpoint(path.string(), ck);
  EXPECT_FALSE(fs::exists(path.string() + ".tmp"));

  const TrainCheckpoint back = load_train_checkpoint(path.string());
  EXPECT_EQ(back.fingerprint, ck.fingerprint);
  EXPECT_EQ(back.next_epoch, ck.next_epoch);
  EXPECT_EQ(back.rng_state, ck.rng_state);
  EXPECT_EQ(back.order, ck.order);
  EXPECT_EQ(back.learning_rate, ck.learning_rate);
  ASSERT_EQ(back.weights.size(), 1u);
  expect_bit_identical(back.weights[0], ck.weights[0]);
  expect_bit_identical(back.adam.m[0], ck.adam.m[0]);
  expect_bit_identical(back.adam.v[0], ck.adam.v[0]);
  EXPECT_EQ(back.adam.t, ck.adam.t);
  EXPECT_EQ(back.plateau.best, ck.plateau.best);
  EXPECT_EQ(back.plateau.bad_epochs, ck.plateau.bad_epochs);
  EXPECT_EQ(back.plateau.reductions, ck.plateau.reductions);
  EXPECT_EQ(back.best_validation_loss, ck.best_validation_loss);
  EXPECT_EQ(back.bad_epochs, ck.bad_epochs);
  EXPECT_EQ(back.best_epoch, ck.best_epoch);
  ASSERT_EQ(back.epochs.size(), 1u);
  EXPECT_EQ(back.epochs[0].epoch, ck.epochs[0].epoch);
  EXPECT_EQ(back.epochs[0].train_loss, ck.epochs[0].train_loss);
  fs::remove(path);
}

TEST(TrainCheckpointFormat, CorruptionRejected) {
  const fs::path path = temp_path("ckpt_corrupt.ckpt");
  save_train_checkpoint(path.string(), sample_checkpoint());
  std::string bytes = read_bytes(path);

  std::string flipped = bytes;
  flipped[flipped.size() / 2] =
      static_cast<char>(flipped[flipped.size() / 2] ^ 0x40);
  write_bytes(path, flipped);
  EXPECT_THROW(load_train_checkpoint(path.string()), IoError);

  write_bytes(path, bytes.substr(0, bytes.size() / 2));
  EXPECT_THROW(load_train_checkpoint(path.string()), IoError);

  write_bytes(path, std::string("qgnnckp9") + bytes.substr(8));
  EXPECT_THROW(load_train_checkpoint(path.string()), IoError);
  fs::remove(path);
}

// ---- satellite: interrupted training resumes byte-identically -----------

std::vector<TrainSample> tiny_train_set() {
  DatasetGenConfig config;
  config.num_instances = 14;
  config.min_nodes = 4;
  config.max_nodes = 8;
  config.optimizer_evaluations = 25;
  config.seed = 77;
  const std::vector<DatasetEntry> entries = generate_dataset(config);
  return to_train_samples(entries, FeatureConfig{});
}

TEST(TrainerCheckpoint, ResumedRunByteIdenticalAtAnyThreadCount) {
  PoolSizeGuard guard;
  const std::vector<TrainSample> samples = tiny_train_set();

  TrainerConfig base;
  base.epochs = 6;
  base.batch_size = 4;
  base.learning_rate = 5e-3;

  for (const int threads : {1, 2, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ThreadPool::set_global_threads(threads);

    // Reference: 6 uninterrupted epochs.
    const fs::path ref_path = temp_path("resume_ref.txt");
    {
      GnnModel model = make_model(7);
      Rng rng(123);
      const TrainReport report = train_gnn(model, samples, base, rng);
      EXPECT_EQ(report.epochs.size(), 6u);
      model.save(ref_path.string());
    }

    // Interrupted: 3 epochs with checkpointing (the state at this point
    // is identical to a 6-epoch run killed after epoch 3), then a fresh
    // process-equivalent resume to the full budget.
    const fs::path ckpt = temp_path("resume.ckpt");
    const fs::path out_path = temp_path("resume_out.txt");
    fs::remove(ckpt);
    {
      GnnModel model = make_model(7);
      Rng rng(123);
      TrainerConfig half = base;
      half.epochs = 3;
      half.checkpoint.path = ckpt.string();
      train_gnn(model, samples, half, rng);
      ASSERT_TRUE(fs::exists(ckpt));
    }
    {
      GnnModel model = make_model(7);
      Rng rng(123);
      TrainerConfig full = base;
      full.checkpoint.path = ckpt.string();
      full.checkpoint.resume = true;
      const TrainReport report = train_gnn(model, samples, full, rng);
      EXPECT_EQ(report.epochs.size(), 6u)
          << "resumed run must keep the pre-interruption epoch history";
      model.save(out_path.string());
    }

    EXPECT_EQ(read_bytes(ref_path), read_bytes(out_path))
        << "resumed weights drifted from the uninterrupted run";
    fs::remove(ref_path);
    fs::remove(out_path);
    fs::remove(ckpt);
  }
}

TEST(TrainerCheckpoint, MismatchedRunRejected) {
  const std::vector<TrainSample> samples = tiny_train_set();
  const fs::path ckpt = temp_path("mismatch.ckpt");
  fs::remove(ckpt);

  TrainerConfig config;
  config.epochs = 2;
  config.checkpoint.path = ckpt.string();
  {
    GnnModel model = make_model(7);
    Rng rng(123);
    train_gnn(model, samples, config, rng);
  }
  // Same checkpoint, different learning rate -> different run.
  GnnModel model = make_model(7);
  Rng rng(123);
  TrainerConfig other = config;
  other.learning_rate = 9e-3;
  other.checkpoint.resume = true;
  EXPECT_THROW(train_gnn(model, samples, other, rng), Error);
  fs::remove(ckpt);
}

// ---- mining buffer ------------------------------------------------------

/// Predictions as the prediction tap delivers them. Each graph is served
/// once through a real handle, so the Prediction carries the key the
/// handle minted for it (keys cannot be made any other way); the test then
/// sets the angle row, AR and hit flag it wants the buffer to judge.
class FakePredictions {
 public:
  FakePredictions() { handle_.register_model("default", make_model(1)); }

  serve::Prediction operator()(const Graph& g, double ar, bool verified,
                               bool cache_hit = false) {
    serve::Prediction p = handle_.predict(g);
    p.values = Matrix(1, 2);
    p.values(0, 0) = 0.4;
    p.values(0, 1) = 0.2;
    p.approximation_ratio = ar;
    p.ar_verified = verified;
    p.cache_hit = cache_hit;
    return p;
  }

 private:
  serve::ServeHandle handle_;
};

TEST(MiningBuffer, MinesLowArDedupsAndBoundsTheRing) {
  mine::MiningConfig config;
  config.ar_threshold = 0.9;
  config.capacity = 3;
  mine::MiningBuffer buffer(config);
  FakePredictions fake_prediction;

  const std::vector<Graph> graphs = distinct_structure_graphs(5, 5);

  const Graph& g0 = graphs[0];
  buffer.observe(g0, fake_prediction(g0, 0.95, true));  // good AR: skip
  buffer.observe(g0, fake_prediction(g0, 0.5, false));  // unverified
  EXPECT_EQ(buffer.size(), 0u);

  buffer.observe(g0, fake_prediction(g0, 0.5, true));  // mined
  buffer.observe(g0, fake_prediction(g0, 0.4, true));  // dup: deduped
  EXPECT_EQ(buffer.size(), 1u);

  for (int i = 1; i < 5; ++i) {
    const Graph& g = graphs[static_cast<std::size_t>(i)];
    buffer.observe(g, fake_prediction(g, 0.5, true));
  }
  EXPECT_EQ(buffer.size(), 3u) << "ring must stay bounded";

  const auto counters = buffer.counters();
  EXPECT_EQ(counters.observed, 8u);
  EXPECT_EQ(counters.mined_low_ar, 5u);
  EXPECT_EQ(counters.deduped, 1u);
  EXPECT_EQ(counters.dropped, 2u);

  const auto drained = buffer.drain();
  EXPECT_EQ(drained.size(), 3u);
  EXPECT_EQ(buffer.size(), 0u);
  for (const mine::MinedSample& s : drained) {
    EXPECT_TRUE(s.ar_verified);
    EXPECT_LT(s.approximation_ratio, 0.9);
  }
}

TEST(MiningBuffer, NoveltyMinesFirstSightingOnly) {
  mine::MiningConfig config;
  config.mine_novel = true;
  mine::MiningBuffer buffer(config);
  FakePredictions fake_prediction;

  Rng rng(6);
  const Graph a = random_regular_graph(6, 3, rng);
  const Graph b = random_regular_graph(8, 3, rng);

  buffer.observe(a, fake_prediction(a, 0.99, true));  // novel: mined
  buffer.observe(b, fake_prediction(b, 0.99, true));  // novel: mined
  EXPECT_EQ(buffer.size(), 2u);

  const auto drained = buffer.drain();
  EXPECT_EQ(drained.size(), 2u);
  buffer.observe(a, fake_prediction(a, 0.2, true));  // seen before: not novel
  EXPECT_EQ(buffer.size(), 0u);
  EXPECT_EQ(buffer.counters().mined_novel, 2u);
}

TEST(MiningBuffer, CarriedKeyKeepsNoveltyAndDedupByCanonicalHash) {
  // The buffer judges novelty and dedup by the key the serving path
  // carried instead of hashing. With the cache off every request is a
  // miss, so every request is a novelty candidate and its key is minted
  // for the tap alone; verify_ar plus a threshold of 1 makes every request
  // a low-AR candidate too. Relabelled copies must then behave exactly as
  // canonical_hash dictates: not novel, and deduped while pending.
  serve::ServeConfig serve_config;
  serve_config.cache_capacity = 0;
  serve_config.verify_ar = true;
  serve::ServeHandle handle(serve_config);
  handle.register_model("default", make_model(3));

  mine::MiningConfig novelty_config;
  novelty_config.mine_novel = true;
  mine::MiningBuffer novelty(novelty_config);
  mine::MiningConfig low_ar_config;
  low_ar_config.ar_threshold = 1.0;
  mine::MiningBuffer low_ar(low_ar_config);
  handle.set_prediction_tap(
      [&](const Graph& g, const serve::Prediction& p) {
        novelty.observe(g, p);
        low_ar.observe(g, p);
      });

  const std::vector<Graph> graphs = distinct_structure_graphs(8, 4);
  Rng rng(10);
  for (const Graph& g : graphs) handle.predict(g);
  for (const Graph& g : graphs) {
    std::vector<int> perm(static_cast<std::size_t>(g.num_nodes()));
    for (std::size_t i = 0; i < perm.size(); ++i) {
      perm[i] = static_cast<int>(i);
    }
    rng.shuffle(perm);
    handle.predict(g.permuted(perm));
  }

  EXPECT_EQ(novelty.counters().mined_novel, graphs.size());
  EXPECT_EQ(novelty.counters().deduped, 0u);
  EXPECT_EQ(low_ar.counters().mined_low_ar, graphs.size());
  EXPECT_EQ(low_ar.counters().deduped, graphs.size());
  for (mine::MiningBuffer* buffer : {&novelty, &low_ar}) {
    const std::vector<mine::MinedSample> drained = buffer->drain();
    ASSERT_EQ(drained.size(), graphs.size());
    for (std::size_t i = 0; i < drained.size(); ++i) {
      EXPECT_EQ(drained[i].canonical, canonical_hash(graphs[i]));
    }
  }
}

// ---- relabel job --------------------------------------------------------

std::vector<DatasetEntry> provisional_entries(int count, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<mine::MinedSample> mined;
  for (int i = 0; i < count; ++i) {
    mine::MinedSample s;
    s.graph = random_regular_graph(rng.uniform_int(3, 4) * 2, 3, rng);
    s.predicted = Matrix(1, 2);
    s.predicted(0, 0) = 0.1 * i;
    s.predicted(0, 1) = 0.05 * i;
    s.approximation_ratio = 0.5;
    mined.push_back(s);
  }
  return mine::to_provisional_entries(mined);
}

TEST(Relabel, WorkerCountInvariantAndShardResumable) {
  const std::vector<DatasetEntry> base = provisional_entries(6, 21);

  mine::RelabelConfig config;
  config.optimizer_evaluations = 30;
  config.seed = 9;

  std::vector<DatasetEntry> solo = base;
  config.workers = 1;
  mine::relabel_entries(config, solo);
  std::vector<DatasetEntry> pooled = base;
  config.workers = 4;
  mine::relabel_entries(config, pooled);
  EXPECT_EQ(pack_dataset(solo), pack_dataset(pooled))
      << "labels must not depend on the worker count";
  for (const DatasetEntry& e : solo) {
    EXPECT_GT(e.approximation_ratio, 0.0);
    EXPECT_GT(e.optimum, 0.0);
  }

  // Shard-level resume: once the labelled output exists, a re-run reuses
  // it even if the raw shard disappears.
  const fs::path dir = temp_path("relabel_shard");
  fs::remove_all(dir);
  const std::string shard = mine::spill_shard(dir.string(), 0, base);
  const std::vector<DatasetEntry> first =
      mine::relabel_shard(config, shard);
  EXPECT_EQ(pack_dataset(first), pack_dataset(pooled));
  ASSERT_TRUE(fs::exists(mine::labelled_shard_path(shard)));

  fs::remove(shard);
  const std::vector<DatasetEntry> resumed =
      mine::relabel_shard(config, shard);
  EXPECT_EQ(pack_dataset(resumed), pack_dataset(first));
  fs::remove_all(dir);
}

// ---- eval gate ----------------------------------------------------------

TEST(Gate, SelfComparisonNeverPromotes) {
  const GnnModel model = make_model(11);
  std::vector<DatasetEntry> panel = provisional_entries(3, 31);
  mine::GateConfig config;
  const mine::GateVerdict verdict =
      mine::evaluate_gate(model, model, panel, config);
  EXPECT_EQ(verdict.candidate_mean_ar, verdict.incumbent_mean_ar);
  EXPECT_FALSE(verdict.promote)
      << "a tie must keep the incumbent (strict improvement required)";
}

TEST(Gate, MarginGatesNearTies) {
  const GnnModel a = make_model(11);
  const GnnModel b = make_model(12);
  std::vector<DatasetEntry> panel = provisional_entries(4, 32);

  mine::GateConfig strict;
  strict.min_improvement = 2.0;  // no candidate clears a 2.0 AR margin
  EXPECT_FALSE(mine::evaluate_gate(a, b, panel, strict).promote);

  const double a_score = mine::panel_mean_ar(a, panel);
  const double b_score = mine::panel_mean_ar(b, panel);
  mine::GateConfig open;
  const mine::GateVerdict verdict = mine::evaluate_gate(a, b, panel, open);
  EXPECT_EQ(verdict.candidate_mean_ar, a_score);
  EXPECT_EQ(verdict.incumbent_mean_ar, b_score);
  EXPECT_EQ(verdict.promote, a_score > b_score);
}

// ---- CLI hook -----------------------------------------------------------

TEST(ServeHook, MinerBuiltFromFlagsOnlyWhenRequested) {
  serve::ServeHandle handle;
  {
    const char* argv[] = {"prog"};
    EXPECT_EQ(mine::make_miner_from_cli(handle, CliArgs(1, argv)), nullptr);
  }
  const fs::path dir = temp_path("hook_dir");
  const std::string dir_flag = "--mine-dir=" + dir.string();
  const char* argv[] = {"prog",           "--mine",
                        "--mine-ar-threshold", "0.8",
                        dir_flag.c_str(), "--mine-min-spill", "5",
                        "--mine-capacity", "64"};
  handle.register_model("default", make_model(2));
  const auto miner = mine::make_miner_from_cli(
      handle, CliArgs(static_cast<int>(std::size(argv)), argv));
  ASSERT_NE(miner, nullptr);
  EXPECT_EQ(miner->config().buffer.ar_threshold, 0.8);
  EXPECT_EQ(miner->config().buffer.capacity, 64u);
  EXPECT_EQ(miner->config().min_spill, 5u);
  EXPECT_EQ(miner->config().dir, dir.string());
  miner->stop();
  fs::remove_all(dir);
}

// ---- satellite: mine.* stats surface in the NDJSON stats body -----------

TEST(Stats, MineCountersExposedThroughStatsCommand) {
  serve::ServeHandle handle;
  handle.register_model("default", make_model(2));
  const std::string line =
      serve::process_request_line(handle, "{\"cmd\":\"stats\",\"id\":7}");
  EXPECT_NE(line.find("\"mine\""), std::string::npos);
  EXPECT_NE(line.find("\"observed\""), std::string::npos);
  EXPECT_NE(line.find("\"gate_promoted\""), std::string::npos);
  EXPECT_NE(line.find("\"buffer_depth\""), std::string::npos);
  EXPECT_NE(line.find("\"relabel_us\""), std::string::npos);
}

// ---- tentpole: the end-to-end closed loop -------------------------------

TEST(MiningLoop, EndToEndPromotesGateChecksAndRollsBack) {
  const fs::path dir = temp_path("e2e");
  fs::remove_all(dir);

  serve::ServeConfig serve_config;
  serve_config.verify_ar = true;
  serve_config.cache_capacity = 64;
  serve::ServeHandle handle(serve_config);
  handle.register_model("default", make_model(42));  // untrained incumbent

  mine::MinerConfig miner_config;
  miner_config.dir = dir.string();
  miner_config.buffer.ar_threshold = 0.999;  // an untrained model is hard
  miner_config.min_spill = 10;
  miner_config.relabel.optimizer_evaluations = 60;
  miner_config.relabel.workers = 2;
  miner_config.relabel.symmetrize_labels = true;
  miner_config.fine_tune.epochs = 120;
  miner_config.fine_tune.learning_rate = 1e-2;
  miner_config.fine_tune.batch_size = 4;
  miner_config.fine_tune.loss = LossKind::kPeriodic;
  miner_config.fine_tune.validation_fraction = 0.0;
  miner_config.panel_fraction = 0.25;
  miner_config.seed = 2024;
  mine::Miner miner(handle, miner_config);
  miner.attach();

  // Live traffic: 16 pairwise non-isomorphic 3-regular graphs, so the
  // buffer collects a full spill's worth of unique canonical classes.
  const std::vector<Graph> graphs = distinct_structure_graphs(17, 16);
  for (const Graph& g : graphs) handle.predict(g);
  EXPECT_GE(miner.buffer().size(), miner_config.min_spill);

  const auto incumbent = handle.registry().get("default");
  EXPECT_EQ(incumbent->generation, 1u);
  // Reference predictions at generation 1 for the in-flight bit-identity
  // check below.
  std::vector<Matrix> old_values;
  for (const Graph& g : graphs) {
    old_values.push_back(incumbent->model->predict(g));
  }

  // Concurrent traffic while the cycle fine-tunes and hot-swaps: every
  // request must be answered (zero drops), from a coherent generation.
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> answered{0};
  std::atomic<std::uint64_t> failed{0};
  std::vector<serve::Prediction> inflight;
  std::mutex inflight_mutex;
  std::vector<std::thread> clients;
  for (int c = 0; c < 3; ++c) {
    clients.emplace_back([&] {
      std::size_t i = 0;
      while (!stop.load()) {
        try {
          serve::Prediction p = handle.predict(graphs[i % graphs.size()]);
          ++answered;
          std::lock_guard<std::mutex> lk(inflight_mutex);
          inflight.push_back(std::move(p));
        } catch (const std::exception&) {
          ++failed;
        }
        ++i;
      }
    });
  }

  const mine::CycleReport report = miner.run_cycle();
  stop.store(true);
  for (std::thread& t : clients) t.join();

  ASSERT_TRUE(report.ran);
  EXPECT_GE(report.mined, miner_config.min_spill);
  EXPECT_EQ(report.relabeled, report.mined);
  EXPECT_TRUE(fs::exists(report.shard_path));
  EXPECT_TRUE(fs::exists(mine::labelled_shard_path(report.shard_path)));

  // The acceptance claim: fine-tuning on full-budget labels beats the
  // untrained incumbent on the held-out panel, so the gate promotes and
  // the registry serves a new generation.
  EXPECT_GT(report.verdict.candidate_mean_ar,
            report.verdict.incumbent_mean_ar);
  ASSERT_TRUE(report.promoted);
  EXPECT_EQ(report.generation_before, 1u);
  EXPECT_EQ(report.generation_after, 2u);
  EXPECT_EQ(handle.registry().get("default")->generation, 2u);

  // Zero dropped in-flight requests across the hot-swap.
  EXPECT_EQ(failed.load(), 0u);
  EXPECT_GT(answered.load(), 0u);

  // Every concurrent answer is bit-identical to its generation's model:
  // unaffected graphs keep their exact old values until the swap, and the
  // new generation's values afterwards — never a blend.
  const auto promoted = handle.registry().get("default");
  std::vector<Matrix> new_values;
  for (const Graph& g : graphs) {
    new_values.push_back(promoted->model->predict(g));
  }
  std::map<std::uint64_t, std::uint64_t> by_generation;
  for (const serve::Prediction& p : inflight) {
    ASSERT_TRUE(p.generation == 1 || p.generation == 2);
    ++by_generation[p.generation];
    // Identify the graph by matching the request loop's order.
  }
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    const serve::Prediction before = [&] {
      // predict() after the swap must serve generation 2 bit-identically.
      return handle.predict(graphs[i]);
    }();
    EXPECT_EQ(before.generation, 2u);
    expect_bit_identical(before.values, new_values[i]);
  }
  // And generation-1 answers matched the old model exactly: spot-check by
  // re-deriving from the snapshot entry held across the swap.
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    expect_bit_identical(incumbent->model->predict(graphs[i]),
                         old_values[i]);
  }

  // Rollback: a destructive fine-tune must be rejected by the gate and
  // leave the promoted incumbent serving.
  mine::MinerConfig bad = miner_config;
  bad.fine_tune.epochs = 1;
  bad.fine_tune.learning_rate = 50.0;  // scrambles the weights
  bad.seed = 2025;
  mine::Miner saboteur(handle, bad);
  saboteur.attach();
  // Same structures, now served (and verified) by generation 2: still
  // below the threshold, so they are mined again for the next cycle.
  for (const Graph& g : graphs) handle.predict(g);
  ASSERT_GE(saboteur.buffer().size(), bad.min_spill);
  const auto entry_before = handle.registry().get("default");
  const mine::CycleReport bad_report = saboteur.run_cycle();
  ASSERT_TRUE(bad_report.ran);
  EXPECT_FALSE(bad_report.promoted);
  EXPECT_FALSE(bad_report.verdict.promote);
  EXPECT_EQ(bad_report.generation_after, bad_report.generation_before);
  const auto entry_after = handle.registry().get("default");
  EXPECT_EQ(entry_before.get(), entry_after.get())
      << "a rejected candidate must leave the incumbent entry untouched";

  fs::remove_all(dir);
}

// Background loop: cycles run without an explicit run_cycle() call.
TEST(MiningLoop, BackgroundThreadRunsCyclesWhenBufferFills) {
  const fs::path dir = temp_path("bg");
  fs::remove_all(dir);

  serve::ServeConfig serve_config;
  serve_config.verify_ar = true;
  serve::ServeHandle handle(serve_config);
  handle.register_model("default", make_model(42));

  mine::MinerConfig config;
  config.dir = dir.string();
  config.buffer.ar_threshold = 0.999;
  config.min_spill = 4;
  config.relabel.optimizer_evaluations = 20;
  config.fine_tune.epochs = 3;
  config.fine_tune.validation_fraction = 0.0;
  config.poll_interval = std::chrono::milliseconds(20);
  mine::Miner miner(handle, config);
  miner.attach();
  miner.start();

  const std::vector<Graph> graphs = distinct_structure_graphs(19, 6);
  for (const Graph& g : graphs) handle.predict(g);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (miner.cycles_run() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  miner.stop();
  EXPECT_GE(miner.cycles_run(), 1u) << miner.last_error();
  EXPECT_EQ(miner.last_error(), "");
  fs::remove_all(dir);
}

}  // namespace
}  // namespace qgnn
