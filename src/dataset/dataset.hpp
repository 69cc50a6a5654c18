#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "qaoa/qaoa.hpp"

namespace qgnn {

/// One labelled instance of the paper's synthetic dataset: a random
/// regular graph plus the (gamma, beta) found by optimizing QAOA from a
/// random start, with quality metadata.
struct DatasetEntry {
  Graph graph;
  QaoaParams label{{0.0}, {0.0}};
  double expectation = 0.0;   // <C> at the label parameters
  double optimum = 0.0;       // exact Max-Cut value (brute force)
  double approximation_ratio = 0.0;
  int degree = 0;             // regular degree of the instance
};

/// Generation parameters following §3.1: graphs with 2..15 nodes and
/// degrees 2..14, labelled by a 500-evaluation optimization from random
/// initial parameters. The default instance count is scaled down for
/// single-core runs; pass 9598 to regenerate at paper scale.
struct DatasetGenConfig {
  int num_instances = 600;
  int min_nodes = 2;
  int max_nodes = 15;
  int min_degree = 1;   // degree 1 only occurs when n = 2 allows nothing else
  int max_degree = 14;
  int depth = 1;
  int optimizer_evaluations = 500;
  QaoaOptimizer optimizer = QaoaOptimizer::kNelderMead;
  /// Fold labels through the time-reversal symmetry (see
  /// canonicalize_params_symmetric). Off by default to match the paper's
  /// raw-label setup; bench/ext_label_symmetry measures the effect.
  bool symmetrize_labels = false;
  std::uint64_t seed = 42;
};

/// Progress hook: (instances_done, instances_total).
using ProgressFn = std::function<void(int, int)>;

/// Generate the labelled dataset: draw the generate_graphs sequence, then
/// label every graph with label_dataset_entry (dataset/factory.hpp) on the
/// global thread pool. Deterministic for a fixed config and bit-identical
/// at any thread count. Defined in factory.cpp, whose run_dataset_factory
/// shares the same labelling loop.
std::vector<DatasetEntry> generate_dataset(const DatasetGenConfig& config,
                                           const ProgressFn& progress = {});

/// Sample only the graphs (no QAOA labelling) with the same distribution
/// the labelled generator uses. Cheap path for distribution plots
/// (Figure 2) and for inference-only workloads. Deterministic for a fixed
/// config; the graph sequence matches generate_dataset's.
std::vector<Graph> generate_graphs(const DatasetGenConfig& config);

/// Wrap gamma into [0, 2*pi) and beta into [0, pi), the canonical QAOA
/// parameter domain for integer-weight graphs (angles outside it are
/// gauge-equivalent).
QaoaParams canonicalize_params(const QaoaParams& params);

/// Stronger canonicalization (extension): additionally fold through the
/// time-reversal symmetry <C>(gamma, beta) = <C>(2*pi - gamma, pi - beta)
/// (complex conjugation of the state; holds for any real cost diagonal),
/// mapping the leading gamma into [0, pi]. Halves the label space the GNN
/// must learn, removing one source of the multimodal-target problem.
QaoaParams canonicalize_params_symmetric(const QaoaParams& params);

/// Split off `test_count` entries (random, seeded) for evaluation; the
/// paper holds out 100 test graphs. Returns {train, test}.
std::pair<std::vector<DatasetEntry>, std::vector<DatasetEntry>>
train_test_split(std::vector<DatasetEntry> entries, int test_count,
                 std::uint64_t seed);

}  // namespace qgnn
