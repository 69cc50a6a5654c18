#include "dataset/dataset.hpp"

#include <cmath>
#include <utility>

#include "graph/generators.hpp"
#include "util/error.hpp"

namespace qgnn {

namespace {
constexpr double kPi = 3.14159265358979323846;
constexpr double kTwoPi = 2.0 * kPi;

double wrap(double x, double period) {
  const double w = std::fmod(x, period);
  return w < 0.0 ? w + period : w;
}

/// Degrees d for which a d-regular simple graph on n nodes exists, within
/// the configured bounds.
std::vector<int> valid_degrees(int n, const DatasetGenConfig& c) {
  std::vector<int> ds;
  for (int d = c.min_degree; d <= std::min(c.max_degree, n - 1); ++d) {
    if (regular_graph_exists(n, d)) ds.push_back(d);
  }
  return ds;
}

/// One draw from the instance distribution: size, then a valid degree,
/// then a random regular graph. Returns degree -1 when no valid degree
/// exists for the drawn size (caller redraws).
std::pair<Graph, int> sample_instance(const DatasetGenConfig& config,
                                      Rng& graph_rng) {
  const int n = graph_rng.uniform_int(config.min_nodes, config.max_nodes);
  const auto ds = valid_degrees(n, config);
  if (ds.empty()) return {Graph(0), -1};
  const int d = ds[graph_rng.index(ds.size())];
  return {random_regular_graph(n, d, graph_rng), d};
}

}  // namespace

QaoaParams canonicalize_params(const QaoaParams& params) {
  QaoaParams out = params;
  for (double& g : out.gammas) g = wrap(g, kTwoPi);
  for (double& b : out.betas) b = wrap(b, kPi);
  return out;
}

QaoaParams canonicalize_params_symmetric(const QaoaParams& params) {
  QaoaParams out = canonicalize_params(params);
  // Time reversal negates every angle simultaneously; use it when it
  // brings the first gamma into [0, pi].
  if (out.gammas[0] > kPi) {
    for (double& g : out.gammas) g = wrap(-g, kTwoPi);
    for (double& b : out.betas) b = wrap(-b, kPi);
  }
  return out;
}

std::vector<Graph> generate_graphs(const DatasetGenConfig& config) {
  QGNN_REQUIRE(config.num_instances >= 1, "need at least one instance");
  QGNN_REQUIRE(config.min_nodes >= 2, "graphs need at least two nodes");
  QGNN_REQUIRE(config.min_nodes <= config.max_nodes, "node range inverted");

  Rng master(config.seed);
  Rng graph_rng = master.child();
  std::vector<Graph> graphs;
  graphs.reserve(static_cast<std::size_t>(config.num_instances));
  while (static_cast<int>(graphs.size()) < config.num_instances) {
    auto [g, d] = sample_instance(config, graph_rng);
    if (d < 0 || g.num_edges() == 0) continue;
    graphs.push_back(std::move(g));
  }
  return graphs;
}

std::pair<std::vector<DatasetEntry>, std::vector<DatasetEntry>>
train_test_split(std::vector<DatasetEntry> entries, int test_count,
                 std::uint64_t seed) {
  QGNN_REQUIRE(test_count >= 0, "negative test count");
  QGNN_REQUIRE(static_cast<std::size_t>(test_count) < entries.size(),
               "test split larger than dataset");
  Rng rng(seed);
  rng.shuffle(entries);
  std::vector<DatasetEntry> test(
      entries.end() - test_count, entries.end());
  entries.resize(entries.size() - static_cast<std::size_t>(test_count));
  return {std::move(entries), std::move(test)};
}

}  // namespace qgnn
