#include <gtest/gtest.h>

#include "core/knn_initializer.hpp"
#include "graph/generators.hpp"
#include "util/error.hpp"

namespace qgnn {
namespace {

DatasetEntry make_entry(Graph g, double gamma, double beta) {
  DatasetEntry e;
  e.degree = g.num_nodes() > 0 ? g.max_degree() : 0;
  e.graph = std::move(g);
  e.label = QaoaParams::single(gamma, beta);
  e.optimum = 1.0;
  e.approximation_ratio = 1.0;
  return e;
}

TEST(KnnInitializer, ExactMatchReturnsItsLabel) {
  std::vector<DatasetEntry> train;
  train.push_back(make_entry(cycle_graph(6), 0.11, 0.21));
  train.push_back(make_entry(complete_graph(6), 0.12, 0.22));
  train.push_back(make_entry(star_graph(6), 0.13, 0.23));
  NearestNeighborInitializer init(train);

  // The same graphs map back to themselves (distance 0).
  EXPECT_DOUBLE_EQ(init.initialize(cycle_graph(6), 1).gammas[0], 0.11);
  EXPECT_DOUBLE_EQ(init.initialize(complete_graph(6), 1).gammas[0], 0.12);
  EXPECT_DOUBLE_EQ(init.initialize(star_graph(6), 1).gammas[0], 0.13);
}

TEST(KnnInitializer, PicksStructurallyClosestEntry) {
  std::vector<DatasetEntry> train;
  train.push_back(make_entry(cycle_graph(8), 0.5, 0.1));       // sparse
  train.push_back(make_entry(complete_graph(8), 2.5, 0.9));    // dense
  NearestNeighborInitializer init(train);

  // A 3-regular graph (mean degree 3) is closer to the cycle (degree 2)
  // than to K8 (degree 7).
  Rng rng(4);
  const Graph g = random_regular_graph(8, 3, rng);
  EXPECT_EQ(init.nearest_index(g), 0u);
  // A 6-regular graph is closer to K8.
  const Graph h = random_regular_graph(8, 6, rng);
  EXPECT_EQ(init.nearest_index(h), 1u);
}

TEST(KnnInitializer, DescriptorComponents) {
  const auto d = NearestNeighborInitializer::descriptor(complete_graph(6));
  ASSERT_EQ(d.size(), 4u);
  EXPECT_DOUBLE_EQ(d[0], 6.0 / 15.0);     // size
  EXPECT_DOUBLE_EQ(d[1], 5.0 / 15.0);     // mean degree
  EXPECT_DOUBLE_EQ(d[2], 1.0);            // density
  EXPECT_DOUBLE_EQ(d[3], 1.0);            // clustering
}

TEST(KnnInitializer, ValidatesInputs) {
  EXPECT_THROW(NearestNeighborInitializer init({}), InvalidArgument);
  std::vector<DatasetEntry> train;
  train.push_back(make_entry(cycle_graph(4), 0.1, 0.2));
  NearestNeighborInitializer init(train);
  // Training labels are depth 1; requesting depth 2 must throw.
  EXPECT_THROW(init.initialize(cycle_graph(4), 2), InvalidArgument);
  EXPECT_EQ(init.name(), "knn-transfer");
}

TEST(KnnInitializer, TransfersWellWithinDegreeClass) {
  // Labels from fixed angles on 3-regular graphs should transfer to a new
  // 3-regular graph nearly losslessly.
  Rng rng(6);
  std::vector<DatasetEntry> train;
  for (int i = 0; i < 5; ++i) {
    Graph g = random_regular_graph(10, 3, rng);
    QaoaAnsatz ansatz(g);
    const QaoaParams angles = QaoaParams::single(0.6155, 0.3927);
    DatasetEntry e;
    e.graph = std::move(g);
    e.degree = 3;
    e.label = angles;
    e.optimum = ansatz.engine().max_value();
    e.expectation = ansatz.expectation(angles);
    e.approximation_ratio = e.expectation / e.optimum;
    train.push_back(std::move(e));
  }
  NearestNeighborInitializer init(train);
  const Graph target = random_regular_graph(10, 3, rng);
  const QaoaAnsatz ansatz(target);
  const double ar = ansatz.approximation_ratio(init.initialize(target, 1));
  EXPECT_GT(ar, 0.7);
}

}  // namespace
}  // namespace qgnn
