#include <gtest/gtest.h>

#include "dataset/pruning.hpp"
#include "graph/generators.hpp"
#include "qaoa/fixed_angles.hpp"
#include "util/error.hpp"

namespace qgnn {
namespace {

/// Fabricate entries with prescribed approximation ratios.
std::vector<DatasetEntry> fake_entries(const std::vector<double>& ars) {
  std::vector<DatasetEntry> entries;
  Rng rng(1);
  for (double ar : ars) {
    DatasetEntry e;
    e.graph = cycle_graph(4);
    e.degree = 2;
    e.optimum = 4.0;
    e.approximation_ratio = ar;
    e.expectation = ar * 4.0;
    e.label = QaoaParams::single(0.5, 0.25);
    entries.push_back(std::move(e));
  }
  return entries;
}

TEST(Sdp, SelectiveRateOneKeepsEverything) {
  SdpConfig config;
  config.ar_threshold = 0.7;
  config.selective_rate = 1.0;
  SdpReport report;
  const auto kept = selective_data_pruning(
      fake_entries({0.2, 0.5, 0.8, 0.95}), config, &report);
  EXPECT_EQ(kept.size(), 4u);
  EXPECT_EQ(report.below_threshold, 2u);
  EXPECT_EQ(report.pruned, 0u);
}

TEST(Sdp, SelectiveRateZeroIsHardThreshold) {
  SdpConfig config;
  config.ar_threshold = 0.7;
  config.selective_rate = 0.0;
  SdpReport report;
  const auto kept = selective_data_pruning(
      fake_entries({0.2, 0.5, 0.8, 0.95}), config, &report);
  ASSERT_EQ(kept.size(), 2u);
  for (const auto& e : kept) EXPECT_GE(e.approximation_ratio, 0.7);
  EXPECT_EQ(report.pruned, 2u);
}

TEST(Sdp, IntermediateRateKeepsRoughlyThatFraction) {
  SdpConfig config;
  config.ar_threshold = 0.9;
  config.selective_rate = 0.7;
  config.seed = 3;
  // 200 low-quality entries: about 70% should survive.
  std::vector<double> ars(200, 0.5);
  SdpReport report;
  const auto kept = selective_data_pruning(fake_entries(ars), config,
                                           &report);
  EXPECT_EQ(report.below_threshold, 200u);
  EXPECT_NEAR(static_cast<double>(kept.size()), 140.0, 20.0);
}

TEST(Sdp, ImprovesMeanAr) {
  SdpConfig config;
  config.ar_threshold = 0.7;
  config.selective_rate = 0.3;
  SdpReport report;
  selective_data_pruning(fake_entries({0.3, 0.4, 0.5, 0.9, 0.95, 1.0}),
                         config, &report);
  EXPECT_GT(report.mean_ar_after, report.mean_ar_before);
  EXPECT_EQ(report.input_count, 6u);
  EXPECT_EQ(report.kept + report.pruned, 6u);
}

TEST(Sdp, HighQualityDataUntouched) {
  SdpConfig config;
  config.ar_threshold = 0.7;
  config.selective_rate = 0.0;
  const auto kept =
      selective_data_pruning(fake_entries({0.9, 0.8, 0.99}), config);
  EXPECT_EQ(kept.size(), 3u);
}

TEST(Sdp, ValidatesConfig) {
  SdpConfig config;
  config.ar_threshold = 1.5;
  EXPECT_THROW(selective_data_pruning(fake_entries({0.5}), config),
               InvalidArgument);
  config = SdpConfig{};
  config.selective_rate = -0.1;
  EXPECT_THROW(selective_data_pruning(fake_entries({0.5}), config),
               InvalidArgument);
}

TEST(Sdp, DeterministicForSeed) {
  SdpConfig config;
  config.ar_threshold = 0.9;
  config.selective_rate = 0.5;
  config.seed = 11;
  std::vector<double> ars;
  for (int i = 0; i < 50; ++i) ars.push_back(0.5);
  const auto a = selective_data_pruning(fake_entries(ars), config);
  const auto b = selective_data_pruning(fake_entries(ars), config);
  EXPECT_EQ(a.size(), b.size());
}

TEST(FixedAngleAudit, UpgradesPoorLabels) {
  // An entry with a deliberately bad label on a 2-regular graph: fixed
  // angles (exact optimum on even cycles) must replace it.
  std::vector<DatasetEntry> entries = fake_entries({0.5});
  entries[0].label = QaoaParams::single(0.01, 0.01);  // ~random quality
  QaoaAnsatz ansatz(entries[0].graph);
  entries[0].expectation = ansatz.expectation(entries[0].label);
  entries[0].approximation_ratio = entries[0].expectation / 4.0;

  const auto report = fixed_angle_label_audit(entries, 1);
  EXPECT_EQ(report.covered, 1u);
  EXPECT_EQ(report.improved, 1u);
  EXPECT_GT(report.mean_ar_delta, 0.0);
  EXPECT_NEAR(entries[0].approximation_ratio, 0.75, 1e-9);
}

TEST(FixedAngleAudit, KeepsBetterLabels) {
  // A label already at the optimum must not be replaced downward.
  std::vector<DatasetEntry> entries = fake_entries({1.0});
  // C4's best p=1 AR is 0.75; claim the label achieves it exactly.
  QaoaAnsatz ansatz(entries[0].graph);
  const auto fixed = fixed_angles(2, 1);
  entries[0].label = *fixed;
  entries[0].expectation = ansatz.expectation(*fixed);
  entries[0].approximation_ratio = entries[0].expectation / 4.0;
  const double before = entries[0].approximation_ratio;

  const auto report = fixed_angle_label_audit(entries, 1);
  EXPECT_EQ(report.improved, 0u);
  EXPECT_DOUBLE_EQ(entries[0].approximation_ratio, before);
}

TEST(FixedAngleAudit, SkipsIrregularGraphs) {
  DatasetEntry e;
  e.graph = star_graph(4);
  e.degree = 3;
  e.optimum = 3.0;
  e.approximation_ratio = 0.5;
  e.label = QaoaParams::single(0.1, 0.1);
  std::vector<DatasetEntry> entries{e};
  const auto report = fixed_angle_label_audit(entries, 1);
  EXPECT_EQ(report.covered, 0u);
}

TEST(FixedAngleAudit, NeverDecreasesAnyAr) {
  Rng rng(4);
  std::vector<DatasetEntry> entries;
  for (int d : {2, 3, 4}) {
    DatasetEntry e;
    e.graph = random_regular_graph(8, d, rng);
    e.degree = d;
    QaoaAnsatz ansatz(e.graph);
    e.optimum = ansatz.engine().max_value();
    e.label = QaoaParams::single(rng.uniform(0, 6.28), rng.uniform(0, 3.14));
    e.expectation = ansatz.expectation(e.label);
    e.approximation_ratio = e.expectation / e.optimum;
    entries.push_back(std::move(e));
  }
  std::vector<double> before;
  for (const auto& e : entries) before.push_back(e.approximation_ratio);
  fixed_angle_label_audit(entries, 1);
  for (std::size_t i = 0; i < entries.size(); ++i) {
    EXPECT_GE(entries[i].approximation_ratio, before[i]);
  }
}

}  // namespace
}  // namespace qgnn
