// Self-test of the output checks: each check is handed a deliberately
// wrong output and must report it. Run with `perfbench/run.py --selftest`.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <iostream>

#include "bench.hpp"
#include "dataset/factory.hpp"
#include "serve/protocol.hpp"

namespace perfbench {

namespace {

int missed = 0;

/// `ok`: the check caught its fault, or passed an unaltered output.
void report(const std::string& name, bool ok) {
  std::cout << "# selftest: " << name << ": " << (ok ? "ok" : "FAILED")
            << "\n";
  if (!ok) ++missed;
}

double flip_low_bit(double x) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &x, sizeof bits);
  bits ^= 1;
  std::memcpy(&x, &bits, sizeof bits);
  return x;
}

void label_cases(std::uint64_t seed) {
  qgnn::DatasetGenConfig c;
  c.num_instances = 12;
  c.min_nodes = 8;
  c.max_nodes = 12;
  c.min_degree = 2;
  c.optimizer_evaluations = 150;
  c.seed = seed;
  const std::vector<qgnn::DatasetEntry> labels =
      qgnn::generate_dataset_batched(c);

  RunResult clean;
  for (std::size_t i = 0; i < labels.size(); ++i) {
    check_label(labels[i], "label " + std::to_string(i), clean);
  }
  check_label_replay(c, labels, "label", clean);
  report("unaltered labels pass", clean.correct);

  // Move one label angle by 1e-6 at a time; every move must be caught.
  int caught = 0;
  int closed_form_caught = 0;
  double worst_agreement = 0.0;
  double smallest_shift = 1e300;
  for (std::size_t i = 0; i < labels.size(); ++i) {
    const auto& l = labels[i];
    worst_agreement = std::max(
        worst_agreement,
        std::abs(closed_form_p1(l.graph, l.label.gammas[0], l.label.betas[0]) -
                 l.expectation));
    for (int which = 0; which < 2; ++which) {
      qgnn::DatasetEntry e = labels[i];
      (which == 0 ? e.label.gammas[0] : e.label.betas[0]) += 1e-6;
      smallest_shift = std::min(
          smallest_shift,
          std::abs(closed_form_p1(e.graph, e.label.gammas[0],
                                  e.label.betas[0]) - e.expectation));
      RunResult closed_only;
      check_label(e, "label", closed_only);
      closed_form_caught += closed_only.correct ? 0 : 1;
      std::vector<qgnn::DatasetEntry> moved = labels;
      moved[i] = e;
      RunResult r;
      check_label(e, "label", r);
      check_label_replay(c, moved, "label", r);
      caught += r.correct ? 0 : 1;
    }
  }
  std::cout << "# selftest: unaltered labels agree with the closed form to "
            << worst_agreement << "; a 1e-6 move shifts <C> by at least "
            << smallest_shift << "; the closed-form check alone caught "
            << closed_form_caught << " of the moves\n";
  const int cases = static_cast<int>(2 * labels.size());
  report("label angle moved by 1e-6 (" + std::to_string(caught) + "/" +
             std::to_string(cases) + " moves)",
         caught == cases);

  qgnn::DatasetEntry e = labels.front();
  e.optimum += 1.0;
  RunResult r;
  check_label(e, "label", r);
  report("label optimum off by one", !r.correct);
}

void serving_cases(const Options& opts) {
  ServingGraphs draw(opts.seed);
  std::vector<qgnn::Graph> graphs;
  for (int k = 0; k < 4; ++k) graphs.push_back(draw.next());
  const qgnn::GnnModel model = qgnn::GnnModel::load(opts.model_path);
  // Responses as the server writes them, through its own formatter.
  auto response = [](std::uint64_t id, qgnn::Matrix values, bool cached) {
    qgnn::serve::Prediction p;
    p.values = std::move(values);
    p.model = "default";
    p.cache_hit = cached;
    return qgnn::serve::format_response(
        qgnn::serve::json_number(static_cast<double>(id)), p);
  };
  auto verdict = [&](bool answered, const std::string& line, bool want_hit,
                     const qgnn::Matrix& expected, bool& correct) {
    RunResult r;
    const Verdict v = check_response(
        answered, line, 7, want_hit,
        std::span<const double>(expected.data(), expected.cols()),
        "selftest", r);
    correct = r.correct;
    return v;
  };

  bool correct = false;
  bool clean = true;
  for (const auto& g : graphs) {
    const qgnn::Matrix want = model.predict(g);
    for (const bool hit : {false, true}) {
      clean = clean && verdict(true, response(7, want, hit), hit, want,
                               correct) == Verdict::kOk &&
              correct;
    }
  }
  report("unaltered responses pass", clean);

  const qgnn::Matrix want = model.predict(graphs.front());
  qgnn::Matrix flipped = want;
  flipped(0, 1) = flip_low_bit(flipped(0, 1));
  report("flipped bit in a served value",
         verdict(true, response(7, flipped, true), true, want, correct) ==
                 Verdict::kWrong &&
             !correct);
  report("hit reported as a miss",
         verdict(true, response(7, want, false), true, want, correct) ==
                 Verdict::kWrong &&
             !correct);
  report("dropped response",
         verdict(false, "", false, want, correct) == Verdict::kFailed);
  report("response under another request's id",
         verdict(true, response(8, want, false), false, want, correct) ==
                 Verdict::kWrong &&
             !correct);
}

}  // namespace

int run_selftest(const Options& opts) {
  missed = 0;
  label_cases(opts.seed);
  serving_cases(opts);
  return missed;
}

}  // namespace perfbench
