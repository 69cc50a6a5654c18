// qgnn_perfbench: runs one benchmark workload and prints, as its last
// line, {"correct", "attempted", "failed", "metrics"}. See
// perfbench/README.md for the workloads, metrics and checks.
//
//   qgnn_perfbench --workload NAME --seed N --seconds S --trace 0|1
//   qgnn_perfbench --selftest [--seed N]
//   qgnn_perfbench --make-model PATH

#include <sched.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <iostream>
#include <memory>
#include <string>

#include "bench.hpp"
#include "core/pipeline.hpp"
#include "dataset/factory.hpp"
#include "dataset/features.hpp"
#include "obs/metrics.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json.
constexpr MetricSpec kEndToEnd[] = {
    {"label_graphs_per_s", "graphs/s"}, {"label_ar", "ratio"},
    {"train_samples_per_s", "samples/s"}, {"req_per_s", "req/s"},
    {"latency_p50_us", "us"},           {"latency_p90_us", "us"},
    {"served_ar", "ratio"},             {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};

constexpr MetricSpec kPerLayer[] = {
    {"dataset.label_s", "s"},
    {"dataset.batch_fill", "lanes"},
    {"qaoa.evals_per_graph", "evaluations"},
    {"qaoa.cost_build_us", "us"},
    {"qaoa.eval_us", "us"},
    {"gnn.ar_gain_pp", "pp"},
    {"qaoa.evals_to_target", "evaluations"},
    {"gnn.train_s", "s"},
    {"gnn.train_forward_us", "us"},
    {"gnn.train_backward_us", "us"},
    {"gnn.train_optimizer_us", "us"},
    {"serve.in_handle_us", "us"},
    {"net.outside_handle_us", "us"},
    {"serve.parse_us", "us"},
    {"graph.hash_us", "us"},
    {"serve.cache_hit_ratio", "ratio"},
    {"serve.queue_wait_us", "us"},
    {"serve.batch_size_mean", "requests"},
    {"serve.cache_lookup_us", "us"},
    {"gnn.forward_us", "us"},
    {"serve.verify_us", "us"},
    {"obs.trace_overhead_pct", "%"},
};

void print_result(const RunResult& r) {
  for (const std::string& f : r.check_failures) {
    std::cout << "# check failed: " << f << "\n";
  }
  std::cout << "{\"correct\": " << (r.correct ? "true" : "false")
            << ", \"attempted\": " << r.attempted
            << ", \"failed\": " << r.failed << ", \"metrics\": {";
  bool first = true;
  char value[64];
  for (const auto& [name, m] : r.metrics) {
    std::snprintf(value, sizeof value, "%.17g", m.value);
    std::cout << (first ? "" : ", ") << "\"" << name << "\": {\"value\": "
              << value << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }
  std::cout << "}}" << std::endl;
}

/// Report exactly the metrics of the mode: every end-to-end metric (each
/// must have been measured, finite and non-zero) or every per-layer metric
/// (a layer that does no work on this workload reads 0).
bool finish_metrics(const Options& opts, RunResult& r) {
  std::map<std::string, Metric> out;
  if (!opts.trace) {
    for (const MetricSpec& spec : kEndToEnd) {
      const auto it = r.metrics.find(spec.name);
      if (it == r.metrics.end() || !std::isfinite(it->second.value) ||
          it->second.value == 0.0) {
        std::cerr << "perfbench: end-to-end metric " << spec.name
                  << " missing or zero\n";
        return false;
      }
      out[spec.name] = Metric{it->second.value, spec.unit};
    }
  } else {
    for (const MetricSpec& spec : kPerLayer) {
      const auto it = r.metrics.find(spec.name);
      double v = it == r.metrics.end() ? 0.0 : it->second.value;
      if (!std::isfinite(v)) {
        r.fail(std::string("non-finite ") + spec.name);
        v = 0.0;
      }
      out[spec.name] = Metric{v, spec.unit};
    }
  }
  r.metrics = std::move(out);
  return true;
}

void make_model_file(const std::string& path) {
  // The §3.1 generator restricted to the sizes and degrees around the
  // serving mix, labelled with a 150-evaluation Nelder-Mead budget,
  // audited and pruned as in §3.3, then one GCN trained for 60 epochs.
  qgnn::DatasetGenConfig data;
  data.num_instances = 600;
  data.min_nodes = 10;
  data.max_nodes = 14;
  data.min_degree = 3;
  data.max_degree = 7;
  data.optimizer_evaluations = 150;
  data.seed = 2024;
  std::vector<qgnn::DatasetEntry> entries =
      qgnn::generate_dataset_batched(data);
  qgnn::fixed_angle_label_audit(entries, 1);
  entries = qgnn::selective_data_pruning(std::move(entries), qgnn::SdpConfig{});
  // Fold each label into one representative of its symmetry class, so
  // that MSE regression does not average copies into angles that fit
  // none. On a d-regular graph <C>(gamma, beta) is unchanged by
  // beta -> beta + pi/2 (the cost commutes with the global bit flip), by
  // (gamma, beta) -> (-gamma, -beta) (time reversal), and by
  // gamma -> gamma + pi together with beta -> -beta for odd d (alone for
  // even d). The representative has gamma in [0, pi/2], beta in [0, pi/2).
  constexpr double kPi = 3.14159265358979323846;
  auto wrap = [](double x, double period) {
    const double w = std::fmod(x, period);
    return w < 0.0 ? w + period : w;
  };
  for (auto& e : entries) {
    double& gamma = e.label.gammas[0];
    double& beta = e.label.betas[0];
    const bool odd = e.degree % 2 == 1;
    gamma = wrap(gamma, 2 * kPi);
    beta = wrap(beta, kPi / 2);
    if (gamma >= kPi) {
      gamma -= kPi;
      if (odd) beta = wrap(-beta, kPi / 2);
    }
    if (gamma > kPi / 2) {
      gamma = kPi - gamma;
      if (!odd) beta = wrap(-beta, kPi / 2);
    }
  }
  qgnn::GnnModelConfig config;
  config.arch = qgnn::GnnArch::kGCN;
  config.output_dim = 2;
  qgnn::Rng rng(2024);
  qgnn::GnnModel model(config, rng);
  qgnn::TrainerConfig trainer;
  trainer.epochs = 60;
  qgnn::train_gnn(model, qgnn::to_train_samples(entries, config.features),
                  trainer, rng);
  model.save(path);
  std::cout << "# wrote " << path << " (" << entries.size()
            << " training graphs)\n";
}

/// Keep every thread of the run on the CPU the process starts on. With one
/// request in flight only one thread is runnable at a time, so nothing
/// waits for a CPU; but a wake-up sent to another vCPU waits until the
/// hypervisor runs that vCPU, and on a shared host that wait dominated the
/// run-to-run spread of the serving workloads.
void pin_to_current_cpu() {
  const int cpu = sched_getcpu();
  if (cpu < 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  if (sched_setaffinity(0, sizeof(set), &set) == 0) {
    std::cout << "# context: pinned_cpu=" << cpu << "\n";
  }
}

int usage() {
  std::cerr << "usage: qgnn_perfbench --workload paper_pipeline|serve_hot|"
               "serve_cold --seed N --seconds S --trace 0|1 [--out-dir DIR] "
               "[--model PATH]\n"
               "       qgnn_perfbench --selftest [--seed N] [--model PATH]\n"
               "       qgnn_perfbench --make-model PATH\n";
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
#ifndef NDEBUG
  std::cerr << "perfbench: refusing to measure an assert-enabled build "
               "(configure with -DCMAKE_BUILD_TYPE=Release)\n";
  return 2;
#endif
  Options opts;
  bool selftest = false;
  std::string make_model;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    try {
      if (arg == "--selftest") {
        selftest = true;
      } else if (arg == "--workload" && has_value) {
        opts.workload = argv[++i];
      } else if (arg == "--seed" && has_value) {
        opts.seed = std::stoull(argv[++i]);
      } else if (arg == "--seconds" && has_value) {
        opts.seconds = std::stod(argv[++i]);
      } else if (arg == "--trace" && has_value) {
        opts.trace = std::string(argv[++i]) == "1";
      } else if (arg == "--out-dir" && has_value) {
        opts.out_dir = argv[++i];
      } else if (arg == "--model" && has_value) {
        opts.model_path = argv[++i];
      } else if (arg == "--make-model" && has_value) {
        make_model = argv[++i];
      } else {
        return usage();
      }
    } catch (const std::exception&) {
      return usage();
    }
  }

  try {
    if (!make_model.empty()) {
      make_model_file(make_model);
      return 0;
    }
    // One pool lane: on a shared host a stalled vCPU holds up a whole
    // parallel wave, which made multi-threaded labelling bimodal.
    qgnn::ThreadPool::set_global_threads(1);
    pin_to_current_cpu();
    qgnn::obs::set_enabled(false);
    if (selftest) {
      const int missed = run_selftest(opts);
      std::cout << "# selftest: " << missed << " check(s) missed their fault\n";
      return missed == 0 ? 0 : 1;
    }
    if (opts.seconds <= 0.0) return usage();

    StealMeter steal;
    steal.start();
    RunResult result;
    if (opts.workload == "paper_pipeline") {
      run_paper_pipeline(opts, result);
    } else if (opts.workload == "serve_hot") {
      run_serving(opts, true, result);
    } else if (opts.workload == "serve_cold") {
      run_serving(opts, false, result);
    } else {
      return usage();
    }
    print_context(opts, steal.share());
    if (!finish_metrics(opts, result)) return 3;
    print_result(result);
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 3;
  }
}
