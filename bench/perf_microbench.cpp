// P1: google-benchmark microbenchmarks for the substrates - simulator
// scaling, the diagonal fast path vs the explicit gate circuit, GNN
// forward/backward throughput per architecture, and the exact Max-Cut
// solver. These back the design decisions in DESIGN.md SS4.
//
// The *Threads benchmarks sweep the thread-pool size (their Arg is the
// lane count, surfaced again in the "threads" counter) over the
// parallelized statevector kernels and the dataset labeller. For a
// machine-readable trajectory that future PRs can diff, run:
//   ./bench/perf_microbench --benchmark_format=json \
//       --benchmark_out=perf_microbench.json
// and track items_per_second per (benchmark, threads) pair.

#include <benchmark/benchmark.h>

#include <cmath>
#include <vector>

#include "bench_main.hpp"
#include "dataset/dataset.hpp"
#include "gnn/model.hpp"
#include "graph/canonical.hpp"
#include "graph/generators.hpp"
#include "graph/spectral.hpp"
#include "maxcut/maxcut.hpp"
#include "qaoa/ansatz.hpp"
#include "qaoa/noise.hpp"
#include "qaoa/optimize.hpp"
#include "quantum/density_matrix.hpp"
#include "simd/dispatch.hpp"
#include "simd/kernels.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace qgnn;

Graph bench_graph(int n, int d) {
  Rng rng(static_cast<std::uint64_t>(n * 31 + d));
  return random_regular_graph(n, d, rng);
}

void BM_SingleQubitGate(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  StateVector s = StateVector::plus_state(n);
  const auto gate = gates::rx(0.3);
  for (auto _ : state) {
    s.apply_single_qubit(gate, 0);
    benchmark::DoNotOptimize(s.mutable_amplitudes().data());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_SingleQubitGate)->DenseRange(6, 16, 2);

void BM_QaoaExpectationFastPath(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const Graph g = bench_graph(n, 3);
  const QaoaAnsatz ansatz(g);
  const QaoaParams params = QaoaParams::single(0.6, 0.35);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ansatz.expectation(params));
  }
}
BENCHMARK(BM_QaoaExpectationFastPath)->DenseRange(6, 14, 2);

void BM_QaoaExpectationExplicitCircuit(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const Graph g = bench_graph(n, 3);
  const QaoaAnsatz ansatz(g);
  const QaoaParams params = QaoaParams::single(0.6, 0.35);
  for (auto _ : state) {
    const StateVector s = qaoa_circuit(g, params).simulate_from_plus();
    benchmark::DoNotOptimize(ansatz.engine().expectation_of(s));
  }
}
BENCHMARK(BM_QaoaExpectationExplicitCircuit)->DenseRange(6, 14, 2);

// The cut table, its optimum and its phase-table levels for one graph,
// as QaoaAnsatz(g) builds them (Args: n, d): the d = 3 size sweep, then
// the serving classes whose verify_ar pays one build per cache miss. The
// name stays so BENCH_qaoa.json rows still diff.
void BM_CostHamiltonianBuild(benchmark::State& state) {
  const Graph g = bench_graph(static_cast<int>(state.range(0)),
                              static_cast<int>(state.range(1)));
  for (auto _ : state) {
    const QaoaAnsatz ansatz(g);
    benchmark::DoNotOptimize(ansatz.engine().max_value());
  }
}
BENCHMARK(BM_CostHamiltonianBuild)
    ->ArgsProduct({benchmark::CreateDenseRange(6, 16, 2), {3}})
    ->Args({13, 6})->Args({14, 4})->Args({14, 5})->Args({14, 6});

void BM_MaxCutBruteForce(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const Graph g = bench_graph(n, 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(max_cut_brute_force(g).value);
  }
}
BENCHMARK(BM_MaxCutBruteForce)->DenseRange(8, 16, 2);

void BM_NelderMeadQaoa(benchmark::State& state) {
  const Graph g = bench_graph(10, 3);
  const QaoaAnsatz ansatz(g);
  const Objective f = [&ansatz](const std::vector<double>& x) {
    return ansatz.expectation(QaoaParams::from_flat(x));
  };
  NelderMeadConfig config;
  config.max_evaluations = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        nelder_mead_maximize(f, {0.5, 0.5}, config).best_value);
  }
}
BENCHMARK(BM_NelderMeadQaoa)->Arg(50)->Arg(150)->Arg(500);

template <GnnArch arch>
void BM_GnnForward(benchmark::State& state) {
  Rng rng(7);
  GnnModelConfig config;
  config.arch = arch;
  GnnModel model(config, rng);
  const Graph g = bench_graph(static_cast<int>(state.range(0)), 3);
  const GraphBatch batch = make_graph_batch(g, config.features);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.predict(batch).data());
  }
}
BENCHMARK(BM_GnnForward<GnnArch::kGCN>)->Arg(8)->Arg(14);
BENCHMARK(BM_GnnForward<GnnArch::kGAT>)->Arg(8)->Arg(14);
BENCHMARK(BM_GnnForward<GnnArch::kGIN>)->Arg(8)->Arg(14);
BENCHMARK(BM_GnnForward<GnnArch::kSAGE>)->Arg(8)->Arg(14);

template <GnnArch arch>
void BM_GnnForwardBackward(benchmark::State& state) {
  Rng rng(7);
  GnnModelConfig config;
  config.arch = arch;
  GnnModel model(config, rng);
  const Graph g = bench_graph(12, 3);
  const GraphBatch batch = make_graph_batch(g, config.features);
  const Matrix target(1, 2, 0.5);
  Rng drop(3);
  for (auto _ : state) {
    for (ag::Var p : model.params()) p.zero_grad();
    ag::Var loss = ag::mse_loss(model.forward(batch, true, drop), target);
    loss.backward();
    benchmark::DoNotOptimize(loss.value()(0, 0));
  }
}
BENCHMARK(BM_GnnForwardBackward<GnnArch::kGCN>);
BENCHMARK(BM_GnnForwardBackward<GnnArch::kGAT>);
BENCHMARK(BM_GnnForwardBackward<GnnArch::kGIN>);
BENCHMARK(BM_GnnForwardBackward<GnnArch::kSAGE>);

void BM_DensityMatrixGate(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  DensityMatrix rho = DensityMatrix::from_state(StateVector::plus_state(n));
  const auto gate = gates::rx(0.3);
  for (auto _ : state) {
    rho.apply_single_qubit(gate, 0);
    benchmark::DoNotOptimize(rho.trace());
  }
}
BENCHMARK(BM_DensityMatrixGate)->DenseRange(4, 10, 2);

void BM_DensityMatrixDepolarizingChannel(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  DensityMatrix rho = DensityMatrix::from_state(StateVector::plus_state(n));
  for (auto _ : state) {
    rho.apply_depolarizing(0, 0.01);
    benchmark::DoNotOptimize(rho.trace());
  }
}
BENCHMARK(BM_DensityMatrixDepolarizingChannel)->DenseRange(4, 10, 2);

void BM_NoisyTrajectoryVsExactChannel(benchmark::State& state) {
  // One trajectory of noisy QAOA (the Monte-Carlo unit the sampler pays
  // per estimate).
  const Graph g = bench_graph(static_cast<int>(state.range(0)), 3);
  NoiseModel noise;
  Rng rng(5);
  const QaoaParams params = QaoaParams::single(0.6, 0.35);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        noisy_qaoa_trajectory(g, params, noise, rng).norm());
  }
}
BENCHMARK(BM_NoisyTrajectoryVsExactChannel)->Arg(8)->Arg(12);

void BM_JacobiEigenLaplacian(benchmark::State& state) {
  const Graph g = bench_graph(static_cast<int>(state.range(0)), 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        jacobi_eigen(laplacian_matrix(g), g.num_nodes()).values[0]);
  }
}
BENCHMARK(BM_JacobiEigenLaplacian)->Arg(8)->Arg(15);

void BM_SimulatedAnnealing(benchmark::State& state) {
  const Graph g = bench_graph(14, 3);
  Rng rng(9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        max_cut_simulated_annealing(g, static_cast<int>(state.range(0)),
                                    rng)
            .value);
  }
}
BENCHMARK(BM_SimulatedAnnealing)->Arg(50)->Arg(200);

void BM_RandomRegularGraph(benchmark::State& state) {
  Rng rng(3);
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        random_regular_graph(n, 3, rng).num_edges());
  }
}
BENCHMARK(BM_RandomRegularGraph)->Arg(8)->Arg(15);

// canonical_hash is the serving cache key; this row maps onto perfbench's
// graph.hash_us. Args are (n, d): the serving classes (13,6), (14,4),
// (14,5) and (14,6), plus n = 8 and n = 15. Each run cycles through 64
// distinct graphs of the class so no single graph's branches are learned.
void BM_CanonicalHash(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int d = static_cast<int>(state.range(1));
  Rng rng(static_cast<std::uint64_t>(n * 31 + d));
  std::vector<Graph> graphs;
  for (int i = 0; i < 64; ++i) {
    graphs.push_back(random_regular_graph(n, d, rng));
  }
  std::size_t next = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(canonical_hash(graphs[next]));
    next = (next + 1) % graphs.size();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_CanonicalHash)
    ->Args({13, 6})
    ->Args({14, 4})
    ->Args({14, 5})
    ->Args({14, 6})
    ->Args({8, 3})
    ->Args({15, 4});

// ---- QAOA evaluation engine --------------------------------------------
// Engine fast paths (phase table + fused RX layer + workspace reuse) vs
// the pre-engine generic path (per-amplitude sincos diagonal, per-qubit
// 2x2 mixer gates, fresh allocation per evaluation). Single-threaded so
// the ratio isolates the kernel work; the acceptance criterion is >= 3x
// labelling throughput at n = 14, depth = 1. items_per_second counts
// evaluations (or value+gradient passes) per second.

QaoaParams bench_params(int depth) {
  std::vector<double> gammas(static_cast<std::size_t>(depth));
  std::vector<double> betas(static_cast<std::size_t>(depth));
  for (int l = 0; l < depth; ++l) {
    gammas[static_cast<std::size_t>(l)] = 0.6 + 0.07 * l;
    betas[static_cast<std::size_t>(l)] = 0.35 - 0.04 * l;
  }
  return QaoaParams(std::move(gammas), std::move(betas));
}

void BM_QaoaEngineEval(benchmark::State& state) {
  ThreadPool::set_global_threads(1);
  const int n = static_cast<int>(state.range(0));
  const int depth = static_cast<int>(state.range(1));
  const Graph g = bench_graph(n, 3);
  const QaoaAnsatz ansatz(g);
  const QaoaParams params = bench_params(depth);
  EvalWorkspace ws;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ansatz.engine().expectation(params, ws));
  }
  state.counters["qubits"] = n;
  state.counters["depth"] = depth;
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  ThreadPool::set_global_threads(ThreadPool::configured_threads());
}
BENCHMARK(BM_QaoaEngineEval)
    ->ArgsProduct({{10, 14, 18}, {1, 2, 4}})->UseRealTime();

void BM_QaoaGenericEval(benchmark::State& state) {
  ThreadPool::set_global_threads(1);
  const int n = static_cast<int>(state.range(0));
  const int depth = static_cast<int>(state.range(1));
  const Graph g = bench_graph(n, 3);
  const QaoaAnsatz ansatz(g);
  const QaoaParams params = bench_params(depth);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ansatz.engine().expectation_reference(params));
  }
  state.counters["qubits"] = n;
  state.counters["depth"] = depth;
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  ThreadPool::set_global_threads(ThreadPool::configured_threads());
}
BENCHMARK(BM_QaoaGenericEval)
    ->ArgsProduct({{10, 14, 18}, {1, 2, 4}})->UseRealTime();

void BM_QaoaEngineEvalThreads(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  ThreadPool::set_global_threads(threads);
  // 18 qubits, matching the kThreadSweepQubits sweeps below.
  const Graph g = bench_graph(18, 3);
  const QaoaAnsatz ansatz(g);
  const QaoaParams params = bench_params(1);
  EvalWorkspace ws;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ansatz.engine().expectation(params, ws));
  }
  state.counters["threads"] = threads;
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  ThreadPool::set_global_threads(ThreadPool::configured_threads());
}
BENCHMARK(BM_QaoaEngineEvalThreads)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

void BM_QaoaAdjointGradient(benchmark::State& state) {
  ThreadPool::set_global_threads(1);
  const int n = static_cast<int>(state.range(0));
  const int depth = static_cast<int>(state.range(1));
  const Graph g = bench_graph(n, 3);
  const QaoaAnsatz ansatz(g);
  const QaoaParams params = bench_params(depth);
  EvalWorkspace ws;
  std::vector<double> grad;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ansatz.engine().value_and_gradient(params, grad, ws));
  }
  state.counters["qubits"] = n;
  state.counters["depth"] = depth;
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  ThreadPool::set_global_threads(ThreadPool::configured_threads());
}
BENCHMARK(BM_QaoaAdjointGradient)
    ->ArgsProduct({{10, 14}, {1, 2, 4}})->UseRealTime();

void BM_QaoaFdGradient(benchmark::State& state) {
  // What one Adam iteration's gradient would cost with central finite
  // differences: 4*depth engine evaluations (plus the value itself in the
  // optimizer loop, not counted here). Compare per-pass time directly
  // against BM_QaoaAdjointGradient at equal (qubits, depth).
  ThreadPool::set_global_threads(1);
  const int n = static_cast<int>(state.range(0));
  const int depth = static_cast<int>(state.range(1));
  const Graph g = bench_graph(n, 3);
  const QaoaAnsatz ansatz(g);
  EvalWorkspace ws;
  const Objective f = [&ansatz, &ws](const std::vector<double>& flat) {
    return ansatz.engine().expectation(QaoaParams::from_flat(flat), ws);
  };
  const std::vector<double> x = bench_params(depth).flatten();
  for (auto _ : state) {
    benchmark::DoNotOptimize(finite_difference_gradient(f, x).data());
  }
  state.counters["qubits"] = n;
  state.counters["depth"] = depth;
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  ThreadPool::set_global_threads(ThreadPool::configured_threads());
}
BENCHMARK(BM_QaoaFdGradient)
    ->ArgsProduct({{10, 14}, {1, 2, 4}})->UseRealTime();

// ---- thread-pool scaling sweeps ----------------------------------------
// 18 qubits (2^18 amplitudes) is the acceptance-criterion size: well above
// the 2^14 serial threshold, so every kernel below actually fans out.

constexpr int kThreadSweepQubits = 18;

void BM_ApplyDiagonalPhaseThreads(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  ThreadPool::set_global_threads(threads);
  StateVector s = StateVector::plus_state(kThreadSweepQubits);
  std::vector<double> diag(s.dimension());
  for (std::uint64_t k = 0; k < s.dimension(); ++k) {
    diag[k] = static_cast<double>(__builtin_popcountll(k));
  }
  for (auto _ : state) {
    s.apply_diagonal_phase(diag, 0.01);
    benchmark::DoNotOptimize(s.mutable_amplitudes().data());
  }
  state.counters["threads"] = threads;
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(s.dimension()));
  ThreadPool::set_global_threads(ThreadPool::configured_threads());
}
BENCHMARK(BM_ApplyDiagonalPhaseThreads)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

void BM_ExpectationDiagonalThreads(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  ThreadPool::set_global_threads(threads);
  const StateVector s = StateVector::plus_state(kThreadSweepQubits);
  std::vector<double> diag(s.dimension());
  for (std::uint64_t k = 0; k < s.dimension(); ++k) {
    diag[k] = std::sin(static_cast<double>(k) * 1e-4);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(s.expectation_diagonal(diag));
  }
  state.counters["threads"] = threads;
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(s.dimension()));
  ThreadPool::set_global_threads(ThreadPool::configured_threads());
}
BENCHMARK(BM_ExpectationDiagonalThreads)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

void BM_SingleQubitGateThreads(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  ThreadPool::set_global_threads(threads);
  StateVector s = StateVector::plus_state(kThreadSweepQubits);
  const auto gate = gates::rx(0.3);
  for (auto _ : state) {
    s.apply_single_qubit(gate, 5);
    benchmark::DoNotOptimize(s.mutable_amplitudes().data());
  }
  state.counters["threads"] = threads;
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(s.dimension()));
  ThreadPool::set_global_threads(ThreadPool::configured_threads());
}
BENCHMARK(BM_SingleQubitGateThreads)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

void BM_RzzThreads(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  ThreadPool::set_global_threads(threads);
  StateVector s = StateVector::plus_state(kThreadSweepQubits);
  for (auto _ : state) {
    s.apply_rzz(0.4, 2, 11);
    benchmark::DoNotOptimize(s.mutable_amplitudes().data());
  }
  state.counters["threads"] = threads;
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(s.dimension()));
  ThreadPool::set_global_threads(ThreadPool::configured_threads());
}
BENCHMARK(BM_RzzThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

void BM_DatasetLabellingThreads(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  ThreadPool::set_global_threads(threads);
  // One graph size and 8 items per thread at the widest row, so no single
  // large item bounds a row's time.
  DatasetGenConfig config;
  config.num_instances = 64;
  config.min_nodes = 12;
  config.max_nodes = 12;
  config.optimizer_evaluations = 120;
  config.seed = 17;
  for (auto _ : state) {
    benchmark::DoNotOptimize(generate_dataset(config).size());
  }
  state.counters["threads"] = threads;
  // Labelled graphs per second: the number production dataset generation
  // cares about.
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          config.num_instances);
  ThreadPool::set_global_threads(ThreadPool::configured_threads());
}
BENCHMARK(BM_DatasetLabellingThreads)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// ---- dataset labelling at fixed size -----------------------------------
// The per-item labeller pinned to one thread at fixed instance size, so
// the per-graph cost at each n reads without thread fan-out. Outputs feed
// BENCH_qaoa.json.

DatasetGenConfig fixed_size_labelling_config(int n) {
  DatasetGenConfig config;
  config.num_instances = 8;
  config.min_nodes = n;
  config.max_nodes = n;
  config.optimizer_evaluations = 80;
  config.seed = 23;
  return config;
}

void BM_DatasetLabellingSequential(benchmark::State& state) {
  ThreadPool::set_global_threads(1);
  const DatasetGenConfig config =
      fixed_size_labelling_config(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(generate_dataset(config).size());
  }
  state.counters["qubits"] = static_cast<double>(state.range(0));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          config.num_instances);
  ThreadPool::set_global_threads(ThreadPool::configured_threads());
}
BENCHMARK(BM_DatasetLabellingSequential)
    ->Arg(8)->Arg(10)->Arg(12)->Arg(14)->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// ---- SIMD kernel ISA sweeps --------------------------------------------
// The dispatched kernels forced onto each instruction-set tier (the
// final Arg is the simd::Isa value: 0 generic, 1 avx2, 2 avx512).
// Tiers the host CPU lacks are skipped with an error, so a committed
// JSON still lists them explicitly instead of silently omitting them.
// The forced ISA is restored before the benchmark returns; the sweep
// is single-threaded so the ratio isolates kernel width.

class ForcedIsa {
 public:
  ForcedIsa(benchmark::State& state, std::int64_t arg)
      : prev_(simd::active_isa()),
        ok_(simd::set_active_isa(static_cast<simd::Isa>(arg))) {
    if (!ok_) state.SkipWithError("ISA not supported on this host");
    state.counters["isa"] = static_cast<double>(arg);
  }
  ~ForcedIsa() { simd::set_active_isa(prev_); }
  ForcedIsa(const ForcedIsa&) = delete;
  ForcedIsa& operator=(const ForcedIsa&) = delete;
  explicit operator bool() const { return ok_; }

 private:
  simd::Isa prev_;
  bool ok_;
};

void BM_QaoaEngineEvalIsa(benchmark::State& state) {
  const ForcedIsa forced(state, state.range(1));
  if (!forced) return;
  ThreadPool::set_global_threads(1);
  const int n = static_cast<int>(state.range(0));
  const Graph g = bench_graph(n, 3);
  const QaoaAnsatz ansatz(g);
  const QaoaParams params = bench_params(1);
  EvalWorkspace ws;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ansatz.engine().expectation(params, ws));
  }
  state.counters["qubits"] = n;
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  ThreadPool::set_global_threads(ThreadPool::configured_threads());
}
BENCHMARK(BM_QaoaEngineEvalIsa)
    ->ArgsProduct({{12, 14, 18}, {0, 1, 2}})->UseRealTime();

void BM_RxLayerIsa(benchmark::State& state) {
  const ForcedIsa forced(state, state.range(1));
  if (!forced) return;
  ThreadPool::set_global_threads(1);
  StateVector s = StateVector::plus_state(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    s.apply_rx_layer(0.7);
    benchmark::DoNotOptimize(s.mutable_amplitudes().data());
  }
  state.counters["qubits"] = static_cast<double>(state.range(0));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(s.dimension()));
  ThreadPool::set_global_threads(ThreadPool::configured_threads());
}
BENCHMARK(BM_RxLayerIsa)
    ->ArgsProduct({{12, 14}, {0, 1, 2}})->UseRealTime();

void BM_PhaseTableIsa(benchmark::State& state) {
  const ForcedIsa forced(state, state.range(1));
  if (!forced) return;
  ThreadPool::set_global_threads(1);
  const int n = static_cast<int>(state.range(0));
  const Graph g = bench_graph(n, 3);
  const QaoaAnsatz ansatz(g);
  StateVector s = StateVector::plus_state(n);
  std::vector<Amplitude> table;
  for (auto _ : state) {
    ansatz.engine().apply_cost_layer(s, 0.6, table);
    benchmark::DoNotOptimize(s.mutable_amplitudes().data());
  }
  state.counters["qubits"] = n;
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(s.dimension()));
  ThreadPool::set_global_threads(ThreadPool::configured_threads());
}
BENCHMARK(BM_PhaseTableIsa)
    ->ArgsProduct({{12, 14}, {0, 1, 2}})->UseRealTime();

void BM_MatmulIsa(benchmark::State& state) {
  const ForcedIsa forced(state, state.range(1));
  if (!forced) return;
  // Fast tier (FMA-contracted inner products) on Arg 2; restored below.
  const bool fast = state.range(2) != 0;
  const simd::KernelConfig prev_config = simd::kernel_config();
  simd::set_kernel_config({.fast_reductions = fast});
  state.counters["fast"] = fast ? 1.0 : 0.0;
  Rng rng(11);
  const std::size_t dim = static_cast<std::size_t>(state.range(0));
  const Matrix a = Matrix::random_uniform(dim, dim, -1.0, 1.0, rng);
  const Matrix b = Matrix::random_uniform(dim, dim, -1.0, 1.0, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.matmul(b).data());
  }
  state.counters["dim"] = static_cast<double>(dim);
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(2 * dim * dim * dim));
  simd::set_kernel_config(prev_config);
}
BENCHMARK(BM_MatmulIsa)
    ->ArgsProduct({{64, 192}, {0, 1, 2}, {0, 1}});

void BM_GnnForwardIsa(benchmark::State& state) {
  const ForcedIsa forced(state, state.range(0));
  if (!forced) return;
  Rng rng(7);
  GnnModelConfig config;
  config.arch = GnnArch::kGCN;
  GnnModel model(config, rng);
  const Graph g = bench_graph(14, 3);
  const GraphBatch batch = make_graph_batch(g, config.features);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.predict(batch).data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_GnnForwardIsa)->Arg(0)->Arg(1)->Arg(2);

}  // namespace

int main(int argc, char** argv) { return qgnn_benchmark_main(argc, argv); }
