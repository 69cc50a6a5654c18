#pragma once

/// Central registry of every metric and trace-span name in the library.
///
/// Instrumentation sites must name metrics through these constants (or, in
/// tests, through literals that still follow the convention); `qgnn_lint`
/// parses this file and rejects any string literal passed to
/// MetricsRegistry::counter/gauge/histogram or QGNN_TRACE_SPAN inside src/
/// that is not registered here, so a typo'd name fails the build instead of
/// silently splitting a metric in two.
///
/// Naming convention (DESIGN.md §7): `<subsystem>.<metric>[_<unit>]` —
/// lower-case, one dot, unit suffix on anything that is not a plain count
/// (`_us` microseconds, `_bytes`, ...). qgnn_lint enforces the shape of
/// every constant below as well as of ad-hoc literals.
///
/// Parsing contract for qgnn_lint: each registered name is declared on a
/// single line as `inline constexpr const char* k<Name> = "<value>";`.

namespace qgnn::obs::names {

// SIMD kernel dispatch (src/simd/dispatch.cpp). Gauge value is the
// numeric simd::Isa the kernels resolve to (0 generic, 1 avx2,
// 2 avx512).
inline constexpr const char* kKernelIsa = "kernel.isa";

// Thread pool (src/util/thread_pool.cpp).
inline constexpr const char* kPoolJobs = "pool.jobs";
inline constexpr const char* kPoolChunks = "pool.chunks";
inline constexpr const char* kPoolWorkerIdleUs = "pool.worker_idle_us";
inline constexpr const char* kPoolMaxChunksInJob = "pool.max_chunks_in_job";

// Statevector kernels (src/quantum/statevector.cpp).
inline constexpr const char* kQuantumAmpsTouched = "quantum.amps_touched";
inline constexpr const char* kQuantumKernelUs = "quantum.kernel_us";

// GNN trainer (src/gnn/trainer.cpp).
inline constexpr const char* kTrainEpochUs = "train.epoch_us";
inline constexpr const char* kTrainForwardUs = "train.forward_us";
inline constexpr const char* kTrainBackwardUs = "train.backward_us";
inline constexpr const char* kTrainOptimizerUs = "train.optimizer_us";
inline constexpr const char* kTrainEpochSpan = "train.epoch";

// QAOA optimizers and evaluation engine (src/qaoa).
inline constexpr const char* kQaoaEvaluations = "qaoa.evaluations";
inline constexpr const char* kQaoaOptimizations = "qaoa.optimizations";
inline constexpr const char* kQaoaPhaseTableUs = "qaoa.phase_table_us";
inline constexpr const char* kQaoaGradPasses = "qaoa.grad_passes";

// Dataset labelling and factory (src/dataset/factory.cpp).
inline constexpr const char* kDatasetGraphsLabeled = "dataset.graphs_labeled";
// Nothing records this any more; it stays because perfbench reads it.
inline constexpr const char* kDatasetBatchFill = "dataset.batch_fill";
inline constexpr const char* kDatasetLabelWaveUs = "dataset.label_wave_us";
inline constexpr const char* kDatasetShardCommitUs = "dataset.shard_commit_us";

// Networked front end (src/net/tcp_server.cpp).
inline constexpr const char* kNetConnectionsAccepted = "net.connections_accepted";

// Shard router (src/serve/router.cpp).
inline constexpr const char* kRouterRequests = "router.requests";
inline constexpr const char* kRouterShed = "router.shed";
inline constexpr const char* kRouterDegraded = "router.degraded";
inline constexpr const char* kRouterShardErrors = "router.shard_errors";
inline constexpr const char* kRouterHealthChecks = "router.health_checks";
inline constexpr const char* kRouterForwardUs = "router.forward_us";

// Serving (src/serve/service.cpp). Stage *histograms* are per-handle
// members (see ServeStats); only the trace spans go through the global
// collector, but their names are registered here all the same.
inline constexpr const char* kServePredictSpan = "serve.predict";
inline constexpr const char* kServeBatchFormSpan = "serve.batch_form";
inline constexpr const char* kServeForwardSpan = "serve.forward";

// Online hard-example mining (src/mine, DESIGN.md §12).
inline constexpr const char* kMineObserved = "mine.observed";
inline constexpr const char* kMineMinedLowAr = "mine.mined_low_ar";
inline constexpr const char* kMineMinedNovel = "mine.mined_novel";
inline constexpr const char* kMineDeduped = "mine.deduped";
inline constexpr const char* kMineDropped = "mine.dropped";
inline constexpr const char* kMineSpilled = "mine.spilled";
inline constexpr const char* kMineBufferDepth = "mine.buffer_depth";
inline constexpr const char* kMineRelabeled = "mine.relabeled";
inline constexpr const char* kMineRelabelUs = "mine.relabel_us";
inline constexpr const char* kMineFineTuneUs = "mine.fine_tune_us";
inline constexpr const char* kMineGateEvalUs = "mine.gate_eval_us";
inline constexpr const char* kMineGatePromoted = "mine.gate_promoted";
inline constexpr const char* kMineGateRejected = "mine.gate_rejected";
inline constexpr const char* kMineCycles = "mine.cycles";
inline constexpr const char* kMineCycleErrors = "mine.cycle_errors";

}  // namespace qgnn::obs::names
