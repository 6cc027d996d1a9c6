// Platform: the common interface of the six graph-analysis platform
// analogues (paper Section 3.1 / Table 5).
//
// A Platform mirrors the role of a Graphalytics *driver* plus the platform
// it drives: the harness instructs it to upload a graph, execute an
// algorithm with parameters, and return the output for validation
// (Figure 1, component 10). Every platform executes the algorithms for
// real on the in-memory graph; it differs from the others in
//   (a) the programming model it implements (Pregel BSP, dataflow joins,
//       GAS vertex-cut, SpMV semirings, handwritten kernels, push-pull),
//   (b) the cost profile with which its work is converted into simulated
//       time by ga::sysmodel (see DESIGN.md §3), and
//   (c) its memory model, which determines crash points (§4.6).
#ifndef GRAPHALYTICS_PLATFORMS_PLATFORM_H_
#define GRAPHALYTICS_PLATFORMS_PLATFORM_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "algo/output.h"
#include "algo/params.h"
#include "core/exec/counter_sheet.h"
#include "core/exec/exec.h"
#include "core/exec/scratch_pool.h"
#include "core/graph.h"
#include "core/status.h"
#include "core/timer.h"
#include "core/types.h"
#include "core/work_ledger.h"
#include "faults/faults.h"
#include "granula/archive.h"
#include "granula/model.h"
#include "granula/tracer.h"
#include "resilience/checkpoint.h"
#include "sysmodel/cluster.h"

namespace ga::platform {

struct PlatformInfo {
  std::string id;           // e.g. "bsplite"
  std::string analogue_of;  // e.g. "Giraph (Apache)"
  std::string vendor;       // community / Intel / Oracle / ...
  std::string model;        // programming model name
  bool distributed = true;  // supports > 1 machine
};

/// Calibration constants converting a platform's real work into simulated
/// cost. The *mechanisms* (which work is performed, what memory is
/// materialised) live in the engine implementations; the profile holds the
/// per-unit constants (see DESIGN.md §3 for the calibration story).
struct CostProfile {
  // --- computation (abstract ops) ---
  double ops_per_edge = 2.0;      // per adjacency entry traversed
  double ops_per_vertex = 4.0;    // per vertex program invocation
  double ops_per_message = 0.0;   // per message created or consumed
  double ops_per_load_entry = 20.0;  // graph ingest cost per adjacency entry

  // --- communication ---
  double bytes_per_message = 16.0;  // wire size of one remote message

  // --- fixed overheads (PAPER-scale seconds) ---
  // These are physical constants of the real testbed (JVM spin-up takes
  // minutes regardless of graph size). They are multiplied by the
  // environment's overhead_scale (1 / scale divisor) when deployed, so
  // projected reports show them at their true magnitude at any divisor.
  double startup_seconds = 10.0;       // runtime spin-up (JVM, MPI, ...)
  double superstep_overhead_seconds = 51.2e-3;
  // Cost of one global barrier; async engines (PGX.D's cooperative
  // scheduling) pay far less than BSP runtimes.
  double barrier_seconds = 20.5e-3;

  // --- scaling behaviour ---
  double hyperthread_efficiency = 0.2;
  double serial_fraction = 0.08;  // Amdahl cap (Table 9)

  // --- memory model (bytes) ---
  double mem_bytes_per_vertex = 64.0;
  double mem_bytes_per_entry = 24.0;  // per adjacency entry
  // Message/aggregation buffer proportional to the hottest vertex's
  // in-degree: the term that makes skewed Graph500 graphs crash platforms
  // that survive Datagen graphs of equal scale (§4.6, Table 10).
  double mem_bytes_per_hub_degree = 0.0;
  // Slowdown applied when a swap-capable backend's working set slightly
  // exceeds physical memory (paper §4.4: GraphMat's single-machine PR
  // outlier, "most likely because of swapping").
  double swap_penalty = 10.0;
  // Run-to-run coefficient of variation of T_proc (JIT, GC, OS and
  // network jitter). Deterministic engines have no intrinsic noise, so
  // the harness reintroduces it with a seeded jitter stream when a job is
  // repeated; per-platform values follow Table 11.
  double variability_cv = 0.05;
};

/// Deployment of the system under test for one job.
struct ExecutionEnvironment {
  int num_machines = 1;
  int threads_per_machine = 32;  // hardware threads of one DAS-5 node
  sysmodel::MachineSpec machine = sysmodel::MachineSpec::Das5();
  sysmodel::NetworkSpec network = sysmodel::NetworkSpec::GigabitEthernet();
  /// Per-machine memory available to the platform. The harness scales the
  /// paper's 64 GiB down by the dataset scale divisor.
  std::int64_t memory_budget_bytes = 64LL << 20;
  /// Use the distributed backend even on one machine, for platforms with
  /// manually selected backends (the paper runs GraphMat's D backend in
  /// all horizontal-scalability experiments, §4.4-4.5).
  bool prefer_distributed_backend = false;
  /// Converts the profile's paper-scale fixed overheads into simulated
  /// seconds: 1 / scale divisor. The default matches the default divisor
  /// of 1024.
  double overhead_scale = 1.0 / 1024.0;
  /// Host thread pool the engines execute their real work on (not owned;
  /// must outlive the job). Null runs everything on the calling thread.
  /// Orthogonal to num_machines/threads_per_machine, which configure the
  /// *simulated* cluster; results and simulated metrics are identical at
  /// any host parallelism (DESIGN.md §6).
  exec::ThreadPool* host_pool = nullptr;
  /// Arms the deep-tracing layer (granula::Tracer + exec::CounterSheet):
  /// per-superstep spans gain wall-clock stamps, engine annotations and
  /// exec-layer counters, and the archive carries a host chunk timeline.
  /// Off by default — the disabled path costs one branch per hook.
  /// Tracing never changes outputs, WorkLedger or simulated metrics
  /// (docs/OBSERVABILITY.md).
  bool trace_enabled = false;
  /// Lightweight always-on exec telemetry (ga::telemetry): an externally
  /// owned CounterSheet, Enable(false)'d by the caller (aggregate chunk
  /// counts + busy ticks, no span retention), attached to the job's
  /// ExecContext when deep tracing is off. The caller folds it with
  /// FlushStep after the job. Never changes outputs or scheduling — the
  /// sheet only observes the slot decomposition. Not owned; must outlive
  /// the job. Ignored while trace_enabled (the traced sheet subsumes it).
  exec::CounterSheet* metrics_sheet = nullptr;
  /// Superstep checkpoint/restart plan (ga::resilience, DESIGN.md §13).
  /// Default-constructed = no checkpointing, no resume.
  resilience::CheckpointPlan checkpoint;
  /// Wall-clock (host time) budget for the processing phase. Checked at
  /// superstep boundaries; a job past its budget fails with
  /// kDeadlineExceeded, which the hardened runner reports as kTimedOut.
  /// <= 0 disables the check.
  double wall_timeout_seconds = 0.0;
  /// Cooperative cancellation token (not owned; must outlive the job).
  /// Null — the default — runs uncancellable. When set, a tripped token
  /// stops the job within one exec chunk (parallel loops throw its
  /// status) and no later than the next superstep boundary; the job
  /// fails with kCancelled or kDeadlineExceeded (DESIGN.md §14).
  const exec::CancelToken* cancel = nullptr;
  /// Fault injector for this job (not owned; must outlive the job). Null
  /// — the default — injects nothing. Only this job's supersteps, memory
  /// charges, checkpoint reads and parallel loops consult it, so a
  /// faulted job never leaks a fault into one running beside it
  /// (DESIGN.md §13).
  faults::FaultInjector* faults = nullptr;
};

/// Deep-tracing summary of one job, filled only when tracing was enabled.
/// The deterministic group is a function of the slot decomposition and
/// the algorithm's own state evolution — identical at any --jobs value —
/// and is the ONLY part allowed into experiments.json. The host-timing
/// group varies run to run and stays in the archive / Chrome trace.
struct TraceCounters {
  bool enabled = false;
  // Deterministic.
  std::uint64_t parallel_loops = 0;       // parallel_for/reduce dispatches
  std::uint64_t parallel_chunks = 0;      // slot chunks executed
  std::uint64_t datapath_growth_events = 0;  // alloc_stats.h, this job
  std::int64_t frontier_peak_active = 0;  // max annotated active count
  std::uint64_t scratch_high_water_bytes = 0;  // ScratchPool footprint
  // Host-timing dependent.
  std::int64_t chunk_busy_ns = 0;   // summed chunk wall time
  std::uint64_t steal_count = 0;    // ThreadPool cross-band claims
  std::uint64_t dropped_spans = 0;  // chunk spans past the retention cap
};

struct RunMetrics {
  double upload_sim_seconds = 0.0;      // preprocess + ingest
  double makespan_sim_seconds = 0.0;    // full job (paper: makespan)
  double processing_sim_seconds = 0.0;  // Granula ProcessGraph (T_proc)
  double wall_seconds = 0.0;            // real host time spent
  int supersteps = 0;
  WorkLedger ledger;
  TraceCounters trace;  // all-zero unless env.trace_enabled
};

struct RunResult {
  AlgorithmOutput output;
  RunMetrics metrics;
  granula::Archive archive;
};

class Platform;

/// Execution context handed to an engine while it runs an algorithm.
/// The engine performs its real work, then reports per-worker operation
/// counts and per-machine communication for each superstep; the context
/// advances the simulated clock via the cluster model and maintains the
/// Granula phase tree.
class JobContext {
 public:
  JobContext(const sysmodel::ClusterModel& cluster,
             sysmodel::MemoryAccountant* memory, const CostProfile& profile,
             granula::Operation* processing_op,
             const ExecutionEnvironment& env);

  const ExecutionEnvironment& env() const { return env_; }
  const sysmodel::ClusterModel& cluster() const { return cluster_; }
  const CostProfile& profile() const { return profile_; }
  int num_machines() const { return cluster_.num_machines(); }
  int threads_per_machine() const { return cluster_.threads_per_machine(); }
  int num_workers() const { return cluster_.num_workers(); }

  /// Worker index for (machine, thread).
  int WorkerOf(int machine, int thread) const {
    return machine * cluster_.threads_per_machine() + thread;
  }

  /// Scratch vectors reused across supersteps.
  std::vector<std::uint64_t>& worker_ops() { return worker_ops_; }
  std::vector<sysmodel::MachineComm>& machine_comm() { return machine_comm_; }
  void ResetSuperstepCounters();

  /// Host-parallel execution handle for the engine's real work.
  exec::ExecContext& exec() { return exec_; }

  /// Deep-tracing handle. Disabled (near-free hooks) unless the job's
  /// environment set trace_enabled; engines call the annotation API
  /// unconditionally. Tracing observes — it never changes control flow,
  /// outputs or simulated accounting.
  granula::Tracer& tracer() { return tracer_; }

  /// Folds exec counters recorded after the last superstep (result
  /// assembly, serial-phase loops) into the job totals and host timeline.
  /// RunJob calls this once, after Execute returns.
  void FlushTrailingTrace();

  /// End-of-job tracing summary (all-zero when tracing is off).
  TraceCounters TraceTotals() const;

  /// Job-clock sim time at which processing began. The context's own
  /// sim clock starts at 0 (T_proc accounting); Superstep Operations are
  /// stamped at origin + local time so the archive's span tree shares
  /// one monotonic clock with the Startup/UploadGraph phases.
  void set_sim_origin(double origin_seconds) {
    sim_origin_ = origin_seconds;
  }

  /// Moves out the host chunk timeline accumulated across supersteps
  /// (RunJob attaches it to the archive).
  std::vector<exec::ChunkSpan> TakeHostSpans() {
    return std::move(host_spans_);
  }

  /// Slot-local reusable scratch (CDLP label counters, LCC flag arrays).
  /// Prepare() outside parallel regions; bodies touch only their slot's
  /// objects. Lives as long as the job, so steady-state supersteps reset
  /// scratch instead of reallocating it (DESIGN.md §8).
  exec::ScratchPool& scratch() { return scratch_; }

  /// Slot-local staging of the charges an engine makes inside a
  /// host-parallel region: per-worker ops, per-machine communication and
  /// ledger counters. Bodies write to slot_charges(slice.slot) only;
  /// MergeSlotCharges() folds every slot into the superstep counters in
  /// slot order, keeping the accounting independent of host thread count.
  struct SlotCharges {
    std::vector<std::uint64_t> worker_ops;    // per simulated worker
    std::vector<sysmodel::MachineComm> comm;  // per machine
    WorkLedger ledger;
  };
  /// Sizes (and zeroes) `num_slots` staging slots for a parallel region.
  void PrepareSlotCharges(int num_slots);
  SlotCharges& slot_charges(int slot) { return slot_charges_[slot]; }
  void MergeSlotCharges();

  /// Completes one superstep: charges the accumulated worker_ops() and
  /// machine_comm() to the simulated clock (plus the profile's per-
  /// superstep overhead) and records a Granula child operation.
  ///
  /// This is also the job's resilience boundary: the job's fault injector
  /// may fail the superstep (kAborted machine crash, or a real SIGKILL
  /// for the crash/restart harness), and a job past its wall-clock
  /// budget fails with kDeadlineExceeded. Engines must propagate the
  /// status (GA_RETURN_IF_ERROR).
  Status EndSuperstep(const std::string& label);

  // --- superstep checkpoint/restart (ga::resilience, DESIGN.md §13) ----

  /// Arms checkpointing for this job. RunJob calls this with the
  /// environment's plan and a key derived from (platform, algorithm,
  /// graph, simulated cluster); engines never configure it themselves.
  void ConfigureCheckpoint(const resilience::CheckpointPlan& plan,
                           std::uint64_t job_key);

  /// Probes for a checkpoint to resume from. Returns null when the job
  /// starts fresh (no plan, resume off, or no file yet); otherwise
  /// restores the context's own state — superstep count, simulated
  /// clock (bit-exact), ledger, memory accountant — and returns a
  /// reader positioned on the same checkpoint for the ENGINE to restore
  /// its vertex values / frontier / mail / loop counters from. Engines
  /// call this once, after building their structures, before the
  /// superstep loop. A corrupt_read fault plan fails the read with
  /// kIoError.
  Result<const resilience::StateReader*> MaybeRestore();

  /// At a superstep boundary (after EndSuperstep + Advance): writes a
  /// checkpoint when the plan's cadence divides the superstep count.
  /// `save_engine` contributes the engine's state sections on top of the
  /// context's own. No-op (and no callback invocation) when a checkpoint
  /// is not due.
  Status MaybeCheckpoint(
      const std::function<void(resilience::StateWriter&)>& save_engine);

  /// Whether MaybeCheckpoint can ever fire for this job — engines that
  /// support checkpointing may skip assembling state for jobs that never
  /// write.
  bool checkpoint_writes_enabled() const {
    return checkpoint_plan_.writes_enabled();
  }

  /// Charges scratch memory on one machine; fails with kOutOfMemory when
  /// the machine budget is exceeded (the job then crashes).
  Status ChargeMemory(int machine, std::int64_t bytes,
                      const std::string& what);
  void ReleaseMemory(int machine, std::int64_t bytes);

  WorkLedger& ledger() { return ledger_; }
  double sim_seconds() const { return sim_seconds_; }
  int supersteps() const { return supersteps_; }
  granula::Operation* processing_op() { return processing_op_; }

 private:
  const sysmodel::ClusterModel& cluster_;
  sysmodel::MemoryAccountant* memory_;
  const CostProfile& profile_;
  ExecutionEnvironment env_;
  granula::Operation* processing_op_;
  exec::ExecContext exec_;
  exec::ScratchPool scratch_;
  std::vector<std::uint64_t> worker_ops_;
  std::vector<sysmodel::MachineComm> machine_comm_;
  std::vector<SlotCharges> slot_charges_;
  WorkLedger ledger_;
  double sim_seconds_ = 0.0;
  double sim_origin_ = 0.0;
  int supersteps_ = 0;

  // Resilience state (ConfigureCheckpoint; inert by default).
  resilience::CheckpointPlan checkpoint_plan_;
  std::uint64_t checkpoint_key_ = 0;
  std::optional<resilience::StateReader> restore_;
  int last_checkpoint_step_ = -1;
  WallTimer wall_;  // processing-phase wall clock (timeout checks)

  // Deep tracing (inert unless env.trace_enabled armed them in the ctor).
  granula::Tracer tracer_;
  exec::CounterSheet sheet_;
  std::vector<exec::ChunkSpan> host_spans_;
  std::uint64_t last_messages_ = 0;  // ledger messages at last superstep
  std::uint64_t steal_base_ = 0;     // pool steals when the job started
  std::uint64_t alloc_base_ = 0;     // global growth events at job start
};

class Platform {
 public:
  virtual ~Platform() = default;

  virtual const PlatformInfo& info() const = 0;
  virtual const CostProfile& profile() const = 0;

  /// Whether this platform implements `algorithm` in `env` (e.g. the
  /// PGX.D analogue has no LCC, matching the paper's "NA" in Figure 6).
  virtual bool SupportsAlgorithm(Algorithm algorithm,
                                 const ExecutionEnvironment& env) const;

  /// Whether this job can spill to disk instead of crashing when memory
  /// is up to ~15% over budget (GraphMat's mmap-backed D backend can;
  /// everything else crashes at the budget).
  virtual bool SwapCapable(Algorithm algorithm,
                           const ExecutionEnvironment& env) const {
    (void)algorithm;
    (void)env;
    return false;
  }

  /// Runs a complete benchmark job: startup, upload, process, offload,
  /// cleanup — with Granula instrumentation throughout. Returns the
  /// algorithm output plus metrics, or a non-OK status if the job crashed
  /// (kOutOfMemory), the algorithm is unsupported, or inputs are invalid.
  Result<RunResult> RunJob(const Graph& graph, Algorithm algorithm,
                           const AlgorithmParams& params,
                           const ExecutionEnvironment& env);

  /// Runs the engine kernel directly against a caller-provided JobContext:
  /// no startup/upload phases, no Granula tree, no memory accounting
  /// unless the context carries them. Entry point for the
  /// engine-throughput bench and the steady-state allocation tests, which
  /// measure the raw data path in isolation (DESIGN.md §8).
  Result<AlgorithmOutput> ExecuteKernel(JobContext& ctx, const Graph& graph,
                                        Algorithm algorithm,
                                        const AlgorithmParams& params) {
    return Execute(ctx, graph, algorithm, params);
  }

 protected:
  /// Estimated resident bytes per machine after upload, given how this
  /// platform partitions and represents the graph. Default: hash
  /// partition, profile byte constants, hub term on the machine owning
  /// the highest in-degree vertex.
  virtual std::vector<std::int64_t> UploadFootprintBytes(
      const Graph& graph, const ExecutionEnvironment& env) const;

  /// Engine-specific execution of the algorithm (the real work).
  virtual Result<AlgorithmOutput> Execute(JobContext& ctx, const Graph& graph,
                                          Algorithm algorithm,
                                          const AlgorithmParams& params) = 0;
};

/// The simulated-cluster configuration RunJob derives from an
/// environment and a platform's cost profile. Shared with the
/// engine-throughput bench and the steady-state allocation tests so
/// kernel drivers measure exactly the cluster model production uses.
sysmodel::ClusterConfig MakeClusterConfig(const ExecutionEnvironment& env,
                                          const CostProfile& profile);

/// All six platform analogues, in the paper's Table 5 order.
std::vector<std::unique_ptr<Platform>> CreateAllPlatforms();

/// Creates one platform by id ("bsplite", "dataflow", "gaslite", "spmat",
/// "nativekernel", "pushpull").
Result<std::unique_ptr<Platform>> CreatePlatform(const std::string& id);

/// The ids of all platforms, in canonical order.
std::vector<std::string> AllPlatformIds();

/// Descriptive info for one platform id (kNotFound for unknown ids).
/// Cheaper intent than CreatePlatform when a caller only needs metadata,
/// e.g. the experiment-suite scheduler deciding which platforms join the
/// multi-machine experiments (info.distributed).
Result<PlatformInfo> PlatformInfoFor(const std::string& id);

}  // namespace ga::platform

#endif  // GRAPHALYTICS_PLATFORMS_PLATFORM_H_
