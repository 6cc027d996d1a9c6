#include "platforms/platform.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "core/exec/alloc_stats.h"
#include "core/partition.h"
#include "core/timer.h"

namespace ga::platform {

// ---------------------------------------------------------------------------
// JobContext

JobContext::JobContext(const sysmodel::ClusterModel& cluster,
                       sysmodel::MemoryAccountant* memory,
                       const CostProfile& profile,
                       granula::Operation* processing_op,
                       const ExecutionEnvironment& env)
    : cluster_(cluster),
      memory_(memory),
      profile_(profile),
      env_(env),
      processing_op_(processing_op),
      exec_(env.host_pool),
      worker_ops_(cluster.num_workers(), 0),
      machine_comm_(cluster.num_machines()) {
  exec_.set_cancel_token(env_.cancel);
  exec_.set_faults(env_.faults);
  if (env_.trace_enabled) {
    tracer_.Enable();
    sheet_.Enable();
    exec_.set_counters(&sheet_);
    steal_base_ = env_.host_pool ? env_.host_pool->TotalSteals() : 0;
    alloc_base_ = exec::DataPathAllocEvents();
  } else if (env_.metrics_sheet != nullptr) {
    // Always-on service telemetry: the caller's aggregate-only sheet
    // rides the same parallel_for hooks as deep tracing, without spans
    // or per-superstep flushes.
    exec_.set_counters(env_.metrics_sheet);
  }
}

void JobContext::PrepareSlotCharges(int num_slots) {
  if (static_cast<int>(slot_charges_.size()) < num_slots) {
    slot_charges_.resize(num_slots);
  }
  for (int slot = 0; slot < num_slots; ++slot) {
    SlotCharges& charges = slot_charges_[slot];
    charges.worker_ops.assign(worker_ops_.size(), 0);
    charges.comm.assign(machine_comm_.size(), sysmodel::MachineComm{});
    charges.ledger = WorkLedger{};
  }
}

void JobContext::MergeSlotCharges() {
  for (SlotCharges& charges : slot_charges_) {
    for (std::size_t w = 0; w < charges.worker_ops.size(); ++w) {
      worker_ops_[w] += charges.worker_ops[w];
    }
    for (std::size_t m = 0; m < charges.comm.size(); ++m) {
      machine_comm_[m].bytes_sent += charges.comm[m].bytes_sent;
      machine_comm_[m].bytes_received += charges.comm[m].bytes_received;
    }
    ledger_ += charges.ledger;
    charges.worker_ops.assign(charges.worker_ops.size(), 0);
    charges.comm.assign(charges.comm.size(), sysmodel::MachineComm{});
    charges.ledger = WorkLedger{};
  }
}

void JobContext::ResetSuperstepCounters() {
  std::fill(worker_ops_.begin(), worker_ops_.end(), 0);
  std::fill(machine_comm_.begin(), machine_comm_.end(),
            sysmodel::MachineComm{});
}

Status JobContext::EndSuperstep(const std::string& label) {
  const double begin = sim_seconds_;
  std::uint64_t total_ops = 0;
  for (std::uint64_t ops : worker_ops_) total_ops += ops;
  ledger_.compute_ops += total_ops;
  for (const sysmodel::MachineComm& comm : machine_comm_) {
    ledger_.remote_bytes += comm.bytes_sent;
  }
  sim_seconds_ += cluster_.SuperstepSeconds(worker_ops_, machine_comm_) +
                  profile_.superstep_overhead_seconds * env_.overhead_scale;
  ++supersteps_;
  if (processing_op_ != nullptr) {
    granula::Operation* step = processing_op_->AddChild(
        "engine", std::string(granula::kMissionSuperstep));
    step->Begin(sim_origin_ + begin, 0.0);
    step->End(sim_origin_ + sim_seconds_, 0.0);
    step->AddInfo("label", label);
    step->AddInfo("ops", std::to_string(total_ops));
    step->AddInfo("step", std::to_string(supersteps_ - 1));
    step->AddInfo("messages",
                  std::to_string(ledger_.messages - last_messages_));
    if (tracer_.enabled()) {
      // Wall stamps + staged engine annotations (frontier occupancy,
      // push/pull decision, residual) land on the span...
      tracer_.CloseStep(step, sim_origin_ + begin,
                        sim_origin_ + sim_seconds_);
      // ...plus this superstep's exec-layer counter flush; the retained
      // chunk spans join the job-wide host timeline, keyed by step.
      const exec::CounterSheet::StepTotals totals =
          sheet_.FlushStep(supersteps_ - 1, &host_spans_);
      step->AddInfo("parallel_loops", std::to_string(totals.loops));
      step->AddInfo("parallel_chunks", std::to_string(totals.chunks));
      step->AddInfo("chunk_busy_ns", std::to_string(totals.busy_ns));
      if (totals.dropped > 0) {
        step->AddInfo("chunk_spans_dropped",
                      std::to_string(totals.dropped));
      }
    }
  }
  last_messages_ = ledger_.messages;
  ResetSuperstepCounters();
  // Resilience boundary: injected machine crashes land here (the end of
  // superstep `supersteps_`, 1-based), as does the wall-clock budget
  // check — both keyed by deterministic state, never host timing.
  if (env_.faults != nullptr) {
    GA_RETURN_IF_ERROR(env_.faults->OnSuperstep(supersteps_));
  }
  if (env_.wall_timeout_seconds > 0.0 &&
      wall_.ElapsedSeconds() > env_.wall_timeout_seconds) {
    return Status::DeadlineExceeded(
        "job exceeded its wall-clock budget of " +
        std::to_string(env_.wall_timeout_seconds) + "s at superstep " +
        std::to_string(supersteps_));
  }
  // Cooperative cancellation: a token tripped between parallel loops
  // (serial engine phases) is observed here at the latest, so a
  // cancelled or deadline-expired job frees its ThreadPool slots no
  // later than the next superstep boundary.
  if (env_.cancel != nullptr && env_.cancel->stop_requested()) {
    return env_.cancel->status();
  }
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// Superstep checkpoint/restart (ga::resilience)

void JobContext::ConfigureCheckpoint(const resilience::CheckpointPlan& plan,
                                     std::uint64_t job_key) {
  checkpoint_plan_ = plan;
  checkpoint_key_ = job_key;
}

Result<const resilience::StateReader*> JobContext::MaybeRestore() {
  restore_.reset();
  if (!checkpoint_plan_.resume_enabled() ||
      !resilience::CheckpointExists(checkpoint_plan_.path)) {
    return static_cast<const resilience::StateReader*>(nullptr);
  }
  if (env_.faults != nullptr) {
    GA_RETURN_IF_ERROR(env_.faults->OnStoreRead(checkpoint_plan_.path));
  }
  GA_ASSIGN_OR_RETURN(
      resilience::StateReader reader,
      resilience::StateReader::Open(checkpoint_plan_.path,
                                    checkpoint_key_));
  std::int64_t supersteps = 0;
  GA_RETURN_IF_ERROR(reader.ReadScalar("ctx/supersteps", &supersteps));
  // Raw double bytes round-trip bit-exact, so every simulated second
  // accumulated after the restore point lands on the same bit pattern as
  // the uninterrupted run — the byte-identity contract.
  GA_RETURN_IF_ERROR(reader.ReadScalar("ctx/sim_seconds", &sim_seconds_));
  GA_RETURN_IF_ERROR(reader.ReadScalar("ctx/ledger", &ledger_));
  std::vector<std::int64_t> used;
  std::vector<std::int64_t> peak;
  GA_RETURN_IF_ERROR(reader.ReadVector("ctx/mem_used", &used));
  GA_RETURN_IF_ERROR(reader.ReadVector("ctx/mem_peak", &peak));
  if (memory_ != nullptr) {
    GA_RETURN_IF_ERROR(memory_->RestoreState(used, peak));
  }
  supersteps_ = static_cast<int>(supersteps);
  last_messages_ = ledger_.messages;
  last_checkpoint_step_ = supersteps_;
  ResetSuperstepCounters();
  restore_.emplace(std::move(reader));
  return static_cast<const resilience::StateReader*>(&*restore_);
}

Status JobContext::MaybeCheckpoint(
    const std::function<void(resilience::StateWriter&)>& save_engine) {
  if (!checkpoint_plan_.writes_enabled() || supersteps_ == 0 ||
      supersteps_ % checkpoint_plan_.cadence != 0 ||
      supersteps_ == last_checkpoint_step_) {
    return Status::Ok();
  }
  resilience::StateWriter writer;
  writer.AddScalar("ctx/supersteps",
                   static_cast<std::int64_t>(supersteps_));
  writer.AddScalar("ctx/sim_seconds", sim_seconds_);
  writer.AddScalar("ctx/ledger", ledger_);
  std::vector<std::int64_t> used;
  std::vector<std::int64_t> peak;
  if (memory_ != nullptr) {
    for (int m = 0; m < cluster_.num_machines(); ++m) {
      used.push_back(memory_->used(m));
      peak.push_back(memory_->peak(m));
    }
  }
  writer.AddVector("ctx/mem_used", used);
  writer.AddVector("ctx/mem_peak", peak);
  save_engine(writer);
  GA_RETURN_IF_ERROR(resilience::WriteCheckpoint(
      checkpoint_plan_.path, checkpoint_key_, supersteps_, writer));
  last_checkpoint_step_ = supersteps_;
  return Status::Ok();
}

void JobContext::FlushTrailingTrace() {
  if (!tracer_.enabled()) return;
  // Chunks after the last EndSuperstep belong to no superstep; stamp
  // them with the one-past-the-end index.
  sheet_.FlushStep(supersteps_, &host_spans_);
}

TraceCounters JobContext::TraceTotals() const {
  TraceCounters trace;
  if (!tracer_.enabled()) return trace;
  trace.enabled = true;
  const exec::CounterSheet::StepTotals& totals = sheet_.job_totals();
  trace.parallel_loops = totals.loops;
  trace.parallel_chunks = totals.chunks;
  trace.chunk_busy_ns = totals.busy_ns;
  trace.dropped_spans = totals.dropped;
  trace.datapath_growth_events = exec::DataPathAllocEvents() - alloc_base_;
  trace.frontier_peak_active = tracer_.peak_active();
  trace.scratch_high_water_bytes = scratch_.HighWaterBytes();
  trace.steal_count =
      env_.host_pool ? env_.host_pool->TotalSteals() - steal_base_ : 0;
  return trace;
}

Status JobContext::ChargeMemory(int machine, std::int64_t bytes,
                                const std::string& what) {
  // Injected allocation failures are keyed by the charge ordinal, which
  // is a deterministic property of the engine's charge sequence.
  if (env_.faults != nullptr) {
    GA_RETURN_IF_ERROR(env_.faults->OnMemoryCharge());
  }
  if (memory_ == nullptr) return Status::Ok();
  return memory_->Charge(machine, bytes, what);
}

void JobContext::ReleaseMemory(int machine, std::int64_t bytes) {
  if (memory_ != nullptr) memory_->Release(machine, bytes);
}

// ---------------------------------------------------------------------------
// Platform

sysmodel::ClusterConfig MakeClusterConfig(const ExecutionEnvironment& env,
                                          const CostProfile& profile) {
  sysmodel::ClusterConfig config;
  config.machine = env.machine;
  config.network = env.network;
  config.num_machines = env.num_machines;
  config.threads_per_machine = env.threads_per_machine;
  config.hyperthread_efficiency = profile.hyperthread_efficiency;
  config.serial_fraction = profile.serial_fraction;
  config.barrier_seconds = profile.barrier_seconds * env.overhead_scale;
  return config;
}

bool Platform::SupportsAlgorithm(Algorithm algorithm,
                                 const ExecutionEnvironment& env) const {
  (void)algorithm;
  if (env.num_machines > 1 && !info().distributed) return false;
  return true;
}

std::vector<std::int64_t> Platform::UploadFootprintBytes(
    const Graph& graph, const ExecutionEnvironment& env) const {
  const CostProfile& cost = profile();
  const int machines = std::max(env.num_machines, 1);
  VertexPartition partition = HashPartition(graph, machines);
  std::vector<std::int64_t> bytes(machines, 0);
  std::vector<std::int64_t> hub_degree(machines, 0);
  for (VertexIndex v = 0; v < graph.num_vertices(); ++v) {
    const int m = partition.part_of[v];
    bytes[m] += static_cast<std::int64_t>(cost.mem_bytes_per_vertex) +
                static_cast<std::int64_t>(
                    cost.mem_bytes_per_entry *
                    static_cast<double>(graph.OutDegree(v)));
    hub_degree[m] = std::max(hub_degree[m], graph.InDegree(v));
  }
  for (int m = 0; m < machines; ++m) {
    bytes[m] += static_cast<std::int64_t>(cost.mem_bytes_per_hub_degree *
                                          static_cast<double>(hub_degree[m]));
  }
  return bytes;
}

Result<RunResult> Platform::RunJob(const Graph& graph, Algorithm algorithm,
                                   const AlgorithmParams& params,
                                   const ExecutionEnvironment& env) {
  if (env.num_machines < 1 || env.threads_per_machine < 1) {
    return Status::InvalidArgument("environment needs >= 1 machine/thread");
  }
  if (env.num_machines > 1 && !info().distributed) {
    return Status::Unsupported(info().id +
                               " is a single-machine platform (paper: type "
                               "S); cannot use " +
                               std::to_string(env.num_machines) +
                               " machines");
  }
  if (!SupportsAlgorithm(algorithm, env)) {
    return Status::Unsupported(info().id + " does not implement " +
                               std::string(AlgorithmName(algorithm)) +
                               " in this configuration");
  }
  if (algorithm == Algorithm::kSssp && !graph.is_weighted()) {
    return Status::FailedPrecondition("SSSP requires edge weights");
  }
  // A request cancelled while queued never starts: the serve admission
  // path checks before dispatch, but a token can trip in the window
  // between dispatch and here.
  if (env.cancel != nullptr && env.cancel->stop_requested()) {
    return env.cancel->status();
  }

  WallTimer wall;
  const CostProfile& cost = profile();
  sysmodel::ClusterModel cluster(MakeClusterConfig(env, cost));
  // Swap-capable jobs get 15% headroom above the budget; exceeding the
  // budget (but not the headroom) then costs a swap-penalty slowdown
  // instead of a crash.
  const bool swap_capable = SwapCapable(algorithm, env);
  const std::int64_t capacity =
      swap_capable ? env.memory_budget_bytes +
                         env.memory_budget_bytes * 15 / 100
                   : env.memory_budget_bytes;
  sysmodel::MemoryAccountant memory(capacity, env.num_machines);

  auto root = std::make_unique<granula::Operation>(
      info().id, std::string(granula::kMissionJob));
  root->Begin(0.0, 0.0);
  root->AddInfo("algorithm", std::string(AlgorithmName(algorithm)));
  root->AddInfo("machines", std::to_string(env.num_machines));
  root->AddInfo("threads", std::to_string(env.threads_per_machine));

  double sim_now = 0.0;

  // --- Startup: runtime spin-up; grows mildly with cluster size. --------
  granula::Operation* startup = root->AddChild(
      info().id, std::string(granula::kMissionStartup));
  startup->Begin(sim_now, 0.0);
  sim_now += cost.startup_seconds * env.overhead_scale *
             (1.0 + 0.1 * std::log2(static_cast<double>(env.num_machines)));
  startup->End(sim_now, 0.0);

  // --- UploadGraph: ingest + format conversion + resident footprint. ----
  granula::Operation* upload = root->AddChild(
      info().id, std::string(granula::kMissionUploadGraph));
  upload->Begin(sim_now, 0.0);
  std::vector<std::int64_t> footprint = UploadFootprintBytes(graph, env);
  for (int m = 0; m < env.num_machines; ++m) {
    Status charged = memory.Charge(m, footprint[m], "graph upload");
    if (!charged.ok()) return charged;
  }
  // Ingest is parallel across machines but mostly I/O + parse bound:
  // charge the per-machine share of adjacency entries at load cost.
  const double load_entries =
      static_cast<double>(graph.num_adjacency_entries()) /
      static_cast<double>(env.num_machines);
  sim_now += load_entries * cost.ops_per_load_entry /
             env.machine.core_ops_per_second;
  upload->End(sim_now, 0.0);
  upload->AddInfo("vertices", std::to_string(graph.num_vertices()));
  upload->AddInfo("edges", std::to_string(graph.num_edges()));
  const double upload_seconds = sim_now;

  // --- ProcessGraph: the algorithm itself (T_proc). ---------------------
  granula::Operation* processing = root->AddChild(
      info().id, std::string(granula::kMissionProcessGraph));
  processing->Begin(sim_now, 0.0);
  JobContext ctx(cluster, &memory, cost, processing, env);
  ctx.set_sim_origin(sim_now);
  if (env.checkpoint.writes_enabled() || env.checkpoint.resume_enabled()) {
    ctx.ConfigureCheckpoint(
        env.checkpoint,
        resilience::MakeJobKey(
            info().id, std::string(AlgorithmName(algorithm)),
            graph.num_vertices(), graph.num_edges(), env.num_machines,
            env.threads_per_machine));
  }
  // The job boundary converts worker-chunk exceptions (surfaced by the
  // ThreadPool on the submitting thread) back into Status: the suite
  // must quarantine a crashing cell, never die with it.
  auto output = [&]() -> Result<AlgorithmOutput> {
    try {
      return Execute(ctx, graph, algorithm, params);
    } catch (const StatusException& e) {
      return e.status();
    } catch (const std::exception& e) {
      return Status::Aborted(std::string("worker exception escaped the "
                                         "engine: ") +
                             e.what());
    }
  }();
  if (!output.ok()) return output.status();
  double processing_seconds = ctx.sim_seconds();
  if (swap_capable) {
    std::int64_t max_peak = 0;
    for (int m = 0; m < env.num_machines; ++m) {
      max_peak = std::max(max_peak, memory.peak(m));
    }
    if (max_peak > env.memory_budget_bytes) {
      processing_seconds *= cost.swap_penalty;
      processing->AddInfo("swapping", "true");
    }
  }
  sim_now += processing_seconds;
  processing->End(sim_now, 0.0);
  processing->AddInfo("supersteps", std::to_string(ctx.supersteps()));
  if (env.trace_enabled) {
    // Job-level counter summary folded into the archive (per-superstep
    // detail already sits on the Superstep children).
    ctx.FlushTrailingTrace();
    const TraceCounters trace = ctx.TraceTotals();
    processing->AddInfo("parallel_loops",
                        std::to_string(trace.parallel_loops));
    processing->AddInfo("parallel_chunks",
                        std::to_string(trace.parallel_chunks));
    processing->AddInfo("chunk_busy_ns",
                        std::to_string(trace.chunk_busy_ns));
    processing->AddInfo("steal_count", std::to_string(trace.steal_count));
    processing->AddInfo("datapath_growth_events",
                        std::to_string(trace.datapath_growth_events));
    processing->AddInfo("frontier_peak_active",
                        std::to_string(trace.frontier_peak_active));
    processing->AddInfo("scratch_high_water_bytes",
                        std::to_string(trace.scratch_high_water_bytes));
  }

  // --- OffloadGraph: write results back for validation. -----------------
  granula::Operation* offload = root->AddChild(
      info().id, std::string(granula::kMissionOffloadGraph));
  offload->Begin(sim_now, 0.0);
  sim_now += static_cast<double>(graph.num_vertices()) * 4.0 /
             env.machine.core_ops_per_second;
  offload->End(sim_now, 0.0);

  // --- Cleanup. ----------------------------------------------------------
  granula::Operation* cleanup = root->AddChild(
      info().id, std::string(granula::kMissionCleanup));
  cleanup->Begin(sim_now, 0.0);
  sim_now += cost.startup_seconds * env.overhead_scale * 0.05;
  cleanup->End(sim_now, 0.0);

  root->End(sim_now, wall.ElapsedSeconds());

  RunResult result{std::move(output).value(), RunMetrics{},
                   granula::Archive(std::move(root))};
  result.metrics.upload_sim_seconds = upload_seconds;
  result.metrics.makespan_sim_seconds = sim_now;
  result.metrics.processing_sim_seconds = processing_seconds;
  result.metrics.wall_seconds = wall.ElapsedSeconds();
  result.metrics.supersteps = ctx.supersteps();
  result.metrics.ledger = ctx.ledger();
  if (env.trace_enabled) {
    result.metrics.trace = ctx.TraceTotals();
    result.archive.set_host_spans(ctx.TakeHostSpans());
  }
  return result;
}

}  // namespace ga::platform
