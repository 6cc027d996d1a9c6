#include "serve/server.h"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "algo/output.h"
#include "algo/reference.h"
#include "core/exec/counter_sheet.h"
#include "core/json_writer.h"
#include "faults/faults.h"
#include "harness/results_db.h"
#include "platforms/platform.h"
#include "store/snapshot.h"
#include "telemetry/metrics.h"

namespace ga::serve {

namespace {

using Clock = std::chrono::steady_clock;

/// Stage histograms record integer microseconds; the registry's 1e-6
/// unit scale exposes them as Prometheus base-unit seconds.
std::int64_t ElapsedMicros(Clock::time_point begin, Clock::time_point end) {
  return std::chrono::duration_cast<std::chrono::microseconds>(end - begin)
      .count();
}

double MicrosToMs(std::int64_t micros) {
  return static_cast<double>(micros) / 1000.0;
}

std::string FnvHex(const std::string& text) {
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(
                    store::Fnv1a64(text.data(), text.size())));
  return hex;
}

/// Estimated resident bytes of a dataset instance, from catalogue
/// dimensions alone — no load needed. Mirrors GraphResidentBytes: ids +
/// canonical edges + out-CSR (+ in-CSC for directed graphs).
std::int64_t EstimateDatasetBytes(const harness::DatasetSpec& spec,
                                  std::int64_t divisor) {
  const std::int64_t v =
      std::max<std::int64_t>(spec.paper_vertices / divisor, 1);
  const std::int64_t e =
      std::max<std::int64_t>(spec.paper_edges / divisor, 1);
  const bool directed = spec.directedness == Directedness::kDirected;
  const std::int64_t adjacency = directed ? e : 2 * e;
  std::int64_t bytes =
      v * static_cast<std::int64_t>(sizeof(VertexId)) +
      e * static_cast<std::int64_t>(sizeof(Edge)) +
      (v + 1) * static_cast<std::int64_t>(sizeof(EdgeIndex)) +
      adjacency * static_cast<std::int64_t>(sizeof(VertexIndex));
  if (spec.weighted) {
    bytes += adjacency * static_cast<std::int64_t>(sizeof(Weight));
  }
  if (directed) {
    bytes += (v + 1) * static_cast<std::int64_t>(sizeof(EdgeIndex)) +
             adjacency * static_cast<std::int64_t>(sizeof(VertexIndex));
    if (spec.weighted) {
      bytes += adjacency * static_cast<std::int64_t>(sizeof(Weight));
    }
  }
  return bytes;
}

/// Benchmark parameters from a resident graph (the registry's rule: the
/// BFS/SSSP root is the first vertex of maximum out-degree).
AlgorithmParams ParamsFromGraph(const Graph& graph) {
  AlgorithmParams params;
  VertexIndex best = 0;
  EdgeIndex best_degree = -1;
  for (VertexIndex v = 0; v < graph.num_vertices(); ++v) {
    if (graph.OutDegree(v) > best_degree) {
      best_degree = graph.OutDegree(v);
      best = v;
    }
  }
  if (graph.num_vertices() > 0) {
    params.source_vertex = graph.ExternalId(best);
  }
  return params;
}

}  // namespace

Server::Server(const ServeOptions& options)
    : options_(options),
      queue_(std::make_unique<AdmissionQueue>(options.queue_capacity,
                                              options.workers)),
      registry_(options.bench) {
  residency_ = std::make_unique<SnapshotResidency>(
      options_.memory_budget_bytes,
      [this](const std::string& id) -> Result<std::shared_ptr<const Graph>> {
        std::lock_guard<std::mutex> lock(registry_mutex_);
        GA_ASSIGN_OR_RETURN(const Graph* graph, registry_.Load(id));
        // Residency owns the resident lifetime: dropping the entry
        // evicts the registry's RAM cache so the bytes are actually
        // reclaimed (a disk snapshot, if any, survives for the reload).
        return std::shared_ptr<const Graph>(
            graph, [this, id](const Graph*) {
              std::lock_guard<std::mutex> inner(registry_mutex_);
              registry_.Evict(id);
            });
      },
      [this](const std::string& id) -> std::int64_t {
        std::lock_guard<std::mutex> lock(registry_mutex_);
        auto spec = registry_.Find(id);
        if (!spec.ok()) return 0;
        return EstimateDatasetBytes(*spec, options_.bench.scale_divisor);
      });
  RegisterInstruments();
}

void Server::RegisterInstruments() {
  // Registration allocates and takes the registry mutex — done once
  // here; every request-path Add/Record afterwards is lock-free and
  // allocation-free through these cached pointers.
  metrics_.completed = telemetry_registry_.GetCounter(
      "ga_serve_requests_total", {{"outcome", "completed"}},
      "Requests finished, by terminal outcome.");
  metrics_.failed = telemetry_registry_.GetCounter("ga_serve_requests_total",
                                         {{"outcome", "failed"}});
  metrics_.cancelled = telemetry_registry_.GetCounter("ga_serve_requests_total",
                                            {{"outcome", "cancelled"}});
  metrics_.timed_out = telemetry_registry_.GetCounter("ga_serve_requests_total",
                                            {{"outcome", "timed-out"}});
  metrics_.faulted = telemetry_registry_.GetCounter(
      "ga_serve_faulted_requests_total", {},
      "Requests that carried a fault-injection plan.");
  const std::string stage_help =
      "Host wall-clock per request lifecycle stage, seconds.";
  metrics_.stage_queue_wait = telemetry_registry_.GetHistogram(
      "ga_serve_stage_seconds", {{"stage", "queue_wait"}}, stage_help, 1e-6);
  metrics_.stage_load = telemetry_registry_.GetHistogram(
      "ga_serve_stage_seconds", {{"stage", "load"}}, stage_help, 1e-6);
  metrics_.stage_execute = telemetry_registry_.GetHistogram(
      "ga_serve_stage_seconds", {{"stage", "execute"}}, stage_help, 1e-6);
  metrics_.stage_serialize = telemetry_registry_.GetHistogram(
      "ga_serve_stage_seconds", {{"stage", "serialize"}}, stage_help, 1e-6);
  metrics_.inflight = telemetry_registry_.GetGauge(
      "ga_serve_inflight_jobs", {}, "Jobs currently on an executor.");
  metrics_.queue_depth = telemetry_registry_.GetGauge(
      "ga_serve_queue_depth", {}, "Admitted jobs waiting for an executor.");
  metrics_.exec_loops = telemetry_registry_.GetCounter(
      "ga_exec_loops_total", {},
      "parallel_for/parallel_reduce dispatches across served jobs.");
  metrics_.exec_chunks = telemetry_registry_.GetCounter(
      "ga_exec_chunks_total", {},
      "Work-stealing chunks executed across served jobs.");
  metrics_.exec_busy_ns = telemetry_registry_.GetCounter(
      "ga_exec_chunk_busy_ns_total", {},
      "Nanoseconds of slot busy time across served jobs.");
  metrics_.exec_steals = telemetry_registry_.GetCounter(
      "ga_exec_steals_total", {},
      "Chunks stolen across executor pools during served jobs.");
  ResidencyTelemetry residency_telemetry;
  residency_telemetry.hits = telemetry_registry_.GetCounter(
      "ga_serve_residency_total", {{"event", "hit"}},
      "Residency cache events (hit/miss/eviction).");
  residency_telemetry.misses = telemetry_registry_.GetCounter(
      "ga_serve_residency_total", {{"event", "miss"}});
  residency_telemetry.evictions = telemetry_registry_.GetCounter(
      "ga_serve_residency_total", {{"event", "eviction"}});
  residency_telemetry.resident_bytes = telemetry_registry_.GetGauge(
      "ga_serve_resident_bytes", {},
      "Bytes of dataset graphs currently resident.");
  residency_->set_telemetry(residency_telemetry);
}

void Server::CountAdmission(const char* decision, int priority) {
  if (!telemetry::Enabled()) return;
  telemetry_registry_
      .GetCounter("ga_serve_admission_total",
                  {{"decision", decision},
                   {"priority", std::to_string(priority)}},
                  "Admission decisions, by decision and request priority.")
      ->Add(1);
}

Server::~Server() {
  if (started_) Drain();
}

Status Server::Start() {
  if (started_) return Status::FailedPrecondition("server already started");
  if (options_.queue_capacity < 1) {
    return Status::InvalidArgument("queue capacity must be >= 1");
  }
  if (options_.workers < 1) {
    return Status::InvalidArgument("workers must be >= 1");
  }
  started_ = true;

  worker_pools_.reserve(static_cast<std::size_t>(options_.workers));
  executors_.reserve(static_cast<std::size_t>(options_.workers));
  for (int i = 0; i < options_.workers; ++i) {
    worker_pools_.push_back(
        std::make_unique<exec::ThreadPool>(options_.bench.host_jobs));
  }
  // Dataset generation happens inside the residency loader, serialized
  // by registry_mutex_ — its own pool, never a job's execution pool.
  loader_pool_ = std::make_unique<exec::ThreadPool>(options_.bench.host_jobs);
  registry_.set_host_pool(loader_pool_.get());
  for (int i = 0; i < options_.workers; ++i) {
    executors_.emplace_back([this, i] { ExecutorLoop(i); });
  }
  if (!options_.metrics_jsonl.empty()) {
    metrics_sampler_ = std::thread([this] { MetricsSamplerLoop(); });
  }

  if (options_.socket_path.empty()) return Status::Ok();

  if (::pipe(wake_pipe_) != 0) {
    return Status::IoError("cannot create wake pipe");
  }
  ::fcntl(wake_pipe_[0], F_SETFL, O_NONBLOCK);
  ::fcntl(wake_pipe_[1], F_SETFL, O_NONBLOCK);

  ::unlink(options_.socket_path.c_str());
  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) return Status::IoError("cannot create socket");
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (options_.socket_path.size() >= sizeof(addr.sun_path)) {
    return Status::InvalidArgument("socket path too long: " +
                                   options_.socket_path);
  }
  std::strncpy(addr.sun_path, options_.socket_path.c_str(),
               sizeof(addr.sun_path) - 1);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    return Status::IoError("cannot bind " + options_.socket_path + ": " +
                           std::strerror(errno));
  }
  if (::listen(listen_fd_, 64) != 0) {
    return Status::IoError("cannot listen on " + options_.socket_path);
  }
  acceptor_ = std::thread([this] { AcceptorLoop(); });
  return Status::Ok();
}

void Server::Submit(const Request& request,
                    std::function<void(const Response&)> respond) {
  const std::string id = request.id;
  if (drain_requested_.load(std::memory_order_acquire)) {
    respond(ErrorResponse(
        id, Status::FailedPrecondition("server draining; admission closed")));
    return;
  }
  auto token = std::make_shared<exec::CancelToken>();
  const double deadline_ms = request.deadline_ms > 0.0
                                 ? request.deadline_ms
                                 : options_.default_deadline_ms;
  if (deadline_ms > 0.0) {
    token->SetDeadlineAfter(std::chrono::nanoseconds(
        static_cast<std::int64_t>(deadline_ms * 1e6)));
  }
  {
    std::lock_guard<std::mutex> lock(inflight_mutex_);
    if (!inflight_.emplace(id, token).second) {
      respond(ErrorResponse(
          id, Status::AlreadyExists("request id \"" + id +
                                    "\" is already in flight")));
      return;
    }
  }
  PendingJob job;
  job.request = request;
  job.cancel = token;
  job.respond = respond;
  job.enqueued_at = Clock::now();
  AdmitDecision decision = queue_->Submit(std::move(job));
  metrics_.queue_depth->Set(queue_->depth());
  switch (decision.outcome) {
    case AdmitOutcome::kAdmitted:
      CountAdmission("admitted", request.priority);
      if (decision.victim.has_value()) {
        CountAdmission("displaced", decision.victim->request.priority);
        FinishRequest(decision.victim->request.id);
        if (decision.victim->respond) {
          decision.victim->respond(ShedResponse(
              decision.victim->request.id, decision.retry_after_ms,
              "displaced by a higher-priority request"));
        }
      }
      return;
    case AdmitOutcome::kShed:
      CountAdmission("shed", request.priority);
      FinishRequest(id);
      respond(ShedResponse(id, decision.retry_after_ms,
                           "admission queue full"));
      return;
    case AdmitOutcome::kClosed:
      FinishRequest(id);
      respond(ErrorResponse(
          id,
          Status::FailedPrecondition("server draining; admission closed")));
      return;
  }
}

Response Server::Cancel(const std::string& id, const std::string& reason) {
  std::shared_ptr<exec::CancelToken> token;
  {
    std::lock_guard<std::mutex> lock(inflight_mutex_);
    auto it = inflight_.find(id);
    if (it != inflight_.end()) token = it->second;
  }
  if (token == nullptr) {
    return ErrorResponse(
        id, Status::NotFound("no in-flight request with id \"" + id + "\""));
  }
  token->Cancel(reason);
  Response response;
  response.id = id;
  response.status = "cancel-requested";
  return response;
}

ServeStats Server::StatsSnapshot() {
  // Assembled from the lock-free registry instruments — there is no
  // stats mutex anywhere on the request path.
  ServeStats snapshot;
  snapshot.completed = metrics_.completed->Value();
  snapshot.failed = metrics_.failed->Value();
  snapshot.cancelled = metrics_.cancelled->Value();
  snapshot.timed_out = metrics_.timed_out->Value();
  snapshot.faulted_requests = metrics_.faulted->Value();
  snapshot.queue = queue_->stats();
  snapshot.resident_bytes = residency_->resident_bytes();
  snapshot.evictions = residency_->evictions();
  snapshot.residency_hits = residency_->hits();
  snapshot.residency_misses = residency_->misses();
  return snapshot;
}

Response Server::Stats() {
  const ServeStats stats = StatsSnapshot();
  JsonWriter json;
  json.BeginObject();
  json.Field("submitted", stats.queue.submitted);
  json.Field("admitted", stats.queue.admitted);
  json.Field("shed_arrivals", stats.queue.shed_arrivals);
  json.Field("shed_victims", stats.queue.shed_victims);
  json.Field("queue_depth", stats.queue.depth);
  json.Field("completed", stats.completed);
  json.Field("failed", stats.failed);
  json.Field("cancelled", stats.cancelled);
  json.Field("timed_out", stats.timed_out);
  json.Field("faulted_requests", stats.faulted_requests);
  json.Field("resident_bytes", stats.resident_bytes);
  json.Field("memory_budget_bytes", options_.memory_budget_bytes);
  json.Field("evictions", stats.evictions);
  json.Field("residency_hits", stats.residency_hits);
  json.Field("residency_misses", stats.residency_misses);
  json.Field("inflight", metrics_.inflight->Value());
  json.Field("queue_capacity", options_.queue_capacity);
  json.Field("workers", options_.workers);
  json.Field("service_ewma_ms", stats.queue.service_ewma_ms);
  // Per-stage latency distributions (milliseconds; recorded in µs).
  json.Key("stages");
  json.BeginObject();
  const std::pair<const char*, telemetry::Histogram*> stages[] = {
      {"queue_wait", metrics_.stage_queue_wait},
      {"load", metrics_.stage_load},
      {"execute", metrics_.stage_execute},
      {"serialize", metrics_.stage_serialize},
  };
  for (const auto& [name, histogram] : stages) {
    const telemetry::Histogram::Snapshot dist = histogram->Take();
    json.Key(name);
    json.BeginObject();
    json.Field("count", dist.count);
    json.Field("mean_ms", dist.MeanValue() / 1000.0);
    json.Field("p50_ms", dist.Quantile(0.50) / 1000.0);
    json.Field("p90_ms", dist.Quantile(0.90) / 1000.0);
    json.Field("p99_ms", dist.Quantile(0.99) / 1000.0);
    json.EndObject();
  }
  json.EndObject();
  json.EndObject();
  Response response;
  response.status = "stats";
  response.stats_json = json.str();
  return response;
}

Response Server::Metrics() {
  Response response;
  response.status = "metrics";
  response.body = telemetry::Registry::Global().RenderPrometheus() +
                  telemetry_registry_.RenderPrometheus();
  return response;
}

void Server::RequestDrain() {
  drain_requested_.store(true, std::memory_order_release);
  if (wake_pipe_[1] >= 0) {
    const char byte = 1;
    [[maybe_unused]] ssize_t ignored = ::write(wake_pipe_[1], &byte, 1);
  }
}

Status Server::Drain() {
  if (drained_.exchange(true)) return Status::Ok();
  drain_requested_.store(true, std::memory_order_release);
  queue_->Close();
  if (wake_pipe_[1] >= 0) {
    const char byte = 1;
    [[maybe_unused]] ssize_t ignored = ::write(wake_pipe_[1], &byte, 1);
  }
  if (options_.drain == ServeOptions::DrainPolicy::kCancel) {
    std::lock_guard<std::mutex> lock(inflight_mutex_);
    for (auto& [id, token] : inflight_) {
      token->Cancel("server draining");
    }
  }
  // Executors drain the (closed) queue — quickly under the cancel
  // policy, to completion under finish — then exit on the empty queue.
  for (std::thread& executor : executors_) {
    if (executor.joinable()) executor.join();
  }
  {
    std::lock_guard<std::mutex> lock(sampler_mutex_);
    sampler_stop_ = true;
  }
  sampler_cv_.notify_all();
  if (metrics_sampler_.joinable()) metrics_sampler_.join();
  if (acceptor_.joinable()) acceptor_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    ::unlink(options_.socket_path.c_str());
  }
  {
    std::lock_guard<std::mutex> lock(connections_mutex_);
    for (auto& connection : connections_) {
      if (connection->fd >= 0) ::shutdown(connection->fd, SHUT_RDWR);
    }
    for (auto& connection : connections_) {
      if (connection->reader.joinable()) connection->reader.join();
      std::lock_guard<std::mutex> write_lock(connection->write_mutex);
      if (connection->fd >= 0) {
        ::close(connection->fd);
        connection->fd = -1;
      }
    }
    connections_.clear();
  }
  for (int i = 0; i < 2; ++i) {
    if (wake_pipe_[i] >= 0) {
      ::close(wake_pipe_[i]);
      wake_pipe_[i] = -1;
    }
  }
  residency_->EvictIdle();
  return Status::Ok();
}

Status Server::ServeUntilDrained() {
  if (!started_) return Status::FailedPrecondition("server not started");
  while (!drain_requested_.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  return Drain();
}

void Server::ExecutorLoop(int worker_index) {
  exec::ThreadPool* pool =
      worker_pools_[static_cast<std::size_t>(worker_index)].get();
  while (auto job = queue_->Pop()) {
    ExecuteJob(std::move(*job), pool);
  }
}

void Server::ExecuteJob(PendingJob job, exec::ThreadPool* pool) {
  const auto start = Clock::now();
  // Queue-wait stage: submit-stamp to executor pickup. In-process tests
  // that hand-build PendingJobs leave enqueued_at default; skip those.
  std::int64_t queue_wait_us = -1;
  if (job.enqueued_at != Clock::time_point{}) {
    queue_wait_us = ElapsedMicros(job.enqueued_at, start);
    metrics_.stage_queue_wait->Record(queue_wait_us);
  }
  metrics_.queue_depth->Set(queue_->depth());
  metrics_.inflight->Add(1);
  Response response;
  if (job.cancel != nullptr && job.cancel->stop_requested()) {
    // Cancelled or expired while queued: never touches an executor slot
    // beyond this check.
    response = ErrorResponse(job.request.id, job.cancel->status());
  } else {
    response = RunRequest(job.request, job.cancel.get(), pool);
  }
  metrics_.inflight->Add(-1);
  const double service_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - start)
          .count();
  queue_->OnJobFinished(service_ms);
  if (response.status == "completed") {
    metrics_.completed->Add(1);
    if (queue_wait_us >= 0) {
      response.queue_wait_ms = MicrosToMs(queue_wait_us);
    } else {
      response.queue_wait_ms = 0.0;
    }
  } else if (response.status == "cancelled") {
    metrics_.cancelled->Add(1);
  } else if (response.status == "timed-out") {
    metrics_.timed_out->Add(1);
  } else {
    metrics_.failed->Add(1);
  }
  if (!job.request.faults.empty()) metrics_.faulted->Add(1);
  RecordReport(job.request, response, response.tproc_seconds);
  FinishRequest(job.request.id);
  if (job.respond) job.respond(response);
}

Response Server::RunRequest(const Request& request,
                            const exec::CancelToken* cancel,
                            exec::ThreadPool* pool) {
  auto platform = platform::CreatePlatform(request.platform);
  if (!platform.ok()) {
    return ErrorResponse(request.id, platform.status());
  }
  // Parse the fault plan BEFORE acquiring residency: a malformed plan is
  // a usage error, not a run. A kill plan would SIGKILL the daemon and
  // every request in it, so it is refused the same way.
  std::optional<faults::FaultInjector> injector;
  if (!request.faults.empty()) {
    auto plan = faults::FaultPlan::Parse(request.faults);
    if (!plan.ok()) return ErrorResponse(request.id, plan.status());
    if (plan->kill_at_superstep >= 0) {
      return ErrorResponse(
          request.id,
          Status::InvalidArgument(
              "fault plan: kill_at_superstep kills the whole process; only "
              "the batch crash/restart harness may use it"));
    }
    injector.emplace(*plan);
  }
  const auto load_begin = Clock::now();
  auto graph_handle = residency_->Acquire(request.dataset, cancel);
  if (!graph_handle.ok()) {
    Response response = ErrorResponse(request.id, graph_handle.status());
    if (graph_handle.status().code() == StatusCode::kResourceExhausted) {
      response.retry_after_ms = queue_->RetryAfterHintMs();
    }
    return response;
  }
  const std::int64_t load_us = ElapsedMicros(load_begin, Clock::now());
  metrics_.stage_load->Record(load_us);
  const Graph& graph = **graph_handle;
  const AlgorithmParams params = ParamsFromGraph(graph);

  platform::ExecutionEnvironment env;
  env.num_machines = request.num_machines;
  env.threads_per_machine = request.threads_per_machine;
  env.memory_budget_bytes = options_.bench.ScaledMemoryBudget();
  env.overhead_scale =
      1.0 / static_cast<double>(options_.bench.scale_divisor);
  env.host_pool = pool;
  env.cancel = cancel;
  env.faults = injector.has_value() ? &*injector : nullptr;

  // Aggregate-only exec counters ride the deep-tracing hooks without
  // spans or allocation; purely observational, so outputs stay
  // byte-identical with telemetry on or off.
  exec::CounterSheet sheet;
  if (telemetry::Enabled()) {
    sheet.Enable(/*retain_spans=*/false);
    env.metrics_sheet = &sheet;
  }
  const std::uint64_t steal_base = pool != nullptr ? pool->TotalSteals() : 0;

  const auto exec_begin = Clock::now();
  Result<platform::RunResult> run =
      (*platform)->RunJob(graph, request.algorithm, params, env);
  const std::int64_t exec_us = ElapsedMicros(exec_begin, Clock::now());
  metrics_.stage_execute->Record(exec_us);
  if (sheet.enabled()) {
    // One serial fold after the job; job_totals absorbs every row.
    sheet.FlushStep(0, nullptr);
    const exec::CounterSheet::StepTotals& totals = sheet.job_totals();
    metrics_.exec_loops->Add(static_cast<std::int64_t>(totals.loops));
    metrics_.exec_chunks->Add(static_cast<std::int64_t>(totals.chunks));
    metrics_.exec_busy_ns->Add(totals.busy_ns);
    if (pool != nullptr) {
      metrics_.exec_steals->Add(
          static_cast<std::int64_t>(pool->TotalSteals() - steal_base));
    }
  }
  if (!run.ok()) return ErrorResponse(request.id, run.status());

  Response response;
  response.id = request.id;
  response.status = "completed";
  response.load_ms = MicrosToMs(load_us);
  response.exec_ms = MicrosToMs(exec_us);
  const auto serialize_begin = Clock::now();
  response.output_fnv = FnvHex(FormatOutput(graph, run->output));
  metrics_.stage_serialize->Record(
      ElapsedMicros(serialize_begin, Clock::now()));
  response.tproc_seconds =
      options_.bench.Project(run->metrics.processing_sim_seconds);
  response.makespan_seconds =
      options_.bench.Project(run->metrics.makespan_sim_seconds);
  response.supersteps = run->metrics.supersteps;
  if (request.validate) {
    auto reference =
        reference::Run(graph, request.algorithm, params, pool);
    if (!reference.ok()) return ErrorResponse(request.id, reference.status());
    Status valid = ValidateOutput(graph, *reference, run->output);
    if (!valid.ok()) {
      return ErrorResponse(request.id,
                           Status::InvalidArgument("output validation: " +
                                                   valid.ToString()));
    }
    response.validated = true;
  }
  return response;
}

void Server::RecordReport(const Request& request, const Response& response,
                          double tproc_seconds) {
  if (options_.results_jsonl.empty()) return;
  harness::JobReport report;
  report.spec.platform_id = request.platform;
  report.spec.dataset_id = request.dataset;
  report.spec.algorithm = request.algorithm;
  report.spec.num_machines = request.num_machines;
  report.spec.threads_per_machine = request.threads_per_machine;
  if (response.status == "completed") {
    report.outcome = harness::JobOutcome::kCompleted;
    report.tproc_seconds = tproc_seconds;
    report.makespan_seconds = response.makespan_seconds;
    report.supersteps = response.supersteps;
    report.output_validated = response.validated;
  } else if (response.status == "timed-out") {
    report.outcome = harness::JobOutcome::kTimedOut;
    report.failure = response.message;
    report.failure_cause = "wall-timeout";
  } else if (response.status == "crashed") {
    report.outcome = harness::JobOutcome::kCrashed;
    report.failure = response.message;
    report.failure_cause = "worker-abort";
  } else if (response.status == "unsupported") {
    report.outcome = harness::JobOutcome::kUnsupported;
    report.failure = response.message;
    report.failure_cause = "unsupported";
  } else {
    report.outcome = harness::JobOutcome::kFailed;
    report.failure = response.message;
    report.failure_cause =
        response.status == "cancelled"
            ? "cancelled"
            : (response.status == "shed" ? "resource-exhausted"
                                         : "failed");
  }
  // Best-effort: a full results log must not take the daemon down.
  Status appended = harness::AppendRecord(options_.results_jsonl, report);
  (void)appended;
}

void Server::FinishRequest(const std::string& id) {
  std::lock_guard<std::mutex> lock(inflight_mutex_);
  inflight_.erase(id);
}

void Server::AcceptorLoop() {
  for (;;) {
    pollfd fds[2];
    fds[0].fd = listen_fd_;
    fds[0].events = POLLIN;
    fds[1].fd = wake_pipe_[0];
    fds[1].events = POLLIN;
    const int ready = ::poll(fds, 2, 250);
    if (drain_requested_.load(std::memory_order_acquire)) return;
    if (ready <= 0) continue;
    if ((fds[1].revents & POLLIN) != 0) return;
    if ((fds[0].revents & POLLIN) == 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    auto connection = std::make_unique<Connection>();
    connection->fd = fd;
    Connection* raw = connection.get();
    {
      std::lock_guard<std::mutex> lock(connections_mutex_);
      connections_.push_back(std::move(connection));
    }
    raw->reader = std::thread([this, raw] { ConnectionLoop(raw); });
  }
}

void Server::ConnectionLoop(Connection* connection) {
  std::string buffer;
  char chunk[4096];
  for (;;) {
    const ssize_t n = ::read(connection->fd, chunk, sizeof(chunk));
    if (n <= 0) break;
    buffer.append(chunk, static_cast<std::size_t>(n));
    std::size_t newline;
    while ((newline = buffer.find('\n')) != std::string::npos &&
           newline <= kMaxLineBytes) {
      const std::string line = buffer.substr(0, newline);
      buffer.erase(0, newline + 1);
      if (!line.empty()) HandleLine(connection, line);
    }
    if (std::min(newline, buffer.size()) > kMaxLineBytes) {
      // An unbounded line would grow this buffer without limit: refuse
      // it and hang up, which also cancels the connection's requests.
      WriteResponse(connection,
                    ErrorResponse("", Status::InvalidArgument(
                                          "request line exceeds " +
                                          std::to_string(kMaxLineBytes) +
                                          " bytes; closing connection")));
      ::shutdown(connection->fd, SHUT_RDWR);
      break;
    }
  }
  // Disconnected client: cancel its in-flight requests so they free
  // their executor slots promptly instead of computing into the void.
  std::vector<std::string> ids;
  {
    std::lock_guard<std::mutex> lock(connection->ids_mutex);
    ids = connection->request_ids;
  }
  for (const std::string& id : ids) {
    Cancel(id, "client disconnected");
  }
}

void Server::HandleLine(Connection* connection, const std::string& line) {
  auto request = ParseRequest(line);
  if (!request.ok()) {
    WriteResponse(connection, ErrorResponse("", request.status()));
    return;
  }
  switch (request->op) {
    case RequestOp::kRun: {
      {
        std::lock_guard<std::mutex> lock(connection->ids_mutex);
        connection->request_ids.push_back(request->id);
      }
      Submit(*request, [this, connection](const Response& response) {
        WriteResponse(connection, response);
      });
      return;
    }
    case RequestOp::kCancel:
      WriteResponse(connection, Cancel(request->id, "client cancel"));
      return;
    case RequestOp::kStats:
      WriteResponse(connection, Stats());
      return;
    case RequestOp::kMetrics:
      WriteResponse(connection, Metrics());
      return;
  }
}

void Server::MetricsSamplerLoop() {
  const auto interval =
      std::chrono::milliseconds(std::max(options_.metrics_interval_ms, 10));
  std::unique_lock<std::mutex> lock(sampler_mutex_);
  for (;;) {
    if (sampler_cv_.wait_for(lock, interval,
                             [this] { return sampler_stop_; })) {
      return;
    }
    lock.unlock();
    // One JSON object per line: a wall timestamp plus the JSON
    // exposition of the global and server registries.
    JsonWriter json;
    json.BeginObject();
    json.Field(
        "ts_ms",
        static_cast<std::int64_t>(
            std::chrono::duration_cast<std::chrono::milliseconds>(
                std::chrono::system_clock::now().time_since_epoch())
                .count()));
    json.Key("global");
    json.BeginObject();
    telemetry::Registry::Global().RenderJson(&json);
    json.EndObject();
    json.Key("server");
    json.BeginObject();
    telemetry_registry_.RenderJson(&json);
    json.EndObject();
    json.EndObject();
    std::ofstream out(options_.metrics_jsonl, std::ios::app);
    if (out) out << json.str() << "\n";
    lock.lock();
  }
}

void Server::WriteResponse(Connection* connection,
                           const Response& response) {
  const std::string line = FormatResponse(response) + "\n";
  std::lock_guard<std::mutex> lock(connection->write_mutex);
  if (connection->fd < 0) return;
  // MSG_NOSIGNAL: a disconnected client must not SIGPIPE the daemon.
  std::size_t written = 0;
  while (written < line.size()) {
    const ssize_t n = ::send(connection->fd, line.data() + written,
                             line.size() - written, MSG_NOSIGNAL);
    if (n <= 0) return;  // client gone; the response is dropped
    written += static_cast<std::size_t>(n);
  }
}

}  // namespace ga::serve
