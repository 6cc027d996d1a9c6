#include "harness/runner.h"

#include <sys/stat.h>

#include <chrono>
#include <cmath>
#include <thread>

#include "algo/reference.h"
#include "core/rng.h"
#include "harness/metrics.h"
#include "telemetry/registry.h"

namespace ga::harness {

namespace {

// Deterministic standard-normal sample for the jitter stream
// (Box-Muller over SplitMix64).
double NormalSample(SplitMix64* rng) {
  const double u1 = std::max(rng->NextDouble(), 1e-12);
  const double u2 = rng->NextDouble();
  return std::sqrt(-2.0 * std::log(u1)) *
         std::cos(2.0 * 3.14159265358979323846 * u2);
}

/// Process-global retry/quarantine counters (ga::telemetry): every
/// BenchmarkRunner in the process folds into the same fleet view.
telemetry::Counter* RetryCounter() {
  static telemetry::Counter* counter = telemetry::Registry::Global().GetCounter(
      "ga_harness_retries_total", {},
      "Job attempts beyond the first (retry policy re-runs).");
  return counter;
}

telemetry::Counter* QuarantineCounter() {
  static telemetry::Counter* counter = telemetry::Registry::Global().GetCounter(
      "ga_harness_quarantined_total", {},
      "Jobs whose final verdict after the retry policy was not completed.");
  return counter;
}

}  // namespace

std::string_view JobOutcomeName(JobOutcome outcome) {
  switch (outcome) {
    case JobOutcome::kCompleted:
      return "completed";
    case JobOutcome::kCrashed:
      return "crashed";
    case JobOutcome::kTimedOut:
      return "timed-out";
    case JobOutcome::kUnsupported:
      return "unsupported";
    case JobOutcome::kFailed:
      return "failed";
  }
  return "unknown";
}

std::string_view FailureCauseName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "none";
    case StatusCode::kInvalidArgument:
      return "invalid-input";
    case StatusCode::kNotFound:
      return "not-found";
    case StatusCode::kAlreadyExists:
      return "already-exists";
    case StatusCode::kOutOfMemory:
      return "out-of-memory";
    case StatusCode::kDeadlineExceeded:
      return "wall-timeout";
    case StatusCode::kUnsupported:
      return "unsupported";
    case StatusCode::kIoError:
      return "io-error";
    case StatusCode::kInternal:
      return "internal";
    case StatusCode::kFailedPrecondition:
      return "failed-precondition";
    case StatusCode::kAborted:
      return "worker-abort";
    case StatusCode::kResourceExhausted:
      return "resource-exhausted";
    case StatusCode::kCancelled:
      return "cancelled";
  }
  return "error";
}

bool IsRetryableFailure(StatusCode code) {
  switch (code) {
    case StatusCode::kAborted:           // worker crash / machine crash
    case StatusCode::kIoError:           // torn snapshot / checkpoint read
    case StatusCode::kDeadlineExceeded:  // wall-clock stall
    case StatusCode::kResourceExhausted: // shed under load; back off, retry
      return true;
    default:
      return false;
  }
}

BenchmarkRunner::BenchmarkRunner(const BenchmarkConfig& config)
    : config_(config),
      host_pool_(std::make_unique<exec::ThreadPool>(config.host_jobs)),
      registry_(config) {
  registry_.set_host_pool(host_pool_.get());
}

Result<const AlgorithmOutput*> BenchmarkRunner::ReferenceFor(
    const std::string& dataset_id, Algorithm algorithm) {
  const std::string key =
      dataset_id + "/" + std::string(AlgorithmName(algorithm));
  auto cached = reference_cache_.find(key);
  if (cached != reference_cache_.end()) return cached->second.get();
  GA_ASSIGN_OR_RETURN(const Graph* graph, registry_.Load(dataset_id));
  GA_ASSIGN_OR_RETURN(AlgorithmParams params,
                      registry_.ParamsFor(dataset_id));
  GA_ASSIGN_OR_RETURN(
      AlgorithmOutput output,
      reference::Run(*graph, algorithm, params, host_pool_.get()));
  auto owned = std::make_unique<AlgorithmOutput>(std::move(output));
  const AlgorithmOutput* pointer = owned.get();
  reference_cache_[key] = std::move(owned);
  return pointer;
}

Result<JobReport> BenchmarkRunner::Run(const JobSpec& spec,
                                       faults::FaultInjector* injector) {
  GA_ASSIGN_OR_RETURN(auto platform,
                      platform::CreatePlatform(spec.platform_id));
  GA_ASSIGN_OR_RETURN(const Graph* graph, registry_.Load(spec.dataset_id));
  GA_ASSIGN_OR_RETURN(AlgorithmParams params,
                      registry_.ParamsFor(spec.dataset_id));

  platform::ExecutionEnvironment env;
  env.num_machines = spec.num_machines;
  env.threads_per_machine = spec.threads_per_machine;
  env.memory_budget_bytes = config_.ScaledMemoryBudget();
  env.prefer_distributed_backend = spec.prefer_distributed_backend;
  env.overhead_scale = 1.0 / static_cast<double>(config_.scale_divisor);
  env.host_pool = host_pool_.get();
  env.trace_enabled = config_.trace_enabled;
  env.wall_timeout_seconds = spec.wall_timeout_seconds >= 0.0
                                 ? spec.wall_timeout_seconds
                                 : config_.job_timeout_seconds;
  env.cancel = spec.cancel;
  env.faults = injector;
  if (!config_.checkpoint_dir.empty()) {
    // A missing directory must not quarantine every cell with an io
    // error; the runner owns the directory the same way it owns the
    // dataset cache. EEXIST is fine, anything else surfaces on the
    // first checkpoint write.
    ::mkdir(config_.checkpoint_dir.c_str(), 0755);
    // One file per matrix cell: the deployment is part of the name (and
    // of the checkpoint's job key), so suite cells never collide.
    env.checkpoint.path =
        config_.checkpoint_dir + "/" + spec.platform_id + "." +
        spec.dataset_id + "." + std::string(AlgorithmName(spec.algorithm)) +
        ".m" + std::to_string(spec.num_machines) + ".t" +
        std::to_string(spec.threads_per_machine) + ".ckpt";
    env.checkpoint.cadence = std::max(config_.checkpoint_cadence, 1);
    env.checkpoint.resume = config_.resume;
  }

  JobReport report;
  report.spec = spec;

  auto run = platform->RunJob(*graph, spec.algorithm, params, env);
  if (!run.ok()) {
    report.failure = run.status().ToString();
    report.failure_code = run.status().code();
    report.failure_cause = std::string(FailureCauseName(report.failure_code));
    switch (run.status().code()) {
      case StatusCode::kOutOfMemory:
      case StatusCode::kAborted:  // worker exception / injected crash
        report.outcome = JobOutcome::kCrashed;
        break;
      case StatusCode::kDeadlineExceeded:  // wall-clock timeout
        report.outcome = JobOutcome::kTimedOut;
        break;
      case StatusCode::kUnsupported:
        report.outcome = JobOutcome::kUnsupported;
        break;
      default:
        report.outcome = JobOutcome::kFailed;
        break;
    }
    return report;
  }

  report.trace = run->metrics.trace;
  if (config_.trace_enabled) {
    report.archive =
        std::make_shared<granula::Archive>(std::move(run->archive));
  }

  report.upload_seconds = config_.Project(run->metrics.upload_sim_seconds);
  report.makespan_seconds =
      config_.Project(run->metrics.makespan_sim_seconds);
  const double tproc =
      config_.Project(run->metrics.processing_sim_seconds);
  report.supersteps = run->metrics.supersteps;

  // Repetition jitter: the engines are deterministic, so run-to-run noise
  // (JIT, GC, OS scheduling, network contention) is reintroduced by a
  // seeded stream with the platform's Table-11 coefficient of variation.
  SplitMix64 jitter(config_.seed ^ Mix64(std::hash<std::string>{}(
                        spec.platform_id + spec.dataset_id)));
  const double cv = platform->profile().variability_cv;
  report.tproc_samples.reserve(spec.repetitions);
  for (int r = 0; r < std::max(spec.repetitions, 1); ++r) {
    const double factor =
        spec.repetitions > 1
            ? std::max(0.05, 1.0 + cv * NormalSample(&jitter))
            : 1.0;
    report.tproc_samples.push_back(tproc * factor);
  }
  report.tproc_seconds = Mean(report.tproc_samples);
  report.tproc_cv = CoefficientOfVariation(report.tproc_samples);

  GA_ASSIGN_OR_RETURN(DatasetSpec dataset,
                      registry_.Find(spec.dataset_id));
  report.eps = Eps(graph->num_edges(), run->metrics.processing_sim_seconds);
  report.evps = Evps(graph->num_vertices(), graph->num_edges(),
                     run->metrics.processing_sim_seconds);

  // SLA: "generate the output ... with a makespan of up to 1 hour"
  // (Section 2.3); crashes were handled above.
  if (report.makespan_seconds > config_.sla_projected_seconds) {
    report.outcome = JobOutcome::kTimedOut;
    report.failure = "SLA breach: makespan " +
                     std::to_string(report.makespan_seconds) + "s > " +
                     std::to_string(config_.sla_projected_seconds) + "s";
    // A deterministic benchmark verdict, not an execution error: the
    // failure_code stays kOk so the hardened runner never retries it.
    report.failure_cause = "sla-breach";
    return report;
  }

  if (spec.validate) {
    GA_ASSIGN_OR_RETURN(const AlgorithmOutput* reference,
                        ReferenceFor(spec.dataset_id, spec.algorithm));
    Status valid = ValidateOutput(*graph, *reference, run->output);
    if (!valid.ok()) {
      report.outcome = JobOutcome::kFailed;
      report.failure = "output validation: " + valid.ToString();
      report.failure_cause = "validation-mismatch";  // deterministic too
      return report;
    }
    report.output_validated = true;
  }

  report.outcome = JobOutcome::kCompleted;
  return report;
}

faults::FaultInjector* BenchmarkRunner::fault_injector() {
  if (!injector_parsed_) {
    injector_parsed_ = true;
    if (!config_.fault_spec.empty()) {
      auto plan = faults::FaultPlan::Parse(config_.fault_spec);
      if (plan.ok()) {
        injector_ = std::make_unique<faults::FaultInjector>(*plan);
      } else {
        injector_status_ = plan.status();
      }
    }
  }
  return injector_.get();
}

JobReport BenchmarkRunner::RunWithPolicy(const JobSpec& spec) {
  faults::FaultInjector* injector = fault_injector();
  if (!injector_status_.ok()) {
    JobReport report;
    report.spec = spec;
    report.outcome = JobOutcome::kFailed;
    report.failure = "fault plan: " + injector_status_.ToString();
    report.failure_code = injector_status_.code();
    report.failure_cause = "infrastructure";
    return report;
  }

  const int attempts_allowed = 1 + std::max(config_.max_retries, 0);
  JobReport last;
  for (int attempt = 1; attempt <= attempts_allowed; ++attempt) {
    if (attempt > 1) RetryCounter()->Add(1);
    if (attempt > 1 && config_.retry_backoff_seconds > 0.0) {
      const double backoff = config_.retry_backoff_seconds *
                             static_cast<double>(1LL << (attempt - 2));
      std::this_thread::sleep_for(std::chrono::duration<double>(backoff));
    }
    auto run = Run(spec, injector);
    if (run.ok()) {
      last = std::move(*run);
    } else {
      // Infrastructure errors are quarantined like any other failure so
      // a suite loop keeps going; they are not retryable.
      last = JobReport{};
      last.spec = spec;
      last.outcome = JobOutcome::kFailed;
      last.failure = run.status().ToString();
      last.failure_code = run.status().code();
      last.failure_cause = "infrastructure";
      last.attempts = attempt;
      QuarantineCounter()->Add(1);
      return last;
    }
    last.attempts = attempt;
    if (last.completed() || !IsRetryableFailure(last.failure_code)) {
      if (!last.completed()) QuarantineCounter()->Add(1);
      return last;
    }
  }
  QuarantineCounter()->Add(1);
  return last;  // retries exhausted: quarantined with the final verdict
}

}  // namespace ga::harness
