// BenchmarkRunner: the Graphalytics harness core (paper Figure 1,
// component 5). Orchestrates one benchmark job: load the dataset, deploy
// the platform on a simulated environment, execute, validate the output
// against the reference implementation, enforce the SLA, and extract the
// paper's metrics from the Granula archive.
#ifndef GRAPHALYTICS_HARNESS_RUNNER_H_
#define GRAPHALYTICS_HARNESS_RUNNER_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "algo/output.h"
#include "faults/faults.h"
#include "harness/config.h"
#include "harness/dataset_registry.h"
#include "platforms/platform.h"

namespace ga::harness {

struct JobSpec {
  std::string platform_id;
  std::string dataset_id;
  Algorithm algorithm = Algorithm::kBfs;
  int num_machines = 1;
  int threads_per_machine = 32;
  /// Repetitions for variability measurements (Section 4.7).
  int repetitions = 1;
  /// Validate output against the reference implementation (R3: "the
  /// process must include the possibility to validate").
  bool validate = true;
  /// Run manually-selected distributed backends even on one machine
  /// (paper §4.4-4.5 use GraphMat's D backend throughout).
  bool prefer_distributed_backend = false;
  /// Cooperative cancellation token threaded into the job's execution
  /// environment (not owned; must outlive the job). Null — the batch
  /// default — runs uncancellable. The serve daemon arms one per request
  /// with the client's deadline and disconnect signal.
  const exec::CancelToken* cancel = nullptr;
  /// Per-job wall-clock timeout override in host seconds; < 0 (default)
  /// keeps the config's job_timeout_seconds, 0 disables, > 0 overrides.
  double wall_timeout_seconds = -1.0;
};

enum class JobOutcome {
  kCompleted,    // finished within the SLA, output validated
  kCrashed,      // out of memory (SLA breach, paper §2.3)
  kTimedOut,     // makespan exceeded the SLA window
  kUnsupported,  // platform does not implement this workload
  kFailed,       // any other error (bad input, validation mismatch)
};

std::string_view JobOutcomeName(JobOutcome outcome);

/// Failure-cause taxonomy (docs/ROBUSTNESS.md): a stable slug per
/// StatusCode, recorded on quarantined reports and in the JSON artifacts
/// so chaos runs can be asserted on. kOk maps to "none".
std::string_view FailureCauseName(StatusCode code);

/// Whether a failure with this code is worth a bounded retry: transient
/// shapes (worker aborts, I/O errors, wall-clock timeouts) are; memory
/// exhaustion, unsupported workloads and validation mismatches are
/// deterministic and retry cannot fix them.
bool IsRetryableFailure(StatusCode code);

struct JobReport {
  JobSpec spec;
  JobOutcome outcome = JobOutcome::kFailed;
  std::string failure;  // status message for non-completed jobs
  /// Attempts consumed (1 = first try succeeded or was not retryable;
  /// > 1 means the hardened runner retried).
  int attempts = 1;
  /// Status code of the final failed attempt (kOk for completed jobs and
  /// for benchmark-visible verdicts like an SLA breach, which is a
  /// *result*, not an execution error).
  StatusCode failure_code = StatusCode::kOk;
  /// FailureCauseName(failure_code), or a harness-level cause like
  /// "sla-breach" / "validation-mismatch" / "infrastructure".
  std::string failure_cause;

  // Projected (paper-scale) seconds; see BenchmarkConfig::Project.
  double upload_seconds = 0.0;
  double makespan_seconds = 0.0;
  double tproc_seconds = 0.0;  // mean over repetitions

  double eps = 0.0;   // edges per second
  double evps = 0.0;  // edges+vertices per second
  double tproc_cv = 0.0;  // coefficient of variation over repetitions
  std::vector<double> tproc_samples;

  int supersteps = 0;
  bool output_validated = false;

  /// Exec-layer counter totals for the traced run (trace.enabled is false
  /// when the harness ran untraced). See platform::TraceCounters for the
  /// deterministic/host-timing split.
  platform::TraceCounters trace;
  /// The job's full Granula archive (span tree + host chunk spans),
  /// retained only when BenchmarkConfig::trace_enabled — feed it to
  /// granula::ChromeTraceBuilder or Archive::ToChromeTrace.
  std::shared_ptr<const granula::Archive> archive;

  bool completed() const { return outcome == JobOutcome::kCompleted; }
};

class BenchmarkRunner {
 public:
  explicit BenchmarkRunner(const BenchmarkConfig& config);

  DatasetRegistry& registry() { return registry_; }
  const BenchmarkConfig& config() const { return config_; }

  /// Host thread pool (config.host_jobs threads) shared by every job's
  /// engine execution and the reference implementations.
  exec::ThreadPool* host_pool() { return host_pool_.get(); }

  /// Runs one job. Infrastructure errors (unknown dataset/platform)
  /// surface as a non-OK status; *benchmark-visible* failures (crash,
  /// SLA breach, unsupported workload) come back as a JobReport with the
  /// corresponding outcome, as the paper's harness records them.
  ///
  /// `injector` (optional) rides the platform job only — dataset
  /// loading, validation and the reference run are never fault-injected.
  Result<JobReport> Run(const JobSpec& spec,
                        faults::FaultInjector* injector = nullptr);

  /// Hardened entry point (docs/ROBUSTNESS.md): runs `spec` under the
  /// config's fault plan, wall-clock timeout and bounded-retry policy.
  /// Retryable failures are re-attempted up to config.max_retries times
  /// with exponential backoff; anything still failing is QUARANTINED —
  /// returned as a kFailed/kCrashed/kTimedOut report (never a thrown
  /// error), so a suite loop records the cell and moves on. Always
  /// returns a report; infrastructure errors become kFailed reports with
  /// failure_cause "infrastructure".
  JobReport RunWithPolicy(const JobSpec& spec);

  /// The injector RunWithPolicy passes to every job, parsed lazily from
  /// config.fault_spec (null when the spec is empty or invalid). Shared
  /// across a suite's jobs and retries, so one-shot ordinal faults
  /// (abort_at_loop) fire exactly once per runner while superstep-keyed
  /// faults re-fire every attempt — see faults::FaultInjector.
  faults::FaultInjector* fault_injector();

 private:
  Result<const AlgorithmOutput*> ReferenceFor(const std::string& dataset_id,
                                              Algorithm algorithm);

  BenchmarkConfig config_;
  std::unique_ptr<exec::ThreadPool> host_pool_;
  DatasetRegistry registry_;
  std::map<std::string, std::unique_ptr<AlgorithmOutput>> reference_cache_;
  bool injector_parsed_ = false;
  Status injector_status_;
  std::unique_ptr<faults::FaultInjector> injector_;
};

}  // namespace ga::harness

#endif  // GRAPHALYTICS_HARNESS_RUNNER_H_
