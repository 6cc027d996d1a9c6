// ga::serve — the overload-robust analytics daemon (docs/SERVING.md).
//
// A long-lived process accepting analytics requests (algorithm + dataset
// + params) from concurrent clients over a local unix stream socket,
// line-delimited JSON both ways (serve/protocol.h). The server composes
// four robustness mechanisms, each testable on its own:
//
//   admission   AdmissionQueue — bounded priority queue, deterministic
//               load shedding with kResourceExhausted + retry-after.
//   deadlines   one exec::CancelToken per request, armed with the client
//               deadline and the disconnect signal, threaded through the
//               platform layer (PR 8's timeout plumbing) — a cancelled
//               or expired job stops within one exec chunk and frees its
//               executor promptly.
//   memory      SnapshotResidency — refcounted graph residency under a
//               byte budget, LRU eviction, serialize-rather-than-OOM.
//   drain       SIGINT/SIGTERM (wired by the CLI) stops admission and
//               finishes or cancels in-flight jobs by policy.
//
// Concurrency model: `workers` executor threads, each owning its own
// ThreadPool (ThreadPool::Execute must not be entered concurrently).
// The default of one executor gives every job the full pool and
// serialises jobs — which is also the strongest memory degradation mode.
// A fault-injected request (chaos) carries its own injector on its job's
// ExecutionEnvironment, so it runs beside clean jobs and its faults fail
// only that job.
#ifndef GRAPHALYTICS_SERVE_SERVER_H_
#define GRAPHALYTICS_SERVE_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/exec/thread_pool.h"
#include "harness/config.h"
#include "harness/dataset_registry.h"
#include "serve/admission.h"
#include "serve/protocol.h"
#include "serve/residency.h"
#include "telemetry/registry.h"

namespace ga::serve {

struct ServeOptions {
  /// Unix socket path. Empty runs without a listener (in-process Submit
  /// only — tests and the load bench drive the server this way too).
  std::string socket_path;
  /// Bounded admission queue depth.
  int queue_capacity = 8;
  /// Executor threads. Each owns a ThreadPool of bench.host_jobs
  /// threads; 1 (default) serialises jobs.
  int workers = 1;
  /// Residency budget for resident dataset graphs; 0 = unlimited.
  std::int64_t memory_budget_bytes = 0;
  /// Default request deadline in ms when the client sends none; 0 = no
  /// deadline.
  double default_deadline_ms = 0.0;
  /// Scale divisor, seed, host_jobs, data_dir for dataset loading and
  /// job execution.
  harness::BenchmarkConfig bench;
  /// Append-only .jsonl results log (harness::AppendRecord); empty
  /// disables. Safe across concurrent daemons.
  std::string results_jsonl;
  /// Periodic telemetry snapshots, one JSON object per line, appended to
  /// this path every metrics_interval_ms; empty disables the sampler.
  std::string metrics_jsonl;
  int metrics_interval_ms = 1000;
  enum class DrainPolicy {
    kFinish,  // complete queued + running jobs, then exit
    kCancel,  // cancel queued + running jobs, then exit
  };
  DrainPolicy drain = DrainPolicy::kFinish;
};

struct ServeStats {
  QueueStats queue;
  std::int64_t completed = 0;
  std::int64_t failed = 0;
  std::int64_t cancelled = 0;
  std::int64_t timed_out = 0;
  std::int64_t faulted_requests = 0;
  std::int64_t resident_bytes = 0;
  std::int64_t evictions = 0;
  std::int64_t residency_hits = 0;
  std::int64_t residency_misses = 0;
};

class Server {
 public:
  explicit Server(const ServeOptions& options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Spawns the executor threads (and the acceptor, when socket_path is
  /// set). kAddressInUse-style failures surface as kIoError.
  Status Start();

  /// In-process submission: parses nothing, admits `request` and
  /// delivers exactly one response through `respond` — synchronously for
  /// shed/closed/duplicate ids, from an executor thread otherwise.
  /// `respond` must be thread-safe against the caller.
  void Submit(const Request& request,
              std::function<void(const Response&)> respond);

  /// Cancels an in-flight (queued or running) request by id.
  Response Cancel(const std::string& id, const std::string& reason);

  /// Counters snapshot as a response with stats_json filled.
  Response Stats();
  ServeStats StatsSnapshot();

  /// Prometheus text exposition (telemetry::Registry::Global() plus this
  /// server's own registry) as a response with body filled.
  Response Metrics();
  telemetry::Registry& metrics_registry() { return telemetry_registry_; }

  /// Signal-safe drain trigger: flips a flag and pokes the acceptor.
  /// The CLI's signal handler calls this; Run() (or a Drain() caller)
  /// notices and performs the actual drain.
  void RequestDrain();
  bool drain_requested() const {
    return drain_requested_.load(std::memory_order_acquire);
  }

  /// Graceful drain: close admission (new Submits shed with "draining"),
  /// apply the drain policy to queued + running jobs, join every thread.
  /// Idempotent.
  Status Drain();

  /// Blocks until RequestDrain() (typically from the CLI's signal
  /// handler), then Drains. Requires Start() to have succeeded.
  Status ServeUntilDrained();

  SnapshotResidency& residency() { return *residency_; }
  AdmissionQueue& queue() { return *queue_; }
  const ServeOptions& options() const { return options_; }

 private:
  struct Connection {
    int fd = -1;
    std::thread reader;
    std::mutex write_mutex;
    std::vector<std::string> request_ids;  // cancelled on disconnect
    std::mutex ids_mutex;
  };

  void RegisterInstruments();
  void MetricsSamplerLoop();
  /// Lazily registered `ga_serve_admission_total{decision,priority}`
  /// series (priority values are client-chosen, so the label set is
  /// discovered at runtime; the registry caches each series).
  void CountAdmission(const char* decision, int priority);

  void ExecutorLoop(int worker_index);
  void ExecuteJob(PendingJob job, exec::ThreadPool* pool);
  Response RunRequest(const Request& request, const exec::CancelToken* cancel,
                      exec::ThreadPool* pool);
  void AcceptorLoop();
  void ConnectionLoop(Connection* connection);
  void HandleLine(Connection* connection, const std::string& line);
  void WriteResponse(Connection* connection, const Response& response);
  void FinishRequest(const std::string& id);
  void RecordReport(const Request& request, const Response& response,
                    double tproc_seconds);

  ServeOptions options_;
  std::unique_ptr<AdmissionQueue> queue_;
  std::unique_ptr<SnapshotResidency> residency_;

  /// Dataset loading funnels through one registry behind a mutex (the
  /// registry is not thread-safe); residency owns the resident lifetime
  /// by evicting the registry's RAM cache when an entry is dropped.
  harness::DatasetRegistry registry_;
  std::mutex registry_mutex_;

  /// Dedicated pool for dataset generation/loading. Only the residency
  /// loader uses it, always under registry_mutex_ — never concurrently
  /// with itself, and never shared with a job's execution pool
  /// (ThreadPool::Execute must not be entered concurrently).
  std::unique_ptr<exec::ThreadPool> loader_pool_;
  std::vector<std::unique_ptr<exec::ThreadPool>> worker_pools_;
  std::vector<std::thread> executors_;
  std::thread acceptor_;
  int listen_fd_ = -1;
  int wake_pipe_[2] = {-1, -1};

  std::mutex connections_mutex_;
  std::vector<std::unique_ptr<Connection>> connections_;

  std::mutex inflight_mutex_;
  std::map<std::string, std::shared_ptr<exec::CancelToken>> inflight_;

  std::atomic<bool> drain_requested_{false};
  std::atomic<bool> drained_{false};
  bool started_ = false;

  /// Per-server metric registry (tests spin up many servers per process;
  /// a shared global registry would bleed counts between them). The
  /// exposition endpoints render Global() + this. All request-path
  /// counters live here — there is no mutex-guarded stats struct; the
  /// ServeStats snapshot is assembled from these lock-free instruments.
  telemetry::Registry telemetry_registry_;
  struct Instruments {
    telemetry::Counter* completed = nullptr;
    telemetry::Counter* failed = nullptr;
    telemetry::Counter* cancelled = nullptr;
    telemetry::Counter* timed_out = nullptr;
    telemetry::Counter* faulted = nullptr;
    telemetry::Histogram* stage_queue_wait = nullptr;  // microseconds
    telemetry::Histogram* stage_load = nullptr;
    telemetry::Histogram* stage_execute = nullptr;
    telemetry::Histogram* stage_serialize = nullptr;
    telemetry::Gauge* inflight = nullptr;
    telemetry::Gauge* queue_depth = nullptr;
    telemetry::Counter* exec_loops = nullptr;
    telemetry::Counter* exec_chunks = nullptr;
    telemetry::Counter* exec_busy_ns = nullptr;
    telemetry::Counter* exec_steals = nullptr;
  } metrics_;

  std::thread metrics_sampler_;
  std::mutex sampler_mutex_;
  std::condition_variable sampler_cv_;
  bool sampler_stop_ = false;
};

}  // namespace ga::serve

#endif  // GRAPHALYTICS_SERVE_SERVER_H_
