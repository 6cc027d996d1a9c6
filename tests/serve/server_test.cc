// End-to-end tests for the ga::serve daemon core: in-process submission
// through the real admission/residency/execution path (no socket — the
// protocol layer has its own tests; the CLI smoke covers the listener).
#include "serve/server.h"

#include <gtest/gtest.h>

#include <csignal>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "algo/output.h"
#include "core/exec/thread_pool.h"
#include "core/json_reader.h"
#include "harness/dataset_registry.h"
#include "platforms/platform.h"
#include "store/snapshot.h"

namespace ga::serve {
namespace {

harness::BenchmarkConfig TinyBench() {
  harness::BenchmarkConfig bench;
  bench.scale_divisor = 16384;  // a few dozen vertices per dataset
  bench.seed = 42;
  bench.host_jobs = 2;
  return bench;
}

ServeOptions BaseOptions() {
  ServeOptions options;
  options.queue_capacity = 8;
  options.workers = 1;
  options.bench = TinyBench();
  return options;
}

Request RunRequestFor(const std::string& id, const std::string& dataset,
                      Algorithm algorithm = Algorithm::kBfs) {
  Request request;
  request.op = RequestOp::kRun;
  request.id = id;
  request.dataset = dataset;
  request.algorithm = algorithm;
  return request;
}

/// Thread-safe response sink for the asynchronous Submit callback.
struct ResponseCollector {
  std::mutex mutex;
  std::condition_variable arrived;
  std::vector<Response> responses;

  std::function<void(const Response&)> Callback() {
    return [this](const Response& response) {
      {
        std::lock_guard<std::mutex> lock(mutex);
        responses.push_back(response);
      }
      arrived.notify_all();
    };
  }

  Response WaitFor(const std::string& id) {
    std::unique_lock<std::mutex> lock(mutex);
    for (;;) {
      for (const Response& response : responses) {
        if (response.id == id) return response;
      }
      arrived.wait(lock);
    }
  }

  std::size_t Count() {
    std::lock_guard<std::mutex> lock(mutex);
    return responses.size();
  }
};

// Admission decisions surface synchronously through Submit when the
// queue is full — with no executors running (Start never called) the
// queue state is fully deterministic.
TEST(ServerAdmissionTest, ShedsAndDisplacesDeterministically) {
  ResponseCollector collector;
  ServeOptions options = BaseOptions();
  options.queue_capacity = 2;
  Server server(options);
  server.Submit(RunRequestFor("a", "R1"), collector.Callback());
  server.Submit(RunRequestFor("b", "R1"), collector.Callback());
  EXPECT_EQ(collector.Count(), 0u) << "admitted jobs respond later";
  // Queue full, equal priority: the arrival is shed with a retry hint.
  server.Submit(RunRequestFor("c", "R1"), collector.Callback());
  {
    Response shed = collector.WaitFor("c");
    EXPECT_EQ(shed.status, "shed");
    EXPECT_EQ(shed.code, "RESOURCE_EXHAUSTED");
    EXPECT_GT(shed.retry_after_ms, 0.0);
  }
  // A higher-priority arrival displaces the youngest queued job.
  Request vip = RunRequestFor("vip", "R1");
  vip.priority = 9;
  server.Submit(vip, collector.Callback());
  {
    Response displaced = collector.WaitFor("b");
    EXPECT_EQ(displaced.status, "shed");
    EXPECT_NE(displaced.message.find("displaced"), std::string::npos);
  }
  EXPECT_EQ(server.StatsSnapshot().queue.shed_victims, 1);
}

TEST(ServerAdmissionTest, DuplicateInFlightIdIsRejected) {
  ResponseCollector collector;
  Server server(BaseOptions());
  server.Submit(RunRequestFor("same", "R1"), collector.Callback());
  server.Submit(RunRequestFor("same", "R1"), collector.Callback());
  Response duplicate = collector.WaitFor("same");
  EXPECT_EQ(duplicate.code, "ALREADY_EXISTS");
}

TEST(ServerTest, CompletedRunMatchesBatchModeByteForByte) {
  ResponseCollector collector;
  ServeOptions options = BaseOptions();
  Server server(options);
  ASSERT_TRUE(server.Start().ok());
  server.Submit(RunRequestFor("r1", "R2", Algorithm::kBfs),
                collector.Callback());
  Response response = collector.WaitFor("r1");
  ASSERT_EQ(response.status, "completed") << response.message;
  EXPECT_EQ(response.output_fnv.size(), 16u);
  EXPECT_GT(response.supersteps, 0);
  EXPECT_GT(response.tproc_seconds, 0.0);

  // The same workload through the batch path must produce the identical
  // output bytes (the serve/batch identity the chaos bench relies on).
  harness::DatasetRegistry registry(options.bench);
  exec::ThreadPool pool(options.bench.host_jobs);
  registry.set_host_pool(&pool);
  auto graph = registry.Load("R2");
  ASSERT_TRUE(graph.ok());
  auto params = registry.ParamsFor("R2");
  ASSERT_TRUE(params.ok());
  auto platform = platform::CreatePlatform("bsplite");
  ASSERT_TRUE(platform.ok());
  platform::ExecutionEnvironment env;
  env.num_machines = 1;
  env.threads_per_machine = 32;
  env.memory_budget_bytes = options.bench.ScaledMemoryBudget();
  env.overhead_scale =
      1.0 / static_cast<double>(options.bench.scale_divisor);
  env.host_pool = &pool;
  auto run = (*platform)->RunJob(**graph, Algorithm::kBfs, *params, env);
  ASSERT_TRUE(run.ok());
  const std::string text = FormatOutput(**graph, run->output);
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(
                    store::Fnv1a64(text.data(), text.size())));
  EXPECT_EQ(response.output_fnv, hex);
  EXPECT_TRUE(server.Drain().ok());
  EXPECT_EQ(server.StatsSnapshot().completed, 1);
}

TEST(ServerTest, ValidatedRunSetsValidatedFlag) {
  ResponseCollector collector;
  Server server(BaseOptions());
  ASSERT_TRUE(server.Start().ok());
  Request request = RunRequestFor("v1", "R1", Algorithm::kPageRank);
  request.validate = true;
  server.Submit(request, collector.Callback());
  Response response = collector.WaitFor("v1");
  ASSERT_EQ(response.status, "completed") << response.message;
  EXPECT_TRUE(response.validated);
}

TEST(ServerTest, ExpiredDeadlineSurfacesTimedOut) {
  ResponseCollector collector;
  Server server(BaseOptions());  // one executor
  ASSERT_TRUE(server.Start().ok());
  // "slow" occupies the executor for at least the cold dataset load;
  // "late" has a 1 ms deadline that expires while it waits in the queue.
  server.Submit(RunRequestFor("slow", "R2"), collector.Callback());
  Request late = RunRequestFor("late", "R2");
  late.deadline_ms = 1.0;
  server.Submit(late, collector.Callback());
  Response response = collector.WaitFor("late");
  EXPECT_EQ(response.status, "timed-out");
  EXPECT_EQ(response.code, "DEADLINE_EXCEEDED");
  EXPECT_EQ(collector.WaitFor("slow").status, "completed");
  EXPECT_EQ(server.StatsSnapshot().timed_out, 1);
}

TEST(ServerTest, CancelStopsInFlightRequestAndFreesExecutor) {
  ResponseCollector collector;
  Server server(BaseOptions());
  ASSERT_TRUE(server.Start().ok());
  // "blocker" occupies the single executor, so "doomed" is still queued
  // (or at best mid-load) when the cancel lands — deterministic.
  server.Submit(RunRequestFor("blocker", "R2"), collector.Callback());
  server.Submit(RunRequestFor("doomed", "R3"), collector.Callback());
  Response ack = server.Cancel("doomed", "test cancel");
  EXPECT_EQ(ack.status, "cancel-requested");
  Response response = collector.WaitFor("doomed");
  EXPECT_EQ(response.status, "cancelled");
  EXPECT_EQ(response.code, "CANCELLED");
  EXPECT_EQ(collector.WaitFor("blocker").status, "completed");
  // The executor slot is free for the next job.
  server.Submit(RunRequestFor("next", "R1"), collector.Callback());
  EXPECT_EQ(collector.WaitFor("next").status, "completed");
  // A finished request is no longer cancellable.
  EXPECT_EQ(server.Cancel("doomed", "again").code, "NOT_FOUND");
  EXPECT_EQ(server.StatsSnapshot().cancelled, 1);
}

TEST(ServerTest, TinyMemoryBudgetShedsWithRetryHint) {
  ResponseCollector collector;
  ServeOptions options = BaseOptions();
  options.memory_budget_bytes = 64;  // smaller than any dataset
  Server server(options);
  ASSERT_TRUE(server.Start().ok());
  server.Submit(RunRequestFor("big", "R2"), collector.Callback());
  Response response = collector.WaitFor("big");
  EXPECT_EQ(response.status, "shed");
  EXPECT_EQ(response.code, "RESOURCE_EXHAUSTED");
  EXPECT_GT(response.retry_after_ms, 0.0);
  EXPECT_EQ(server.StatsSnapshot().resident_bytes, 0);
}

TEST(ServerTest, ChaosRequestFailsWithoutLeakingIntoCleanRuns) {
  ResponseCollector collector;
  ServeOptions options = BaseOptions();
  options.workers = 2;  // clean + faulted can overlap
  Server server(options);
  ASSERT_TRUE(server.Start().ok());
  Request faulted = RunRequestFor("faulted", "R1", Algorithm::kPageRank);
  faulted.faults = "crash_at_superstep=1,seed=7";
  server.Submit(faulted, collector.Callback());
  server.Submit(RunRequestFor("clean", "R1", Algorithm::kPageRank),
                collector.Callback());
  Response faulted_response = collector.WaitFor("faulted");
  EXPECT_NE(faulted_response.status, "completed");
  Response clean_response = collector.WaitFor("clean");
  EXPECT_EQ(clean_response.status, "completed") << clean_response.message;
  // Re-running clean after the fault gives the identical output: the
  // injector never leaked outside the faulted request.
  server.Submit(RunRequestFor("clean2", "R1", Algorithm::kPageRank),
                collector.Callback());
  Response again = collector.WaitFor("clean2");
  ASSERT_EQ(again.status, "completed");
  EXPECT_EQ(again.output_fnv, clean_response.output_fnv);
  EXPECT_EQ(server.StatsSnapshot().faulted_requests, 1);
}

// A fault plan rides its own request's job. Here a validated clean
// request and a faulted one overlap on two executors, pair after pair:
// the faulted job stalls in its first loop while the clean job runs and
// its reference run validates it, then aborts in its second loop. The
// abort must fail the faulted request alone, with the same message as a
// solo run, and leave the clean output byte-identical to a solo run.
TEST(ServerTest, FaultedRequestsOverlapValidatedCleanRequests) {
  ResponseCollector collector;
  ServeOptions options = BaseOptions();
  // G22 at 1/1024 has 4096 vertices, so every loop over the vertices has
  // the slot the plan's seed picks for the abort.
  options.bench.scale_divisor = 1024;
  options.workers = 2;
  Server server(options);
  ASSERT_TRUE(server.Start().ok());
  Request clean = RunRequestFor("clean-solo", "G22", Algorithm::kPageRank);
  clean.validate = true;
  Request faulted = RunRequestFor("faulted-solo", "G22", Algorithm::kBfs);
  faulted.faults = "stall_at_loop=1,stall_ms=200,abort_at_loop=2";

  server.Submit(clean, collector.Callback());
  const Response solo_clean = collector.WaitFor(clean.id);
  ASSERT_EQ(solo_clean.status, "completed") << solo_clean.message;
  ASSERT_TRUE(solo_clean.validated);
  server.Submit(faulted, collector.Callback());
  const Response solo_faulted = collector.WaitFor(faulted.id);
  ASSERT_EQ(solo_faulted.status, "crashed") << solo_faulted.message;
  ASSERT_NE(solo_faulted.message.find("injected worker-chunk abort"),
            std::string::npos)
      << solo_faulted.message;

  constexpr int kPairs = 20;
  for (int i = 0; i < kPairs; ++i) {
    clean.id = "clean-" + std::to_string(i);
    faulted.id = "faulted-" + std::to_string(i);
    server.Submit(clean, collector.Callback());
    server.Submit(faulted, collector.Callback());
    const Response clean_response = collector.WaitFor(clean.id);
    EXPECT_EQ(clean_response.status, "completed")
        << clean.id << ": " << clean_response.message;
    EXPECT_TRUE(clean_response.validated) << clean.id;
    EXPECT_EQ(clean_response.output_fnv, solo_clean.output_fnv) << clean.id;
    const Response faulted_response = collector.WaitFor(faulted.id);
    EXPECT_EQ(faulted_response.status, "crashed") << faulted.id;
    EXPECT_EQ(faulted_response.message, solo_faulted.message) << faulted.id;
  }
  const ServeStats stats = server.StatsSnapshot();
  EXPECT_EQ(stats.completed, kPairs + 1);
  EXPECT_EQ(stats.faulted_requests, kPairs + 1);
  EXPECT_TRUE(server.Drain().ok());
}

// kill_at_superstep raises a real SIGKILL, which in the daemon would end
// every request in flight: the plan is refused before residency.
TEST(ServerTest, KillPlanIsRefusedBeforeResidency) {
  ResponseCollector collector;
  Server server(BaseOptions());
  ASSERT_TRUE(server.Start().ok());
  Request request = RunRequestFor("k1", "R1");
  request.faults = "kill_at_superstep=1";
  server.Submit(request, collector.Callback());
  const Response refused = collector.WaitFor("k1");
  EXPECT_EQ(refused.status, "error");
  EXPECT_EQ(refused.code, "INVALID_ARGUMENT");
  EXPECT_NE(refused.message.find("crash/restart harness"), std::string::npos)
      << refused.message;
  EXPECT_EQ(server.StatsSnapshot().residency_misses, 0);
  // The daemon still serves.
  server.Submit(RunRequestFor("after", "R1"), collector.Callback());
  EXPECT_EQ(collector.WaitFor("after").status, "completed");
}

TEST(ServerTest, MalformedFaultPlanIsAUsageError) {
  ResponseCollector collector;
  Server server(BaseOptions());
  ASSERT_TRUE(server.Start().ok());
  Request request = RunRequestFor("bad", "R1");
  request.faults = "flux_capacitor=1";
  server.Submit(request, collector.Callback());
  EXPECT_EQ(collector.WaitFor("bad").code, "INVALID_ARGUMENT");
}

TEST(ServerTest, DrainFinishCompletesQueuedJobsThenClosesAdmission) {
  ResponseCollector collector;
  Server server(BaseOptions());
  ASSERT_TRUE(server.Start().ok());
  server.Submit(RunRequestFor("d1", "R1"), collector.Callback());
  server.Submit(RunRequestFor("d2", "R1"), collector.Callback());
  ASSERT_TRUE(server.Drain().ok());
  EXPECT_EQ(collector.WaitFor("d1").status, "completed");
  EXPECT_EQ(collector.WaitFor("d2").status, "completed");
  // Admission is closed after (and during) the drain.
  server.Submit(RunRequestFor("late", "R1"), collector.Callback());
  Response late = collector.WaitFor("late");
  EXPECT_EQ(late.code, "FAILED_PRECONDITION");
  EXPECT_NE(late.message.find("draining"), std::string::npos);
  // Drain is idempotent.
  EXPECT_TRUE(server.Drain().ok());
}

TEST(ServerTest, DrainCancelPolicyCancelsInsteadOfFinishing) {
  ResponseCollector collector;
  ServeOptions options = BaseOptions();
  options.drain = ServeOptions::DrainPolicy::kCancel;
  Server server(options);
  ASSERT_TRUE(server.Start().ok());
  server.Submit(RunRequestFor("c1", "R2"), collector.Callback());
  server.Submit(RunRequestFor("c2", "R2"), collector.Callback());
  server.Submit(RunRequestFor("c3", "R2"), collector.Callback());
  ASSERT_TRUE(server.Drain().ok());
  // Every job got exactly one response; the queued ones were cancelled
  // (the one already running may have squeaked through to completion).
  int cancelled = 0;
  for (const char* id : {"c1", "c2", "c3"}) {
    Response response = collector.WaitFor(id);
    EXPECT_TRUE(response.status == "cancelled" ||
                response.status == "completed")
        << id << " -> " << response.status;
    if (response.status == "cancelled") ++cancelled;
  }
  EXPECT_EQ(collector.Count(), 3u);
  EXPECT_GE(cancelled, 2);
}

Server* g_signal_server = nullptr;
void HandleDrainSignal(int) {
  if (g_signal_server != nullptr) g_signal_server->RequestDrain();
}

// The CLI wires SIGINT/SIGTERM to RequestDrain (async-signal-safe: an
// atomic store plus a self-pipe write); ServeUntilDrained picks the flag
// up and performs the actual drain off the signal path.

TEST(ServerTelemetryTest, CompletedResponseCarriesStageTimings) {
  ResponseCollector collector;
  Server server(BaseOptions());
  ASSERT_TRUE(server.Start().ok());
  server.Submit(RunRequestFor("t1", "R1"), collector.Callback());
  Response response = collector.WaitFor("t1");
  ASSERT_EQ(response.status, "completed") << response.message;
  EXPECT_GE(response.queue_wait_ms, 0.0);
  EXPECT_GE(response.load_ms, 0.0);
  EXPECT_GT(response.exec_ms, 0.0);
  // The rendered line surfaces them for socket clients.
  const std::string line = FormatResponse(response);
  EXPECT_NE(line.find("\"queue_wait_ms\":"), std::string::npos);
  EXPECT_NE(line.find("\"load_ms\":"), std::string::npos);
  EXPECT_NE(line.find("\"exec_ms\":"), std::string::npos);
}

TEST(ServerTelemetryTest, StatsExposeStageDistributionsAndEwma) {
  ResponseCollector collector;
  Server server(BaseOptions());
  ASSERT_TRUE(server.Start().ok());
  server.Submit(RunRequestFor("s1", "R1"), collector.Callback());
  ASSERT_EQ(collector.WaitFor("s1").status, "completed");
  Response stats = server.Stats();
  ASSERT_EQ(stats.status, "stats");
  auto doc = json::Parse(stats.stats_json);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(doc->GetNumber("completed"), 1.0);
  EXPECT_GT(doc->GetNumber("service_ewma_ms"), 0.0);
  EXPECT_EQ(doc->GetNumber("workers"), 1.0);
  const json::Value* stages = doc->Find("stages");
  ASSERT_NE(stages, nullptr);
  for (const char* stage : {"queue_wait", "load", "execute", "serialize"}) {
    const json::Value* entry = stages->Find(stage);
    ASSERT_NE(entry, nullptr) << stage;
    EXPECT_EQ(entry->GetNumber("count"), 1.0) << stage;
    EXPECT_GE(entry->GetNumber("p99_ms"), entry->GetNumber("p50_ms"))
        << stage;
  }
}

TEST(ServerTelemetryTest, MetricsExposesCoreSeriesInPrometheusFormat) {
  ResponseCollector collector;
  ServeOptions options = BaseOptions();
  options.queue_capacity = 1;
  Server server(options);
  ASSERT_TRUE(server.Start().ok());
  server.Submit(RunRequestFor("m1", "R1"), collector.Callback());
  ASSERT_EQ(collector.WaitFor("m1").status, "completed");
  Response metrics = server.Metrics();
  ASSERT_EQ(metrics.status, "metrics");
  const std::string& body = metrics.body;
  EXPECT_NE(body.find("# TYPE ga_serve_requests_total counter"),
            std::string::npos);
  EXPECT_NE(body.find("ga_serve_requests_total{outcome=\"completed\"} 1"),
            std::string::npos);
  EXPECT_NE(body.find("# TYPE ga_serve_stage_seconds histogram"),
            std::string::npos);
  EXPECT_NE(
      body.find("ga_serve_stage_seconds_count{stage=\"execute\"} 1"),
      std::string::npos);
  EXPECT_NE(body.find("ga_serve_admission_total"), std::string::npos);
  EXPECT_NE(body.find("ga_serve_residency_total{event=\"miss\"} 1"),
            std::string::npos);
  EXPECT_NE(body.find("ga_exec_chunks_total"), std::string::npos);
  // The rendered response keeps the one-line framing: the exposition
  // rides in a JSON string field.
  const std::string line = FormatResponse(metrics);
  EXPECT_EQ(line.find('\n'), std::string::npos);
  auto parsed = json::Parse(line);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->GetString("body"), body);
}

TEST(ServerTelemetryTest, ServersKeepIsolatedCounters) {
  // Two servers in one process must not bleed request counts into each
  // other (the per-server registry contract).
  ResponseCollector collector;
  Server first(BaseOptions());
  Server second(BaseOptions());
  ASSERT_TRUE(first.Start().ok());
  first.Submit(RunRequestFor("x1", "R1"), collector.Callback());
  ASSERT_EQ(collector.WaitFor("x1").status, "completed");
  EXPECT_EQ(first.StatsSnapshot().completed, 1);
  EXPECT_EQ(second.StatsSnapshot().completed, 0);
}

TEST(ServerTest, SigtermTriggersGracefulDrain) {
  ResponseCollector collector;
  Server server(BaseOptions());
  ASSERT_TRUE(server.Start().ok());
  server.Submit(RunRequestFor("s1", "R1"), collector.Callback());
  g_signal_server = &server;
  struct sigaction drain_action {};
  drain_action.sa_handler = HandleDrainSignal;
  struct sigaction previous {};
  ASSERT_EQ(::sigaction(SIGTERM, &drain_action, &previous), 0);
  std::thread killer([] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    ::raise(SIGTERM);
  });
  EXPECT_TRUE(server.ServeUntilDrained().ok());
  killer.join();
  ::sigaction(SIGTERM, &previous, nullptr);
  g_signal_server = nullptr;
  EXPECT_TRUE(server.drain_requested());
  EXPECT_EQ(collector.WaitFor("s1").status, "completed");
}

}  // namespace
}  // namespace ga::serve
