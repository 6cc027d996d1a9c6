// The crash/restart matrix (DESIGN.md §13): spmat and bsplite running
// BFS / PageRank / WCC over R1 and G22, crashed by the fault injector at
// superstep 1, the midpoint and the last superstep, then resumed from
// the checkpoint at --jobs 1 / 2 / 8. The resumed run's outputs,
// WorkLedger and simulated metrics must be BYTE-IDENTICAL to an
// uninterrupted run — the whole point of the checkpoint design.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/exec/thread_pool.h"
#include "faults/faults.h"
#include "harness/dataset_registry.h"
#include "platforms/platform.h"
#include "resilience/checkpoint.h"

namespace ga {
namespace {

harness::BenchmarkConfig FastConfig() {
  harness::BenchmarkConfig config;
  config.scale_divisor = 16384;
  config.seed = 13;
  return config;
}

platform::ExecutionEnvironment BaseEnv(exec::ThreadPool* pool) {
  platform::ExecutionEnvironment env;
  env.num_machines = 2;
  env.threads_per_machine = 8;
  env.memory_budget_bytes = 1LL << 30;
  env.host_pool = pool;
  return env;
}

Result<platform::RunResult> RunOnce(
    const std::string& platform_id, const Graph& graph,
    Algorithm algorithm, const AlgorithmParams& params,
    exec::ThreadPool* pool, const resilience::CheckpointPlan& checkpoint,
    faults::FaultInjector* injector) {
  GA_ASSIGN_OR_RETURN(auto platform,
                      platform::CreatePlatform(platform_id));
  platform::ExecutionEnvironment env = BaseEnv(pool);
  env.checkpoint = checkpoint;
  env.faults = injector;
  return platform->RunJob(graph, algorithm, params, env);
}

void ExpectBitIdentical(const platform::RunResult& expected,
                        const platform::RunResult& actual,
                        const std::string& what) {
  ASSERT_EQ(expected.output.int_values.size(),
            actual.output.int_values.size())
      << what;
  EXPECT_EQ(expected.output.int_values, actual.output.int_values) << what;
  ASSERT_EQ(expected.output.double_values.size(),
            actual.output.double_values.size())
      << what;
  for (std::size_t i = 0; i < expected.output.double_values.size(); ++i) {
    ASSERT_EQ(std::memcmp(&expected.output.double_values[i],
                          &actual.output.double_values[i], sizeof(double)),
              0)
        << what << " double_values[" << i << "]";
  }
  EXPECT_EQ(expected.metrics.supersteps, actual.metrics.supersteps) << what;
  EXPECT_EQ(expected.metrics.ledger.compute_ops,
            actual.metrics.ledger.compute_ops)
      << what;
  EXPECT_EQ(expected.metrics.ledger.messages,
            actual.metrics.ledger.messages)
      << what;
  EXPECT_EQ(expected.metrics.ledger.remote_bytes,
            actual.metrics.ledger.remote_bytes)
      << what;
  EXPECT_EQ(expected.metrics.ledger.allocations,
            actual.metrics.ledger.allocations)
      << what;
  EXPECT_EQ(expected.metrics.ledger.rows_materialized,
            actual.metrics.ledger.rows_materialized)
      << what;
  EXPECT_EQ(expected.metrics.processing_sim_seconds,
            actual.metrics.processing_sim_seconds)
      << what;
  EXPECT_EQ(expected.metrics.makespan_sim_seconds,
            actual.metrics.makespan_sim_seconds)
      << what;
  EXPECT_EQ(expected.metrics.upload_sim_seconds,
            actual.metrics.upload_sim_seconds)
      << what;
}

TEST(CheckpointRestartTest, RestartMatrixIsByteIdentical) {
  harness::DatasetRegistry registry(FastConfig());
  exec::ThreadPool pool1(1), pool2(2), pool8(8);
  const std::vector<std::pair<int, exec::ThreadPool*>> pools = {
      {1, &pool1}, {2, &pool2}, {8, &pool8}};

  int cells = 0;
  for (const char* dataset : {"R1", "G22"}) {
    auto graph = registry.Load(dataset);
    ASSERT_TRUE(graph.ok()) << graph.status().ToString();
    auto params = registry.ParamsFor(dataset);
    ASSERT_TRUE(params.ok()) << params.status().ToString();

    for (const char* platform_id : {"spmat", "bsplite"}) {
      for (Algorithm algorithm :
           {Algorithm::kBfs, Algorithm::kPageRank, Algorithm::kWcc}) {
        const std::string cell = std::string(platform_id) + "/" + dataset +
                                 "/" + std::string(AlgorithmName(algorithm));

        // The oracle: one uninterrupted, checkpoint-free run.
        auto clean = RunOnce(platform_id, **graph, algorithm, *params,
                             &pool2, {}, nullptr);
        ASSERT_TRUE(clean.ok()) << cell << ": " << clean.status().ToString();
        const int total_supersteps = clean->metrics.supersteps;
        ASSERT_GE(total_supersteps, 1) << cell;

        // Crash at the first superstep (before any checkpoint exists:
        // restart is a fresh run), the midpoint, and the last superstep.
        std::set<int> crash_points = {1, std::max(total_supersteps / 2, 1),
                                      total_supersteps};
        for (int crash_at : crash_points) {
          for (const auto& [jobs, pool] : pools) {
            const std::string what =
                cell + " crash@" + std::to_string(crash_at) + " resume@-j" +
                std::to_string(jobs);
            const std::string path =
                ::testing::TempDir() + "/restart_" +
                std::to_string(cells) + "_" + std::to_string(crash_at) +
                "_j" + std::to_string(jobs) + ".gackpt";
            // A leftover file from an aborted earlier invocation would
            // make the crash run resume straight past the fault point.
            std::remove(path.c_str());
            resilience::CheckpointPlan plan;
            plan.path = path;
            plan.cadence = 1;
            plan.resume = true;

            faults::FaultPlan fault;
            fault.crash_at_superstep = crash_at;
            faults::FaultInjector injector(fault);
            auto crashed = RunOnce(platform_id, **graph, algorithm,
                                   *params, &pool2, plan, &injector);
            ASSERT_FALSE(crashed.ok())
                << what << ": injected crash did not fire";
            EXPECT_EQ(crashed.status().code(), StatusCode::kAborted)
                << what << ": " << crashed.status().ToString();
            if (crash_at > 1) {
              EXPECT_TRUE(resilience::CheckpointExists(path))
                  << what << ": no checkpoint left behind";
            }

            auto resumed = RunOnce(platform_id, **graph, algorithm,
                                   *params, pool, plan, nullptr);
            ASSERT_TRUE(resumed.ok())
                << what << ": " << resumed.status().ToString();
            ExpectBitIdentical(*clean, *resumed, what);
            std::remove(path.c_str());
          }
        }
        ++cells;
      }
    }
  }
  EXPECT_EQ(cells, 12);  // 2 platforms x 3 algorithms x 2 datasets
}

// A checkpoint from one job must never restore into another: the job key
// covers platform, algorithm, graph shape and the simulated cluster.
TEST(CheckpointRestartTest, StaleCheckpointFromOtherJobIsRejected) {
  harness::DatasetRegistry registry(FastConfig());
  exec::ThreadPool pool(2);
  auto graph = registry.Load("R1");
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();
  auto params = registry.ParamsFor("R1");
  ASSERT_TRUE(params.ok());

  const std::string path = ::testing::TempDir() + "/stale_job.gackpt";
  std::remove(path.c_str());
  resilience::CheckpointPlan plan;
  plan.path = path;
  plan.cadence = 1;
  plan.resume = true;

  // Leave a BFS checkpoint behind via an injected crash late in the run.
  auto clean = RunOnce("spmat", **graph, Algorithm::kBfs, *params, &pool,
                       {}, nullptr);
  ASSERT_TRUE(clean.ok());
  faults::FaultPlan fault;
  fault.crash_at_superstep = std::max(clean->metrics.supersteps, 2);
  faults::FaultInjector injector(fault);
  auto crashed = RunOnce("spmat", **graph, Algorithm::kBfs, *params, &pool,
                         plan, &injector);
  ASSERT_FALSE(crashed.ok());
  ASSERT_TRUE(resilience::CheckpointExists(path));

  // Resuming a DIFFERENT algorithm from the same path must fail loudly
  // (key mismatch), not restore garbage.
  auto cross = RunOnce("spmat", **graph, Algorithm::kWcc, *params, &pool,
                       plan, nullptr);
  ASSERT_FALSE(cross.ok()) << "stale checkpoint restored across jobs";
  EXPECT_EQ(cross.status().code(), StatusCode::kFailedPrecondition)
      << cross.status().ToString();
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ga
