// Fault plans ride the job (DESIGN.md §13): on every engine, a job with
// an abort_at_loop plan and a clean job of the same cell run side by side
// on two pools, and neither sees the other. The clean job matches a solo
// clean run bit for bit; the faulted job fails exactly as a solo faulted
// run does, at the same dispatch ordinal.
#include <gtest/gtest.h>

#include <cstring>
#include <latch>
#include <optional>
#include <string>
#include <thread>

#include "core/exec/thread_pool.h"
#include "datagen/graph500.h"
#include "faults/faults.h"
#include "platforms/platform.h"

namespace ga::platform {
namespace {

Graph TestGraph() {
  datagen::Graph500Config config;
  config.scale = 10;
  config.num_edges = 5000;
  config.weighted = true;
  config.seed = 3;
  auto graph = datagen::GenerateGraph500(config);
  EXPECT_TRUE(graph.ok());
  return std::move(graph).value();
}

ExecutionEnvironment Env(exec::ThreadPool* pool) {
  ExecutionEnvironment env;  // one machine: every engine supports it
  env.num_machines = 1;
  env.threads_per_machine = 16;
  env.memory_budget_bytes = 1LL << 30;
  env.host_pool = pool;
  return env;
}

void ExpectSameRun(const RunResult& expected, const RunResult& actual,
                   const std::string& what) {
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
  const WorkLedger& want = expected.metrics.ledger;
  const WorkLedger& got = actual.metrics.ledger;
  EXPECT_EQ(want.compute_ops, got.compute_ops) << what;
  EXPECT_EQ(want.messages, got.messages) << what;
  EXPECT_EQ(want.remote_bytes, got.remote_bytes) << what;
  EXPECT_EQ(want.allocations, got.allocations) << what;
  EXPECT_EQ(want.rows_materialized, got.rows_materialized) << what;
  EXPECT_EQ(expected.metrics.supersteps, actual.metrics.supersteps) << what;
  EXPECT_EQ(expected.metrics.upload_sim_seconds,
            actual.metrics.upload_sim_seconds)
      << what;
  EXPECT_EQ(expected.metrics.processing_sim_seconds,
            actual.metrics.processing_sim_seconds)
      << what;
  EXPECT_EQ(expected.metrics.makespan_sim_seconds,
            actual.metrics.makespan_sim_seconds)
      << what;
}

TEST(PlatformFaultIsolationTest, FaultedJobBesideCleanJobOnEveryEngine) {
  const Graph graph = TestGraph();
  AlgorithmParams params;
  params.source_vertex = graph.ExternalId(0);
  // Seed 1 aborts slot 0, which every loop has, so the abort armed by the
  // second dispatch fires on every engine, even one whose later loops
  // run over small frontiers.
  faults::FaultPlan plan;
  plan.abort_at_loop = 2;
  plan.seed = 1;
  exec::ThreadPool clean_pool(2);
  exec::ThreadPool faulted_pool(2);

  int cells = 0;
  for (const std::string& id : AllPlatformIds()) {
    for (Algorithm algorithm : {Algorithm::kBfs, Algorithm::kPageRank}) {
      const std::string what =
          id + "/" + std::string(AlgorithmName(algorithm));
      auto clean_platform = CreatePlatform(id);
      auto faulted_platform = CreatePlatform(id);
      ASSERT_TRUE(clean_platform.ok() && faulted_platform.ok()) << what;

      auto solo_clean = (*clean_platform)
                            ->RunJob(graph, algorithm, params,
                                     Env(&clean_pool));
      ASSERT_TRUE(solo_clean.ok()) << what << ": "
                                   << solo_clean.status().ToString();
      faults::FaultInjector solo_injector(plan);
      ExecutionEnvironment solo_env = Env(&faulted_pool);
      solo_env.faults = &solo_injector;
      auto solo_faulted =
          (*faulted_platform)->RunJob(graph, algorithm, params, solo_env);
      ASSERT_FALSE(solo_faulted.ok()) << what << ": abort did not fire";
      ASSERT_EQ(solo_faulted.status().code(), StatusCode::kAborted) << what;

      // Several rounds, each started on a latch, so the two jobs overlap.
      for (int round = 0; round < 10; ++round) {
        faults::FaultInjector injector(plan);
        ExecutionEnvironment faulted_env = Env(&faulted_pool);
        faulted_env.faults = &injector;
        std::latch start(2);
        std::optional<Result<RunResult>> faulted;
        std::thread faulted_thread([&] {
          start.arrive_and_wait();
          faulted.emplace((*faulted_platform)
                              ->RunJob(graph, algorithm, params,
                                       faulted_env));
        });
        start.arrive_and_wait();
        auto clean = (*clean_platform)
                         ->RunJob(graph, algorithm, params, Env(&clean_pool));
        faulted_thread.join();

        const std::string round_what =
            what + " round " + std::to_string(round);
        ASSERT_TRUE(clean.ok()) << round_what << ": "
                                << clean.status().ToString();
        ExpectSameRun(*solo_clean, *clean, round_what);
        ASSERT_FALSE(faulted->ok()) << round_what;
        EXPECT_EQ(faulted->status().ToString(),
                  solo_faulted.status().ToString())
            << round_what;
        EXPECT_EQ(injector.loops_dispatched(),
                  solo_injector.loops_dispatched())
            << round_what;
      }
      ++cells;
    }
  }
  EXPECT_EQ(cells, 12);  // six engines x {BFS, PR}
}

}  // namespace
}  // namespace ga::platform
