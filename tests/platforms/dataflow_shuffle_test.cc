// The dataflow engine's shuffle without per-superstep sorts must produce
// exactly what a sorted shuffle produced. The oracle below is that sorted
// path, kept as a test: every superstep materialises its message rows in
// emission order, std::sorts them by destination with the engine's
// comparator, and folds each destination's rows in sorted order.
//
// PageRank sums floats, so the oracle pins the summation order the engine
// replays from its once-per-job sort. BFS, SSSP and WCC merge with min,
// which the engine folds in emission order instead. Outputs must match
// bit for bit at host jobs 1, 2 and 8.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "algo/output.h"
#include "algo/params.h"
#include "core/exec/exec.h"
#include "core/exec/thread_pool.h"
#include "core/graph.h"
#include "datagen/graph500.h"
#include "platforms/platform.h"
#include "sysmodel/cluster.h"

namespace ga::platform {
namespace {

struct Row {
  VertexIndex dst;
  double value;
};

void SortByDestination(std::vector<Row>* rows) {
  std::sort(rows->begin(), rows->end(),
            [](const Row& a, const Row& b) { return a.dst < b.dst; });
}

std::vector<double> OraclePageRank(const Graph& graph, int iterations,
                                   double damping) {
  const VertexIndex n = graph.num_vertices();
  std::vector<double> rank(n, 1.0 / static_cast<double>(n));
  std::vector<double> next;
  std::vector<Row> rows;
  exec::ExecContext serial;
  for (int iteration = 0; iteration < iterations; ++iteration) {
    const double dangling = exec::parallel_reduce(
        serial, 0, n, 0.0,
        [&](const exec::Slice& slice, double& acc) {
          for (VertexIndex v = slice.begin; v < slice.end; ++v) {
            if (graph.OutDegree(v) == 0) acc += rank[v];
          }
        },
        [](double& into, double from) { into += from; });
    rows.clear();
    for (const Edge& edge : graph.edges()) {
      rows.push_back({edge.target,
                      rank[edge.source] /
                          static_cast<double>(graph.OutDegree(edge.source))});
      if (!graph.is_directed()) {
        rows.push_back(
            {edge.source,
             rank[edge.target] /
                 static_cast<double>(graph.OutDegree(edge.target))});
      }
    }
    SortByDestination(&rows);
    const double base = (1.0 - damping) / static_cast<double>(n) +
                        damping * dangling / static_cast<double>(n);
    next.assign(n, base);
    for (const Row& row : rows) next[row.dst] += damping * row.value;
    rank.swap(next);
  }
  return rank;
}

/// The sorted Pregel skeleton with min-merge and "improve if smaller"
/// apply, as BFS, SSSP and WCC use it.
template <typename SendFn>
std::vector<double> OracleMinPregel(const Graph& graph,
                                    std::vector<double> state,
                                    std::vector<char> active,
                                    bool reverse_sends, SendFn send) {
  const std::size_t n = state.size();
  std::vector<Row> rows;
  std::vector<char> next_active;
  for (std::size_t iteration = 0; iteration <= n; ++iteration) {
    if (std::none_of(active.begin(), active.end(),
                     [](char a) { return a != 0; })) {
      break;
    }
    rows.clear();
    for (const Edge& edge : graph.edges()) {
      if (active[edge.source]) {
        rows.push_back({edge.target, send(state[edge.source], edge)});
      }
      if ((!graph.is_directed() || reverse_sends) && active[edge.target]) {
        rows.push_back({edge.source, send(state[edge.target], edge)});
      }
    }
    SortByDestination(&rows);
    next_active.assign(n, 0);
    for (std::size_t i = 0; i < rows.size();) {
      const VertexIndex v = rows[i].dst;
      double combined = rows[i].value;
      std::size_t j = i + 1;
      for (; j < rows.size() && rows[j].dst == v; ++j) {
        combined = std::min(combined, rows[j].value);
      }
      if (combined < state[v]) {
        state[v] = combined;
        next_active[v] = 1;
      }
      i = j;
    }
    active.swap(next_active);
  }
  return state;
}

AlgorithmOutput OracleOutput(const Graph& graph, Algorithm algorithm,
                             const AlgorithmParams& params) {
  const VertexIndex n = graph.num_vertices();
  const VertexIndex root = graph.IndexOf(params.source_vertex);
  AlgorithmOutput output;
  output.algorithm = algorithm;
  std::vector<char> root_only(n, 0);
  root_only[root] = 1;
  switch (algorithm) {
    case Algorithm::kPageRank:
      output.double_values = OraclePageRank(
          graph, params.pagerank_iterations, params.damping_factor);
      break;
    case Algorithm::kBfs: {
      std::vector<double> state(n, static_cast<double>(kUnreachableHops));
      state[root] = 0.0;
      state = OracleMinPregel(
          graph, std::move(state), root_only, /*reverse_sends=*/false,
          [](double source_state, const Edge&) { return source_state + 1.0; });
      for (double hops : state) {
        output.int_values.push_back(hops >= 1e15
                                        ? kUnreachableHops
                                        : static_cast<std::int64_t>(hops));
      }
      break;
    }
    case Algorithm::kSssp: {
      std::vector<double> state(n, kUnreachableDistance);
      state[root] = 0.0;
      output.double_values = OracleMinPregel(
          graph, std::move(state), root_only, /*reverse_sends=*/false,
          [](double source_state, const Edge& edge) {
            return source_state + edge.weight;
          });
      break;
    }
    case Algorithm::kWcc: {
      std::vector<double> state(n);
      for (VertexIndex v = 0; v < n; ++v) {
        state[v] = static_cast<double>(graph.ExternalId(v));
      }
      state = OracleMinPregel(
          graph, std::move(state), std::vector<char>(n, 1),
          /*reverse_sends=*/true,
          [](double source_state, const Edge&) { return source_state; });
      for (double label : state) {
        output.int_values.push_back(static_cast<std::int64_t>(label));
      }
      break;
    }
    default:
      ADD_FAILURE() << "no oracle for " << AlgorithmName(algorithm);
  }
  return output;
}

AlgorithmOutput EngineOutput(const Graph& graph, Algorithm algorithm,
                             const AlgorithmParams& params, int host_jobs) {
  auto platform = CreatePlatform("dataflow");
  EXPECT_TRUE(platform.ok());
  exec::ThreadPool pool(host_jobs);
  ExecutionEnvironment env;
  env.host_pool = &pool;
  const CostProfile& profile = platform.value()->profile();
  sysmodel::ClusterModel cluster(MakeClusterConfig(env, profile));
  JobContext ctx(cluster, /*memory=*/nullptr, profile,
                 /*processing_op=*/nullptr, env);
  auto output =
      platform.value()->ExecuteKernel(ctx, graph, algorithm, params);
  EXPECT_TRUE(output.ok()) << output.status().ToString();
  return output.ok() ? std::move(output).value() : AlgorithmOutput{};
}

void ExpectBitIdentical(const AlgorithmOutput& expected,
                        const AlgorithmOutput& actual,
                        const std::string& what) {
  EXPECT_EQ(expected.int_values, actual.int_values) << what;
  ASSERT_EQ(expected.double_values.size(), actual.double_values.size())
      << what;
  for (std::size_t i = 0; i < expected.double_values.size(); ++i) {
    ASSERT_EQ(std::memcmp(&expected.double_values[i],
                          &actual.double_values[i], sizeof(double)),
              0)
        << what << " double_values[" << i << "]: " << expected.double_values[i]
        << " vs " << actual.double_values[i];
  }
}

Graph Graph500(Directedness directedness, bool weighted) {
  datagen::Graph500Config config;
  config.scale = 11;
  config.num_edges = 12000;
  config.directedness = directedness;
  config.weighted = weighted;
  config.seed = 23;
  auto graph = datagen::GenerateGraph500(config);
  if (!graph.ok()) std::abort();
  return std::move(graph).value();
}

void ExpectEngineMatchesOracle(const Graph& graph, const std::string& name) {
  AlgorithmParams params;
  params.source_vertex = graph.ExternalId(0);
  for (Algorithm algorithm : {Algorithm::kPageRank, Algorithm::kBfs,
                              Algorithm::kSssp, Algorithm::kWcc}) {
    if (algorithm == Algorithm::kSssp && !graph.is_weighted()) continue;
    const AlgorithmOutput oracle = OracleOutput(graph, algorithm, params);
    for (int host_jobs : {1, 2, 8}) {
      ExpectBitIdentical(
          oracle, EngineOutput(graph, algorithm, params, host_jobs),
          name + "/" + std::string(AlgorithmName(algorithm)) + " @" +
              std::to_string(host_jobs) + " host jobs");
    }
  }
}

TEST(DataflowShuffleTest, DirectedGraphMatchesSortedShuffle) {
  const Graph graph = Graph500(Directedness::kDirected, /*weighted=*/false);
  // Dangling vertices feed PageRank's redistributed mass.
  VertexIndex dangling = 0;
  for (VertexIndex v = 0; v < graph.num_vertices(); ++v) {
    dangling += graph.OutDegree(v) == 0 ? 1 : 0;
  }
  ASSERT_GT(dangling, 0);
  ExpectEngineMatchesOracle(graph, "directed");
}

TEST(DataflowShuffleTest, UndirectedWeightedGraphMatchesSortedShuffle) {
  const Graph graph = Graph500(Directedness::kUndirected, /*weighted=*/true);
  ExpectEngineMatchesOracle(graph, "undirected-weighted");
}

}  // namespace
}  // namespace ga::platform
