// Property-based tests: algorithm invariants that must hold on *any*
// graph, swept over a parameterised family of random R-MAT and social
// graphs (directed/undirected, several densities and seeds).
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <tuple>

#include "algo/reference.h"
#include "datagen/graph500.h"
#include "datagen/socialnet.h"

namespace ga {
namespace {

// (generator, directed, edges, seed)
using PropertyParam = std::tuple<std::string, bool, int, int>;

class AlgorithmPropertyTest
    : public ::testing::TestWithParam<PropertyParam> {
 protected:
  static Graph MakeGraph(const PropertyParam& param) {
    const auto& [family, directed, edges, seed] = param;
    if (family == "rmat") {
      datagen::Graph500Config config;
      config.scale = 10;
      config.num_edges = edges;
      config.weighted = true;
      config.directedness = directed ? Directedness::kDirected
                                     : Directedness::kUndirected;
      config.seed = static_cast<std::uint64_t>(seed);
      auto graph = datagen::GenerateGraph500(config);
      EXPECT_TRUE(graph.ok());
      return std::move(graph).value();
    }
    datagen::SocialNetConfig config;
    config.num_persons = 500;
    config.avg_degree = 2.0 * edges / 500.0;
    config.seed = static_cast<std::uint64_t>(seed);
    auto network = datagen::GenerateSocialNetwork(config);
    EXPECT_TRUE(network.ok());
    return std::move(network->graph);
  }
};

// BFS: hop counts along any edge differ by at most one in the forward
// direction; the source has hop 0 and every reachable hop is positive.
TEST_P(AlgorithmPropertyTest, BfsLevelsAreConsistent) {
  Graph graph = MakeGraph(GetParam());
  const VertexId source = graph.ExternalId(0);
  auto bfs = reference::Bfs(graph, source);
  ASSERT_TRUE(bfs.ok());
  const auto& hops = bfs->int_values;
  EXPECT_EQ(hops[graph.IndexOf(source)], 0);
  for (VertexIndex v = 0; v < graph.num_vertices(); ++v) {
    if (hops[v] == kUnreachableHops) continue;
    for (VertexIndex u : graph.OutNeighbors(v)) {
      // u is reachable via v with one extra hop.
      ASSERT_NE(hops[u], kUnreachableHops);
      EXPECT_LE(hops[u], hops[v] + 1);
    }
  }
}

// BFS: a vertex with hop h > 0 must have an in-neighbour with hop h - 1
// (there is an actual shortest path).
TEST_P(AlgorithmPropertyTest, BfsHopsHaveParents) {
  Graph graph = MakeGraph(GetParam());
  auto bfs = reference::Bfs(graph, graph.ExternalId(0));
  ASSERT_TRUE(bfs.ok());
  for (VertexIndex v = 0; v < graph.num_vertices(); ++v) {
    const std::int64_t h = bfs->int_values[v];
    if (h == kUnreachableHops || h == 0) continue;
    bool found_parent = false;
    for (VertexIndex u : graph.InNeighbors(v)) {
      if (bfs->int_values[u] == h - 1) {
        found_parent = true;
        break;
      }
    }
    EXPECT_TRUE(found_parent) << "vertex " << graph.ExternalId(v);
  }
}

// PageRank: ranks are positive and sum to 1 (dangling mass included).
TEST_P(AlgorithmPropertyTest, PageRankIsAProbabilityVector) {
  Graph graph = MakeGraph(GetParam());
  auto pr = reference::PageRank(graph, 15, 0.85);
  ASSERT_TRUE(pr.ok());
  double sum = 0.0;
  for (double rank : pr->double_values) {
    EXPECT_GT(rank, 0.0);
    sum += rank;
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

// PageRank: every vertex is bounded below by the teleport mass.
TEST_P(AlgorithmPropertyTest, PageRankTeleportFloor) {
  Graph graph = MakeGraph(GetParam());
  auto pr = reference::PageRank(graph, 15, 0.85);
  ASSERT_TRUE(pr.ok());
  const double floor =
      (1.0 - 0.85) / static_cast<double>(graph.num_vertices());
  for (double rank : pr->double_values) {
    EXPECT_GE(rank, floor * (1.0 - 1e-12));
  }
}

// WCC: the endpoints of every edge share a component, and components are
// labelled by their smallest member id.
TEST_P(AlgorithmPropertyTest, WccIsClosedOverEdges) {
  Graph graph = MakeGraph(GetParam());
  auto wcc = reference::Wcc(graph);
  ASSERT_TRUE(wcc.ok());
  for (const Edge& edge : graph.edges()) {
    EXPECT_EQ(wcc->int_values[edge.source], wcc->int_values[edge.target]);
  }
  for (VertexIndex v = 0; v < graph.num_vertices(); ++v) {
    EXPECT_LE(wcc->int_values[v], graph.ExternalId(v));
  }
}

// WCC agrees with BFS reachability: everything BFS reaches from the
// source lies in the source's component.
TEST_P(AlgorithmPropertyTest, WccContainsBfsReachableSet) {
  Graph graph = MakeGraph(GetParam());
  const VertexId source = graph.ExternalId(0);
  auto bfs = reference::Bfs(graph, source);
  auto wcc = reference::Wcc(graph);
  ASSERT_TRUE(bfs.ok());
  ASSERT_TRUE(wcc.ok());
  const std::int64_t component = wcc->int_values[graph.IndexOf(source)];
  for (VertexIndex v = 0; v < graph.num_vertices(); ++v) {
    if (bfs->int_values[v] != kUnreachableHops) {
      EXPECT_EQ(wcc->int_values[v], component);
    }
  }
}

// CDLP: deterministic, and after one iteration every label is either the
// vertex's own id (isolated) or the id of some neighbour.
TEST_P(AlgorithmPropertyTest, CdlpDeterministicAndLocal) {
  Graph graph = MakeGraph(GetParam());
  auto a = reference::Cdlp(graph, 5);
  auto b = reference::Cdlp(graph, 5);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->int_values, b->int_values);

  auto one = reference::Cdlp(graph, 1);
  ASSERT_TRUE(one.ok());
  for (VertexIndex v = 0; v < graph.num_vertices(); ++v) {
    const std::int64_t label = one->int_values[v];
    if (label == graph.ExternalId(v)) continue;
    bool is_neighbor_label = false;
    for (VertexIndex u : graph.OutNeighbors(v)) {
      if (graph.ExternalId(u) == label) is_neighbor_label = true;
    }
    for (VertexIndex u : graph.InNeighbors(v)) {
      if (graph.ExternalId(u) == label) is_neighbor_label = true;
    }
    EXPECT_TRUE(is_neighbor_label) << "vertex " << graph.ExternalId(v);
  }
}

// LCC: values lie in [0, 1]; degree < 2 vertices score exactly 0.
TEST_P(AlgorithmPropertyTest, LccBounded) {
  Graph graph = MakeGraph(GetParam());
  auto lcc = reference::Lcc(graph);
  ASSERT_TRUE(lcc.ok());
  for (VertexIndex v = 0; v < graph.num_vertices(); ++v) {
    EXPECT_GE(lcc->double_values[v], 0.0);
    EXPECT_LE(lcc->double_values[v], 1.0 + 1e-12);
    const EdgeIndex degree = graph.OutDegree(v) + (graph.is_directed()
                                                       ? graph.InDegree(v)
                                                       : 0);
    if (degree < 2) {
      EXPECT_DOUBLE_EQ(lcc->double_values[v], 0.0);
    }
  }
}

// SSSP: the relaxation fixpoint — no edge can improve any distance — and
// SSSP distances are consistent with BFS reachability.
TEST_P(AlgorithmPropertyTest, SsspIsARelaxationFixpoint) {
  Graph graph = MakeGraph(GetParam());
  if (!graph.is_weighted()) GTEST_SKIP();
  const VertexId source = graph.ExternalId(0);
  auto sssp = reference::Sssp(graph, source);
  auto bfs = reference::Bfs(graph, source);
  ASSERT_TRUE(sssp.ok());
  ASSERT_TRUE(bfs.ok());
  for (VertexIndex v = 0; v < graph.num_vertices(); ++v) {
    const double dv = sssp->double_values[v];
    // Reachability agrees with BFS.
    EXPECT_EQ(std::isinf(dv), bfs->int_values[v] == kUnreachableHops);
    if (std::isinf(dv)) continue;
    const auto neighbors = graph.OutNeighbors(v);
    const auto weights = graph.OutWeights(v);
    for (std::size_t i = 0; i < neighbors.size(); ++i) {
      EXPECT_LE(sssp->double_values[neighbors[i]], dv + weights[i] + 1e-9);
    }
  }
}

std::string PropertyParamName(
    const ::testing::TestParamInfo<PropertyParam>& info) {
  const auto& [family, directed, edges, seed] = info.param;
  return family + (directed ? "_directed_" : "_undirected_") +
         std::to_string(edges) + "_s" + std::to_string(seed);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AlgorithmPropertyTest,
    ::testing::Values(
        PropertyParam{"rmat", false, 2000, 1},
        PropertyParam{"rmat", false, 8000, 2},
        PropertyParam{"rmat", true, 2000, 3},
        PropertyParam{"rmat", true, 8000, 4},
        PropertyParam{"social", false, 3000, 5},
        PropertyParam{"social", false, 6000, 6}),
    PropertyParamName);

}  // namespace
}  // namespace ga
