// Steady-state allocation audit for the flat data-path overhaul
// (DESIGN.md §8): once the first supersteps have warmed every arena,
// pool and slot buffer to its high-water capacity, additional supersteps
// of bsplite and dataflow PageRank and of every engine's CDLP must
// perform ZERO heap allocations.
//
// Verified with a counting global operator new: the same kernel is run
// through Platform::ExecuteKernel (no Granula tree, no memory accountant
// — the raw data path) at k and k + d iterations; since both runs share
// an identical warm-up prefix, any difference in total allocation count
// is attributable to the d extra steady-state supersteps. The contract
// says that difference is exactly zero.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "algo/params.h"
#include "core/exec/alloc_stats.h"
#include "core/graph.h"
#include "core/rng.h"
#include "datagen/graph500.h"
#include "mutate/delta.h"
#include "mutate/incremental.h"
#include "platforms/platform.h"
#include "sysmodel/cluster.h"

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace ga::platform {
namespace {

const Graph& TestGraph() {
  static const Graph graph = [] {
    datagen::Graph500Config config;
    config.scale = 10;
    config.num_edges = 6000;
    config.directedness = Directedness::kDirected;
    config.seed = 11;
    auto built = datagen::GenerateGraph500(config);
    if (!built.ok()) std::abort();
    return std::move(built).value();
  }();
  return graph;
}

/// One kernel run's allocation audit: the interposed operator-new count
/// plus the per-site data-path growth report (AllocSite attribution —
/// which arena/pool grew and by how many bytes) for failure diagnosis.
struct RunAudit {
  std::uint64_t heap_allocations = 0;
  std::string datapath_growth;
};

/// Audits one kernel run with `iterations` PR/CDLP iterations,
/// single-threaded, raw data path.
RunAudit AllocationsForRun(const std::string& platform_id,
                           Algorithm algorithm, int iterations) {
  const Graph& graph = TestGraph();
  auto platform = CreatePlatform(platform_id);
  if (!platform.ok()) std::abort();
  AlgorithmParams params;
  params.source_vertex = graph.ExternalId(0);
  params.pagerank_iterations = iterations;
  params.cdlp_iterations = iterations;
  ExecutionEnvironment env;
  env.host_pool = nullptr;
  const CostProfile& profile = platform.value()->profile();
  sysmodel::ClusterModel cluster(MakeClusterConfig(env, profile));
  JobContext ctx(cluster, /*memory=*/nullptr, profile,
                 /*processing_op=*/nullptr, env);

  const exec::AllocSnapshot sites_before = exec::TakeAllocSnapshot();
  const std::uint64_t before = g_allocations.load();
  auto output = platform.value()->ExecuteKernel(ctx, graph, algorithm,
                                                params);
  const std::uint64_t after = g_allocations.load();
  if (!output.ok()) std::abort();
  return {after - before,
          exec::FormatAllocDelta(sites_before, exec::TakeAllocSnapshot())};
}

void ExpectZeroSteadyStateAllocations(const std::string& platform_id,
                                      Algorithm algorithm) {
  // 4 iterations warm every buffer past its high-water mark; the 4 extra
  // iterations of the second run must then allocate nothing.
  const RunAudit short_run = AllocationsForRun(platform_id, algorithm, 4);
  const RunAudit long_run = AllocationsForRun(platform_id, algorithm, 8);
  // Guard against a dead counter: warm-up (arena layout, outputs,
  // deployment) must be visible to the interposed operator new.
  ASSERT_GT(short_run.heap_allocations, 0u);
  EXPECT_EQ(long_run.heap_allocations, short_run.heap_allocations)
      << platform_id << " allocated "
      << (long_run.heap_allocations - short_run.heap_allocations) / 4.0
      << " times per steady-state superstep; data-path growth in the "
      << "longer run: "
      << (long_run.datapath_growth.empty() ? "none tracked"
                                           : long_run.datapath_growth);
}

TEST(SteadyStateAllocTest, BspLitePageRank) {
  ExpectZeroSteadyStateAllocations("bsplite", Algorithm::kPageRank);
}

TEST(SteadyStateAllocTest, BspLiteCdlp) {
  ExpectZeroSteadyStateAllocations("bsplite", Algorithm::kCdlp);
}

TEST(SteadyStateAllocTest, DataflowPageRank) {
  ExpectZeroSteadyStateAllocations("dataflow", Algorithm::kPageRank);
}

TEST(SteadyStateAllocTest, DataflowCdlp) {
  ExpectZeroSteadyStateAllocations("dataflow", Algorithm::kCdlp);
}

TEST(SteadyStateAllocTest, GasLiteCdlp) {
  ExpectZeroSteadyStateAllocations("gaslite", Algorithm::kCdlp);
}

TEST(SteadyStateAllocTest, SpMatCdlp) {
  ExpectZeroSteadyStateAllocations("spmat", Algorithm::kCdlp);
}

TEST(SteadyStateAllocTest, NativeKernelCdlp) {
  ExpectZeroSteadyStateAllocations("nativekernel", Algorithm::kCdlp);
}

TEST(SteadyStateAllocTest, PushPullCdlp) {
  ExpectZeroSteadyStateAllocations("pushpull", Algorithm::kCdlp);
}

// --- Frontier engines (BFS / WCC) ------------------------------------------
//
// BFS and WCC terminate on their own, so the iteration-count probe above
// does not apply. Instead, two runs are arranged to differ ONLY in how
// many supersteps they take — same graph (or same topology), identical
// frontier high-water profile — and their total allocation counts must be
// EQUAL: with the hybrid frontier every per-superstep buffer is reused at
// its high-water capacity, so extra supersteps contribute zero heap
// allocations.

/// Undirected path 0-1-...-n-1 with external ids permuted by `id`.
template <typename IdFn>
Graph PathGraph(VertexIndex n, IdFn&& id) {
  GraphBuilder builder(Directedness::kUndirected);
  for (VertexIndex v = 0; v < n; ++v) {
    builder.AddVertex(id(v));
  }
  for (VertexIndex v = 0; v + 1 < n; ++v) {
    builder.AddEdge(id(v), id(v + 1));
  }
  auto built = std::move(builder).Build();
  if (!built.ok()) std::abort();
  return std::move(built).value();
}

RunAudit AllocationsForGraphRun(const Graph& graph,
                                const std::string& platform_id,
                                Algorithm algorithm, VertexId source) {
  auto platform = CreatePlatform(platform_id);
  if (!platform.ok()) std::abort();
  AlgorithmParams params;
  params.source_vertex = source;
  ExecutionEnvironment env;
  env.host_pool = nullptr;
  const CostProfile& profile = platform.value()->profile();
  sysmodel::ClusterModel cluster(MakeClusterConfig(env, profile));
  JobContext ctx(cluster, /*memory=*/nullptr, profile,
                 /*processing_op=*/nullptr, env);
  const exec::AllocSnapshot sites_before = exec::TakeAllocSnapshot();
  const std::uint64_t before = g_allocations.load();
  auto output =
      platform.value()->ExecuteKernel(ctx, graph, algorithm, params);
  const std::uint64_t after = g_allocations.load();
  if (!output.ok()) std::abort();
  return {after - before,
          exec::FormatAllocDelta(sites_before, exec::TakeAllocSnapshot())};
}

/// BFS from two interior roots of the same path: identical frontier
/// profile (width <= 2 throughout), but max(k, n-1-k) supersteps — 1.5x
/// more for the off-centre root. Equal totals == zero per-superstep
/// allocations. Both roots share their exec-slice alignment (multiples
/// of the 64-vertex slot grain), so per-slot staging high-water marks —
/// which depend on which slices the two BFS waves traverse together —
/// are identical too.
void ExpectSuperstepInvariantBfsAllocations(const std::string& platform_id) {
  const VertexIndex n = 256;
  const Graph graph = PathGraph(n, [](VertexIndex v) { return v; });
  const RunAudit short_run =
      AllocationsForGraphRun(graph, platform_id, Algorithm::kBfs, n / 2);
  const RunAudit long_run =
      AllocationsForGraphRun(graph, platform_id, Algorithm::kBfs, n / 4);
  ASSERT_GT(short_run.heap_allocations, 0u);
  EXPECT_EQ(long_run.heap_allocations, short_run.heap_allocations)
      << platform_id << " BFS allocations scale with superstep count; "
      << "data-path growth in the longer run: "
      << (long_run.datapath_growth.empty() ? "none tracked"
                                           : long_run.datapath_growth);
}

/// WCC on two labelings of the same path topology: the component minimum
/// sits at one end vs in the middle, so convergence takes ~n vs ~n/2
/// label-propagation rounds over an identical degree structure.
void ExpectSuperstepInvariantWccAllocations(const std::string& platform_id) {
  const VertexIndex n = 256;
  const Graph end_min = PathGraph(n, [](VertexIndex v) { return v; });
  const Graph middle_min = PathGraph(n, [n](VertexIndex v) {
    // Bijection putting id 0 at the path's midpoint, ids growing outward.
    const VertexIndex m = n / 2;
    return v >= m ? 2 * (v - m) : 2 * (m - v) - 1;
  });
  const RunAudit long_run =
      AllocationsForGraphRun(end_min, platform_id, Algorithm::kWcc, 0);
  const RunAudit short_run =
      AllocationsForGraphRun(middle_min, platform_id, Algorithm::kWcc, 0);
  ASSERT_GT(short_run.heap_allocations, 0u);
  EXPECT_EQ(long_run.heap_allocations, short_run.heap_allocations)
      << platform_id << " WCC allocations scale with superstep count; "
      << "data-path growth in the longer run: "
      << (long_run.datapath_growth.empty() ? "none tracked"
                                           : long_run.datapath_growth);
}

TEST(SteadyStateAllocTest, PushPullBfsFrontier) {
  ExpectSuperstepInvariantBfsAllocations("pushpull");
}

TEST(SteadyStateAllocTest, SpMatBfsFrontier) {
  ExpectSuperstepInvariantBfsAllocations("spmat");
}

TEST(SteadyStateAllocTest, GasLiteBfsFrontier) {
  ExpectSuperstepInvariantBfsAllocations("gaslite");
}

TEST(SteadyStateAllocTest, BspLiteBfsFrontier) {
  ExpectSuperstepInvariantBfsAllocations("bsplite");
}

TEST(SteadyStateAllocTest, NativeKernelBfsFrontier) {
  ExpectSuperstepInvariantBfsAllocations("nativekernel");
}

TEST(SteadyStateAllocTest, PushPullWccFrontier) {
  ExpectSuperstepInvariantWccAllocations("pushpull");
}

TEST(SteadyStateAllocTest, SpMatWccFrontier) {
  ExpectSuperstepInvariantWccAllocations("spmat");
}

// --- Incremental engines (ga::mutate) ---------------------------------------
//
// The same contract extended to mutation epochs (DESIGN.md §12): after
// Initialize and the first Update have warmed the frontier staging, every
// further Update at constant n must perform zero data-path heap
// allocations. Probe: two runs over a SHARED pregenerated epoch chain,
// consuming 2 vs 6 epochs — identical warm-up prefix, so any count
// difference is attributable to the 4 extra steady-state epochs.

const Graph& MutateBaseGraph() {
  static const Graph graph = [] {
    datagen::Graph500Config config;
    config.scale = 9;
    config.num_edges = 3000;
    config.directedness = Directedness::kUndirected;
    config.seed = 17;
    auto built = datagen::GenerateGraph500(config);
    if (!built.ok()) std::abort();
    return std::move(built).value();
  }();
  return graph;
}

/// Six constant-n epochs (no vertex minting — growth epochs are allowed
/// to reallocate), pregenerated once so every audited run replays the
/// identical chain without ApplyDeltas inside the counted region.
const std::vector<mutate::MutationResult>& MutationChain() {
  static const std::vector<mutate::MutationResult>& chain = *[] {
    auto* results = new std::vector<mutate::MutationResult>();
    results->reserve(6);
    SplitMix64 rng(5);
    const Graph* current = &MutateBaseGraph();
    for (int epoch = 0; epoch < 6; ++epoch) {
      const mutate::DeltaBatch batch = mutate::RandomDeltaBatch(
          *current, {/*inserts=*/20, /*deletes=*/20, /*new_vertex_every=*/0},
          rng);
      auto applied = mutate::ApplyDeltas(*current, batch);
      if (!applied.ok()) std::abort();
      results->push_back(std::move(*applied));
      current = &results->back().graph;
    }
    return results;
  }();
  return chain;
}

std::uint64_t IncrementalPageRankAllocations(int epochs) {
  const std::vector<mutate::MutationResult>& chain = MutationChain();
  const std::uint64_t before = g_allocations.load();
  mutate::IncrementalPageRank engine(/*iterations=*/8, /*damping=*/0.85);
  if (!engine.Initialize(MutateBaseGraph()).ok()) std::abort();
  for (int epoch = 0; epoch < epochs; ++epoch) {
    if (!engine.Update(chain[epoch]).ok()) std::abort();
  }
  return g_allocations.load() - before;
}

std::uint64_t IncrementalWccAllocations(int epochs) {
  const std::vector<mutate::MutationResult>& chain = MutationChain();
  const std::uint64_t before = g_allocations.load();
  mutate::IncrementalWcc engine;
  if (!engine.Initialize(MutateBaseGraph()).ok()) std::abort();
  for (int epoch = 0; epoch < epochs; ++epoch) {
    if (!engine.Update(chain[epoch]).ok()) std::abort();
  }
  return g_allocations.load() - before;
}

TEST(SteadyStateAllocTest, IncrementalPageRankEpochs) {
  MutationChain();  // pregenerate outside the audit
  const std::uint64_t short_run = IncrementalPageRankAllocations(2);
  const std::uint64_t long_run = IncrementalPageRankAllocations(6);
  ASSERT_GT(short_run, 0u);  // Initialize must be visible to the counter
  EXPECT_EQ(long_run, short_run)
      << "IncrementalPageRank allocated "
      << (long_run - short_run) / 4.0
      << " times per steady-state mutation epoch";
}

TEST(SteadyStateAllocTest, IncrementalWccEpochs) {
  MutationChain();
  const std::uint64_t short_run = IncrementalWccAllocations(2);
  const std::uint64_t long_run = IncrementalWccAllocations(6);
  ASSERT_GT(short_run, 0u);
  EXPECT_EQ(long_run, short_run)
      << "IncrementalWcc allocated " << (long_run - short_run) / 4.0
      << " times per steady-state mutation epoch";
}

}  // namespace
}  // namespace ga::platform
