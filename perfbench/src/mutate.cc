// mutate-stream: seeded random delta epochs at update rate 0.001 on the
// batch-sweep graph (D300). Each epoch runs mutate::ApplyDeltas ->
// store::WriteChainedSnapshot -> incremental PageRank and WCC Update ->
// one BFS RunJob on the child. Byte identity against a full recompute is
// checked after every epoch, off the epoch clock. The only workload that
// measures writes (CSR rebuild, snapshot write) beside reads.
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "algo/reference.h"
#include "common.h"
#include "core/rng.h"
#include "mutate/delta.h"
#include "mutate/incremental.h"
#include "store/chain.h"

namespace perfbench {
namespace {

constexpr std::int64_t kDivisor = 512;
constexpr int kHostJobs = 4;
constexpr int kSetupReps = 5;
constexpr double kUpdateRate = 0.001;
constexpr const char* kDataset = "D300";
constexpr const char* kReadPlatform = "spmat";
constexpr int kPageRankIterations = 20;
constexpr double kDamping = 0.85;
/// Epoch-time percentile reported as tail_ms: a 20 s run makes 82-108
/// epochs (four-core host), so more than 20 lie beyond it.
constexpr double kTailPercentile = 75.0;

/// The evolving chain: the incremental engines, the head graph and the
/// head snapshot's checksum.
struct Chain {
  Chain() : pagerank(kPageRankIterations, kDamping) {}
  ga::mutate::IncrementalPageRank pagerank;
  ga::mutate::IncrementalWcc wcc;
  const ga::Graph* root = nullptr;
  std::optional<ga::mutate::MutationResult> head;
  std::uint64_t head_checksum = 0;
  ga::AlgorithmParams params;  // the root's BFS source survives every epoch
  int epoch = 0;

  const ga::Graph& graph() const { return head ? head->graph : *root; }
};

/// One set-up: D300 generated into a fresh cache, plus the root's full
/// PageRank and WCC (the incremental engines' starting state).
bool SetUp(const ga::harness::BenchmarkConfig& config, bool probe,
           ga::exec::ThreadPool* pool, Tracer& tracer, SetupLayers* layers,
           Fixture* fixture, std::unique_ptr<Chain>* chain, Report& report) {
  *fixture = Fixture{};
  std::vector<ga::Algorithm> algorithms;
  if (probe) {
    algorithms = {ga::Algorithm::kBfs, ga::Algorithm::kPageRank,
                  ga::Algorithm::kWcc};
  }
  if (!BuildFixture(config, {kDataset}, algorithms, pool, tracer, layers,
                    fixture, report)) {
    return false;
  }
  *chain = std::make_unique<Chain>();
  Chain& c = **chain;
  c.root = *fixture->registry->Load(kDataset);
  c.params = *fixture->registry->ParamsFor(kDataset);
  auto checksum =
      ga::store::SnapshotChecksum(*fixture->registry->SnapshotPathFor(kDataset));
  if (!checksum.ok() || !c.pagerank.Initialize(*c.root, pool).ok() ||
      !c.wcc.Initialize(*c.root, pool).ok()) {
    report.Fail("mutation chain set-up failed");
    return false;
  }
  c.head_checksum = *checksum;
  return true;
}

/// Runs one epoch on the chain; returns its wall time in ms, or a negative
/// value on failure. `digest` absorbs the epoch's outputs.
double RunEpoch(Chain& chain, const ga::harness::BenchmarkConfig& config,
                ga::SplitMix64& rng, ga::exec::ThreadPool* pool,
                Tracer& tracer, Digest& digest, Report& report) {
  const ga::Graph& parent = chain.graph();
  ga::mutate::RandomBatchSpec spec;
  const std::int64_t ops = std::max<std::int64_t>(
      1, static_cast<std::int64_t>(
             kUpdateRate * static_cast<double>(parent.num_edges()) + 0.5));
  spec.inserts = ops / 2;
  spec.deletes = ops - spec.inserts;
  const ga::mutate::DeltaBatch batch =
      ga::mutate::RandomDeltaBatch(parent, spec, rng);
  const int epoch = ++chain.epoch;
  const std::string id = "e" + std::to_string(epoch);
  const std::string path = "chain-" + std::to_string(epoch % 2) + ".gab";
  auto platform = ga::platform::CreatePlatform(kReadPlatform);

  const Clock::time_point begin = Clock::now();
  std::optional<ga::Result<ga::platform::RunResult>> read;
  std::optional<ga::mutate::MutationResult> mutation;
  {
    Scope epoch_span(tracer, "mutate.epoch", id);
    {
      Scope span(tracer, "mutate.apply", id);
      auto applied = ga::mutate::ApplyDeltas(parent, batch, pool);
      if (!applied.ok()) {
        report.Fail(id + " apply: " + applied.status().ToString());
        return -1.0;
      }
      mutation = std::move(*applied);
    }
    {
      Scope span(tracer, "store.write", id);
      const ga::Status written = ga::store::WriteChainedSnapshot(
          mutation->graph, path, chain.head_checksum,
          static_cast<std::uint64_t>(epoch), batch);
      auto checksum = ga::store::SnapshotChecksum(path);
      if (!written.ok() || !checksum.ok()) {
        report.Fail(id + " snapshot write failed");
        return -1.0;
      }
      chain.head_checksum = *checksum;
    }
    {
      Scope span(tracer, "mutate.inc_pr", id);
      if (!chain.pagerank.Update(*mutation, pool).ok()) {
        report.Fail(id + " incremental PageRank failed");
        return -1.0;
      }
    }
    {
      Scope span(tracer, "mutate.inc_wcc", id);
      if (!chain.wcc.Update(*mutation, pool).ok()) {
        report.Fail(id + " incremental WCC failed");
        return -1.0;
      }
    }
    {
      Scope span(tracer, "mutate.read", id);
      read.emplace((*platform)->RunJob(mutation->graph, ga::Algorithm::kBfs,
                                 chain.params, JobEnvironment(config, pool)));
    }
  }
  const double epoch_ms = MsSince(begin);

  // Off the clock: byte identity against full recomputes on the child.
  const ga::Graph& child = mutation->graph;
  auto full_pr = ga::reference::PageRank(child, kPageRankIterations, kDamping,
                                         pool);
  auto full_wcc = ga::reference::Wcc(child, pool);
  auto full_bfs = ga::reference::Bfs(child, chain.params.source_vertex, pool);
  if (!read || !read->ok() || !full_pr.ok() || !full_wcc.ok() || !full_bfs.ok()) {
    report.Fail(id + " read or recompute failed");
    return -1.0;
  }
  const std::string pr_fnv = OutputFnv(child, chain.pagerank.output());
  const std::string wcc_fnv = OutputFnv(child, chain.wcc.output());
  const std::string bfs_fnv = OutputFnv(child, (*read)->output);
  if (pr_fnv != OutputFnv(child, *full_pr) ||
      wcc_fnv != OutputFnv(child, *full_wcc) ||
      bfs_fnv != OutputFnv(child, *full_bfs)) {
    report.Fail(id + " incremental or read output differs from a full "
                     "recompute");
    return -1.0;
  }
  digest.Add(pr_fnv);
  digest.Add(wcc_fnv);
  digest.Add(bfs_fnv);
  digest.Add(config.Project((*read)->metrics.processing_sim_seconds));
  digest.Add(config.Project((*read)->metrics.makespan_sim_seconds));
  digest.Add(static_cast<double>((*read)->metrics.supersteps));
  chain.head = std::move(mutation);
  return epoch_ms;
}

/// Epochs until `seconds` of wall time pass (at least three).
std::vector<double> RunEpochs(Chain& chain,
                              const ga::harness::BenchmarkConfig& config,
                              double seconds, ga::SplitMix64& rng,
                              ga::exec::ThreadPool* pool, Tracer& tracer,
                              Digest& digest, Report& report) {
  std::vector<double> epoch_ms;
  const Clock::time_point start = Clock::now();
  while (epoch_ms.size() < 3 || MsSince(start) < seconds * 1e3) {
    const double ms =
        RunEpoch(chain, config, rng, pool, tracer, digest, report);
    ++report.attempted;
    if (ms < 0) {
      ++report.failed;
      break;
    }
    epoch_ms.push_back(ms);
  }
  return epoch_ms;
}

}  // namespace

int RunMutate(const Options& options) {
  Report report;
  Tracer tracer(options.trace);
  RecordEnvironment(report, options, kDivisor);
  report.Info("host_jobs", kHostJobs);
  report.Info("update_rate", kUpdateRate);
  const ga::harness::BenchmarkConfig config =
      MakeConfig(kDivisor, "mutate-data", kHostJobs);
  ga::exec::ThreadPool pool(kHostJobs);

  Fixture fixture;
  std::unique_ptr<Chain> chain;
  SetupLayers setup_layers;
  std::vector<double> setup_s;
  for (int rep = 0; rep < (options.trace ? 1 : kSetupReps); ++rep) {
    chain.reset();
    const Clock::time_point begin = Clock::now();
    if (!SetUp(config, options.trace, &pool, tracer, &setup_layers, &fixture,
               &chain, report)) {
      return report.Print();
    }
    setup_s.push_back(MsSince(begin) / 1e3);
  }
  RecordDataset(report, kDataset, *chain->root,
                fixture.snapshot_bytes[kDataset]);
  ga::SplitMix64 rng(options.seed);
  Digest digest;

  if (!options.trace) {
    const std::vector<double> epoch_ms = RunEpochs(
        *chain, config, options.seconds, rng, &pool, tracer, digest, report);
    double total_s = 0.0;
    for (double ms : epoch_ms) total_s += ms / 1e3;
    report.Metric("setup_s", Median(setup_s), "s");
    report.Metric("latency_ms", Median(epoch_ms), "ms");
    report.Metric("tail_ms", Percentile(epoch_ms, kTailPercentile), "ms");
    report.Metric("throughput_per_s", epoch_ms.size() / total_s, "1/s");
    report.Metric("peak_rss_mb", PeakRssMb(), "MB");
    report.Info("epoch_p50_ms", Median(epoch_ms));
    report.Info("epochs", static_cast<double>(epoch_ms.size()));
    report.Info("tail_percentile", kTailPercentile);
    report.Info("fail_frac", static_cast<double>(report.failed) /
                                 std::max<double>(1.0, report.attempted));
    report.InfoText("digest", digest.Hex());
    return report.Print();
  }

  // Traced run: untraced epochs, then traced epochs on the same chain.
  Tracer off(false);
  const std::vector<double> plain = RunEpochs(
      *chain, config, options.seconds / 2, rng, &pool, off, digest, report);
  const std::vector<double> traced = RunEpochs(
      *chain, config, options.seconds / 2, rng, &pool, tracer, digest, report);
  CellLayers layers;
  std::vector<Cell> cells;
  for (ga::Algorithm algorithm : {ga::Algorithm::kBfs,
                                  ga::Algorithm::kPageRank,
                                  ga::Algorithm::kWcc}) {
    cells.push_back(Cell{kReadPlatform, kDataset, algorithm});
  }
  ProbeCells(cells, fixture, config, &pool, tracer, &layers, report);
  ProbeStore(config, {kDataset}, tracer, &setup_layers, report);

  const auto spans = tracer.Layers();
  auto mean_self = [&](const char* layer) {
    const auto it = spans.find(layer);
    return it == spans.end() ? 0.0 : it->second.MeanSelfMs();
  };
  report.Info("untraced.epoch_p50_ms", Median(plain));
  report.Info("traced.epoch_p50_ms", Median(traced));
  report.Info("mutate.apply_ms", mean_self("mutate.apply"));
  report.Info("store.write_ms", mean_self("store.write"));
  report.Info("mutate.inc_pr_ms", mean_self("mutate.inc_pr"));
  report.Info("mutate.inc_wcc_ms", mean_self("mutate.inc_wcc"));
  report.Info("mutate.read_ms", mean_self("mutate.read"));
  const ga::mutate::EpochStats& pr_stats = chain->pagerank.stats();
  const double possible = static_cast<double>(chain->graph().num_vertices()) *
                          kPageRankIterations *
                          static_cast<double>(pr_stats.epochs);
  report.Info("mutate.pr_useful_frac",
              possible > 0 ? 1.0 - pr_stats.dirty_recomputes / possible : 0.0);
  report.Info("mutate.full_sweep_iters",
              static_cast<double>(pr_stats.full_sweep_iterations));
  report.InfoText("digest", digest.Hex());
  const auto epoch = spans.find("mutate.epoch");
  const double residue =
      epoch == spans.end() || epoch->second.total_ms <= 0
          ? 0.0
          : epoch->second.self_ms / epoch->second.total_ms;
  EmitLayerMetrics(report, setup_layers, layers, DispatchMicros(kHostJobs),
                   residue, Median(traced) / Median(plain) - 1.0);
  tracer.WriteJsonl("spans.jsonl");
  return report.Print();
}

}  // namespace perfbench
