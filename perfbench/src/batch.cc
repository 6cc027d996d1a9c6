// batch-sweep: harness::BenchmarkRunner::Run over every (engine,
// algorithm) cell on D300 and G22, one job at a time, on a 4-thread host
// pool with validation on. Per-edge engine work and exec dispatch do
// almost all the work; the store runs only in set-up; serving is absent.
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "core/rng.h"
#include "harness/runner.h"

namespace perfbench {
namespace {

constexpr std::int64_t kDivisor = 512;
constexpr int kHostJobs = 4;
constexpr int kSetupReps = 5;
/// Percentile over the completing cells of each cell's median job time,
/// reported as tail_ms: 56 cells complete, so five lie beyond it. Taking
/// it over per-cell medians keeps a background hiccup during one pass out
/// of the figure.
constexpr double kTailPercentile = 90.0;

const std::vector<std::string>& Datasets() {
  static const std::vector<std::string> kDatasets = {"D300", "G22"};
  return kDatasets;
}

std::vector<Cell> AllCells() {
  std::vector<Cell> cells;
  for (const std::string& dataset : Datasets()) {
    for (ga::Algorithm algorithm : ga::kAllAlgorithms) {
      for (const std::string& platform : ga::platform::AllPlatformIds()) {
        cells.push_back(Cell{platform, dataset, algorithm});
      }
    }
  }
  return cells;
}

Outcome OutcomeOf(ga::harness::JobOutcome outcome) {
  switch (outcome) {
    case ga::harness::JobOutcome::kCompleted:
      return Outcome::kCompleted;
    case ga::harness::JobOutcome::kCrashed:
      return Outcome::kCrashed;
    case ga::harness::JobOutcome::kUnsupported:
      return Outcome::kUnsupported;
    default:
      return Outcome::kFailed;
  }
}

/// One set-up: a runner over a fresh snapshot cache, every dataset
/// generated through its registry, and its reference cache warmed by one
/// cheap validated job per (dataset, algorithm).
bool SetUp(const std::string& data_dir, int host_jobs, bool probe_references,
           Tracer& tracer, SetupLayers* layers,
           std::unique_ptr<ga::harness::BenchmarkRunner>* runner,
           Fixture* fixture, Report& report) {
  const ga::harness::BenchmarkConfig config =
      MakeConfig(kDivisor, data_dir, host_jobs);
  *runner = std::make_unique<ga::harness::BenchmarkRunner>(config);
  *fixture = Fixture{};
  fixture->registry = &(*runner)->registry();
  std::vector<ga::Algorithm> reference_algorithms;
  if (probe_references) {
    reference_algorithms.assign(std::begin(ga::kAllAlgorithms),
                                std::end(ga::kAllAlgorithms));
  }
  if (!BuildFixture(config, Datasets(), reference_algorithms,
                    (*runner)->host_pool(), tracer, layers, fixture, report)) {
    return false;
  }
  for (const std::string& dataset : Datasets()) {
    for (ga::Algorithm algorithm : ga::kAllAlgorithms) {
      Cell cell{algorithm == ga::Algorithm::kLcc ? "nativekernel" : "pushpull",
                dataset, algorithm};
      if (ExpectedOutcome(cell, kDivisor) != Outcome::kCompleted) continue;
      ga::harness::JobSpec spec;
      spec.platform_id = cell.platform;
      spec.dataset_id = dataset;
      spec.algorithm = algorithm;
      auto job = (*runner)->Run(spec);
      if (!job.ok() || !job->completed()) {
        report.Fail("reference warm-up failed for " + cell.Name());
        return false;
      }
    }
  }
  return true;
}

struct PassResult {
  double seconds = 0.0;
  std::string digest;  // outcomes + simulated metrics, canonical cell order
  std::map<std::string, double> completed_ms;  // per completed cell
};

/// Runs every cell once in `order`, checking each outcome against the
/// expected map.
PassResult RunPass(ga::harness::BenchmarkRunner& runner,
                   const std::vector<Cell>& cells,
                   const std::vector<std::size_t>& order, Tracer& tracer,
                   Report& report) {
  PassResult pass;
  std::vector<std::string> results(cells.size());
  const Clock::time_point pass_begin = Clock::now();
  for (std::size_t index : order) {
    const Cell& cell = cells[index];
    const std::string name = cell.Name();
    ga::harness::JobSpec spec;
    spec.platform_id = cell.platform;
    spec.dataset_id = cell.dataset;
    spec.algorithm = cell.algorithm;
    spec.validate = true;
    const Clock::time_point begin = Clock::now();
    ga::Result<ga::harness::JobReport> job = [&] {
      Scope span(tracer, "harness.run", name);
      return runner.Run(spec);
    }();
    const double ms = MsSince(begin);
    ++report.attempted;
    if (!job.ok()) {
      ++report.failed;
      report.Fail(name + ": " + job.status().ToString());
      continue;
    }
    const Outcome expected = ExpectedOutcome(cell, kDivisor);
    const Outcome got = OutcomeOf(job->outcome);
    if (got != expected) {
      ++report.failed;
      report.Fail(name + ": expected " + std::string(OutcomeName(expected)) +
                  ", got " + std::string(OutcomeName(got)) + " " +
                  job->failure);
    }
    Digest cell_digest;
    cell_digest.Add(OutcomeName(got));
    cell_digest.Add(job->tproc_seconds);
    cell_digest.Add(job->makespan_seconds);
    cell_digest.Add(static_cast<double>(job->supersteps));
    results[index] = name + "=" + cell_digest.Hex();
    if (got == Outcome::kCompleted) pass.completed_ms[name] = ms;
  }
  pass.seconds = MsSince(pass_begin) / 1e3;
  Digest digest;
  for (const std::string& result : results) digest.Add(result);
  pass.digest = digest.Hex();
  return pass;
}

std::vector<std::size_t> Shuffled(std::size_t size, ga::SplitMix64& rng) {
  std::vector<std::size_t> order(size);
  for (std::size_t i = 0; i < size; ++i) order[i] = i;
  for (std::size_t i = size; i > 1; --i) {
    std::swap(order[i - 1], order[rng.NextBounded(i)]);
  }
  return order;
}

/// Runs every cell through Platform::RunJob on `pool` and digests its
/// output FNV and simulated metrics, in canonical cell order.
std::string OutputDigest(const std::vector<Cell>& cells, const Fixture& fixture,
                         const ga::harness::BenchmarkConfig& config,
                         ga::exec::ThreadPool* pool, Report& report) {
  Digest digest;
  for (const Cell& cell : cells) {
    const ga::Graph* graph = *fixture.registry->Load(cell.dataset);
    auto platform = ga::platform::CreatePlatform(cell.platform);
    auto run = (*platform)->RunJob(*graph, cell.algorithm,
                                   *fixture.registry->ParamsFor(cell.dataset),
                                   JobEnvironment(config, pool));
    if (!run.ok()) {
      report.Fail("output digest run failed for " + cell.Name());
      return "";
    }
    digest.Add(cell.Name());
    digest.Add(OutputFnv(*graph, run->output));
    digest.Add(config.Project(run->metrics.processing_sim_seconds));
    digest.Add(config.Project(run->metrics.makespan_sim_seconds));
    digest.Add(static_cast<double>(run->metrics.supersteps));
  }
  return digest.Hex();
}

double GeoMeanOfMedians(const std::map<std::string, std::vector<double>>& ms) {
  std::vector<double> medians;
  for (const auto& [name, samples] : ms) medians.push_back(Median(samples));
  return GeoMean(medians);
}

}  // namespace

int RunBatch(const Options& options) {
  Report report;
  Tracer tracer(options.trace);
  RecordEnvironment(report, options, kDivisor);
  report.Info("host_jobs", kHostJobs);
  const std::string data_dir = "batch-data";

  std::unique_ptr<ga::harness::BenchmarkRunner> runner;
  Fixture fixture;
  SetupLayers setup_layers;
  std::vector<double> setup_s;
  for (int rep = 0; rep < (options.trace ? 1 : kSetupReps); ++rep) {
    fixture = Fixture{};
    runner.reset();
    const Clock::time_point begin = Clock::now();
    if (!SetUp(data_dir, kHostJobs, options.trace, tracer, &setup_layers,
               &runner, &fixture, report)) {
      return report.Print();
    }
    setup_s.push_back(MsSince(begin) / 1e3);
  }
  for (const std::string& id : Datasets()) {
    RecordDataset(report, id, **fixture.registry->Load(id),
                  fixture.snapshot_bytes[id]);
  }

  const std::vector<Cell> cells = AllCells();
  std::vector<std::size_t> canonical(cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) canonical[i] = i;
  ga::SplitMix64 rng(options.seed);

  if (!options.trace) {
    std::map<std::string, std::vector<double>> cell_ms;
    std::vector<double> pass_s;
    std::string digest;
    const Clock::time_point start = Clock::now();
    while (pass_s.size() < 2 || MsSince(start) < options.seconds * 1e3) {
      Tracer off(false);
      const PassResult pass = RunPass(*runner, cells,
                                      Shuffled(cells.size(), rng), off, report);
      if (!digest.empty() && pass.digest != digest) {
        report.Fail("outputs or simulated metrics differ between passes");
      }
      digest = pass.digest;
      pass_s.push_back(pass.seconds);
      for (const auto& [name, ms] : pass.completed_ms) {
        cell_ms[name].push_back(ms);
      }
      if (!report.correct()) break;
    }
    std::vector<double> cell_medians;
    for (const auto& [name, samples] : cell_ms) {
      cell_medians.push_back(Median(samples));
    }
    report.Metric("setup_s", Median(setup_s), "s");
    report.Metric("latency_ms", GeoMean(cell_medians), "ms");
    report.Metric("tail_ms", Percentile(cell_medians, kTailPercentile), "ms");
    report.Metric("throughput_per_s",
                  static_cast<double>(cell_ms.size()) / Median(pass_s), "1/s");
    report.Metric("peak_rss_mb", PeakRssMb(), "MB");
    report.Info("batch_pass_s", Median(pass_s));
    report.Info("batch_geomean_ms", GeoMean(cell_medians));
    report.Info("passes", static_cast<double>(pass_s.size()));
    report.Info("cells_completing", static_cast<double>(cell_ms.size()));
    report.Info("tail_percentile", kTailPercentile);
    report.Info("fail_frac", static_cast<double>(report.failed) /
                                 static_cast<double>(report.attempted));
    report.InfoText("digest", digest);
    return report.Print();
  }

  // Traced run: one untraced and one traced pass (tracing overhead), the
  // per-cell layer probes, and the host-thread determinism check.
  Tracer off(false);
  const PassResult plain =
      RunPass(*runner, cells, Shuffled(cells.size(), rng), off, report);
  const PassResult traced =
      RunPass(*runner, cells, Shuffled(cells.size(), rng), tracer, report);
  if (plain.digest != traced.digest) {
    report.Fail("outputs or simulated metrics differ traced vs untraced");
  }
  std::map<std::string, std::vector<double>> plain_ms, traced_ms;
  std::vector<Cell> completing;
  double run_total_ms = 0.0;
  for (const Cell& cell : cells) {
    const auto it = traced.completed_ms.find(cell.Name());
    if (it == traced.completed_ms.end()) continue;
    completing.push_back(cell);
    traced_ms[cell.Name()].push_back(it->second);
    plain_ms[cell.Name()].push_back(plain.completed_ms.at(cell.Name()));
    run_total_ms += it->second;
  }
  CellLayers layers;
  ProbeCells(completing, fixture, MakeConfig(kDivisor, data_dir, kHostJobs),
             runner->host_pool(), tracer, &layers, report);
  ProbeStore(MakeConfig(kDivisor, data_dir, kHostJobs), Datasets(), tracer,
             &setup_layers, report);

  // Host threads are a wall-time knob only: a 1-thread runner must
  // reproduce the 4-thread outcomes and simulated metrics, and RunJob on a
  // 1-thread pool the 4-thread outputs, exactly.
  {
    const ga::harness::BenchmarkConfig config =
        MakeConfig(kDivisor, data_dir, kHostJobs);
    ga::harness::BenchmarkRunner serial(MakeConfig(kDivisor, data_dir, 1));
    const PassResult one = RunPass(serial, cells, canonical, off, report);
    ga::exec::ThreadPool one_thread(1);
    const std::string outputs4 = OutputDigest(completing, fixture, config,
                                              runner->host_pool(), report);
    const std::string outputs1 =
        OutputDigest(completing, fixture, config, &one_thread, report);
    report.InfoText("digest_jobs1", one.digest + outputs1);
    if (one.digest != plain.digest || outputs1 != outputs4) {
      report.Fail("digest differs between --jobs 1 and --jobs 4");
    }
    report.InfoText("digest", plain.digest + outputs4);
  }
  const double residue =
      run_total_ms > 0
          ? 1.0 - (layers.runjob_ms + layers.validate_ms) / run_total_ms
          : 0.0;
  const double overhead =
      GeoMeanOfMedians(traced_ms) / GeoMeanOfMedians(plain_ms) - 1.0;
  report.Info("untraced.latency_ms", GeoMeanOfMedians(plain_ms));
  report.Info("traced.latency_ms", GeoMeanOfMedians(traced_ms));
  EmitLayerMetrics(report, setup_layers, layers, DispatchMicros(kHostJobs),
                   residue, overhead);
  tracer.WriteJsonl("spans.jsonl");
  return report.Print();
}

}  // namespace perfbench
