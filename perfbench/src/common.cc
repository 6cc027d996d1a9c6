#include "common.h"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>
#include <thread>

#include "algo/reference.h"
#include "core/exec/counter_sheet.h"
#include "core/exec/exec.h"
#include "store/snapshot.h"
#include "sysmodel/cluster.h"

namespace perfbench {

// --- statistics -------------------------------------------------------------

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const std::size_t low = static_cast<std::size_t>(std::floor(rank));
  const std::size_t high = std::min(low + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(low);
  if (std::isinf(values[high])) return values[high];
  return values[low] + (values[high] - values[low]) * frac;
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 50.0);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double GeoMean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (double v : values) log_sum += std::log(std::max(v, 1e-9));
  return std::exp(log_sum / static_cast<double>(values.size()));
}

// --- tracing ----------------------------------------------------------------

int Tracer::Open(std::string_view layer, std::string_view id) {
  Span span;
  span.layer = std::string(layer);
  span.id = std::string(id);
  span.parent = open_.empty() ? -1 : open_.back();
  span.begin_ms = MsSince(epoch_);
  spans_.push_back(std::move(span));
  open_.push_back(static_cast<int>(spans_.size() - 1));
  return open_.back();
}

void Tracer::Close(int index) {
  Span& span = spans_[static_cast<std::size_t>(index)];
  span.end_ms = MsSince(epoch_);
  if (span.parent >= 0) {
    spans_[static_cast<std::size_t>(span.parent)].child_ms +=
        span.end_ms - span.begin_ms;
  }
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

void Tracer::Record(std::string_view layer, std::string_view id, double ms) {
  if (!enabled_) return;
  const double end = MsSince(epoch_);
  Add(layer, id, open_.empty() ? -1 : open_.back(), end - ms, end);
}

int Tracer::Add(std::string_view layer, std::string_view id, int parent,
                double begin_ms, double end_ms) {
  Span span;
  span.layer = std::string(layer);
  span.id = std::string(id);
  span.parent = parent;
  span.begin_ms = begin_ms;
  span.end_ms = end_ms;
  if (parent >= 0) {
    spans_[static_cast<std::size_t>(parent)].child_ms += end_ms - begin_ms;
  }
  spans_.push_back(std::move(span));
  return static_cast<int>(spans_.size() - 1);
}

std::map<std::string, Tracer::LayerTime> Tracer::Layers() const {
  std::map<std::string, LayerTime> layers;
  for (const Span& span : spans_) {
    if (span.end_ms < 0) continue;
    LayerTime& layer = layers[span.layer];
    const double duration = span.end_ms - span.begin_ms;
    layer.total_ms += duration;
    layer.self_ms += duration - span.child_ms;
    ++layer.count;
  }
  return layers;
}

bool Tracer::WriteJsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    ga::JsonWriter json;
    json.BeginObject();
    json.Field("span", static_cast<std::int64_t>(i));
    json.Field("name", span.layer);
    json.Field("id", span.id);
    json.Field("parent", span.parent);
    json.Field("start_ms", span.begin_ms);
    json.Field("end_ms", span.end_ms);
    json.EndObject();
    out << json.str() << '\n';
  }
  return static_cast<bool>(out);
}

// --- report -----------------------------------------------------------------

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  if (!std::isfinite(value)) value = std::numeric_limits<double>::max();
  metrics_.push_back({name, {value, unit}});
}

void Report::Info(const std::string& name, double value) {
  ga::JsonWriter json;
  json.Value(std::isfinite(value) ? value : -1.0);
  info_.push_back({name, json.str()});
}

void Report::InfoText(const std::string& name, const std::string& value) {
  ga::JsonWriter json;
  json.Value(value);
  info_.push_back({name, json.str()});
}

void Report::Fail(const std::string& reason) {
  correct_ = false;
  std::fprintf(stderr, "perfbench: FAIL: %s\n", reason.c_str());
}

int Report::Print() const {
  std::string info = "{";
  for (std::size_t i = 0; i < info_.size(); ++i) {
    if (i > 0) info += ",";
    info += "\"" + ga::JsonWriter::Escape(info_[i].first) + "\":" +
            info_[i].second;
  }
  info += "}";
  std::printf("info %s\n", info.c_str());

  ga::JsonWriter json;
  json.BeginObject();
  json.Field("correct", correct_);
  json.Field("attempted", attempted);
  json.Field("failed", failed);
  json.Key("metrics");
  json.BeginObject();
  for (const auto& [name, metric] : metrics_) {
    json.Key(name);
    json.BeginObject();
    json.Field("value", metric.first);
    json.Field("unit", metric.second);
    json.EndObject();
  }
  json.EndObject();
  json.EndObject();
  std::printf("%s\n", json.str().c_str());
  std::fflush(stdout);
  return correct_ ? 0 : 1;
}

namespace {

std::int64_t LastLevelCacheBytes() {
  // The highest cache index sysfs lists for cpu0 is the last level.
  std::int64_t bytes = 0;
  for (int index = 0; index < 8; ++index) {
    std::ifstream in("/sys/devices/system/cpu/cpu0/cache/index" +
                     std::to_string(index) + "/size");
    std::string size;
    if (!(in >> size)) break;
    std::int64_t value = std::atoll(size.c_str());
    if (size.back() == 'K') value <<= 10;
    if (size.back() == 'M') value <<= 20;
    bytes = std::max(bytes, value);
  }
  return bytes;
}

}  // namespace

void RecordEnvironment(Report& report, const Options& options,
                       std::int64_t scale_divisor) {
  report.InfoText("workload", options.workload);
  report.Info("seed", static_cast<double>(options.seed));
  report.Info("nproc", static_cast<double>(::sysconf(_SC_NPROCESSORS_ONLN)));
  report.Info("hardware_concurrency",
              static_cast<double>(std::thread::hardware_concurrency()));
  report.Info("llc_bytes", static_cast<double>(LastLevelCacheBytes()));
  report.Info("scale_divisor", static_cast<double>(scale_divisor));
  report.Info("trace", options.trace ? 1.0 : 0.0);
}

void RecordDataset(Report& report, const std::string& id,
                   const ga::Graph& graph, std::int64_t snapshot_bytes) {
  report.Info("dataset." + id + ".vertices",
              static_cast<double>(graph.num_vertices()));
  report.Info("dataset." + id + ".edges",
              static_cast<double>(graph.num_edges()));
  report.Info("dataset." + id + ".snapshot_bytes",
              static_cast<double>(snapshot_bytes));
}

double PeakRssMb(int pid) {
  const std::string path =
      pid == 0 ? "/proc/self/status"
               : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

std::int64_t FileBytes(const std::string& path) {
  std::error_code error;
  const auto size = std::filesystem::file_size(path, error);
  return error ? 0 : static_cast<std::int64_t>(size);
}

void ResetDir(const std::string& path) {
  std::error_code error;
  std::filesystem::remove_all(path, error);
  std::filesystem::create_directories(path, error);
}

// --- datasets and cells -----------------------------------------------------

ga::harness::BenchmarkConfig MakeConfig(std::int64_t divisor,
                                        const std::string& data_dir,
                                        int host_jobs) {
  ga::harness::BenchmarkConfig config;
  config.scale_divisor = divisor;
  config.seed = 42;
  config.data_dir = data_dir;
  config.host_jobs = host_jobs;
  return config;
}

std::string Cell::Name() const {
  return platform + "/" + dataset + "/" + std::string(ga::AlgorithmName(algorithm));
}

std::string_view OutcomeName(Outcome outcome) {
  switch (outcome) {
    case Outcome::kCompleted:
      return "completed";
    case Outcome::kCrashed:
      return "crashed";
    case Outcome::kUnsupported:
      return "unsupported";
    case Outcome::kFailed:
      return "failed";
  }
  return "?";
}

Outcome ExpectedOutcome(const Cell& cell, std::int64_t divisor) {
  using ga::Algorithm;
  // SSSP needs edge weights; only the Datagen graphs carry them.
  if (cell.algorithm == Algorithm::kSssp && cell.dataset.rfind("D", 0) != 0) {
    return Outcome::kFailed;
  }
  // The PGX.D analogue has no LCC (the paper's "NA").
  if (cell.platform == "pushpull" && cell.algorithm == Algorithm::kLcc) {
    return Outcome::kUnsupported;
  }
  // Simulated out-of-memory crashes (paper §4.6): the memory models of the
  // message-heavy engines exceed the scaled machine budget on these cells.
  static const std::set<std::string> kCrashes = {
      "512:bsplite/D300/lcc",  "512:dataflow/D300/lcc",
      "512:spmat/D300/lcc",    "512:dataflow/D300/cdlp",
      "512:bsplite/G22/lcc",
      "512:dataflow/G22/lcc",  "512:spmat/G22/lcc",
      "512:dataflow/G22/cdlp", "1024:dataflow/R4/cdlp",
      "1024:dataflow/G22/cdlp",
  };
  if (kCrashes.count(std::to_string(divisor) + ":" + cell.Name()) > 0) {
    return Outcome::kCrashed;
  }
  return Outcome::kCompleted;
}

ga::platform::ExecutionEnvironment JobEnvironment(
    const ga::harness::BenchmarkConfig& config, ga::exec::ThreadPool* pool) {
  ga::platform::ExecutionEnvironment env;
  env.num_machines = 1;
  env.threads_per_machine = 32;
  env.memory_budget_bytes = config.ScaledMemoryBudget();
  env.overhead_scale = 1.0 / static_cast<double>(config.scale_divisor);
  env.host_pool = pool;
  return env;
}

std::string OutputFnv(const ga::Graph& graph,
                      const ga::AlgorithmOutput& output) {
  const std::string text = ga::FormatOutput(graph, output);
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(
                    ga::store::Fnv1a64(text.data(), text.size())));
  return hex;
}

void Digest::Add(std::string_view text) {
  state_ = ga::store::Fnv1a64(text.data(), text.size(), state_);
  state_ = ga::store::Fnv1a64("|", 1, state_);
}

void Digest::Add(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  Add(std::string_view(buffer));
}

std::string Digest::Hex() const {
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(state_));
  return hex;
}

// --- set-up -------------------------------------------------------------------

std::string RefKey(const std::string& dataset, ga::Algorithm algorithm) {
  return dataset + "/" + std::string(ga::AlgorithmName(algorithm));
}

bool BuildFixture(const ga::harness::BenchmarkConfig& config,
                  const std::vector<std::string>& datasets,
                  const std::vector<ga::Algorithm>& algorithms,
                  ga::exec::ThreadPool* pool, Tracer& tracer,
                  SetupLayers* layers, Fixture* fixture, Report& report) {
  ResetDir(config.data_dir);
  if (fixture->registry == nullptr) {
    fixture->owned = std::make_unique<ga::harness::DatasetRegistry>(config);
    fixture->owned->set_host_pool(pool);
    fixture->registry = fixture->owned.get();
  }
  fixture->references.clear();
  for (const std::string& id : datasets) {
    const Clock::time_point begin = Clock::now();
    ga::Result<const ga::Graph*> graph = [&] {
      Scope span(tracer, "datagen.gen", id);
      return fixture->registry->Load(id);
    }();
    layers->gen_ms.push_back(MsSince(begin));
    auto path = fixture->registry->SnapshotPathFor(id);
    if (!graph.ok() || !path.ok() || FileBytes(*path) == 0) {
      report.Fail("dataset generation failed for " + id);
      return false;
    }
    fixture->snapshot_bytes[id] = FileBytes(*path);
  }
  for (const std::string& id : datasets) {
    const ga::Graph* graph = *fixture->registry->Load(id);
    auto params = fixture->registry->ParamsFor(id);
    for (ga::Algorithm algorithm : algorithms) {
      // SSSP needs weights; an unweighted dataset has no reference.
      if (algorithm == ga::Algorithm::kSssp && !graph->is_weighted()) continue;
      const Clock::time_point begin = Clock::now();
      ga::Result<ga::AlgorithmOutput> output = [&] {
        Scope span(tracer, "harness.reference", RefKey(id, algorithm));
        return ga::reference::Run(*graph, algorithm, *params, pool);
      }();
      layers->reference_ms.push_back(MsSince(begin));
      if (!output.ok()) {
        report.Fail("reference failed for " + RefKey(id, algorithm));
        return false;
      }
      fixture->references[RefKey(id, algorithm)] = std::move(*output);
    }
  }
  return true;
}

bool ProbeStore(const ga::harness::BenchmarkConfig& config,
                const std::vector<std::string>& datasets, Tracer& tracer,
                SetupLayers* layers, Report& report) {
  ga::harness::DatasetRegistry cold(config);
  for (const std::string& id : datasets) {
    auto path = cold.SnapshotPathFor(id);
    if (!path.ok()) {
      report.Fail("no snapshot path for " + id);
      return false;
    }
    Clock::time_point begin = Clock::now();
    {
      Scope span(tracer, "store.read", id);
      auto graph = ga::store::ReadSnapshot(*path);
      if (!graph.ok()) {
        report.Fail("snapshot read failed for " + id);
        return false;
      }
    }
    const double read_ms = MsSince(begin);
    layers->read_ms.push_back(read_ms);
    layers->read_mb_s.push_back(static_cast<double>(FileBytes(*path)) /
                                (1 << 20) / (read_ms / 1e3));
    begin = Clock::now();
    {
      Scope span(tracer, "harness.load", id);
      if (!cold.Load(id).ok()) {
        report.Fail("registry load failed for " + id);
        return false;
      }
    }
    layers->load_ms.push_back(MsSince(begin));
    cold.Evict(id);
  }
  return true;
}

// --- per-layer probes -------------------------------------------------------

bool ProbeCells(const std::vector<Cell>& cells, const Fixture& fixture,
                const ga::harness::BenchmarkConfig& config,
                ga::exec::ThreadPool* pool, Tracer& tracer,
                CellLayers* layers, Report& report) {
  for (const Cell& cell : cells) {
    const std::string name = cell.Name();
    auto graph = fixture.registry->Load(cell.dataset);
    auto params = fixture.registry->ParamsFor(cell.dataset);
    const auto reference = fixture.references.find(
        RefKey(cell.dataset, cell.algorithm));
    auto platform = ga::platform::CreatePlatform(cell.platform);
    if (!graph.ok() || !params.ok() || !platform.ok() ||
        reference == fixture.references.end()) {
      report.Fail("probe set-up failed for " + name);
      return false;
    }
    ga::platform::ExecutionEnvironment env = JobEnvironment(config, pool);
    ga::exec::CounterSheet sheet;
    sheet.Enable(/*retain_spans=*/false);
    env.metrics_sheet = &sheet;

    Clock::time_point begin = Clock::now();
    ga::Result<ga::platform::RunResult> run = [&] {
      Scope span(tracer, "platforms.runjob", name);
      return (*platform)->RunJob(**graph, cell.algorithm, *params, env);
    }();
    const double runjob_ms = MsSince(begin);
    if (!run.ok()) {
      report.Fail("probe RunJob failed for " + name + ": " +
                  run.status().ToString());
      return false;
    }
    sheet.FlushStep(0, nullptr);
    const auto& totals = sheet.job_totals();

    ga::platform::ExecutionEnvironment kernel_env = JobEnvironment(config, pool);
    const ga::platform::CostProfile& profile = (*platform)->profile();
    ga::sysmodel::ClusterModel cluster(
        ga::platform::MakeClusterConfig(kernel_env, profile));
    ga::platform::JobContext ctx(cluster, /*memory=*/nullptr, profile,
                                 /*processing_op=*/nullptr, kernel_env);
    begin = Clock::now();
    ga::Result<ga::AlgorithmOutput> kernel = [&] {
      Scope span(tracer, "platforms.kernel", name);
      return (*platform)->ExecuteKernel(ctx, **graph, cell.algorithm, *params);
    }();
    const double kernel_ms = MsSince(begin);
    if (!kernel.ok()) {
      report.Fail("probe ExecuteKernel failed for " + name);
      return false;
    }

    begin = Clock::now();
    ga::Status valid = [&] {
      Scope span(tracer, "harness.validate", name);
      return ga::ValidateOutput(**graph, reference->second, run->output);
    }();
    const double validate_ms = MsSince(begin);
    if (!valid.ok()) report.Fail("probe output mismatch for " + name);

    begin = Clock::now();
    {
      Scope span(tracer, "serve.serialize", name);
      OutputFnv(**graph, run->output);
    }
    const double serialize_ms = MsSince(begin);

    ++layers->jobs;
    layers->runjob_ms += runjob_ms;
    layers->kernel_ms += kernel_ms;
    layers->validate_ms += validate_ms;
    layers->serialize_ms += serialize_ms;
    layers->supersteps += ctx.supersteps();
    layers->entries += static_cast<double>((*graph)->num_adjacency_entries()) *
                       ctx.supersteps();
    layers->loops += static_cast<double>(totals.loops);
    layers->chunks += static_cast<double>(totals.chunks);
    layers->busy_ms += static_cast<double>(totals.busy_ns) / 1e6;
    layers->busy_capacity_ms +=
        runjob_ms * (pool != nullptr ? pool->num_threads() : 1);
    layers->runjob_ms_by_cell[name] = runjob_ms;
    layers->serialize_ms_by_cell[name] = serialize_ms;
  }
  return true;
}

double DispatchMicros(int threads) {
  ga::exec::ThreadPool pool(threads);
  ga::exec::ExecContext ctx(&pool);
  const std::int64_t range =
      ga::exec::ExecContext::kMinGrain * ga::exec::ExecContext::kMaxSlots;
  std::vector<double> batches;
  constexpr int kLoops = 400;
  for (int batch = 0; batch < 7; ++batch) {
    const Clock::time_point begin = Clock::now();
    for (int i = 0; i < kLoops; ++i) {
      ga::exec::parallel_for(ctx, 0, range, [](const ga::exec::Slice&) {});
    }
    batches.push_back(MsSince(begin) * 1000.0 / kLoops);
  }
  return Median(batches);
}

void EmitLayerMetrics(Report& report, const SetupLayers& setup,
                      const CellLayers& cells, double dispatch_us,
                      double residue_frac, double overhead_frac) {
  const double jobs = std::max<double>(1.0, static_cast<double>(cells.jobs));
  report.Metric("datagen.gen_ms", Mean(setup.gen_ms), "ms");
  report.Metric("store.read_ms", Mean(setup.read_ms), "ms");
  report.Metric("store.read_mb_s", Mean(setup.read_mb_s), "MB/s");
  report.Metric("harness.load_ms", Mean(setup.load_ms), "ms");
  report.Metric("harness.reference_ms", Mean(setup.reference_ms), "ms");
  report.Metric("harness.validate_ms", cells.validate_ms / jobs, "ms");
  report.Metric("platforms.runjob_ms", cells.runjob_ms / jobs, "ms");
  report.Metric("platforms.kernel_ms", cells.kernel_ms / jobs, "ms");
  report.Metric("platforms.frame_ms",
                (cells.runjob_ms - cells.kernel_ms) / jobs, "ms");
  report.Metric("platforms.entries_per_s",
                cells.kernel_ms > 0 ? cells.entries / (cells.kernel_ms / 1e3)
                                    : 0.0,
                "1/s");
  report.Metric("platforms.supersteps", cells.supersteps / jobs, "count");
  report.Metric("platforms.superstep_us",
                cells.supersteps > 0 ? cells.kernel_ms * 1e3 / cells.supersteps
                                     : 0.0,
                "us");
  report.Metric("exec.loops", cells.loops / jobs, "count");
  report.Metric("exec.chunks", cells.chunks / jobs, "count");
  report.Metric("exec.busy_frac",
                cells.busy_capacity_ms > 0
                    ? cells.busy_ms / cells.busy_capacity_ms
                    : 0.0,
                "ratio");
  report.Metric("exec.dispatch_us", dispatch_us, "us");
  report.Metric("exec.dispatch_share",
                cells.kernel_ms > 0
                    ? cells.loops * dispatch_us / 1e3 / cells.kernel_ms
                    : 0.0,
                "ratio");
  report.Metric("serve.serialize_ms", cells.serialize_ms / jobs, "ms");
  report.Metric("trace.residue_frac", residue_frac, "ratio");
  report.Metric("trace.overhead_frac", overhead_frac, "ratio");
}

}  // namespace perfbench
