// Shared pieces of the perfbench driver: options, statistics, the span
// tracer, the result report, the environment record, the expected cell
// outcome map, and the per-layer probes every workload's traced run uses.
//
// Every layer is measured from OUTSIDE the library, by timing calls into
// its public functions; nothing inside the program is instrumented.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "algo/output.h"
#include "core/exec/thread_pool.h"
#include "core/graph.h"
#include "core/json_writer.h"
#include "core/types.h"
#include "harness/config.h"
#include "harness/dataset_registry.h"
#include "platforms/platform.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point begin, Clock::time_point end) {
  return std::chrono::duration<double, std::milli>(end - begin).count();
}
inline double MsSince(Clock::time_point begin) {
  return MsBetween(begin, Clock::now());
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Path of the graphalytics_cli binary (the serve daemon).
  std::string cli;
};

// --- statistics -----------------------------------------------------------

/// Linear-interpolation percentile, p in [0, 100]. Empty input gives 0.
double Percentile(std::vector<double> values, double p);
double Median(std::vector<double> values);
double Mean(const std::vector<double>& values);
double GeoMean(const std::vector<double>& values);

// --- tracing ----------------------------------------------------------------

/// In-memory span recorder for the traced run. A span is one timed call
/// into a layer: name, start, end, parent span, and the id of the cell,
/// request or epoch it served. Disabled tracers record nothing, so the
/// untraced (end-to-end) runs pay one branch per call site.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

  bool enabled() const { return enabled_; }

  /// Opens a span under the innermost open span; returns its index.
  int Open(std::string_view layer, std::string_view id);
  void Close(int span);
  /// Records an interval measured elsewhere (a daemon stage field) as a
  /// closed child of the innermost open span.
  void Record(std::string_view layer, std::string_view id, double ms);
  /// Records a closed span with explicit times under `parent` (-1: none),
  /// for spans that overlap other open spans (concurrent requests).
  int Add(std::string_view layer, std::string_view id, int parent,
          double begin_ms, double end_ms);
  /// Milliseconds on the tracer's clock.
  double NowMs() const { return MsSince(epoch_); }

  struct LayerTime {
    double self_ms = 0.0;   // duration minus the time its children cover
    double total_ms = 0.0;  // sum of durations
    std::int64_t count = 0;
    double MeanSelfMs() const { return count > 0 ? self_ms / count : 0.0; }
  };
  /// Per-layer self time and call count over every recorded span.
  std::map<std::string, LayerTime> Layers() const;

  /// Writes every span as one JSON object per line.
  bool WriteJsonl(const std::string& path) const;

 private:
  struct Span {
    std::string layer;
    std::string id;
    int parent = -1;
    double begin_ms = 0.0;
    double end_ms = -1.0;
    double child_ms = 0.0;
  };
  bool enabled_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span; inert when the tracer is disabled.
class Scope {
 public:
  Scope(Tracer& tracer, std::string_view layer, std::string_view id = {})
      : tracer_(tracer),
        span_(tracer.enabled() ? tracer.Open(layer, id) : -1) {}
  ~Scope() {
    if (span_ >= 0) tracer_.Close(span_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& tracer_;
  int span_;
};

// --- result report ----------------------------------------------------------

/// Collects metrics, the pass/fail verdict and the environment record,
/// and prints them: informational JSON lines first, the result object as
/// the last line of standard output.
class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  /// A workload-specific figure printed on the `info` line, not in the
  /// result object.
  void Info(const std::string& name, double value);
  void InfoText(const std::string& name, const std::string& value);
  /// Marks the run incorrect and explains why on stderr.
  void Fail(const std::string& reason);

  bool correct() const { return correct_; }
  std::int64_t attempted = 0;
  std::int64_t failed = 0;

  /// Prints and returns the process exit code (0 only when correct).
  int Print() const;

 private:
  bool correct_ = true;
  std::vector<std::pair<std::string, std::pair<double, std::string>>>
      metrics_;
  std::vector<std::pair<std::string, std::string>> info_;  // pre-rendered
};

/// Records nproc, hardware_concurrency, the LLC size, the seed and the
/// scale divisor on the report's info line.
void RecordEnvironment(Report& report, const Options& options,
                       std::int64_t scale_divisor);
/// Records |V|, |E| and snapshot bytes of one dataset.
void RecordDataset(Report& report, const std::string& id, const ga::Graph& graph,
                   std::int64_t snapshot_bytes);

/// VmHWM (peak resident set) of `pid` (0 = this process), in MiB.
double PeakRssMb(int pid = 0);

/// Size of a file in bytes (0 when missing).
std::int64_t FileBytes(const std::string& path);

/// Removes a directory tree (best effort) and recreates it empty.
void ResetDir(const std::string& path);

// --- datasets and cells -----------------------------------------------------

/// Registry configuration shared by set-up, the daemon and the probes:
/// fixed dataset seed (datasets never depend on the workload seed),
/// `divisor`, snapshot cache at `data_dir`.
ga::harness::BenchmarkConfig MakeConfig(std::int64_t divisor,
                                        const std::string& data_dir,
                                        int host_jobs);

/// One (engine, dataset, algorithm) cell of the matrix.
struct Cell {
  std::string platform;
  std::string dataset;
  ga::Algorithm algorithm = ga::Algorithm::kBfs;
  std::string Name() const;
};

enum class Outcome { kCompleted, kCrashed, kUnsupported, kFailed };
std::string_view OutcomeName(Outcome outcome);

/// The expected outcome of a cell: the golden map every run is checked
/// against. Cells absent from the table of exceptions complete.
Outcome ExpectedOutcome(const Cell& cell, std::int64_t divisor);

/// The execution environment the harness and the daemon give a job.
ga::platform::ExecutionEnvironment JobEnvironment(
    const ga::harness::BenchmarkConfig& config, ga::exec::ThreadPool* pool);

/// Hex FNV-1a 64 of FormatOutput(graph, output) — the daemon's
/// `output_fnv`.
std::string OutputFnv(const ga::Graph& graph,
                      const ga::AlgorithmOutput& output);

/// Order-sensitive digest accumulator (FNV-1a 64 over text).
class Digest {
 public:
  void Add(std::string_view text);
  void Add(double value);
  std::string Hex() const;

 private:
  std::uint64_t state_ = 14695981039346656037ULL;
};

// --- set-up -------------------------------------------------------------------

/// Set-up timings the traced run reports (one entry per call, ms).
struct SetupLayers {
  std::vector<double> gen_ms;        // DatasetRegistry::Load on a cold cache
  std::vector<double> read_ms;       // store::ReadSnapshot (verified)
  std::vector<double> read_mb_s;
  std::vector<double> load_ms;       // DatasetRegistry::Load from snapshot
  std::vector<double> reference_ms;  // reference::Run per (dataset, algo)
};

/// What one set-up builds: every dataset generated into a fresh snapshot
/// cache and resident in `registry`, plus the reference outputs.
struct Fixture {
  /// The registry datasets are generated through: `owned`, unless the
  /// caller points it at one of its own (the batch runner's) beforehand.
  ga::harness::DatasetRegistry* registry = nullptr;
  std::unique_ptr<ga::harness::DatasetRegistry> owned;
  std::map<std::string, ga::AlgorithmOutput> references;  // by RefKey
  std::map<std::string, std::int64_t> snapshot_bytes;
};

std::string RefKey(const std::string& dataset, ga::Algorithm algorithm);

/// Empties config.data_dir, generates `datasets` into it and computes the
/// reference output of every (dataset, algorithm) that has one.
bool BuildFixture(const ga::harness::BenchmarkConfig& config,
                  const std::vector<std::string>& datasets,
                  const std::vector<ga::Algorithm>& algorithms,
                  ga::exec::ThreadPool* pool, Tracer& tracer,
                  SetupLayers* layers, Fixture* fixture, Report& report);

/// Traced runs only: times store::ReadSnapshot and DatasetRegistry::Load
/// on the snapshots BuildFixture wrote.
bool ProbeStore(const ga::harness::BenchmarkConfig& config,
                const std::vector<std::string>& datasets, Tracer& tracer,
                SetupLayers* layers, Report& report);

// --- per-layer probes -------------------------------------------------------

/// Times the per-cell layers on `cells`: Platform::RunJob with a
/// CounterSheet attached, a separate ExecuteKernel, ValidateOutput
/// against the reference, and FormatOutput + Fnv1a64. Spans go to
/// `tracer`; per-cell RunJob times land in `runjob_ms_by_cell`.
struct CellLayers {
  std::int64_t jobs = 0;
  double runjob_ms = 0, kernel_ms = 0, validate_ms = 0, serialize_ms = 0;
  double supersteps = 0, entries = 0;
  double loops = 0, chunks = 0, busy_ms = 0, busy_capacity_ms = 0;
  std::map<std::string, double> runjob_ms_by_cell;
  std::map<std::string, double> serialize_ms_by_cell;
};
bool ProbeCells(const std::vector<Cell>& cells, const Fixture& fixture,
                const ga::harness::BenchmarkConfig& config,
                ga::exec::ThreadPool* pool, Tracer& tracer,
                CellLayers* layers, Report& report);

/// Mean wall time of an empty parallel_for on a `threads`-thread pool,
/// microseconds.
double DispatchMicros(int threads);

/// Emits the universal per-layer metrics shared by every workload.
/// `residue_frac` and `overhead_frac` come from the workload.
void EmitLayerMetrics(Report& report, const SetupLayers& setup,
                      const CellLayers& cells, double dispatch_us,
                      double residue_frac, double overhead_frac);

/// Workload entry points.
int RunBatch(const Options& options);
int RunServe(const Options& options);
int RunMutate(const Options& options);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
