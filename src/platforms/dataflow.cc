#include "platforms/dataflow.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <span>
#include <vector>

#include "algo/lcc_kernel.h"
#include "core/exec/exec.h"
#include "core/exec/scratch_pool.h"
#include "granula/tracer.h"
#include "platforms/worker_map.h"

namespace ga::platform {

namespace {

// Shuffle-row wire/heap footprint (boxed key + value + spill record).
constexpr std::int64_t kRowBytes = 48;
// CDLP shuffle rows: the mode aggregation has no map-side combiner, so
// groupByKey materialises the full label multiset as boxed (Long, Long)
// tuples in hash maps on a managed heap with ~55% usable fraction —
// ~650 effective bytes per vote. This is what makes GraphX "unable to
// complete CDLP" even on R4(S) in the paper (§4.2).
constexpr std::int64_t kCdlpRowBytes = 650;

struct MessageRow {
  VertexIndex dst;
  double value;
};

// The dataflow runtime: tracks row processing, shuffle charges, memory
// for double-buffered shuffle files, and cross-machine bytes.
class DataflowRuntime {
 public:
  DataflowRuntime(JobContext& ctx, const Graph& graph)
      : ctx_(ctx),
        graph_(graph),
        workers_(graph, ctx.num_machines(), ctx.threads_per_machine()) {}

  ~DataflowRuntime() { ReleaseIterationBuffers(); }

  // Charges `rows` row-scans, spread across all workers (Spark balances
  // shuffle partitions); `op_factor` scales the per-row cost.
  void ChargeRows(std::uint64_t rows, double op_factor = 1.0) {
    const double per_row = ctx_.profile().ops_per_message * op_factor;
    const std::uint64_t total =
        static_cast<std::uint64_t>(static_cast<double>(rows) * per_row);
    const int workers = ctx_.num_workers();
    for (int w = 0; w < workers; ++w) {
      ctx_.worker_ops()[w] += total / workers;
    }
    ctx_.worker_ops()[0] += total % workers;
    ctx_.ledger().rows_materialized += rows;
  }

  // Shuffle for order-insensitive groupings (CDLP's mode counts a
  // multiset): a stable bucket scatter by destination, O(rows + n)
  // instead of a comparison sort. The within-group row order is emission
  // order, which a counting aggregation cannot observe. Scatter scratch
  // is pooled across iterations.
  void ShuffleByDestination(std::vector<MessageRow>* messages,
                            VertexIndex num_vertices,
                            std::int64_t row_bytes) {
    if (messages->empty()) return;
    ChargeShuffle(messages->size(), row_bytes);
    dst_offsets_.assign(static_cast<std::size_t>(num_vertices) + 1, 0);
    for (const MessageRow& row : *messages) {
      ++dst_offsets_[static_cast<std::size_t>(row.dst) + 1];
    }
    for (VertexIndex v = 0; v < num_vertices; ++v) {
      dst_offsets_[static_cast<std::size_t>(v) + 1] +=
          dst_offsets_[static_cast<std::size_t>(v)];
    }
    shuffle_scratch_.resize(messages->size());
    for (const MessageRow& row : *messages) {
      shuffle_scratch_[static_cast<std::size_t>(
          dst_offsets_[static_cast<std::size_t>(row.dst)]++)] = row;
    }
    messages->swap(shuffle_scratch_);
  }

  // Charges a shuffle of `rows` rows by destination: comparison costs
  // plus cross-machine traffic (a row moves when the destination vertex's
  // machine differs from the source's hash partition). An empty shuffle
  // charges nothing. How the host groups the rows is up to each
  // algorithm; no grouping changes the charge.
  void ChargeShuffle(std::size_t rows, std::int64_t row_bytes) {
    if (rows == 0) return;
    const double log_rows =
        std::max(1.0, std::log2(static_cast<double>(rows)));
    ChargeRows(static_cast<std::uint64_t>(
                   static_cast<double>(rows) * log_rows / 12.0),
               2.0);
    if (ctx_.num_machines() > 1) {
      // Roughly (p-1)/p of rows cross machines under hash partitioning;
      // map-side combining shrinks the shipped rows by ~4x (except for
      // CDLP, whose mode aggregation cannot combine — its heavier
      // row_bytes already reflect that).
      constexpr double kMapSideCombine = 4.0;
      const double cross_fraction =
          static_cast<double>(ctx_.num_machines() - 1) /
          static_cast<double>(ctx_.num_machines());
      const auto cross_bytes = static_cast<std::uint64_t>(
          cross_fraction * static_cast<double>(rows) *
          static_cast<double>(ctx_.profile().bytes_per_message) /
          (kMapSideCombine * static_cast<double>(ctx_.num_machines())));
      (void)row_bytes;
      for (int m = 0; m < ctx_.num_machines(); ++m) {
        ctx_.machine_comm()[m].bytes_sent += cross_bytes;
        ctx_.machine_comm()[m].bytes_received += cross_bytes;
      }
    }
  }

  // Shuffle files + materialised RDD of this iteration stay resident until
  // the next iteration replaces them (GraphX unpersists the previous one).
  Status ChargeIterationBuffers(std::uint64_t rows, std::int64_t row_bytes) {
    ReleaseIterationBuffers();
    charged_per_machine_ =
        static_cast<std::int64_t>(rows) * row_bytes /
        std::max(ctx_.num_machines(), 1);
    for (int m = 0; m < ctx_.num_machines(); ++m) {
      GA_RETURN_IF_ERROR(
          ctx_.ChargeMemory(m, charged_per_machine_, "shuffle buffers"));
    }
    charged_ = true;
    return Status::Ok();
  }

  void ReleaseIterationBuffers() {
    if (!charged_) return;
    for (int m = 0; m < ctx_.num_machines(); ++m) {
      ctx_.ReleaseMemory(m, charged_per_machine_);
    }
    charged_ = false;
  }

  const WorkerMap& workers() const { return workers_; }

 private:
  JobContext& ctx_;
  const Graph& graph_;
  WorkerMap workers_;
  std::int64_t charged_per_machine_ = 0;
  bool charged_ = false;
  std::vector<EdgeIndex> dst_offsets_;      // bucket-scatter prefix sums
  std::vector<MessageRow> shuffle_scratch_;  // bucket-scatter target
};

// GraphX-Pregel skeleton over double-valued vertex state (BFS, SSSP, WCC).
//
//   send(edge_source_state, edge, forward?) -> optional message value
//   merge(a, b) -> combined message
//   apply(v, old_state, merged) -> new state
//
// `merge` must be commutative and associative: each row folds into its
// destination's inbox in emission order, which is not the order of the
// shuffle the model charges. `reverse_sends` additionally evaluates each
// edge in the reverse direction (GraphX triplets can message both
// endpoints), used by WCC on directed graphs.
template <typename SendFn, typename MergeFn, typename ApplyFn>
Status RunGraphxPregel(JobContext& ctx, const Graph& graph,
                       DataflowRuntime& runtime,
                       std::vector<double>* state,
                       std::vector<char>* active, int max_iterations,
                       bool reverse_sends, std::int64_t row_bytes,
                       double row_op_factor, const std::string& label,
                       SendFn&& send, MergeFn&& merge, ApplyFn&& apply) {
  exec::SlotBuffers<MessageRow> emitted;
  std::vector<double> inbox(state->size());
  std::vector<char> has_mail;
  std::vector<char> next_active;
  for (int iteration = 0; iteration < max_iterations; ++iteration) {
    bool any_active = false;
    for (char a : *active) {
      if (a) {
        any_active = true;
        break;
      }
    }
    if (!any_active) break;
    if (ctx.tracer().enabled()) {
      // Traced-only occupancy probe: count of active vertices feeding
      // this iteration's full-edge-table triplet scan.
      std::int64_t active_count = 0;
      for (char a : *active) active_count += a ? 1 : 0;
      ctx.tracer().AnnotateActive(active_count);
    }

    // Triplet phase: the FULL edge table is scanned (GraphX cannot skip
    // inactive triplets without a full pass). The scan runs host-parallel
    // over edge slices; draining the per-slot outputs in slot order
    // replays the serial emission sequence exactly.
    std::span<const Edge> edges = graph.edges();
    emitted.Reset(exec::ExecContext::NumSlots(
        static_cast<std::int64_t>(edges.size())));
    exec::parallel_for(
        ctx.exec(), 0, static_cast<std::int64_t>(edges.size()),
        [&](const exec::Slice& slice) {
          std::vector<MessageRow>& out = emitted.buf(slice.slot);
          for (std::int64_t e = slice.begin; e < slice.end; ++e) {
            const Edge& edge = edges[e];
            if ((*active)[edge.source]) {
              auto value =
                  send((*state)[edge.source], edge, /*forward=*/true);
              if (value) out.push_back({edge.target, *value});
            }
            const bool evaluate_reverse =
                !graph.is_directed() || reverse_sends;
            if (evaluate_reverse && (*active)[edge.target]) {
              auto value =
                  send((*state)[edge.target], edge, /*forward=*/false);
              if (value) out.push_back({edge.source, *value});
            }
          }
        });
    const std::size_t rows = emitted.TotalSize();
    runtime.ChargeRows(graph.edges().size() * 2, row_op_factor);
    runtime.ChargeShuffle(rows, row_bytes);

    // Reduce by key + join: produces a brand-new vertex table. The
    // retained shuffle buffers hold the post-combine rows (one per
    // distinct destination; GraphX's aggregateMessages combines
    // map-side), not the raw message multiset.
    has_mail.assign(state->size(), 0);
    emitted.Drain([&](const MessageRow& row) {
      double& slot = inbox[row.dst];
      slot = has_mail[row.dst] ? merge(slot, row.value) : row.value;
      has_mail[row.dst] = 1;
    });
    next_active.assign(state->size(), 0);
    std::size_t groups = 0;
    for (std::size_t v = 0; v < state->size(); ++v) {
      if (!has_mail[v]) continue;
      ++groups;
      if (apply(static_cast<VertexIndex>(v), &(*state)[v], inbox[v])) {
        next_active[v] = 1;
      }
    }
    runtime.ChargeRows(rows + state->size());
    GA_RETURN_IF_ERROR(runtime.ChargeIterationBuffers(
        groups + state->size(), row_bytes));
    active->swap(next_active);
    GA_RETURN_IF_ERROR(ctx.EndSuperstep(label));
  }
  runtime.ReleaseIterationBuffers();
  return Status::Ok();
}

Result<AlgorithmOutput> RunBfs(JobContext& ctx, const Graph& graph,
                               VertexIndex root) {
  DataflowRuntime runtime(ctx, graph);
  const VertexIndex n = graph.num_vertices();
  std::vector<double> state(n, static_cast<double>(kUnreachableHops));
  std::vector<char> active(n, 0);
  state[root] = 0;
  active[root] = 1;
  GA_RETURN_IF_ERROR(RunGraphxPregel(
      ctx, graph, runtime, &state, &active, static_cast<int>(n) + 1,
      /*reverse_sends=*/false, kRowBytes, 1.0, "bfs",
      [&](double source_state, const Edge&, bool) -> std::optional<double> {
        return source_state + 1.0;
      },
      [](double a, double b) { return std::min(a, b); },
      [](VertexIndex, double* value, double merged) {
        if (merged < *value) {
          *value = merged;
          return true;
        }
        return false;
      }));
  AlgorithmOutput output;
  output.algorithm = Algorithm::kBfs;
  output.int_values.resize(n);
  for (VertexIndex v = 0; v < n; ++v) {
    // Compare in double space: the unreachable sentinel exceeds the exact
    // double range and must not be cast back to int64.
    output.int_values[v] = state[v] >= 1e15
                               ? kUnreachableHops
                               : static_cast<std::int64_t>(state[v]);
  }
  return output;
}

Result<AlgorithmOutput> RunSssp(JobContext& ctx, const Graph& graph,
                                VertexIndex root) {
  DataflowRuntime runtime(ctx, graph);
  const VertexIndex n = graph.num_vertices();
  std::vector<double> state(n, kUnreachableDistance);
  std::vector<char> active(n, 0);
  state[root] = 0.0;
  active[root] = 1;
  GA_RETURN_IF_ERROR(RunGraphxPregel(
      ctx, graph, runtime, &state, &active, static_cast<int>(n) + 1,
      /*reverse_sends=*/false, kRowBytes, 1.0, "sssp",
      [&](double source_state, const Edge& edge,
          bool) -> std::optional<double> {
        return source_state + edge.weight;
      },
      [](double a, double b) { return std::min(a, b); },
      [](VertexIndex, double* value, double merged) {
        if (merged < *value) {
          *value = merged;
          return true;
        }
        return false;
      }));
  AlgorithmOutput output;
  output.algorithm = Algorithm::kSssp;
  output.double_values = std::move(state);
  return output;
}

Result<AlgorithmOutput> RunWcc(JobContext& ctx, const Graph& graph) {
  DataflowRuntime runtime(ctx, graph);
  const VertexIndex n = graph.num_vertices();
  std::vector<double> state(n);
  for (VertexIndex v = 0; v < n; ++v) {
    state[v] = static_cast<double>(graph.ExternalId(v));
  }
  std::vector<char> active(n, 1);
  GA_RETURN_IF_ERROR(RunGraphxPregel(
      ctx, graph, runtime, &state, &active, static_cast<int>(n) + 1,
      /*reverse_sends=*/true, kRowBytes, 1.0, "wcc",
      [&](double source_state, const Edge&, bool) -> std::optional<double> {
        return source_state;
      },
      [](double a, double b) { return std::min(a, b); },
      [](VertexIndex, double* value, double merged) {
        if (merged < *value) {
          *value = merged;
          return true;
        }
        return false;
      }));
  AlgorithmOutput output;
  output.algorithm = Algorithm::kWcc;
  output.int_values.resize(n);
  for (VertexIndex v = 0; v < n; ++v) {
    output.int_values[v] = static_cast<std::int64_t>(state[v]);
  }
  return output;
}

// PageRank's shuffle order, sorted once per job. Every edge sends on every
// superstep, so each superstep emits the same destination sequence, and
// std::sort's output permutation depends only on the outcomes of its key
// comparisons: the rows of every superstep reach their destination in the
// order this one sort fixes. `sources` holds each row's sending vertex in
// that order; destination v's rows sit at [offsets[v], offsets[v + 1]).
struct ShuffleOrder {
  std::vector<EdgeIndex> offsets;
  std::vector<VertexIndex> sources;
};

ShuffleOrder SortShuffleOnce(const Graph& graph) {
  struct Route {
    VertexIndex dst;
    VertexIndex src;
  };
  std::vector<Route> routes;
  routes.reserve(graph.edges().size() * (graph.is_directed() ? 1 : 2));
  for (const Edge& edge : graph.edges()) {
    routes.push_back({edge.target, edge.source});
    if (!graph.is_directed()) routes.push_back({edge.source, edge.target});
  }
  std::sort(routes.begin(), routes.end(),
            [](const Route& a, const Route& b) { return a.dst < b.dst; });
  ShuffleOrder order;
  order.offsets.assign(static_cast<std::size_t>(graph.num_vertices()) + 1, 0);
  order.sources.resize(routes.size());
  for (std::size_t k = 0; k < routes.size(); ++k) {
    ++order.offsets[static_cast<std::size_t>(routes[k].dst) + 1];
    order.sources[k] = routes[k].src;
  }
  for (std::size_t v = 1; v < order.offsets.size(); ++v) {
    order.offsets[v] += order.offsets[v - 1];
  }
  return order;
}

Result<AlgorithmOutput> RunPageRank(JobContext& ctx, const Graph& graph,
                                    int iterations, double damping) {
  DataflowRuntime runtime(ctx, graph);
  const VertexIndex n = graph.num_vertices();
  AlgorithmOutput output;
  output.algorithm = Algorithm::kPageRank;
  output.double_values.assign(n, n > 0 ? 1.0 / static_cast<double>(n) : 0.0);
  if (n == 0) return output;
  std::vector<double>& rank = output.double_values;
  const std::uint64_t rows =
      graph.edges().size() * (graph.is_directed() ? 1 : 2);
  ShuffleOrder order;
  std::vector<double> contrib(n);
  std::vector<double> next(n);
  std::vector<double> dangling_scratch;

  for (int iteration = 0; iteration < iterations; ++iteration) {
    // One pass over the vertices sums the dangling mass and computes each
    // sender's per-row message value, rank / out-degree.
    const double dangling = exec::parallel_reduce(
        ctx.exec(), 0, n, 0.0,
        [&](const exec::Slice& slice, double& acc) {
          for (VertexIndex v = slice.begin; v < slice.end; ++v) {
            const EdgeIndex degree = graph.OutDegree(v);
            if (degree == 0) {
              acc += rank[v];
            } else {
              contrib[v] = rank[v] / static_cast<double>(degree);
            }
          }
        },
        [](double& into, double from) { into += from; },
        &dangling_scratch);
    runtime.ChargeRows(graph.edges().size() * 2);
    // PageRank scatters along every edge, and GraphX materialises the
    // rank-joined triplet messages *before* the reduce can shrink them —
    // the per-iteration buffer holds the raw message multiset. This is
    // why PR needs 4 machines on D1000 where BFS needs only 2 (§4.4).
    GA_RETURN_IF_ERROR(runtime.ChargeIterationBuffers(
        rows + static_cast<std::uint64_t>(n), kRowBytes));
    if (iteration == 0) order = SortShuffleOnce(graph);
    runtime.ChargeShuffle(rows, kRowBytes);

    // Each destination sums its rows in the shuffle's order, so the
    // result is the same at any host thread count.
    const double base = (1.0 - damping) / static_cast<double>(n) +
                        damping * dangling / static_cast<double>(n);
    exec::parallel_for(ctx.exec(), 0, n, [&](const exec::Slice& slice) {
      for (VertexIndex v = slice.begin; v < slice.end; ++v) {
        double sum = base;
        for (EdgeIndex k = order.offsets[v]; k < order.offsets[v + 1]; ++k) {
          sum += damping * contrib[order.sources[k]];
        }
        next[v] = sum;
      }
    });
    runtime.ChargeRows(rows + n);
    if (ctx.tracer().enabled()) {
      // Traced-only convergence probe: L1 delta between successive
      // rank vectors, observed before the swap installs the update.
      double residual = 0.0;
      for (VertexIndex v = 0; v < n; ++v) {
        residual += std::abs(next[v] - rank[v]);
      }
      ctx.tracer().AnnotateResidual(residual);
      ctx.tracer().AnnotateActive(n);
    }
    rank.swap(next);
    GA_RETURN_IF_ERROR(ctx.EndSuperstep("pr"));
  }
  runtime.ReleaseIterationBuffers();
  return output;
}

Result<AlgorithmOutput> RunCdlp(JobContext& ctx, const Graph& graph,
                                int iterations) {
  DataflowRuntime runtime(ctx, graph);
  const VertexIndex n = graph.num_vertices();
  AlgorithmOutput output;
  output.algorithm = Algorithm::kCdlp;
  output.int_values.resize(n);
  for (VertexIndex v = 0; v < n; ++v) {
    output.int_values[v] = graph.ExternalId(v);
  }
  std::vector<MessageRow> messages;
  exec::SlotBuffers<MessageRow> emitted;
  exec::LabelCounter votes;
  std::vector<std::int64_t> next;

  for (int iteration = 0; iteration < iterations; ++iteration) {
    messages.clear();
    std::span<const Edge> edges = graph.edges();
    emitted.Reset(exec::ExecContext::NumSlots(
        static_cast<std::int64_t>(edges.size())));
    exec::parallel_for(
        ctx.exec(), 0, static_cast<std::int64_t>(edges.size()),
        [&](const exec::Slice& slice) {
          std::vector<MessageRow>& out = emitted.buf(slice.slot);
          for (std::int64_t e = slice.begin; e < slice.end; ++e) {
            const Edge& edge = edges[e];
            // Labels travel both ways: along the edge and its reverse
            // (for directed graphs each direction is a separate vote).
            out.push_back({edge.target,
                           static_cast<double>(
                               output.int_values[edge.source])});
            out.push_back({edge.source,
                           static_cast<double>(
                               output.int_values[edge.target])});
          }
        });
    emitted.MergeInto(&messages);
    // groupByKey: no map-side combine exists for the mode aggregation, so
    // the full label multiset is shuffled and grouped (the reason GraphX
    // cannot complete CDLP in the paper, §4.2).
    runtime.ChargeRows(graph.edges().size() * 2, 4.0);
    GA_RETURN_IF_ERROR(
        runtime.ChargeIterationBuffers(messages.size() + n, kCdlpRowBytes));
    runtime.ShuffleByDestination(&messages, n, kCdlpRowBytes);

    next.assign(output.int_values.begin(), output.int_values.end());
    std::size_t i = 0;
    while (i < messages.size()) {
      const VertexIndex v = messages[i].dst;
      votes.Clear();
      std::size_t j = i;
      while (j < messages.size() && messages[j].dst == v) {
        votes.Add(static_cast<std::int64_t>(messages[j].value));
        ++j;
      }
      next[v] = votes.Mode();
      i = j;
    }
    runtime.ChargeRows(messages.size(), 4.0);
    output.int_values.swap(next);
    ctx.tracer().AnnotateActive(n);
    GA_RETURN_IF_ERROR(ctx.EndSuperstep("cdlp"));
  }
  runtime.ReleaseIterationBuffers();
  return output;
}

Result<AlgorithmOutput> RunLcc(JobContext& ctx, const Graph& graph) {
  DataflowRuntime runtime(ctx, graph);
  const VertexIndex n = graph.num_vertices();

  // The neighbourhood join materialises sum_v sum_{u in N(v)} deg(u) rows.
  // Charge that memory up front (computable in O(n)); on dense graphs this
  // is where the job dies, before any compute happens — as observed for
  // GraphX in the paper (§4.2).
  const double join_rows = exec::parallel_reduce(
      ctx.exec(), 0, n, 0.0,
      [&](const exec::Slice& slice, double& acc) {
        for (VertexIndex v = slice.begin; v < slice.end; ++v) {
          const double degree =
              static_cast<double>(graph.OutDegree(v)) +
              (graph.is_directed()
                   ? static_cast<double>(graph.InDegree(v))
                   : 0.0);
          acc += degree * degree;
        }
      },
      [](double& into, double from) { into += from; });
  GA_RETURN_IF_ERROR(runtime.ChargeIterationBuffers(
      static_cast<std::uint64_t>(join_rows), kRowBytes));

  AlgorithmOutput output;
  output.algorithm = Algorithm::kLcc;
  output.double_values.assign(n, 0.0);
  // Host-parallel degree-oriented triangle counting over the sorted CSR
  // (algo/lcc_kernel.h); the scanned-row counts charged per slot keep the
  // modeled join's flag-scan volume, so the simulated cost is unchanged.
  lcc::NeighborhoodIndex index;
  index.Build(ctx.exec(), graph);
  std::vector<std::int64_t> links;
  index.CountLinks(ctx.exec(), &links);
  const int num_slots =
      exec::ExecContext::NumSlots(n, exec::ExecContext::kScratchSlots);
  std::vector<std::uint64_t> slot_scanned(std::max(num_slots, 1), 0);
  exec::parallel_for(
      ctx.exec(), 0, n,
      [&](const exec::Slice& slice) {
    for (VertexIndex v = slice.begin; v < slice.end; ++v) {
      const std::span<const VertexIndex> neighborhood = index.Neighbors(v);
      if (neighborhood.size() < 2) continue;
      slot_scanned[slice.slot] += lcc::ScannedEdgesProxy(graph, neighborhood);
      output.double_values[v] = lcc::Coefficient(
          links[v], static_cast<std::int64_t>(neighborhood.size()));
    }
      },
      exec::ExecContext::kScratchSlots);
  for (int slot = 0; slot < num_slots; ++slot) {
    runtime.ChargeRows(slot_scanned[slot]);
  }
  GA_RETURN_IF_ERROR(ctx.EndSuperstep("lcc"));
  runtime.ReleaseIterationBuffers();
  return output;
}

}  // namespace

DataflowPlatform::DataflowPlatform() {
  info_ = PlatformInfo{"dataflow", "GraphX 1.6.0 (Apache Spark)",
                       "community", "Spark RDD dataflow (triplet joins)",
                       /*distributed=*/true};
  profile_.ops_per_edge = 4.0;
  profile_.ops_per_vertex = 8.0;
  profile_.ops_per_message = 10.0;  // per shuffle row
  profile_.ops_per_load_entry = 14.0;
  profile_.bytes_per_message = 40.0;
  profile_.startup_seconds = 164.0;
  profile_.superstep_overhead_seconds = 1.02;  // task scheduling per stage
  profile_.hyperthread_efficiency = 0.05;
  profile_.serial_fraction = 0.19;
  profile_.mem_bytes_per_vertex = 256.0;
  profile_.mem_bytes_per_entry = 46.0;
  profile_.mem_bytes_per_hub_degree = 4000.0;
  profile_.variability_cv = 0.026;
}

Result<AlgorithmOutput> DataflowPlatform::Execute(
    JobContext& ctx, const Graph& graph, Algorithm algorithm,
    const AlgorithmParams& params) {
  switch (algorithm) {
    case Algorithm::kBfs: {
      const VertexIndex root = graph.IndexOf(params.source_vertex);
      if (root == kInvalidVertex) {
        return Status::InvalidArgument("BFS source not in graph");
      }
      return RunBfs(ctx, graph, root);
    }
    case Algorithm::kPageRank:
      return RunPageRank(ctx, graph, params.pagerank_iterations,
                         params.damping_factor);
    case Algorithm::kWcc:
      return RunWcc(ctx, graph);
    case Algorithm::kCdlp:
      return RunCdlp(ctx, graph, params.cdlp_iterations);
    case Algorithm::kLcc:
      return RunLcc(ctx, graph);
    case Algorithm::kSssp: {
      const VertexIndex root = graph.IndexOf(params.source_vertex);
      if (root == kInvalidVertex) {
        return Status::InvalidArgument("SSSP source not in graph");
      }
      return RunSssp(ctx, graph, root);
    }
  }
  return Status::Internal("unknown algorithm");
}

}  // namespace ga::platform
