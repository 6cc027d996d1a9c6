#include "mutate/delta.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <unordered_map>
#include <utility>

namespace ga::mutate {

std::string_view DeltaOpName(DeltaOp op) {
  switch (op) {
    case DeltaOp::kInsertEdge: return "insert";
    case DeltaOp::kDeleteEdge: return "delete";
    case DeltaOp::kAddVertex: return "add-vertex";
  }
  return "unknown";
}

namespace {

/// One edge operation after id remapping and canonicalisation, tagged
/// with its batch position so the last-wins rule is a stable sort away.
struct NetOp {
  VertexIndex source;
  VertexIndex target;
  Weight weight;
  bool insert;
  std::int64_t seq;
};

bool PairLess(VertexIndex as, VertexIndex at, VertexIndex bs,
              VertexIndex bt) {
  return as != bs ? as < bs : at < bt;
}

}  // namespace

Result<MutationResult> ApplyDeltas(const Graph& parent,
                                   const DeltaBatch& batch,
                                   exec::ThreadPool* pool) {
  const bool undirected = !parent.is_directed();
  const VertexIndex parent_n = parent.num_vertices();

  // 1. Validate operations and collect external ids the batch mints.
  std::vector<VertexId> new_ids;
  for (const EdgeDelta& op : batch.ops) {
    switch (op.op) {
      case DeltaOp::kInsertEdge:
        if (op.source == op.target) {
          return Status::InvalidArgument(
              "delta inserts self-loop on vertex " +
              std::to_string(op.source) +
              " (forbidden by the Graphalytics data model)");
        }
        if (parent.IndexOf(op.source) == kInvalidVertex) {
          new_ids.push_back(op.source);
        }
        if (parent.IndexOf(op.target) == kInvalidVertex) {
          new_ids.push_back(op.target);
        }
        break;
      case DeltaOp::kDeleteEdge:
        if (op.source == op.target) {
          return Status::InvalidArgument(
              "delta deletes self-loop on vertex " +
              std::to_string(op.source) + " (self-loops cannot exist)");
        }
        break;
      case DeltaOp::kAddVertex:
        if (parent.IndexOf(op.source) == kInvalidVertex) {
          new_ids.push_back(op.source);
        }
        break;
      default:
        return Status::InvalidArgument(
            "unknown delta op " +
            std::to_string(static_cast<std::uint32_t>(op.op)));
    }
  }
  std::sort(new_ids.begin(), new_ids.end());
  new_ids.erase(std::unique(new_ids.begin(), new_ids.end()), new_ids.end());

  MutationResult result;
  result.stats.added_vertices = static_cast<std::int64_t>(new_ids.size());
  result.vertex_set_changed = !new_ids.empty();

  // 2. Child id array (sorted merge of parent ids + minted ids; the two
  //    are disjoint by construction) and the parent->child index remap.
  std::vector<VertexId> child_ids;
  child_ids.reserve(static_cast<std::size_t>(parent_n) + new_ids.size());
  std::merge(parent.external_ids().begin(), parent.external_ids().end(),
             new_ids.begin(), new_ids.end(),
             std::back_inserter(child_ids));
  result.old_to_new.resize(static_cast<std::size_t>(parent_n));
  {
    const auto parent_ids = parent.external_ids();
    VertexIndex j = 0;
    for (VertexIndex i = 0; i < parent_n; ++i) {
      while (child_ids[j] != parent_ids[i]) ++j;
      result.old_to_new[i] = j++;
    }
  }
  auto child_index = [&](VertexId id) -> VertexIndex {
    auto it = std::lower_bound(child_ids.begin(), child_ids.end(), id);
    if (it == child_ids.end() || *it != id) return kInvalidVertex;
    return static_cast<VertexIndex>(it - child_ids.begin());
  };

  // 3. Net edge operations: remap, canonicalise, keep the last op per
  //    logical edge. Serial and deterministic — the op stream orders it.
  std::vector<NetOp> ops;
  ops.reserve(batch.ops.size());
  std::int64_t seq = 0;
  for (const EdgeDelta& op : batch.ops) {
    if (op.op == DeltaOp::kAddVertex) continue;
    VertexIndex s = child_index(op.source);
    VertexIndex t = child_index(op.target);
    if (op.op == DeltaOp::kDeleteEdge &&
        (s == kInvalidVertex || t == kInvalidVertex)) {
      // Deletes never mint vertices; an unknown endpoint means the edge
      // cannot exist.
      ++result.stats.missing_deletes;
      continue;
    }
    if (undirected && s > t) std::swap(s, t);
    ops.push_back(NetOp{s, t, op.weight, op.op == DeltaOp::kInsertEdge,
                        seq++});
  }
  std::sort(ops.begin(), ops.end(), [](const NetOp& a, const NetOp& b) {
    if (a.source != b.source) return a.source < b.source;
    if (a.target != b.target) return a.target < b.target;
    return a.seq < b.seq;
  });
  // Compact to the last op per (source, target).
  std::size_t kept = 0;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    if (i + 1 < ops.size() && ops[i + 1].source == ops[i].source &&
        ops[i + 1].target == ops[i].target) {
      continue;
    }
    ops[kept++] = ops[i];
  }
  ops.resize(kept);

  // 4. Remap the parent's canonical edges into child index space. The
  //    remap is strictly monotone, so sortedness is preserved; skip the
  //    copy entirely when no vertices were minted.
  exec::ExecContext ctx(pool);
  std::vector<Edge> remapped;
  std::span<const Edge> base = parent.edges();
  if (result.vertex_set_changed) {
    remapped.resize(base.size());
    exec::parallel_for(
        ctx, 0, static_cast<std::int64_t>(base.size()),
        [&](const exec::Slice& slice) {
          for (std::int64_t e = slice.begin; e < slice.end; ++e) {
            remapped[e] = Edge{result.old_to_new[base[e].source],
                               result.old_to_new[base[e].target],
                               base[e].weight};
          }
        });
    base = remapped;
  }

  // 5. Merge parent edges with the net ops into the child edge array.
  std::vector<Edge> child_edges;
  child_edges.reserve(base.size() + ops.size());
  std::size_t ei = 0;
  for (const NetOp& op : ops) {
    while (ei < base.size() &&
           PairLess(base[ei].source, base[ei].target, op.source,
                    op.target)) {
      child_edges.push_back(base[ei++]);
    }
    const bool present = ei < base.size() &&
                         base[ei].source == op.source &&
                         base[ei].target == op.target;
    if (op.insert) {
      if (present) {
        // Upsert: the op's weight wins (chunking invariance — see delta.h).
        child_edges.push_back(Edge{op.source, op.target, op.weight});
        ++ei;
        ++result.stats.redundant_inserts;
      } else {
        child_edges.push_back(Edge{op.source, op.target, op.weight});
        result.applied_inserts.push_back(child_edges.back());
        ++result.stats.inserted_edges;
      }
    } else {
      if (present) {
        result.applied_deletes.push_back(base[ei]);
        ++ei;
        ++result.stats.deleted_edges;
      } else {
        ++result.stats.missing_deletes;
      }
    }
  }
  child_edges.insert(child_edges.end(), base.begin() + ei, base.end());

  GA_ASSIGN_OR_RETURN(
      result.graph,
      Graph::FromCanonical(std::move(child_ids), std::move(child_edges),
                           parent.directedness(), parent.is_weighted(),
                           pool));
  return result;
}

// --- text codec --------------------------------------------------------

Result<DeltaBatch> ParseDeltaText(std::string_view text) {
  DeltaBatch batch;
  std::istringstream stream{std::string(text)};
  std::string line;
  std::int64_t line_number = 0;
  while (std::getline(stream, line)) {
    ++line_number;
    std::istringstream fields(line);
    std::string tag;
    if (!(fields >> tag) || tag[0] == '#') continue;
    EdgeDelta op;
    auto bad = [&](const std::string& what) {
      return Status::InvalidArgument("delta line " +
                                     std::to_string(line_number) + ": " +
                                     what + ": \"" + line + "\"");
    };
    if (tag == "+") {
      op.op = DeltaOp::kInsertEdge;
      if (!(fields >> op.source >> op.target)) {
        return bad("insert needs <source> <target> [weight]");
      }
      // Optional; stays 1.0 when absent. Parsed as one whole token, so
      // "abc" or "2.5xyz" is an error, not a weight of 0 or 2.5.
      std::string weight;
      if (fields >> weight) {
        double value = 0.0;
        const char* end = weight.data() + weight.size();
        const auto parsed = std::from_chars(weight.data(), end, value);
        if (parsed.ec != std::errc() || parsed.ptr != end ||
            !std::isfinite(value)) {
          return bad("weight must be a finite number");
        }
        op.weight = value;
      }
    } else if (tag == "-") {
      op.op = DeltaOp::kDeleteEdge;
      if (!(fields >> op.source >> op.target)) {
        return bad("delete needs <source> <target>");
      }
    } else if (tag == "v") {
      op.op = DeltaOp::kAddVertex;
      if (!(fields >> op.source)) return bad("add-vertex needs <id>");
    } else {
      return bad("unknown tag \"" + tag + "\" (expected +, - or v)");
    }
    std::string extra;
    if (fields >> extra) return bad("unexpected trailing field");
    batch.ops.push_back(op);
  }
  return batch;
}

Result<DeltaBatch> LoadDeltaFile(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) return Status::IoError(path + ": cannot open delta file");
  std::ostringstream content;
  content << file.rdbuf();
  auto batch = ParseDeltaText(content.str());
  if (!batch.ok()) {
    return Status::InvalidArgument(path + ": " +
                                   batch.status().message());
  }
  return batch;
}

std::string FormatDeltaText(const DeltaBatch& batch) {
  std::string out;
  char buffer[96];
  for (const EdgeDelta& op : batch.ops) {
    switch (op.op) {
      case DeltaOp::kInsertEdge:
        std::snprintf(buffer, sizeof(buffer), "+ %lld %lld %.17g\n",
                      static_cast<long long>(op.source),
                      static_cast<long long>(op.target), op.weight);
        break;
      case DeltaOp::kDeleteEdge:
        std::snprintf(buffer, sizeof(buffer), "- %lld %lld\n",
                      static_cast<long long>(op.source),
                      static_cast<long long>(op.target));
        break;
      case DeltaOp::kAddVertex:
        std::snprintf(buffer, sizeof(buffer), "v %lld\n",
                      static_cast<long long>(op.source));
        break;
    }
    out += buffer;
  }
  return out;
}

// --- deterministic random batches --------------------------------------

DeltaBatch RandomDeltaBatch(const Graph& parent, const RandomBatchSpec& spec,
                            SplitMix64& rng) {
  DeltaBatch batch;
  const VertexIndex n = parent.num_vertices();
  const EdgeIndex m = parent.num_edges();
  if (n == 0) return batch;
  const VertexId max_id = parent.ExternalId(n - 1);
  std::int64_t minted = 0;
  batch.ops.reserve(
      static_cast<std::size_t>(spec.inserts + spec.deletes));

  // Degree-weighted draw from the non-isolated part of the graph: a
  // uniformly random endpoint of a uniformly random edge. Falls back to
  // a uniform vertex draw on edgeless graphs.
  auto draw_active = [&]() {
    if (m == 0) {
      return static_cast<VertexIndex>(
          rng.NextBounded(static_cast<std::uint64_t>(n)));
    }
    const Edge& edge = parent.edges()[static_cast<EdgeIndex>(
        rng.NextBounded(static_cast<std::uint64_t>(m)))];
    return (rng.Next() & 1) ? edge.source : edge.target;
  };

  for (std::int64_t i = 0; i < spec.inserts; ++i) {
    EdgeDelta op;
    op.op = DeltaOp::kInsertEdge;
    if (spec.new_vertex_every > 0 &&
        (i + 1) % spec.new_vertex_every == 0) {
      op.source = parent.ExternalId(draw_active());
      op.target = max_id + (++minted);
    } else {
      const VertexIndex a = draw_active();
      VertexIndex b = draw_active();
      int guard = 0;
      while (b == a && ++guard < 64) {
        b = draw_active();
      }
      if (b == a) continue;  // degenerate graph: no non-loop pair found
      op.source = parent.ExternalId(a);
      op.target = parent.ExternalId(b);
    }
    op.weight = parent.is_weighted() ? rng.NextDouble() : 1.0;
    batch.ops.push_back(op);
  }

  if (m > 0 && spec.deletes > 0) {
    // Deletes draw uniform random existing edges but never isolate an
    // endpoint (nor, on directed graphs, strip a vertex's last
    // out-edge): `remaining` tracks each vertex's degree net of the
    // deletes already chosen this batch, counting each distinct edge
    // once (duplicate draws are kept — the last-wins rule dedups them —
    // but must not double-count the degree loss). Keeping the isolated
    // set invariant is what lets incremental PageRank reuse the
    // dangling-mass history bitwise (mutate/incremental.h) — isolation
    // itself is exercised by targeted tests, not random streams.
    std::unordered_map<VertexIndex, EdgeIndex> remaining;
    std::set<std::pair<VertexIndex, VertexIndex>> chosen;
    auto degree_left = [&](VertexIndex v) -> EdgeIndex& {
      auto [it, fresh] = remaining.try_emplace(v, 0);
      if (fresh) it->second = parent.OutDegree(v);
      return it->second;
    };
    std::int64_t emitted = 0;
    const std::int64_t budget = 8 * spec.deletes;
    for (std::int64_t attempt = 0;
         attempt < budget && emitted < spec.deletes; ++attempt) {
      const Edge& edge = parent.edges()[static_cast<EdgeIndex>(
          rng.NextBounded(static_cast<std::uint64_t>(m)))];
      const bool duplicate =
          chosen.contains({edge.source, edge.target});
      if (!duplicate) {
        if (parent.is_directed()) {
          if (degree_left(edge.source) <= 1) continue;
        } else {
          if (degree_left(edge.source) <= 1 ||
              degree_left(edge.target) <= 1) {
            continue;
          }
        }
        --degree_left(edge.source);
        if (!parent.is_directed()) --degree_left(edge.target);
        chosen.insert({edge.source, edge.target});
      }
      EdgeDelta op;
      op.op = DeltaOp::kDeleteEdge;
      op.source = parent.ExternalId(edge.source);
      op.target = parent.ExternalId(edge.target);
      batch.ops.push_back(op);
      ++emitted;
    }
  }
  return batch;
}

}  // namespace ga::mutate
