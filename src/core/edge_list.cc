#include "core/edge_list.h"

#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace ga {

namespace {

// Parses one whitespace-separated token as T starting at *pos; advances *pos.
template <typename T>
bool ParseToken(std::string_view line, std::size_t* pos, T* out) {
  while (*pos < line.size() && (line[*pos] == ' ' || line[*pos] == '\t')) {
    ++*pos;
  }
  if (*pos >= line.size()) return false;
  const char* begin = line.data() + *pos;
  const char* end = line.data() + line.size();
  // std::from_chars for double is available in libstdc++ 11+.
  const std::from_chars_result result = std::from_chars(begin, end, *out);
  if (result.ec != std::errc()) return false;
  *pos = static_cast<std::size_t>(result.ptr - line.data());
  return true;
}

// A fully consumed line may only carry whitespace after its last token.
bool OnlyTrailingWhitespace(std::string_view line, std::size_t pos) {
  for (; pos < line.size(); ++pos) {
    if (line[pos] != ' ' && line[pos] != '\t') return false;
  }
  return true;
}

std::string_view StripCarriageReturn(std::string_view line) {
  if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
  return line;
}

Status MalformedAt(const std::string& name, int line_number,
                   std::string_view what) {
  return Status::IoError(name + ":" + std::to_string(line_number) + ": " +
                         std::string(what));
}

// Visits every line of `text` (split on '\n'), calling
// fn(line_number, line). Stops at the first non-OK Status.
template <typename Fn>
Status ForEachLine(const std::string& text, Fn&& fn) {
  std::size_t line_start = 0;
  int line_number = 0;
  while (line_start < text.size()) {
    std::size_t line_end = text.find('\n', line_start);
    if (line_end == std::string::npos) line_end = text.size();
    std::string_view line(text.data() + line_start, line_end - line_start);
    ++line_number;
    line_start = line_end + 1;
    GA_RETURN_IF_ERROR(fn(line_number, line));
  }
  return Status::Ok();
}

}  // namespace

LineParse ParseVertexLine(std::string_view line, VertexId* id) {
  line = StripCarriageReturn(line);
  if (line.empty() || line[0] == '#') return LineParse::kSkip;
  std::size_t pos = 0;
  if (!ParseToken(line, &pos, id)) return LineParse::kMalformed;
  if (!OnlyTrailingWhitespace(line, pos)) return LineParse::kMalformed;
  return LineParse::kOk;
}

LineParse ParseEdgeLine(std::string_view line, bool weighted,
                        VertexId* source, VertexId* target, Weight* weight) {
  line = StripCarriageReturn(line);
  if (line.empty() || line[0] == '#') return LineParse::kSkip;
  std::size_t pos = 0;
  if (!ParseToken(line, &pos, source) || !ParseToken(line, &pos, target)) {
    return LineParse::kMalformed;
  }
  *weight = 1.0;
  // from_chars also reads "nan" and "inf"; a weight must be a finite
  // number, or SSSP over it is undefined.
  if (weighted &&
      (!ParseToken(line, &pos, weight) || !std::isfinite(*weight))) {
    return LineParse::kMalformed;
  }
  if (!OnlyTrailingWhitespace(line, pos)) return LineParse::kMalformed;
  return LineParse::kOk;
}

Result<std::string> ReadTextFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open " + path);
  std::ostringstream contents;
  contents << in.rdbuf();
  return contents.str();
}

Status WriteGraphFiles(const Graph& graph, const std::string& path_prefix) {
  {
    std::ofstream vfile(path_prefix + ".v");
    if (!vfile) return Status::IoError("cannot write " + path_prefix + ".v");
    for (VertexIndex v = 0; v < graph.num_vertices(); ++v) {
      vfile << graph.ExternalId(v) << '\n';
    }
  }
  {
    std::ofstream efile(path_prefix + ".e");
    if (!efile) return Status::IoError("cannot write " + path_prefix + ".e");
    for (const Edge& edge : graph.edges()) {
      efile << graph.ExternalId(edge.source) << ' '
            << graph.ExternalId(edge.target);
      if (graph.is_weighted()) efile << ' ' << edge.weight;
      efile << '\n';
    }
  }
  return Status::Ok();
}

Result<Graph> ReadGraphFiles(const std::string& path_prefix,
                             Directedness directedness, bool weighted,
                             exec::ThreadPool* pool) {
  GA_ASSIGN_OR_RETURN(std::string vertex_text,
                      ReadTextFile(path_prefix + ".v"));
  GA_ASSIGN_OR_RETURN(std::string edge_text, ReadTextFile(path_prefix + ".e"));
  return ParseGraphText(vertex_text, edge_text, directedness, weighted,
                        path_prefix + ".v", path_prefix + ".e", pool);
}

Result<Graph> ParseGraphText(const std::string& vertex_text,
                             const std::string& edge_text,
                             Directedness directedness, bool weighted,
                             const std::string& vertex_name,
                             const std::string& edge_name,
                             exec::ThreadPool* pool) {
  GraphBuilder builder(directedness, weighted,
                       GraphBuilder::AnomalyPolicy::kReject);
  GA_RETURN_IF_ERROR(ForEachLine(
      vertex_text, [&](int line_number, std::string_view line) -> Status {
        VertexId id = 0;
        switch (ParseVertexLine(line, &id)) {
          case LineParse::kSkip:
            return Status::Ok();
          case LineParse::kMalformed:
            return MalformedAt(vertex_name, line_number,
                               "malformed vertex line (expected \"<id>\")");
          case LineParse::kOk:
            builder.AddVertex(id);
            return Status::Ok();
        }
        return Status::Internal("unreachable");
      }));
  GA_RETURN_IF_ERROR(ForEachLine(
      edge_text, [&](int line_number, std::string_view line) -> Status {
        VertexId source = 0;
        VertexId target = 0;
        Weight weight = 1.0;
        switch (ParseEdgeLine(line, weighted, &source, &target, &weight)) {
          case LineParse::kSkip:
            return Status::Ok();
          case LineParse::kMalformed:
            return MalformedAt(
                edge_name, line_number,
                weighted
                    ? "malformed edge line (expected \"<source> <target> "
                      "<weight>\")"
                    : "malformed edge line (expected \"<source> <target>\")");
          case LineParse::kOk:
            builder.AddEdge(source, target, weight);
            return Status::Ok();
        }
        return Status::Internal("unreachable");
      }));
  return std::move(builder).Build(pool);
}

}  // namespace ga
