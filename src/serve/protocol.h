// ga::serve wire protocol: line-delimited JSON over a local stream
// socket. One request object per line in, one response object per line
// out. The protocol is deliberately flat (no framing beyond '\n', no
// request pipelining semantics beyond ids) so a client is a few lines of
// any language — `nc -U` works for smoke tests.
//
// Requests:
//   {"op":"run","id":"r1","algorithm":"bfs","dataset":"R1", ...}
//   {"op":"cancel","id":"r1"}           cancel an in-flight request
//   {"op":"stats"}                      server counters snapshot (JSON)
//   {"op":"metrics"}                    Prometheus text exposition,
//                                       carried in the response's "body"
//
// Responses echo the request id and carry a status slug from the
// JobOutcome/StatusCode taxonomy plus, for shed requests, a
// retry_after_ms hint (docs/SERVING.md).
#ifndef GRAPHALYTICS_SERVE_PROTOCOL_H_
#define GRAPHALYTICS_SERVE_PROTOCOL_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "core/status.h"
#include "core/types.h"

namespace ga::serve {

enum class RequestOp { kRun, kCancel, kStats, kMetrics };

struct Request {
  RequestOp op = RequestOp::kRun;
  /// Client-chosen id, echoed on every response line for this request.
  std::string id;
  Algorithm algorithm = Algorithm::kBfs;
  std::string dataset;
  std::string platform = "bsplite";
  /// Admission priority in [0, kMaxPriority]: higher displaces lower
  /// when the queue is full.
  int priority = 0;
  /// Wall-clock deadline for the whole request (queue wait + execution),
  /// in milliseconds; 0 inherits the server default (which may be
  /// "none").
  double deadline_ms = 0.0;
  /// Validate the output against the reference implementation.
  bool validate = false;
  /// Fault-injection plan for this request (faults::FaultPlan::Parse
  /// syntax). It rides this request's job only, so faulted and clean
  /// requests run side by side; kill_at_superstep is refused.
  std::string faults;
  /// Simulated deployment, in [1, kMaxMachines] x [1, kMaxThreads].
  int num_machines = 1;
  int threads_per_machine = 32;
};

/// Bounds of the request's integer fields. Priority is also a telemetry
/// label, so its range bounds that label set; machines and threads stop
/// at the paper preset's largest deployment.
inline constexpr int kMaxPriority = 9;
inline constexpr int kMaxMachines = 16;
inline constexpr int kMaxThreads = 32;

/// Longest request line, newline excluded. A connection that sends a
/// longer one gets an error response and is closed.
inline constexpr std::size_t kMaxLineBytes = 64 * 1024;

/// Parses one request line. kInvalidArgument (with the reason) on
/// malformed JSON, unknown op, unknown algorithm, a missing id/dataset
/// for ops that need one, or an integer field that is not an integer in
/// its range.
Result<Request> ParseRequest(const std::string& line);

struct Response {
  std::string id;
  /// "completed", "shed", "cancelled", "timed-out", "failed", "crashed",
  /// "unsupported", "cancel-requested", "stats", "error".
  std::string status;
  /// StatusCodeName of the failure (empty for completed/stats).
  std::string code;
  std::string message;
  /// Shed responses: suggested client back-off before retrying.
  double retry_after_ms = 0.0;
  // Completed runs:
  /// FNV-1a 64 of FormatOutput(graph, output), hex — the byte-identity
  /// handle chaos tests compare against batch mode.
  std::string output_fnv;
  double tproc_seconds = 0.0;
  double makespan_seconds = 0.0;
  int supersteps = 0;
  bool validated = false;
  /// Completed runs: host wall-clock spent in each lifecycle stage —
  /// waiting in the admission queue, acquiring residency (snapshot
  /// load), executing the job. Emitted when queue_wait_ms >= 0 (the
  /// server always stamps them; hand-built responses leave them -1).
  double queue_wait_ms = -1.0;
  double load_ms = -1.0;
  double exec_ms = -1.0;
  /// stats responses: pre-rendered JSON object (spliced verbatim).
  std::string stats_json;
  /// metrics responses: Prometheus text exposition, carried as one JSON
  /// string field so the one-line-per-response framing holds.
  std::string body;
};

/// Renders a response as one JSON line (no trailing newline).
std::string FormatResponse(const Response& response);

/// Convenience constructors for the common shapes.
Response ErrorResponse(const std::string& id, const Status& status);
Response ShedResponse(const std::string& id, double retry_after_ms,
                      const std::string& message);

}  // namespace ga::serve

#endif  // GRAPHALYTICS_SERVE_PROTOCOL_H_
