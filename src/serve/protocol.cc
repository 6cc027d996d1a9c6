#include "serve/protocol.h"

#include <cmath>

#include "core/json_reader.h"
#include "core/json_writer.h"

namespace ga::serve {

namespace {

// Reads an optional integer field in [lo, hi] into `*out`, which keeps its
// default when the field is absent. Anything else — a non-number, a
// fraction, a value out of range — is rejected before the int conversion,
// which is undefined for doubles past the int range.
Status ReadBoundedInt(const json::Value& doc, const char* key, int lo,
                      int hi, int* out) {
  const json::Value* value = doc.Find(key);
  if (value == nullptr) return Status::Ok();
  const double number = value->is_number() ? value->number() : 0.0;
  const bool in_range = value->is_number() && number >= lo &&
                        number <= hi && number == std::floor(number);
  if (!in_range) {
    return Status::InvalidArgument(
        "\"" + std::string(key) + "\" must be an integer in [" +
        std::to_string(lo) + ", " + std::to_string(hi) + "]");
  }
  *out = static_cast<int>(number);
  return Status::Ok();
}

}  // namespace

Result<Request> ParseRequest(const std::string& line) {
  GA_ASSIGN_OR_RETURN(json::Value doc, json::Parse(line));
  if (!doc.is_object()) {
    return Status::InvalidArgument("request must be a JSON object");
  }
  Request request;
  const std::string op = doc.GetString("op", "run");
  if (op == "run") {
    request.op = RequestOp::kRun;
  } else if (op == "cancel") {
    request.op = RequestOp::kCancel;
  } else if (op == "stats") {
    request.op = RequestOp::kStats;
  } else if (op == "metrics") {
    request.op = RequestOp::kMetrics;
  } else {
    return Status::InvalidArgument("unknown op \"" + op + "\"");
  }
  request.id = doc.GetString("id");
  if (request.op != RequestOp::kStats && request.op != RequestOp::kMetrics &&
      request.id.empty()) {
    return Status::InvalidArgument("request needs an \"id\"");
  }
  if (request.op != RequestOp::kRun) return request;

  request.dataset = doc.GetString("dataset");
  if (request.dataset.empty()) {
    return Status::InvalidArgument("run request needs a \"dataset\"");
  }
  const std::string algorithm = doc.GetString("algorithm", "bfs");
  if (!ParseAlgorithm(algorithm, &request.algorithm)) {
    return Status::InvalidArgument("unknown algorithm \"" + algorithm +
                                   "\"");
  }
  request.platform = doc.GetString("platform", request.platform);
  GA_RETURN_IF_ERROR(
      ReadBoundedInt(doc, "priority", 0, kMaxPriority, &request.priority));
  request.deadline_ms = doc.GetNumber("deadline_ms", 0.0);
  if (request.deadline_ms < 0.0) {
    return Status::InvalidArgument("deadline_ms must be >= 0");
  }
  request.validate = doc.GetBool("validate", false);
  request.faults = doc.GetString("faults");
  GA_RETURN_IF_ERROR(
      ReadBoundedInt(doc, "machines", 1, kMaxMachines, &request.num_machines));
  GA_RETURN_IF_ERROR(ReadBoundedInt(doc, "threads", 1, kMaxThreads,
                                    &request.threads_per_machine));
  return request;
}

std::string FormatResponse(const Response& response) {
  JsonWriter json;
  json.BeginObject();
  if (!response.id.empty()) json.Field("id", response.id);
  json.Field("status", response.status);
  if (!response.code.empty()) json.Field("code", response.code);
  if (!response.message.empty()) json.Field("message", response.message);
  if (response.retry_after_ms > 0.0) {
    json.Field("retry_after_ms", response.retry_after_ms);
  }
  if (!response.output_fnv.empty()) {
    json.Field("output_fnv", response.output_fnv);
    json.Field("tproc_seconds", response.tproc_seconds);
    json.Field("makespan_seconds", response.makespan_seconds);
    json.Field("supersteps", response.supersteps);
    json.Field("validated", response.validated);
  }
  if (response.queue_wait_ms >= 0.0) {
    json.Field("queue_wait_ms", response.queue_wait_ms);
    json.Field("load_ms", response.load_ms);
    json.Field("exec_ms", response.exec_ms);
  }
  if (!response.body.empty()) json.Field("body", response.body);
  json.EndObject();
  std::string rendered = json.str();
  if (!response.stats_json.empty()) {
    // Splice the pre-rendered stats object in as a "stats" member.
    rendered.insert(rendered.size() - 1,
                    ",\"stats\":" + response.stats_json);
  }
  return rendered;
}

Response ErrorResponse(const std::string& id, const Status& status) {
  Response response;
  response.id = id;
  switch (status.code()) {
    case StatusCode::kCancelled:
      response.status = "cancelled";
      break;
    case StatusCode::kDeadlineExceeded:
      response.status = "timed-out";
      break;
    case StatusCode::kResourceExhausted:
      response.status = "shed";
      break;
    case StatusCode::kOutOfMemory:
    case StatusCode::kAborted:
      response.status = "crashed";
      break;
    case StatusCode::kUnsupported:
      response.status = "unsupported";
      break;
    case StatusCode::kInvalidArgument:
      response.status = "error";
      break;
    default:
      response.status = "failed";
      break;
  }
  response.code = std::string(StatusCodeName(status.code()));
  response.message = status.message();
  return response;
}

Response ShedResponse(const std::string& id, double retry_after_ms,
                      const std::string& message) {
  Response response;
  response.id = id;
  response.status = "shed";
  response.code = std::string(StatusCodeName(StatusCode::kResourceExhausted));
  response.message = message;
  response.retry_after_ms = retry_after_ms;
  return response;
}

}  // namespace ga::serve
