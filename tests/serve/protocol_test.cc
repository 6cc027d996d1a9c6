// Tests for the serve wire protocol: request parsing and response
// rendering (one JSON object per line, each way).
#include "serve/protocol.h"

#include <gtest/gtest.h>

#include "core/json_reader.h"

namespace ga::serve {
namespace {

TEST(ParseRequestTest, ParsesFullRunRequest) {
  auto request = ParseRequest(
      R"({"op":"run","id":"r1","algorithm":"pr","dataset":"R2",)"
      R"("platform":"spmat","priority":2,"deadline_ms":1500,)"
      R"("validate":true,"faults":"crash_at_superstep=3",)"
      R"("machines":4,"threads":16})");
  ASSERT_TRUE(request.ok()) << request.status().ToString();
  EXPECT_EQ(request->op, RequestOp::kRun);
  EXPECT_EQ(request->id, "r1");
  EXPECT_EQ(request->algorithm, Algorithm::kPageRank);
  EXPECT_EQ(request->dataset, "R2");
  EXPECT_EQ(request->platform, "spmat");
  EXPECT_EQ(request->priority, 2);
  EXPECT_DOUBLE_EQ(request->deadline_ms, 1500.0);
  EXPECT_TRUE(request->validate);
  EXPECT_EQ(request->faults, "crash_at_superstep=3");
  EXPECT_EQ(request->num_machines, 4);
  EXPECT_EQ(request->threads_per_machine, 16);
}

TEST(ParseRequestTest, DefaultsAreMinimal) {
  auto request = ParseRequest(R"({"op":"run","id":"a","dataset":"R1"})");
  ASSERT_TRUE(request.ok());
  EXPECT_EQ(request->algorithm, Algorithm::kBfs);
  EXPECT_EQ(request->platform, "bsplite");
  EXPECT_EQ(request->priority, 0);
  EXPECT_DOUBLE_EQ(request->deadline_ms, 0.0);
  EXPECT_FALSE(request->validate);
}

TEST(ParseRequestTest, ParsesCancelAndStats) {
  auto cancel = ParseRequest(R"({"op":"cancel","id":"r9"})");
  ASSERT_TRUE(cancel.ok());
  EXPECT_EQ(cancel->op, RequestOp::kCancel);
  EXPECT_EQ(cancel->id, "r9");
  // stats needs no id.
  auto stats = ParseRequest(R"({"op":"stats"})");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->op, RequestOp::kStats);
}

TEST(ParseRequestTest, ParsesMetricsWithoutId) {
  auto metrics = ParseRequest(R"({"op":"metrics"})");
  ASSERT_TRUE(metrics.ok());
  EXPECT_EQ(metrics->op, RequestOp::kMetrics);
}

TEST(ParseRequestTest, RejectsMalformedRequests) {
  for (const char* bad : {
           "not json",
           "[1,2,3]",                                    // not an object
           R"({"op":"explode","id":"x"})",               // unknown op
           R"({"op":"run","dataset":"R1"})",             // missing id
           R"({"op":"run","id":"x"})",                   // missing dataset
           R"({"op":"run","id":"x","dataset":"R1","algorithm":"dijkstra"})",
           R"({"op":"run","id":"x","dataset":"R1","deadline_ms":-1})",
           R"({"op":"run","id":"x","dataset":"R1","machines":0})",
           R"({"op":"cancel"})",                         // cancel needs id
       }) {
    auto request = ParseRequest(bad);
    EXPECT_FALSE(request.ok()) << "input: " << bad;
    if (!request.ok()) {
      EXPECT_EQ(request.status().code(), StatusCode::kInvalidArgument);
    }
  }
}

TEST(ParseRequestTest, IntegerFieldsMustBeIntegersInRange) {
  for (const char* field : {"priority", "machines", "threads"}) {
    for (const char* value :
         {"1e300", "2.5", "-1", "20000000", "\"3\"", "null", "true"}) {
      const std::string line =
          std::string(R"({"op":"run","id":"x","dataset":"R1",")") + field +
          "\":" + value + "}";
      auto request = ParseRequest(line);
      ASSERT_FALSE(request.ok()) << "accepted: " << line;
      EXPECT_EQ(request.status().code(), StatusCode::kInvalidArgument);
      EXPECT_NE(request.status().message().find(field), std::string::npos)
          << request.status().ToString();
    }
  }
  // The bounds themselves are accepted.
  auto low = ParseRequest(
      R"({"op":"run","id":"x","dataset":"R1","priority":0,"machines":1,)"
      R"("threads":1})");
  ASSERT_TRUE(low.ok()) << low.status().ToString();
  EXPECT_EQ(low->priority, 0);
  EXPECT_EQ(low->num_machines, 1);
  EXPECT_EQ(low->threads_per_machine, 1);
  auto high = ParseRequest(
      R"({"op":"run","id":"x","dataset":"R1","priority":9,"machines":16,)"
      R"("threads":32})");
  ASSERT_TRUE(high.ok()) << high.status().ToString();
  EXPECT_EQ(high->priority, kMaxPriority);
  EXPECT_EQ(high->num_machines, kMaxMachines);
  EXPECT_EQ(high->threads_per_machine, kMaxThreads);
  for (const char* over :
       {R"({"op":"run","id":"x","dataset":"R1","priority":10})",
        R"({"op":"run","id":"x","dataset":"R1","machines":17})",
        R"({"op":"run","id":"x","dataset":"R1","threads":33})"}) {
    EXPECT_FALSE(ParseRequest(over).ok()) << over;
  }
}

TEST(FormatResponseTest, CompletedResponseRoundTrips) {
  Response response;
  response.id = "r1";
  response.status = "completed";
  response.output_fnv = "6c92813848aed09e";
  response.tproc_seconds = 2.5;
  response.makespan_seconds = 10.0;
  response.supersteps = 6;
  response.validated = true;
  auto doc = json::Parse(FormatResponse(response));
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->GetString("id"), "r1");
  EXPECT_EQ(doc->GetString("status"), "completed");
  EXPECT_EQ(doc->GetString("output_fnv"), "6c92813848aed09e");
  EXPECT_DOUBLE_EQ(doc->GetNumber("tproc_seconds"), 2.5);
  EXPECT_EQ(doc->GetNumber("supersteps"), 6.0);
  EXPECT_TRUE(doc->GetBool("validated"));
  EXPECT_FALSE(doc->Has("retry_after_ms"));
  EXPECT_FALSE(doc->Has("code"));
}

TEST(FormatResponseTest, ShedResponseCarriesRetryAfter) {
  Response shed = ShedResponse("r2", 125.0, "admission queue full");
  auto doc = json::Parse(FormatResponse(shed));
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->GetString("status"), "shed");
  EXPECT_EQ(doc->GetString("code"), "RESOURCE_EXHAUSTED");
  EXPECT_DOUBLE_EQ(doc->GetNumber("retry_after_ms"), 125.0);
}

TEST(FormatResponseTest, StatsJsonIsSplicedAsObject) {
  Response stats;
  stats.status = "stats";
  stats.stats_json = R"({"submitted":3,"completed":2})";
  auto doc = json::Parse(FormatResponse(stats));
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const json::Value* spliced = doc->Find("stats");
  ASSERT_NE(spliced, nullptr);
  ASSERT_TRUE(spliced->is_object());
  EXPECT_DOUBLE_EQ(spliced->GetNumber("submitted"), 3.0);
}

TEST(FormatResponseTest, StageTimingsAppearOnlyWhenMeasured) {
  Response response;
  response.id = "r1";
  response.status = "completed";
  // Default (-1) queue_wait_ms means no staging was measured: no fields.
  std::string line = FormatResponse(response);
  EXPECT_EQ(line.find("queue_wait_ms"), std::string::npos);
  response.queue_wait_ms = 0.25;
  response.load_ms = 1.5;
  response.exec_ms = 12.0;
  auto doc = json::Parse(FormatResponse(response));
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_DOUBLE_EQ(doc->GetNumber("queue_wait_ms"), 0.25);
  EXPECT_DOUBLE_EQ(doc->GetNumber("load_ms"), 1.5);
  EXPECT_DOUBLE_EQ(doc->GetNumber("exec_ms"), 12.0);
}

TEST(FormatResponseTest, MetricsBodyRidesAsJsonString) {
  Response response;
  response.status = "metrics";
  response.body = "# TYPE ga_x counter\nga_x 1\n";
  const std::string line = FormatResponse(response);
  // One-line framing survives: the newlines live inside a JSON string.
  EXPECT_EQ(line.find('\n'), std::string::npos);
  auto doc = json::Parse(line);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(doc->GetString("body"), response.body);
}

TEST(ErrorResponseTest, MapsStatusCodesToProtocolSlugs) {
  EXPECT_EQ(ErrorResponse("x", Status::Cancelled("c")).status, "cancelled");
  EXPECT_EQ(ErrorResponse("x", Status::DeadlineExceeded("d")).status,
            "timed-out");
  EXPECT_EQ(ErrorResponse("x", Status::ResourceExhausted("r")).status,
            "shed");
  EXPECT_EQ(ErrorResponse("x", Status::Aborted("a")).status, "crashed");
  EXPECT_EQ(ErrorResponse("x", Status::Unsupported("u")).status,
            "unsupported");
  EXPECT_EQ(ErrorResponse("x", Status::InvalidArgument("i")).status,
            "error");
  EXPECT_EQ(ErrorResponse("x", Status::Internal("e")).status, "failed");
  Response mapped = ErrorResponse("x", Status::Cancelled("the reason"));
  EXPECT_EQ(mapped.code, "CANCELLED");
  EXPECT_EQ(mapped.message, "the reason");
}

}  // namespace
}  // namespace ga::serve
