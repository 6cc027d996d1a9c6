// The delta text codec (`data apply --deltas`): FormatDeltaText output
// parses back to the same ops bit for bit, and every malformed line is
// rejected with its line number instead of being read as a partial op.
#include "mutate/delta.h"

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <string>

namespace ga::mutate {
namespace {

EdgeDelta Op(DeltaOp kind, VertexId source, VertexId target = 0,
             Weight weight = 1.0) {
  EdgeDelta op;
  op.op = kind;
  op.source = source;
  op.target = target;
  op.weight = weight;
  return op;
}

TEST(DeltaTextTest, FormatRoundTripsBitForBit) {
  DeltaBatch batch;
  batch.ops = {
      Op(DeltaOp::kInsertEdge, 1, 2, 0.1),
      Op(DeltaOp::kInsertEdge, 3, 4, 1.0 / 3.0),
      Op(DeltaOp::kInsertEdge, 5, 6, std::numeric_limits<double>::min()),
      Op(DeltaOp::kInsertEdge, 7, 8, -2.5e300),
      Op(DeltaOp::kDeleteEdge, 9, 10),
      Op(DeltaOp::kAddVertex, 1LL << 40),
  };
  auto parsed = ParseDeltaText(FormatDeltaText(batch));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->ops.size(), batch.ops.size());
  for (std::size_t i = 0; i < batch.ops.size(); ++i) {
    EXPECT_EQ(parsed->ops[i].op, batch.ops[i].op) << i;
    EXPECT_EQ(parsed->ops[i].source, batch.ops[i].source) << i;
    if (batch.ops[i].op == DeltaOp::kAddVertex) continue;
    EXPECT_EQ(parsed->ops[i].target, batch.ops[i].target) << i;
    if (batch.ops[i].op == DeltaOp::kInsertEdge) {
      EXPECT_EQ(std::memcmp(&parsed->ops[i].weight, &batch.ops[i].weight,
                            sizeof(Weight)),
                0)
          << i;
    }
  }
  EXPECT_EQ(FormatDeltaText(*parsed), FormatDeltaText(batch));
}

TEST(DeltaTextTest, WeightIsOptionalAndCommentsAreSkipped) {
  auto parsed = ParseDeltaText("# header\n\n+ 1 2\n+ 3 4 2.5\n  # note\n");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->ops.size(), 2u);
  EXPECT_EQ(parsed->ops[0].weight, 1.0);
  EXPECT_EQ(parsed->ops[1].weight, 2.5);
}

TEST(DeltaTextTest, RejectsBadWeightsAndTrailingFieldsWithLineNumber) {
  for (const char* bad : {
           "+ 1 2 abc",      // not a number: was an edge of weight 0
           "+ 1 2 2.5xyz",   // trailing junk: was an edge of weight 2.5
           "+ 1 2 nan",
           "+ 1 2 inf",
           "+ 1 2 -inf",
           "+ 1 2 2.5 7",    // extra field after the weight
           "- 1 2 0.5",      // a delete carries no weight
           "v 7 8",
           "+ 1",            // missing target
           "x 1 2",          // unknown tag
       }) {
    const std::string text = "+ 5 6 1.5\n# ok so far\n" + std::string(bad) +
                             "\n+ 7 8\n";
    auto parsed = ParseDeltaText(text);
    ASSERT_FALSE(parsed.ok()) << "accepted: " << bad;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << bad;
    EXPECT_NE(parsed.status().message().find("delta line 3:"),
              std::string::npos)
        << bad << " -> " << parsed.status().ToString();
  }
}

}  // namespace
}  // namespace ga::mutate
