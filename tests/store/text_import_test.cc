// The parallel chunked `.v`/`.e` importer/exporter: identical graphs at
// any host thread count, byte-identical files vs the serial writer, and
// exact file:line diagnostics even when the malformed line sits deep
// inside a parallel chunk.
#include "store/text_io.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>

#include "core/exec/thread_pool.h"
#include "datagen/graph500.h"
#include "testing/graph_fixtures.h"

namespace ga::store {
namespace {

class TextImportTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("ga_text_io_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
  std::string PathFor(const std::string& name) const {
    return (dir_ / name).string();
  }

  std::filesystem::path dir_;
};

Graph TestGraph(bool weighted) {
  datagen::Graph500Config config;
  config.scale = 10;
  config.num_edges = 6000;
  config.weighted = weighted;
  config.seed = 5;
  auto graph = datagen::GenerateGraph500(config);
  EXPECT_TRUE(graph.ok());
  return std::move(graph).value();
}

template <typename T>
void ExpectSpanBytesEqual(std::span<const T> expected,
                          std::span<const T> actual, const char* what) {
  ASSERT_EQ(expected.size(), actual.size()) << what;
  if (expected.empty()) return;  // empty spans may carry null data()
  EXPECT_EQ(std::memcmp(expected.data(), actual.data(),
                        expected.size_bytes()),
            0)
      << what;
}

void ExpectGraphsBitIdentical(const Graph& expected, const Graph& actual) {
  EXPECT_EQ(expected.directedness(), actual.directedness());
  EXPECT_EQ(expected.is_weighted(), actual.is_weighted());
  ExpectSpanBytesEqual(expected.external_ids(), actual.external_ids(),
                       "external_ids");
  ExpectSpanBytesEqual(expected.edges(), actual.edges(), "edges");
  ExpectSpanBytesEqual(expected.out_offsets(), actual.out_offsets(),
                       "out_offsets");
  ExpectSpanBytesEqual(expected.out_targets(), actual.out_targets(),
                       "out_targets");
  ExpectSpanBytesEqual(expected.out_weights(), actual.out_weights(),
                       "out_weights");
}

TEST_F(TextImportTest, ExportImportRoundTripsWeightsBitExactly) {
  // %.17g export makes even the text round trip exact — including every
  // weight bit, which the 6-digit serial writer loses.
  Graph original = TestGraph(/*weighted=*/true);
  const std::string prefix = PathFor("weighted");
  ASSERT_TRUE(ExportGraphText(original, prefix).ok());

  ImportOptions options;
  options.directedness = original.directedness();
  options.weighted = true;
  auto imported = ImportGraphText(prefix, options);
  ASSERT_TRUE(imported.ok()) << imported.status().ToString();
  ExpectGraphsBitIdentical(original, *imported);
}

TEST_F(TextImportTest, ChunkedParseIdenticalAtAnyThreadCount) {
  Graph original = TestGraph(/*weighted=*/false);
  const std::string prefix = PathFor("parallel");
  ASSERT_TRUE(ExportGraphText(original, prefix).ok());

  ImportOptions serial_options;
  serial_options.directedness = original.directedness();
  auto serial = ImportGraphText(prefix, serial_options);
  ASSERT_TRUE(serial.ok());
  for (int threads : {1, 2, 8}) {
    exec::ThreadPool pool(threads);
    ImportOptions options = serial_options;
    options.pool = &pool;
    auto parallel = ImportGraphText(prefix, options);
    ASSERT_TRUE(parallel.ok())
        << threads << ": " << parallel.status().ToString();
    ExpectGraphsBitIdentical(*serial, *parallel);
  }
}

TEST_F(TextImportTest, UnweightedExportMatchesSerialWriterByteForByte) {
  Graph graph = TestGraph(/*weighted=*/false);
  const std::string serial_prefix = PathFor("serial");
  const std::string parallel_prefix = PathFor("chunked");
  ASSERT_TRUE(WriteGraphFiles(graph, serial_prefix).ok());
  exec::ThreadPool pool(4);
  ASSERT_TRUE(ExportGraphText(graph, parallel_prefix, &pool).ok());
  for (const char* extension : {".v", ".e"}) {
    auto serial_text = ReadTextFile(serial_prefix + extension);
    auto parallel_text = ReadTextFile(parallel_prefix + extension);
    ASSERT_TRUE(serial_text.ok());
    ASSERT_TRUE(parallel_text.ok());
    EXPECT_EQ(*serial_text, *parallel_text) << extension;
  }
}

TEST_F(TextImportTest, ReportsExactLineNumberDeepInsideChunks) {
  // 5000 valid edge lines with one malformed line at a known position —
  // far enough in that with multiple chunks it lands mid-chunk.
  const std::string prefix = PathFor("badline");
  {
    std::ofstream vfile(prefix + ".v");
    for (int v = 0; v < 200; ++v) vfile << v << '\n';
    std::ofstream efile(prefix + ".e");
    for (int e = 1; e <= 5000; ++e) {
      if (e == 3141) {
        efile << "17 not_a_vertex\n";
      } else {
        efile << (e % 200) << ' ' << ((e * 7 + 1) % 200) << '\n';
      }
    }
  }
  for (int threads : {1, 4}) {
    exec::ThreadPool pool(threads);
    ImportOptions options;
    options.directedness = Directedness::kDirected;
    options.pool = threads > 1 ? &pool : nullptr;
    auto imported = ImportGraphText(prefix, options);
    ASSERT_FALSE(imported.ok()) << "threads " << threads;
    EXPECT_EQ(imported.status().code(), StatusCode::kIoError);
    EXPECT_NE(imported.status().message().find(".e:3141:"),
              std::string::npos)
        << imported.status().ToString();
  }
}

TEST_F(TextImportTest, ReportsVertexFileLineNumbers) {
  const std::string prefix = PathFor("badvertex");
  {
    std::ofstream vfile(prefix + ".v");
    vfile << "1\n2\n\n# comment\nbogus\n";
    std::ofstream efile(prefix + ".e");
    efile << "1 2\n";
  }
  ImportOptions options;
  options.directedness = Directedness::kDirected;
  auto imported = ImportGraphText(prefix, options);
  ASSERT_FALSE(imported.ok());
  EXPECT_NE(imported.status().message().find(".v:5:"), std::string::npos)
      << imported.status().ToString();
}

TEST_F(TextImportTest, RejectsTrailingGarbageAndMissingWeight) {
  const std::string prefix = PathFor("trailing");
  {
    std::ofstream vfile(prefix + ".v");
    vfile << "1\n2\n";
    std::ofstream efile(prefix + ".e");
    efile << "1 2 0.5 extra\n";
  }
  ImportOptions options;
  options.directedness = Directedness::kDirected;
  options.weighted = true;
  auto imported = ImportGraphText(prefix, options);
  EXPECT_FALSE(imported.ok());

  options.weighted = false;
  {
    std::ofstream efile(prefix + ".e");
    efile << "1 2 0.5\n";  // weight column on an unweighted dataset
  }
  auto unweighted = ImportGraphText(prefix, options);
  EXPECT_FALSE(unweighted.ok());
}

TEST_F(TextImportTest, RejectsNonFiniteWeightsWithFileAndLine) {
  const std::string prefix = PathFor("nonfinite");
  ImportOptions options;
  options.directedness = Directedness::kDirected;
  options.weighted = true;
  for (const char* weight : {"nan", "inf", "-inf", "NaN", "infinity"}) {
    {
      std::ofstream vfile(prefix + ".v");
      vfile << "1\n2\n3\n";
      std::ofstream efile(prefix + ".e");
      efile << "1 2 0.5\n2 3 " << weight << "\n";
    }
    auto imported = ImportGraphText(prefix, options);
    ASSERT_FALSE(imported.ok()) << "weight " << weight << " was accepted";
    EXPECT_EQ(imported.status().code(), StatusCode::kIoError);
    EXPECT_NE(imported.status().message().find(".e:2:"), std::string::npos)
        << imported.status().ToString();
  }
}

TEST_F(TextImportTest, MissingFilesAreCleanErrors) {
  ImportOptions options;
  auto imported = ImportGraphText(PathFor("nonexistent"), options);
  ASSERT_FALSE(imported.ok());
  EXPECT_EQ(imported.status().code(), StatusCode::kIoError);
}

}  // namespace
}  // namespace ga::store
