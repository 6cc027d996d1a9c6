// perfbench: the repository's end-to-end and per-layer benchmark driver.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 --cli PATH
//
// Runs one workload against the real library and the real serve daemon
// (PATH is the graphalytics_cli binary), checks every output, and prints
// an `info` line (environment, digests, workload-specific figures) and,
// as the last line, the result object. See ../WORKLOADS.md.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common.h"

int main(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (value == nullptr) {
      std::fprintf(stderr, "%s needs a value\n", arg.c_str());
      return 2;
    }
    ++i;
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::atof(value);
    } else if (arg == "--trace") {
      options.trace = std::atoi(value) != 0;
    } else if (arg == "--cli") {
      options.cli = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", arg.c_str());
      return 2;
    }
  }
  if (options.seconds <= 0) {
    std::fprintf(stderr, "--seconds must be positive\n");
    return 2;
  }
  if (options.workload == "batch-sweep") return perfbench::RunBatch(options);
  if (options.workload == "serve-hot" || options.workload == "serve-churn") {
    return perfbench::RunServe(options);
  }
  if (options.workload == "mutate-stream") return perfbench::RunMutate(options);
  std::fprintf(stderr, "unknown workload \"%s\"\n", options.workload.c_str());
  return 2;
}
