// perfbench: one workload per invocation, measured end to end (--trace 0) or
// layer by layer (--trace 1). The last line of stdout is the JSON result.
//
//   perfbench --workload inference|sgd|matmul --seed N --seconds S --trace 0|1
//             [--trace-dir DIR]
//   perfbench --selftest
#include <cstdio>
#include <cstdlib>
#include <string>

#include "perfbench/workloads.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload inference|sgd|matmul --seed N --seconds S "
               "--trace 0|1 [--trace-dir DIR]\n"
               "       perfbench --selftest\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig config;
  config.trace_dir = ".";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--selftest") {
      const int failures = perfbench::SelfTest();
      std::fprintf(stderr, "selftest: %s\n", failures == 0 ? "all checks behave" : "FAILED");
      return failures == 0 ? 0 : 1;
    }
    if (i + 1 >= argc) {
      return Usage();
    }
    const std::string value = argv[++i];
    if (arg == "--workload") {
      config.workload = value;
    } else if (arg == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      config.seconds = std::atoi(value.c_str());
    } else if (arg == "--trace") {
      config.trace = value == "1";
    } else if (arg == "--trace-dir") {
      config.trace_dir = value;
    } else {
      return Usage();
    }
  }
  if (config.seconds < 1) {
    return Usage();
  }
  perfbench::RunResult result;
  if (config.workload == "inference") {
    result = perfbench::RunInference(config);
  } else if (config.workload == "sgd") {
    result = perfbench::RunSgd(config);
  } else if (config.workload == "matmul") {
    result = perfbench::RunMatmul(config);
  } else {
    return Usage();
  }
  perfbench::PrintResult(result.correct, result.attempted, result.failed,
                         config.trace ? result.per_layer : result.end_to_end);
  return 0;
}
