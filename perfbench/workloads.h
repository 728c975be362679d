// The benchmark's three workloads. Each builds its own cluster, generates
// its inputs from the seed, warms up, measures, and checks the outputs
// against computations made in checks.h.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "perfbench/harness.h"

namespace perfbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 20;
  bool trace = false;
  std::string trace_dir;  // where the traced run writes its spans
};

struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
};

RunResult RunInference(const RunConfig& config);
RunResult RunSgd(const RunConfig& config);
RunResult RunMatmul(const RunConfig& config);

// Runs each workload's program at a small size, then corrupts one output of
// each (a class, a product entry, the weight vector) and confirms that the
// check rejects it. Returns the number of checks that misbehaved.
int SelfTest();

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
