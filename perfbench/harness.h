// Measurement plumbing shared by the workloads: process-level samples
// (getrusage, /proc/self/maps), the in-memory span recorder, the traced
// function wrapper, percentiles and the result line.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/clock.h"
#include "runtime/registry.h"

namespace perfbench {

using faasm::TimeNs;

double WallSeconds();  // steady clock, seconds since process start

// Process-wide resource usage at one instant.
struct ProcessSample {
  double wall_s = 0;
  double user_s = 0;
  double sys_s = 0;
  uint64_t ctx_switches = 0;  // voluntary + involuntary
  uint64_t maps = 0;          // lines of /proc/self/maps
  double peak_rss_mb = 0;
};
ProcessSample SampleProcess();

// Linear-interpolated percentile of `values` (p in [0, 100]); 0 when empty.
double Percentile(std::vector<double> values, double p);
// The highest percentile of {99.9, 99, 95, 90, 75, 50} with at least ten
// samples beyond it; 50 when there are too few samples for any of them.
double TailPercentile(size_t samples);

// One traced interval. Times are virtual ns; spans of one job share `job`.
struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 = root
  uint64_t job = 0;
  std::string name;
  std::string detail;
  TimeNs start = 0;
  TimeNs end = 0;
};

// Spans are kept in memory and written out once, when the run ends.
class SpanRecorder {
 public:
  uint64_t NextId() { return next_id_.fetch_add(1); }
  void Add(Span span);
  std::vector<Span> Take();

 private:
  std::atomic<uint64_t> next_id_{1};
  std::mutex mutex_;
  std::vector<Span> spans_;
};

// Writes spans as JSON lines with their self time (duration minus the part
// covered by child spans), and returns the mean self time in ms per span name.
std::map<std::string, double> WriteSpans(const std::vector<Span>& spans, const std::string& path);

// Sums kept by the traced wrappers around native function bodies.
struct BodyTotals {
  std::atomic<uint64_t> calls{0};
  std::atomic<int64_t> body_virtual_ns{0};
  std::atomic<int64_t> body_wall_ns{0};
  std::atomic<int64_t> charged_ns{0};          // sum of ChargeCompute arguments
  std::atomic<int64_t> charge_virtual_ns{0};   // virtual time inside ChargeCompute
  std::atomic<int64_t> charge_wall_ns{0};      // wall time inside ChargeCompute
  std::atomic<int64_t> chain_virtual_ns{0};    // virtual time inside chain/await
  std::atomic<int64_t> chain_wall_ns{0};
};

// Trace context of the traced run: the job the client is working on (the
// sequential workloads run one job at a time), the recorder and the totals.
struct Tracer {
  SpanRecorder spans;
  BodyTotals bodies;
  std::atomic<uint64_t> current_job{0};
  std::atomic<uint64_t> current_job_span{0};
};

// Registers `names` (already registered by the program's own Register*
// function into `source`) into `target` with the same options, each body
// wrapped to time itself and its chain/await children into `tracer`.
faasm::Status RegisterTraced(const faasm::FunctionRegistry& source,
                             const std::vector<std::string>& names,
                             faasm::FunctionRegistry& target, Tracer& tracer);

// One metric of the result line.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

// Prints the result line: {"correct", "attempted", "failed", "metrics"}.
void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
