#include "perfbench/workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <random>

#include "core/faaslet.h"
#include "perfbench/checks.h"
#include "runtime/cluster.h"
#include "workloads/inference.h"
#include "workloads/matmul.h"
#include "workloads/sgd.h"

namespace perfbench {
namespace {

using faasm::Bytes;
using faasm::FaasmCluster;
using faasm::Frontend;
using faasm::kMicrosecond;
using faasm::kMillisecond;
using faasm::kSecond;

// --- Sampling -----------------------------------------------------------------

// Counters read at the edges of the measured phase. Read from the client
// activity: while it runs, the virtual clock cannot move between two reads.
struct ClusterSample {
  ProcessSample process;
  TimeNs now = 0;
  uint64_t net_bytes = 0;
  uint64_t net_messages = 0;
  double billable_gb_s = 0;
  uint64_t read_rpcs = 0;
  uint64_t write_rpcs = 0;
  uint64_t forward_rpcs = 0;
  uint64_t forwarded_ops = 0;
  uint64_t cold_starts = 0;
};

ClusterSample SampleCluster(FaasmCluster& cluster) {
  ClusterSample s;
  s.process = SampleProcess();
  s.now = cluster.clock().Now();
  s.net_bytes = cluster.network_bytes();
  s.billable_gb_s = cluster.billable_gb_seconds();
  s.cold_starts = cluster.cold_start_count();
  for (size_t i = 0; i < cluster.host_count(); ++i) {
    faasm::FaasmInstance& host = cluster.host(i);
    // Every message is received by a host, its shard or its replica endpoint.
    for (const std::string& endpoint :
         {host.name(), faasm::ShardMap::EndpointForHost(host.name()),
          faasm::ReplicaEndpointForHost(host.name())}) {
      s.net_messages += cluster.network().StatsFor(endpoint).rx_messages;
    }
    if (host.shard_server() != nullptr) {
      s.read_rpcs += host.shard_server()->read_rpc_count();
      s.write_rpcs += host.shard_server()->write_rpc_count();
    }
  }
  if (cluster.replication() != nullptr) {
    s.forward_rpcs = cluster.replication()->stats().forward_rpcs.value();
    s.forwarded_ops = cluster.replication()->stats().forwarded_ops.value();
  }
  return s;
}

// What a workload's client records during its measured phase.
struct Phase {
  double setup_s = 0;
  ClusterSample before;
  ClusterSample after;
  std::vector<double> job_ms;           // virtual latency per job
  std::vector<uint64_t> job_first_call;  // first call id of each job, ascending
  double submit_wall_us = 0;
  uint64_t submits = 0;
  double max_late_ms = 0;
  std::vector<uint64_t> job_span_ids;  // traced runs
  // Process samples, with the virtual time, at the start of each round: the
  // phase's jobs split into kRounds equal shares.
  std::vector<std::pair<TimeNs, ProcessSample>> round_marks;
};

// The wall-clock rates are taken per round and reported as the median
// round, so a burst of host load during one round does not move them.
constexpr size_t kRounds = 10;

// Call at the start of job `job` of `jobs`.
void MarkRound(FaasmCluster& cluster, Phase& phase, size_t job, size_t jobs) {
  if (phase.round_marks.size() < kRounds && job == phase.round_marks.size() * jobs / kRounds) {
    phase.round_marks.emplace_back(cluster.clock().Now(), SampleProcess());
  }
}

// Times one Frontend::Submit on the wall clock.
faasm::Result<uint64_t> TimedSubmit(Frontend& frontend, Phase& phase, const std::string& function,
                                    Bytes input) {
  const faasm::Stopwatch wall;
  auto id = frontend.Submit(function, std::move(input));
  phase.submit_wall_us += static_cast<double>(wall.ElapsedNs()) / 1e3;
  ++phase.submits;
  return id;
}

// --- Traced probes ----------------------------------------------------------------

const char kProbeFunction[] = "perfbench-probe-mlp";

struct Probes {
  double spawn_us = 0;
  double wake_us = 0;
  double wasm_exec_us = 0;
  double instr_per_call = 0;
  double create_us = 0;
  double restore_us = 0;
  double reset_us = 0;
  double footprint_kb = 0;
  double snapshot_kb = 0;
  double kvs_read_us = 0;
  double kvs_push_us = 0;
};

double MedianUs(std::vector<double> samples_ns) {
  return Percentile(std::move(samples_ns), 50) / 1e3;
}

// Runs from the client activity, after the measured phase.
faasm::Status RunProbes(FaasmCluster& cluster, const Bytes& image, size_t value_bytes,
                        Probes& out) {
  faasm::SimClock& clock = cluster.clock();

  constexpr int kSpawns = 100;
  std::atomic<int> finished{0};
  const faasm::Stopwatch spawn_watch;
  for (int i = 0; i < kSpawns; ++i) {
    cluster.executor().Spawn([&finished] { finished.fetch_add(1); });
  }
  out.spawn_us = static_cast<double>(spawn_watch.ElapsedNs()) / kSpawns / 1e3;
  clock.WaitFor([&] { return finished.load() == kSpawns; }, 10 * kMicrosecond);

  // Two activities sleeping in alternation: every wake is a hand-off.
  constexpr int kHops = 500;
  std::atomic<int> hoppers_done{0};
  std::atomic<int64_t> hop_wall_ns{0};
  for (int a = 0; a < 2; ++a) {
    cluster.executor().Spawn([&, a] {
      clock.SleepFor(1 + a);
      const faasm::Stopwatch wall;
      for (int i = 0; i < kHops; ++i) {
        clock.SleepFor(2);
      }
      int64_t elapsed = wall.ElapsedNs();
      int64_t seen = hop_wall_ns.load();
      while (elapsed > seen && !hop_wall_ns.compare_exchange_weak(seen, elapsed)) {
      }
      hoppers_done.fetch_add(1);
    });
  }
  clock.WaitFor([&] { return hoppers_done.load() == 2; }, 10 * kMicrosecond);
  out.wake_us = static_cast<double>(hop_wall_ns.load()) / (2.0 * kHops) / 1e3;

  faasm::FaasmInstance& host = cluster.host(0);
  FAASM_ASSIGN_OR_RETURN(faasm::FunctionSpec spec, cluster.registry().Lookup(kProbeFunction));
  faasm::FaasletEnv env;
  env.clock = &clock;
  env.tier = &host.tier();
  env.files = &cluster.files();
  env.network = &cluster.network();
  env.host_endpoint = host.name();
  env.cpu = &host.cpu();

  constexpr int kReps = 20;
  std::vector<double> create_ns;
  std::unique_ptr<faasm::Faaslet> faaslet;
  for (int i = 0; i < kReps; ++i) {
    const faasm::Stopwatch wall;
    FAASM_ASSIGN_OR_RETURN(faaslet, faasm::Faaslet::Create(spec, env));
    create_ns.push_back(static_cast<double>(wall.ElapsedNs()));
  }
  out.create_us = MedianUs(create_ns);

  // One untimed call pulls the weights into the host's tier.
  FAASM_RETURN_IF_ERROR(faaslet->Execute(image).status());
  out.footprint_kb = static_cast<double>(faaslet->FootprintBytes()) / 1024.0;
  FAASM_RETURN_IF_ERROR(faaslet->Reset());
  std::vector<double> exec_ns;
  std::vector<double> reset_ns;
  const uint64_t instr_before = faaslet->instance()->instructions_retired();
  for (int i = 0; i < kReps; ++i) {
    const faasm::Stopwatch exec_wall;
    FAASM_ASSIGN_OR_RETURN(int code, faaslet->Execute(image));
    exec_ns.push_back(static_cast<double>(exec_wall.ElapsedNs()));
    if (code != 0) {
      return faasm::Internal("probe call returned " + std::to_string(code));
    }
    const faasm::Stopwatch reset_wall;
    FAASM_RETURN_IF_ERROR(faaslet->Reset());
    reset_ns.push_back(static_cast<double>(reset_wall.ElapsedNs()));
  }
  out.instr_per_call =
      static_cast<double>(faaslet->instance()->instructions_retired() - instr_before) / kReps;
  out.wasm_exec_us = MedianUs(exec_ns);
  out.reset_us = MedianUs(reset_ns);

  FAASM_ASSIGN_OR_RETURN(auto proto, faasm::ProtoFaaslet::CaptureFrom(*faaslet));
  out.snapshot_kb = static_cast<double>(proto->Serialize().size()) / 1024.0;
  std::vector<double> restore_ns;
  for (int i = 0; i < kReps; ++i) {
    const faasm::Stopwatch wall;
    FAASM_ASSIGN_OR_RETURN(auto restored, faasm::Faaslet::CreateFromProto(spec, env, proto));
    restore_ns.push_back(static_cast<double>(wall.ElapsedNs()));
  }
  out.restore_us = MedianUs(restore_ns);

  // A key mastered away from host 0, at the workload's own value size.
  std::string key;
  for (int i = 0; key.empty() || host.tier().MasterLocal(key); ++i) {
    key = "perfbench:probe:" + std::to_string(i);
  }
  const Bytes value(value_bytes, 0x5a);
  FAASM_RETURN_IF_ERROR(cluster.kvs().Set(key, value));
  std::vector<double> read_ns;
  std::vector<double> push_ns;
  for (int i = 0; i < kReps; ++i) {
    const faasm::Stopwatch read_wall;
    FAASM_RETURN_IF_ERROR(host.kvs().Read(key).status());
    read_ns.push_back(static_cast<double>(read_wall.ElapsedNs()));
    const faasm::Stopwatch push_wall;
    FAASM_RETURN_IF_ERROR(host.kvs().Set(key, value));
    push_ns.push_back(static_cast<double>(push_wall.ElapsedNs()));
  }
  out.kvs_read_us = MedianUs(read_ns);
  out.kvs_push_us = MedianUs(push_ns);
  return faasm::OkStatus();
}

// --- Metrics ------------------------------------------------------------------------

// Records of every call the measured phase made, in id order.
std::vector<faasm::CallRecord> PhaseRecords(FaasmCluster& cluster, const Phase& phase) {
  std::vector<faasm::CallRecord> records;
  if (phase.job_first_call.empty()) {
    return records;
  }
  for (uint64_t id = phase.job_first_call.front();; ++id) {
    auto record = cluster.calls().Get(id);
    if (!record.ok()) {
      break;
    }
    records.push_back(std::move(record).value());
  }
  return records;
}

// Index of the job a call belongs to: jobs are submitted in order, and a
// call's chained children get ids before the next job's first call.
size_t JobOf(const Phase& phase, uint64_t call_id) {
  auto it = std::upper_bound(phase.job_first_call.begin(), phase.job_first_call.end(), call_id);
  return static_cast<size_t>(it - phase.job_first_call.begin()) - 1;
}

void AddCallSpans(Tracer& tracer, const Phase& phase,
                  const std::vector<faasm::CallRecord>& records) {
  for (const faasm::CallRecord& r : records) {
    const size_t job = JobOf(phase, r.id);
    const uint64_t call_span = tracer.spans.NextId();
    tracer.spans.Add(Span{call_span, phase.job_span_ids[job], job, "call", r.function,
                          r.submitted_at, r.finished_at});
    tracer.spans.Add(Span{tracer.spans.NextId(), call_span, job, "queue", r.function,
                          r.submitted_at, r.started_at});
    tracer.spans.Add(Span{tracer.spans.NextId(), call_span, job, "exec", r.function,
                          r.started_at, r.finished_at});
  }
}

struct Outputs {
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
};

Outputs ComputeMetrics(FaasmCluster& cluster, const Phase& phase,
                       const std::vector<faasm::CallRecord>& records, const Tracer* tracer,
                       const Probes& probes) {
  const ClusterSample& a = phase.before;
  const ClusterSample& b = phase.after;
  const double wall_s = b.process.wall_s - a.process.wall_s;
  const double calls = static_cast<double>(std::max<size_t>(records.size(), 1));
  std::vector<double> queue_ms;
  std::vector<double> exec_ms;
  for (const faasm::CallRecord& r : records) {
    queue_ms.push_back(static_cast<double>(r.started_at - r.submitted_at) / 1e6);
    exec_ms.push_back(static_cast<double>(r.finished_at - r.started_at) / 1e6);
  }

  std::vector<double> round_rates;
  std::vector<double> round_cpu;
  auto marks = phase.round_marks;
  marks.emplace_back(b.now, b.process);
  for (size_t r = 0; r + 1 < marks.size(); ++r) {
    const auto& [start, from] = marks[r];
    const auto& [end, to] = marks[r + 1];
    const bool last = r + 2 == marks.size();
    const auto finished = std::count_if(records.begin(), records.end(), [&](const auto& rec) {
      return rec.finished_at >= start &&
             (rec.finished_at < end || (last && rec.finished_at <= end));
    });
    round_rates.push_back(static_cast<double>(finished) / (to.wall_s - from.wall_s));
    round_cpu.push_back((to.user_s + to.sys_s) - (from.user_s + from.sys_s));
  }

  Outputs out;
  out.end_to_end = {
      {"setup_s", phase.setup_s, "s"},
      {"job_p50_ms", Percentile(phase.job_ms, 50), "ms"},
      {"job_tail_ms", Percentile(phase.job_ms, TailPercentile(phase.job_ms.size())), "ms"},
      {"calls_per_s", Percentile(round_rates, 50), "1/s"},
      {"cpu_s", static_cast<double>(kRounds) * Percentile(round_cpu, 50), "s"},
      {"peak_rss_mb", b.process.peak_rss_mb, "MB"},
      {"net_mb", static_cast<double>(b.net_bytes - a.net_bytes) / 1e6, "MB"},
      {"billable_gb_s", b.billable_gb_s - a.billable_gb_s, "GB.s"},
  };

  double resident = 0;
  for (size_t i = 0; i < cluster.host_count(); ++i) {
    resident += static_cast<double>(cluster.host(i).tier().resident_bytes());
  }
  const double forward_rpcs = static_cast<double>(b.forward_rpcs - a.forward_rpcs);
  const double virtual_s = static_cast<double>(b.now - a.now) / 1e9;
  double compute_ms = 0;
  double sync_ms = 0;
  double sync_wall_ms = 0;
  if (tracer != nullptr && tracer->bodies.calls.load() > 0) {
    const BodyTotals& t = tracer->bodies;
    const double n = static_cast<double>(t.calls.load());
    compute_ms = static_cast<double>(t.charged_ns.load()) / n / 1e6;
    sync_ms = static_cast<double>(t.body_virtual_ns.load() - t.charge_virtual_ns.load() -
                                  t.chain_virtual_ns.load()) /
              n / 1e6;
    sync_wall_ms = static_cast<double>(t.body_wall_ns.load() - t.charge_wall_ns.load() -
                                       t.charged_ns.load() - t.chain_wall_ns.load()) /
                   n / 1e6;
  }
  out.per_layer = {
      {"sim.wall_per_virtual_s", wall_s / virtual_s, "s/s"},
      {"sim.sys_cpu_s", b.process.sys_s - a.process.sys_s, "s"},
      {"sim.ctx_switches_per_call",
       static_cast<double>(b.process.ctx_switches - a.process.ctx_switches) / calls, "count"},
      {"sim.maps_per_call",
       (static_cast<double>(b.process.maps) - static_cast<double>(a.process.maps)) / calls,
       "count"},
      {"sim.spawn_us", probes.spawn_us, "us"},
      {"sim.wake_us", probes.wake_us, "us"},
      {"runtime.queue_ms_p50", Percentile(queue_ms, 50), "ms"},
      {"runtime.exec_ms_p50", Percentile(exec_ms, 50), "ms"},
      {"runtime.cold_starts", static_cast<double>(b.cold_starts - a.cold_starts), "count"},
      {"runtime.submit_us",
       phase.submit_wall_us / static_cast<double>(std::max<uint64_t>(phase.submits, 1)), "us"},
      {"runtime.generator_late_ms", phase.max_late_ms, "ms"},
      {"wasm.exec_us", probes.wasm_exec_us, "us"},
      {"wasm.instr_per_call", probes.instr_per_call, "count"},
      {"wasm.mips", probes.wasm_exec_us > 0 ? probes.instr_per_call / probes.wasm_exec_us : 0,
       "Minstr/s"},
      {"core.create_us", probes.create_us, "us"},
      {"core.restore_us", probes.restore_us, "us"},
      {"core.reset_us", probes.reset_us, "us"},
      {"mem.footprint_kb", probes.footprint_kb, "KB"},
      {"mem.snapshot_kb", probes.snapshot_kb, "KB"},
      {"state.compute_ms_per_call", compute_ms, "ms"},
      {"state.sync_ms_per_call", sync_ms, "ms"},
      {"state.sync_wall_ms_per_call", sync_wall_ms, "ms"},
      {"state.resident_mb", resident / 1e6, "MB"},
      {"kvs.read_rpcs_per_call", static_cast<double>(b.read_rpcs - a.read_rpcs) / calls, "count"},
      {"kvs.write_rpcs_per_call", static_cast<double>(b.write_rpcs - a.write_rpcs) / calls,
       "count"},
      {"kvs.forward_rpcs_per_call", forward_rpcs / calls, "count"},
      {"kvs.forwarded_ops_per_rpc",
       forward_rpcs > 0 ? static_cast<double>(b.forwarded_ops - a.forwarded_ops) / forward_rpcs : 0,
       "count"},
      {"kvs.read_us", probes.kvs_read_us, "us"},
      {"kvs.push_us", probes.kvs_push_us, "us"},
      {"net.bytes_per_call", static_cast<double>(b.net_bytes - a.net_bytes) / calls, "B"},
      {"net.messages_per_call", static_cast<double>(b.net_messages - a.net_messages) / calls,
       "count"},
  };
  return out;
}

// Writes the spans and prints the per-span self-time breakdown and the
// traced run's own end-to-end figures (the tracing overhead is their
// difference from the untraced run's) to stderr.
void FinishTrace(Tracer& tracer, const RunConfig& config, const Outputs& outputs) {
  const std::string path =
      config.trace_dir + "/" + config.workload + "-" + std::to_string(config.seed) + ".jsonl";
  const std::vector<Span> spans = tracer.spans.Take();
  const auto self_ms = WriteSpans(spans, path);
  std::fprintf(stderr, "perfbench: %zu spans -> %s\n", spans.size(), path.c_str());
  for (const auto& [name, ms] : self_ms) {
    std::fprintf(stderr, "perfbench: mean self time %-6s %.4f ms\n", name.c_str(), ms);
  }
  for (const Metric& m : outputs.end_to_end) {
    std::fprintf(stderr, "perfbench: traced %s = %.6g %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
  }
}

// Metrics of the run; in a traced run also the call spans and the trace file.
Outputs Finish(FaasmCluster& cluster, const RunConfig& config, const Phase& phase, Tracer& tracer,
               const Probes& probes, const std::vector<faasm::CallRecord>& records) {
  Outputs outputs =
      ComputeMetrics(cluster, phase, records, config.trace ? &tracer : nullptr, probes);
  if (config.trace) {
    AddCallSpans(tracer, phase, records);
    FinishTrace(tracer, config, outputs);
  }
  return outputs;
}

RunResult Assemble(bool correct, uint64_t attempted, uint64_t failed, Outputs outputs) {
  RunResult result;
  result.correct = correct;
  result.attempted = attempted;
  result.failed = failed;
  result.end_to_end = std::move(outputs.end_to_end);
  result.per_layer = std::move(outputs.per_layer);
  return result;
}

void Fail(bool& correct, const std::string& what) {
  if (correct) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
  }
  correct = false;
}

template <typename T>
std::vector<T> FromBytes(const Bytes& bytes) {
  std::vector<T> out(bytes.size() / sizeof(T));
  std::memcpy(out.data(), bytes.data(), out.size() * sizeof(T));
  return out;
}

template <typename T>
T ValueOr(faasm::Result<T> result, T fallback) {
  return result.ok() ? std::move(result).value() : std::move(fallback);
}

template <typename T>
Bytes ToBytes(const std::vector<T>& values) {
  Bytes out(values.size() * sizeof(T));
  std::memcpy(out.data(), values.data(), out.size());
  return out;
}

// Seeds MLP weights and registers the probe function (traced runs of every
// workload, and the inference workload itself).
MlpWeights SeedMlp(FaasmCluster& cluster, std::mt19937_64& rng) {
  const MlpShape shape;
  MlpWeights weights = MakeMlpWeights(shape, rng);
  for (int k = 0; k < 6; ++k) {
    (void)cluster.kvs().Set(MlpStateKeys()[k], ToBytes(weights.tensors[k]));
  }
  return weights;
}

std::shared_ptr<const faasm::wasm::CompiledModule> MlpModule() {
  static auto module = faasm::BuildMlpWasmModule(faasm::MlpDims{}).value();
  return module;
}

faasm::Status RegisterProbe(FaasmCluster& cluster) {
  return cluster.registry().RegisterWasm(kProbeFunction, MlpModule());
}

// Probe set-up for the traced run of a workload without wasm: MLP weights,
// the probe function, and the probe's input image.
Bytes PrepareProbe(FaasmCluster& cluster, std::mt19937_64& rng, bool& correct) {
  SeedMlp(cluster, rng);
  if (!RegisterProbe(cluster).ok()) {
    Fail(correct, "register probe");
  }
  return ToBytes(MakeImage(MlpShape{}, rng));
}

// Calls per second of --seconds: a run's work is fixed by --seconds so that
// every run of a workload does the same operations, and sized so that the
// measured phase lasts about --seconds on a 4-core host.
constexpr double kInferenceRatePerS = 100;   // open-loop arrival rate, virtual
constexpr double kInferenceVirtualPerWall = 1.8;
constexpr double kSgdEpochsPerS = 5.5;
constexpr double kMatmulJobsPerS = 7.0;
constexpr size_t kMinJobs = 40;

size_t JobCount(double per_second, int seconds) {
  return std::max(kMinJobs, static_cast<size_t>(std::lround(per_second * seconds)));
}

// --- inference ------------------------------------------------------------------------

constexpr int kWarmUsers = 64;
constexpr int kColdEvery = 50;  // one request in each block of 50 goes to a new user
constexpr int kImagePool = 256;

struct Request {
  TimeNs due = 0;  // offset from the start of the load
  std::string function;
  int image = 0;
};

std::vector<Request> PlanRequests(size_t count, std::mt19937_64& rng, int& next_cold_user) {
  std::exponential_distribution<double> gap(kInferenceRatePerS);
  std::uniform_int_distribution<int> user(0, kWarmUsers - 1);
  std::uniform_int_distribution<int> image(0, kImagePool - 1);
  std::uniform_int_distribution<int> cold_slot(0, kColdEvery - 1);
  std::vector<Request> plan(count);
  double t = 0;
  int slot = cold_slot(rng);
  for (size_t i = 0; i < count; ++i) {
    if (i % kColdEvery == 0 && i > 0) {
      slot = cold_slot(rng);
    }
    t += gap(rng);
    plan[i].due = static_cast<TimeNs>(t * 1e9);
    plan[i].function = static_cast<int>(i % kColdEvery) == slot
                           ? "infer-c" + std::to_string(next_cold_user++)
                           : "infer-u" + std::to_string(user(rng));
    plan[i].image = image(rng);
  }
  return plan;
}

struct Sent {
  uint64_t id = 0;
  TimeNs due = 0;
  int image = 0;
};

// Sends `plan` open-loop from the client activity and waits for every call.
// Latency runs from each request's due time to its call's finish.
bool SendOpenLoop(FaasmCluster& cluster, Frontend& frontend, const std::vector<Request>& plan,
                  const std::vector<Bytes>& images, Phase& phase, std::vector<Sent>& sent) {
  faasm::SimClock& clock = cluster.clock();
  const TimeNs start = clock.Now();
  for (size_t i = 0; i < plan.size(); ++i) {
    const Request& request = plan[i];
    const TimeNs due = start + request.due;
    const TimeNs now = clock.Now();
    if (now < due) {
      clock.SleepFor(due - now);
    } else {
      phase.max_late_ms = std::max(phase.max_late_ms, static_cast<double>(now - due) / 1e6);
    }
    MarkRound(cluster, phase, i, plan.size());
    auto id = TimedSubmit(frontend, phase, request.function, images[request.image]);
    if (!id.ok()) {
      return false;
    }
    sent.push_back(Sent{id.value(), due, request.image});
  }
  return clock.WaitFor(
      [&] {
        return std::all_of(sent.begin(), sent.end(),
                           [&](const Sent& s) { return cluster.calls().IsFinished(s.id); });
      },
      kMillisecond, clock.Now() + 120 * kSecond);
}

}  // namespace

RunResult RunInference(const RunConfig& config) {
  std::mt19937_64 rng(config.seed);
  const size_t requests = static_cast<size_t>(
      std::lround(kInferenceRatePerS * kInferenceVirtualPerWall * config.seconds));
  const size_t warm_requests = 200;

  faasm::ClusterConfig cluster_config;
  cluster_config.hosts = 4;
  cluster_config.cores_per_host = 4;
  cluster_config.max_concurrent_per_host = 256;
  FaasmCluster cluster(cluster_config);

  const MlpShape shape;
  const MlpWeights weights = SeedMlp(cluster, rng);
  std::vector<Bytes> images;
  std::vector<uint32_t> expected;
  for (int i = 0; i < kImagePool; ++i) {
    const std::vector<float> image = MakeImage(shape, rng);
    images.push_back(ToBytes(image));
    expected.push_back(MlpClass(shape, weights, image));
  }
  int next_cold_user = 0;
  const std::vector<Request> warm_plan = PlanRequests(warm_requests, rng, next_cold_user);
  const std::vector<Request> plan = PlanRequests(requests, rng, next_cold_user);
  bool correct = true;
  for (int i = 0; i < kWarmUsers; ++i) {
    if (!cluster.registry().RegisterWasm("infer-u" + std::to_string(i), MlpModule()).ok()) {
      Fail(correct, "register");
    }
  }
  for (int i = 0; i < next_cold_user; ++i) {
    if (!cluster.registry().RegisterWasm("infer-c" + std::to_string(i), MlpModule()).ok()) {
      Fail(correct, "register");
    }
  }
  Tracer tracer;
  if (config.trace && !RegisterProbe(cluster).ok()) {
    Fail(correct, "register probe");
  }

  Phase phase;
  Probes probes;
  std::vector<Sent> warm_sent;
  std::vector<Sent> sent;
  cluster.Run([&](Frontend& frontend) {
    Phase warm_phase;
    for (int i = 0; i < kWarmUsers; ++i) {
      auto code = frontend.Invoke("infer-u" + std::to_string(i), images[i % kImagePool]);
      if (!code.ok() || code.value() != 0) {
        Fail(correct, "warm-up call");
      }
    }
    if (!SendOpenLoop(cluster, frontend, warm_plan, images, warm_phase, warm_sent)) {
      Fail(correct, "warm-up load");
    }
    phase.setup_s = WallSeconds();
    phase.before = SampleCluster(cluster);
    if (!SendOpenLoop(cluster, frontend, plan, images, phase, sent)) {
      Fail(correct, "measured load did not finish");
    }
    phase.after = SampleCluster(cluster);
    if (config.trace &&
        !RunProbes(cluster, images[0], weights.tensors[0].size() * sizeof(float), probes).ok()) {
      Fail(correct, "probes");
    }
  });

  for (const std::vector<Sent>* batch : {&warm_sent, &sent}) {
    for (const Sent& s : *batch) {
      auto record = cluster.calls().Get(s.id);
      if (!record.ok() || record.value().state != faasm::CallState::kDone ||
          record.value().return_code != 0) {
        Fail(correct, "request " + std::to_string(s.id) + " failed");
      } else if (!ClassMatches(record.value().output, expected[s.image])) {
        Fail(correct, "request " + std::to_string(s.id) + " returned the wrong class");
      }
    }
  }
  for (const Sent& s : sent) {
    phase.job_first_call.push_back(s.id);
  }
  const std::vector<faasm::CallRecord> records = PhaseRecords(cluster, phase);
  for (const faasm::CallRecord& r : records) {
    const Sent& s = sent[JobOf(phase, r.id)];
    phase.job_ms.push_back(static_cast<double>(r.finished_at - s.due) / 1e6);
    if (config.trace) {
      phase.job_span_ids.push_back(tracer.spans.NextId());
      tracer.spans.Add(Span{phase.job_span_ids.back(), 0, phase.job_span_ids.size() - 1, "job",
                            r.function, s.due, r.finished_at});
    }
  }
  Outputs outputs = Finish(cluster, config, phase, tracer, probes, records);
  return Assemble(correct, sent.size(), 0, std::move(outputs));
}

namespace {

// Sequential-job bookkeeping shared by sgd and matmul: opens a job span
// (traced) and records the job's virtual latency.
class JobScope {
 public:
  JobScope(FaasmCluster& cluster, Phase& phase, Tracer* tracer, bool measured)
      : cluster_(cluster), phase_(phase), tracer_(tracer), measured_(measured),
        start_(cluster.clock().Now()) {
    if (tracer_ != nullptr && measured_) {
      span_ = tracer_->spans.NextId();
      tracer_->current_job.store(phase_.job_ms.size());
      tracer_->current_job_span.store(span_);
    }
  }
  // Marks the job's first call (its later calls follow it in id order).
  void FirstCall(uint64_t id) {
    if (measured_) {
      phase_.job_first_call.push_back(id);
    }
  }
  ~JobScope() {
    if (!measured_) {
      return;
    }
    const TimeNs end = cluster_.clock().Now();
    if (tracer_ != nullptr) {
      tracer_->spans.Add(Span{span_, 0, phase_.job_ms.size(), "job", "", start_, end});
      phase_.job_span_ids.push_back(span_);
    }
    phase_.job_ms.push_back(static_cast<double>(end - start_) / 1e6);
  }
  JobScope(const JobScope&) = delete;
  JobScope& operator=(const JobScope&) = delete;

 private:
  FaasmCluster& cluster_;
  Phase& phase_;
  Tracer* tracer_;
  bool measured_;
  TimeNs start_;
  uint64_t span_ = 0;
};

// Registers `names` through `register_fn` directly, or (traced) through
// the timing wrappers with the options the program's own registration chose.
template <typename RegisterFn>
faasm::Status RegisterFunctions(FaasmCluster& cluster, const std::vector<std::string>& names,
                                Tracer* tracer, RegisterFn register_fn) {
  if (tracer == nullptr) {
    return register_fn(cluster.registry());
  }
  faasm::FunctionRegistry originals;
  FAASM_RETURN_IF_ERROR(register_fn(originals));
  return RegisterTraced(originals, names, cluster.registry(), *tracer);
}

}  // namespace

RunResult RunSgd(const RunConfig& config) {
  constexpr uint32_t kExamples = 131072;
  constexpr uint32_t kFeatures = 8192;
  constexpr uint32_t kNnzPerExample = 32;
  constexpr uint32_t kWorkers = 10;
  constexpr float kLearningRate = 0.05f;
  constexpr uint32_t kPushInterval = 64;
  constexpr size_t kLossColumns = 1024;  // the columns sgd_loss evaluates
  constexpr int kWarmEpochs = 2;
  const size_t epochs = JobCount(kSgdEpochsPerS, config.seconds);

  std::mt19937_64 rng(config.seed);
  faasm::ClusterConfig cluster_config;
  cluster_config.hosts = kWorkers;
  cluster_config.cores_per_host = 4;
  // One worker per host: with more, placement varies from run to run.
  cluster_config.max_concurrent_per_host = 1;
  FaasmCluster cluster(cluster_config);

  const SparseDataset data = MakeSparseDataset(kExamples, kFeatures, kNnzPerExample, rng);
  const std::string matrix = faasm::kSgdMatrixKey;
  bool correct = true;
  for (faasm::Status status :
       {cluster.kvs().Set(matrix + ":vals", ToBytes(data.values)),
        cluster.kvs().Set(matrix + ":rows", ToBytes(data.rows)),
        cluster.kvs().Set(matrix + ":cols", ToBytes(data.col_ptr)),
        cluster.kvs().Set(faasm::kSgdLabelsKey, ToBytes(data.labels)),
        cluster.kvs().Set(faasm::kSgdWeightsKey, ToBytes(std::vector<double>(kFeatures, 0.0)))}) {
    if (!status.ok()) {
      Fail(correct, "seed dataset");
    }
  }
  Tracer tracer;
  Tracer* traced = config.trace ? &tracer : nullptr;
  if (!RegisterFunctions(cluster, {"sgd_update", "sgd_loss"}, traced,
                         faasm::RegisterSgdFunctions)
           .ok()) {
    Fail(correct, "register");
  }
  const Bytes probe_image = config.trace ? PrepareProbe(cluster, rng, correct) : Bytes{};

  Phase phase;
  Probes probes;
  uint64_t disagreements = 0;
  cluster.Run([&](Frontend& frontend) {
    auto epoch = [&](bool measured) {
      JobScope job(cluster, phase, traced, measured);
      std::vector<uint64_t> ids;
      const uint32_t per_worker = kExamples / kWorkers;
      for (uint32_t w = 0; w < kWorkers; ++w) {
        const uint32_t start = w * per_worker;
        const uint32_t end = w + 1 == kWorkers ? kExamples : start + per_worker;
        auto id = TimedSubmit(frontend, phase, "sgd_update",
                              faasm::EncodeSgdWorkerInput(start, end, kLearningRate,
                                                          kPushInterval));
        if (!id.ok()) {
          Fail(correct, "submit sgd_update");
          return;
        }
        if (w == 0) {
          job.FirstCall(id.value());
        }
        ids.push_back(id.value());
      }
      for (uint64_t id : ids) {
        auto code = frontend.Await(id);
        if (!code.ok() || code.value() != 0) {
          Fail(correct, "sgd_update failed");
        }
      }
      auto loss_id = TimedSubmit(frontend, phase, "sgd_loss", Bytes{});
      if (!loss_id.ok() || !frontend.Await(loss_id.value()).ok()) {
        Fail(correct, "sgd_loss failed");
        return;
      }
      auto output = frontend.Output(loss_id.value());
      auto global = cluster.kvs().Get(faasm::kSgdWeightsKey);
      if (!output.ok() || output.value().size() != sizeof(double) || !global.ok()) {
        Fail(correct, "sgd_loss output");
        return;
      }
      double reported = 0;
      std::memcpy(&reported, output.value().data(), sizeof(double));
      const double expected =
          DatasetMse(data, FromBytes<double>(global.value()), kLossColumns);
      if (measured && !LossAgrees(reported, expected)) {
        ++disagreements;
      }
    };
    for (int i = 0; i < kWarmEpochs; ++i) {
      epoch(false);
    }
    phase.setup_s = WallSeconds();
    phase.before = SampleCluster(cluster);
    for (size_t i = 0; i < epochs; ++i) {
      MarkRound(cluster, phase, i, epochs);
      epoch(true);
    }
    phase.after = SampleCluster(cluster);
    if (config.trace &&
        !RunProbes(cluster, probe_image, kFeatures * sizeof(double), probes).ok()) {
      Fail(correct, "probes");
    }
  });

  auto final_weights = cluster.kvs().Get(faasm::kSgdWeightsKey);
  if (!final_weights.ok() || !WeightsTrained(data, FromBytes<double>(final_weights.value()))) {
    Fail(correct, "final weights did not reach the MSE target");
  }
  const std::vector<faasm::CallRecord> records = PhaseRecords(cluster, phase);
  Outputs outputs = Finish(cluster, config, phase, tracer, probes, records);
  if (records.size() != epochs * (kWorkers + 1)) {
    Fail(correct, "unexpected call count " + std::to_string(records.size()));
  }
  return Assemble(correct, epochs * (kWorkers + 1), disagreements, std::move(outputs));
}

RunResult RunMatmul(const RunConfig& config) {
  constexpr uint32_t kN = 512;
  constexpr uint32_t kLevels = 2;
  constexpr size_t kDivPerJob = 73;   // 1 + 8 + 64
  constexpr size_t kMergePerJob = 9;  // 1 + 8
  constexpr int kWarmJobs = 2;
  const std::string out_key = std::string(faasm::kMatmulOutPrefix) + "perfbench";
  const size_t jobs = JobCount(kMatmulJobsPerS, config.seconds);

  std::mt19937_64 rng(config.seed);
  faasm::ClusterConfig cluster_config;
  cluster_config.hosts = 4;
  cluster_config.cores_per_host = 4;
  cluster_config.replication_factor = 2;
  FaasmCluster cluster(cluster_config);

  const std::vector<double> a = MakeMatrix(kN, rng);
  const std::vector<double> b = MakeMatrix(kN, rng);
  bool correct = true;
  if (!cluster.kvs().Set(faasm::kMatmulAKey, ToBytes(a)).ok() ||
      !cluster.kvs().Set(faasm::kMatmulBKey, ToBytes(b)).ok()) {
    Fail(correct, "seed inputs");
  }
  const std::vector<double> reference = MultiplyReference(a, b, kN);
  // Written over the output before every job, so a job that did not run
  // leaves NaNs and fails the product check.
  const Bytes poison =
      ToBytes(std::vector<double>(size_t{kN} * kN, std::numeric_limits<double>::quiet_NaN()));
  Tracer tracer;
  Tracer* traced = config.trace ? &tracer : nullptr;
  if (!RegisterFunctions(cluster, {"mm_div", "mm_merge"}, traced,
                         faasm::RegisterMatmulFunctions)
           .ok()) {
    Fail(correct, "register");
  }
  const Bytes probe_image = config.trace ? PrepareProbe(cluster, rng, correct) : Bytes{};

  Phase phase;
  Probes probes;
  cluster.Run([&](Frontend& frontend) {
    auto multiply = [&](bool measured) {
      if (!cluster.kvs().Set(out_key, poison).ok()) {
        Fail(correct, "poison output");
      }
      JobScope job(cluster, phase, traced, measured);
      auto id = TimedSubmit(frontend, phase, "mm_div",
                            faasm::EncodeMatmulDivideInput(kN, kN, 0, 0, 0, 0, kLevels, out_key));
      if (!id.ok()) {
        Fail(correct, "submit mm_div");
        return;
      }
      job.FirstCall(id.value());
      auto code = frontend.Await(id.value());
      if (!code.ok() || code.value() != 0) {
        Fail(correct, "mm_div failed");
      }
      auto product = cluster.kvs().Get(out_key);
      if (!product.ok() || !ProductMatches(product.value(), reference)) {
        Fail(correct, "product differs from the reference");
      }
    };
    for (int i = 0; i < kWarmJobs; ++i) {
      multiply(false);
    }
    phase.setup_s = WallSeconds();
    phase.before = SampleCluster(cluster);
    for (size_t i = 0; i < jobs; ++i) {
      MarkRound(cluster, phase, i, jobs);
      multiply(true);
    }
    phase.after = SampleCluster(cluster);
    if (config.trace &&
        !RunProbes(cluster, probe_image, size_t{kN / 4} * (kN / 4) * sizeof(double), probes).ok()) {
      Fail(correct, "probes");
    }
  });

  const std::vector<faasm::CallRecord> records = PhaseRecords(cluster, phase);
  Outputs outputs = Finish(cluster, config, phase, tracer, probes, records);
  std::vector<size_t> divs(jobs, 0);
  std::vector<size_t> merges(jobs, 0);
  for (const faasm::CallRecord& r : records) {
    const size_t job = JobOf(phase, r.id);
    if (r.state != faasm::CallState::kDone || r.return_code != 0) {
      Fail(correct, "call " + std::to_string(r.id) + " failed");
    }
    (r.function == "mm_div" ? divs : merges)[job] += 1;
  }
  for (size_t j = 0; j < jobs; ++j) {
    if (divs[j] != kDivPerJob || merges[j] != kMergePerJob) {
      Fail(correct, "job " + std::to_string(j) + " ran " + std::to_string(divs[j]) +
                        " mm_div and " + std::to_string(merges[j]) + " mm_merge calls");
    }
  }
  return Assemble(correct, jobs, 0, std::move(outputs));
}

int SelfTest() {
  int failures = 0;
  auto expect = [&failures](bool ok, const std::string& what) {
    std::fprintf(stderr, "selftest: %-62s %s\n", what.c_str(), ok ? "ok" : "FAILED");
    failures += ok ? 0 : 1;
  };
  std::mt19937_64 rng(2020);

  {  // inference: one real call, then a corrupted class.
    faasm::ClusterConfig cluster_config;
    cluster_config.hosts = 1;
    FaasmCluster cluster(cluster_config);
    const MlpShape shape;
    const MlpWeights weights = SeedMlp(cluster, rng);
    const std::vector<float> image = MakeImage(shape, rng);
    const uint32_t expected = MlpClass(shape, weights, image);
    expect(cluster.registry().RegisterWasm("infer-u0", MlpModule()).ok(), "inference: register");
    Bytes output;
    cluster.Run([&](Frontend& frontend) {
      auto id = frontend.Submit("infer-u0", ToBytes(image));
      if (id.ok() && frontend.Await(id.value()).ok()) {
        output = ValueOr(frontend.Output(id.value()), Bytes{});
      }
    });
    expect(ClassMatches(output, expected), "inference: program class passes");
    Bytes corrupted = output;
    if (!corrupted.empty()) {
      corrupted[0] = static_cast<uint8_t>((corrupted[0] + 1) % shape.output);
    }
    expect(!ClassMatches(corrupted, expected), "inference: corrupted class fails");
  }

  {  // matmul: one real 64 x 64 job, then a corrupted entry and a job that never ran.
    constexpr uint32_t kN = 64;
    faasm::ClusterConfig cluster_config;
    cluster_config.hosts = 4;
    cluster_config.replication_factor = 2;
    FaasmCluster cluster(cluster_config);
    const std::vector<double> a = MakeMatrix(kN, rng);
    const std::vector<double> b = MakeMatrix(kN, rng);
    (void)cluster.kvs().Set(faasm::kMatmulAKey, ToBytes(a));
    (void)cluster.kvs().Set(faasm::kMatmulBKey, ToBytes(b));
    expect(faasm::RegisterMatmulFunctions(cluster.registry()).ok(), "matmul: register");
    const std::string out_key = std::string(faasm::kMatmulOutPrefix) + "selftest";
    const Bytes poison =
        ToBytes(std::vector<double>(size_t{kN} * kN, std::numeric_limits<double>::quiet_NaN()));
    (void)cluster.kvs().Set(out_key, poison);
    cluster.Run([&](Frontend& frontend) {
      (void)frontend.Invoke("mm_div",
                            faasm::EncodeMatmulDivideInput(kN, kN, 0, 0, 0, 0, 2, out_key));
    });
    const std::vector<double> reference = MultiplyReference(a, b, kN);
    const Bytes product = ValueOr(cluster.kvs().Get(out_key), Bytes{});
    expect(ProductMatches(product, reference), "matmul: program product passes");
    std::vector<double> corrupted = FromBytes<double>(product);
    if (!corrupted.empty()) {
      corrupted[kN * kN / 2 + 3] *= 1.0 + 1e-6;
    }
    expect(!ProductMatches(ToBytes(corrupted), reference), "matmul: corrupted entry fails");
    expect(!ProductMatches(poison, reference), "matmul: output of a job that never ran fails");
  }

  {  // sgd: a short real training run, then a corrupted weight vector.
    constexpr uint32_t kExamples = 8192;
    constexpr uint32_t kWorkers = 4;
    faasm::ClusterConfig cluster_config;
    cluster_config.hosts = kWorkers;
    cluster_config.max_concurrent_per_host = 1;
    FaasmCluster cluster(cluster_config);
    const SparseDataset data = MakeSparseDataset(kExamples, 1024, 16, rng);
    const std::string matrix = faasm::kSgdMatrixKey;
    (void)cluster.kvs().Set(matrix + ":vals", ToBytes(data.values));
    (void)cluster.kvs().Set(matrix + ":rows", ToBytes(data.rows));
    (void)cluster.kvs().Set(matrix + ":cols", ToBytes(data.col_ptr));
    (void)cluster.kvs().Set(faasm::kSgdLabelsKey, ToBytes(data.labels));
    (void)cluster.kvs().Set(faasm::kSgdWeightsKey, ToBytes(std::vector<double>(data.n_features)));
    expect(faasm::RegisterSgdFunctions(cluster.registry()).ok(), "sgd: register");
    cluster.Run([&](Frontend& frontend) {
      for (int epoch = 0; epoch < 8; ++epoch) {
        std::vector<uint64_t> ids;
        for (uint32_t w = 0; w < kWorkers; ++w) {
          const uint32_t per_worker = kExamples / kWorkers;
          ids.push_back(ValueOr<uint64_t>(
              frontend.Submit("sgd_update", faasm::EncodeSgdWorkerInput(
                                                w * per_worker, (w + 1) * per_worker, 0.05f, 64)),
              0));
        }
        for (uint64_t id : ids) {
          (void)frontend.Await(id);
        }
      }
    });
    const std::vector<double> weights =
        FromBytes<double>(ValueOr(cluster.kvs().Get(faasm::kSgdWeightsKey), Bytes{}));
    expect(WeightsTrained(data, weights), "sgd: trained weights pass");
    std::vector<double> corrupted = weights;
    for (double& w : corrupted) {
      w = -w;
    }
    expect(!WeightsTrained(data, corrupted), "sgd: corrupted weight vector fails");
    expect(!LossAgrees(DatasetMse(data, weights, 1024), DatasetMse(data, corrupted, 1024)),
           "sgd: loss from a corrupted weight vector disagrees");
  }
  return failures;
}

}  // namespace perfbench
