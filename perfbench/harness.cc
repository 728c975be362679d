#include "perfbench/harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "core/invocation_context.h"

namespace perfbench {

namespace {

const auto kProcessStart = std::chrono::steady_clock::now();

double TimevalSeconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
}

uint64_t CountMaps() {
  std::ifstream maps("/proc/self/maps");
  uint64_t lines = 0;
  std::string line;
  while (std::getline(maps, line)) {
    ++lines;
  }
  return lines;
}

void AppendJsonString(std::string& out, const std::string& s) {
  out += '"';
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += c;
  }
  out += '"';
}

std::string FormatNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

// Forwards every call to the Faaslet's context, timing ChargeCompute and
// chain/await on the way.
class TracedContext final : public faasm::InvocationContext {
 public:
  TracedContext(faasm::InvocationContext& inner, Tracer& tracer, uint64_t body_span,
                uint64_t job)
      : inner_(inner), tracer_(tracer), body_span_(body_span), job_(job) {}

  const faasm::Bytes& Input() const override { return inner_.Input(); }
  void WriteOutput(faasm::Bytes output) override { inner_.WriteOutput(std::move(output)); }
  faasm::Result<uint64_t> ChainCall(const std::string& function, faasm::Bytes input) override {
    return TimedChild<faasm::Result<uint64_t>>(
        "chain", function, [&] { return inner_.ChainCall(function, std::move(input)); });
  }
  faasm::Result<int> AwaitCall(uint64_t call_id) override {
    return TimedChild<faasm::Result<int>>("await", std::to_string(call_id),
                                          [&] { return inner_.AwaitCall(call_id); });
  }
  faasm::Result<faasm::Bytes> GetCallOutput(uint64_t call_id) override {
    return inner_.GetCallOutput(call_id);
  }
  faasm::LocalTier& state() override { return inner_.state(); }
  faasm::Clock& clock() override { return inner_.clock(); }
  faasm::Rng& rng() override { return inner_.rng(); }
  void ChargeCompute(TimeNs ns) override {
    const TimeNs v0 = inner_.clock().Now();
    const faasm::Stopwatch wall;
    inner_.ChargeCompute(ns);
    tracer_.bodies.charged_ns += ns;
    tracer_.bodies.charge_virtual_ns += inner_.clock().Now() - v0;
    tracer_.bodies.charge_wall_ns += wall.ElapsedNs();
  }

 private:
  template <typename R, typename Fn>
  R TimedChild(const char* name, const std::string& detail, Fn&& fn) {
    const TimeNs v0 = inner_.clock().Now();
    const faasm::Stopwatch wall;
    R result = fn();
    const TimeNs v1 = inner_.clock().Now();
    tracer_.bodies.chain_virtual_ns += v1 - v0;
    tracer_.bodies.chain_wall_ns += wall.ElapsedNs();
    tracer_.spans.Add(Span{tracer_.spans.NextId(), body_span_, job_, name, detail, v0, v1});
    return result;
  }

  faasm::InvocationContext& inner_;
  Tracer& tracer_;
  uint64_t body_span_;
  uint64_t job_;
};

}  // namespace

double WallSeconds() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - kProcessStart).count();
}

ProcessSample SampleProcess() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  ProcessSample sample;
  sample.wall_s = WallSeconds();
  sample.user_s = TimevalSeconds(usage.ru_utime);
  sample.sys_s = TimevalSeconds(usage.ru_stime);
  sample.ctx_switches = static_cast<uint64_t>(usage.ru_nvcsw + usage.ru_nivcsw);
  sample.maps = CountMaps();
  sample.peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
  return sample;
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = static_cast<size_t>(std::ceil(rank));
  return values[lo] + (values[hi] - values[lo]) * (rank - static_cast<double>(lo));
}

double TailPercentile(size_t samples) {
  for (double p : {99.9, 99.0, 95.0, 90.0, 75.0}) {
    if (static_cast<double>(samples) * (100.0 - p) / 100.0 >= 10.0 - 1e-9) {
      return p;
    }
  }
  return 50.0;
}

void SpanRecorder::Add(Span span) {
  std::lock_guard<std::mutex> guard(mutex_);
  spans_.push_back(std::move(span));
}

std::vector<Span> SpanRecorder::Take() {
  std::lock_guard<std::mutex> guard(mutex_);
  return std::move(spans_);
}

std::map<std::string, double> WriteSpans(const std::vector<Span>& spans, const std::string& path) {
  std::map<uint64_t, std::vector<std::pair<TimeNs, TimeNs>>> children;
  for (const Span& span : spans) {
    if (span.parent != 0) {
      children[span.parent].emplace_back(span.start, span.end);
    }
  }
  std::map<std::string, std::pair<double, uint64_t>> self_by_name;  // total ns, count
  std::ofstream out(path);
  for (const Span& span : spans) {
    TimeNs covered = 0;
    auto it = children.find(span.id);
    if (it != children.end()) {
      auto intervals = it->second;
      std::sort(intervals.begin(), intervals.end());
      TimeNs cursor = span.start;
      for (auto [start, end] : intervals) {
        start = std::max(start, cursor);
        end = std::min(end, span.end);
        if (end > start) {
          covered += end - start;
          cursor = end;
        }
      }
    }
    const TimeNs self = span.end - span.start - covered;
    auto& [total, count] = self_by_name[span.name];
    total += static_cast<double>(self);
    ++count;
    std::string line = "{\"id\":" + std::to_string(span.id) +
                       ",\"parent\":" + std::to_string(span.parent) +
                       ",\"job\":" + std::to_string(span.job) + ",\"name\":";
    AppendJsonString(line, span.name);
    line += ",\"detail\":";
    AppendJsonString(line, span.detail);
    line += ",\"start_ns\":" + std::to_string(span.start) +
            ",\"end_ns\":" + std::to_string(span.end) + ",\"self_ns\":" + std::to_string(self) +
            "}\n";
    out << line;
  }
  std::map<std::string, double> mean_self_ms;
  for (const auto& [name, totals] : self_by_name) {
    mean_self_ms[name] = totals.first / static_cast<double>(totals.second) / 1e6;
  }
  return mean_self_ms;
}

faasm::Status RegisterTraced(const faasm::FunctionRegistry& source,
                             const std::vector<std::string>& names,
                             faasm::FunctionRegistry& target, Tracer& tracer) {
  for (const std::string& name : names) {
    FAASM_ASSIGN_OR_RETURN(faasm::FunctionSpec spec, source.Lookup(name));
    if (!spec.native) {
      return faasm::Internal(name + " is not a native function");
    }
    faasm::FunctionOptions options;
    options.entrypoint = spec.entrypoint;
    options.wasm_init_export = spec.wasm_init_export;
    options.native_init = spec.native_init;
    options.min_memory_pages = spec.min_memory_pages;
    options.max_memory_pages = spec.max_memory_pages;
    options.simulated_init_ns = spec.simulated_init_ns;
    options.state_affinity_key = spec.state_affinity_key;
    options.state_affinity_read_mostly = spec.state_affinity_read_mostly;
    faasm::NativeFn body = spec.native;
    FAASM_RETURN_IF_ERROR(target.RegisterNative(
        name,
        [body, name, &tracer](faasm::InvocationContext& ctx) {
          const uint64_t span_id = tracer.spans.NextId();
          const uint64_t job = tracer.current_job.load();
          const uint64_t parent = tracer.current_job_span.load();
          const TimeNs v0 = ctx.clock().Now();
          const faasm::Stopwatch wall;
          TracedContext traced(ctx, tracer, span_id, job);
          const int code = body(traced);
          const TimeNs v1 = ctx.clock().Now();
          tracer.bodies.calls += 1;
          tracer.bodies.body_virtual_ns += v1 - v0;
          tracer.bodies.body_wall_ns += wall.ElapsedNs();
          tracer.spans.Add(Span{span_id, parent, job, "body", name, v0, v1});
          return code;
        },
        std::move(options)));
  }
  return faasm::OkStatus();
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string line = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) {
      line += ", ";
    }
    AppendJsonString(line, metrics[i].name);
    line += ": {\"value\": " + FormatNumber(metrics[i].value) + ", \"unit\": ";
    AppendJsonString(line, metrics[i].unit);
    line += "}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
