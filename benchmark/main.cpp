// surro_bench — one run of one benchmark workload.
//
//   surro_bench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//               [--smoke] [--out DIR] [--write-reference]
//
// Prints every metric by name and unit, then, as the last line of stdout,
// one JSON object: {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end set, with --trace 1 the
// per-layer set (and trace.json is written); both sets, and the default
// window, come from BENCHMARK.json. Exits 1 when a correctness gate fails,
// 2 on a usage or run error. benchmark/run.sh builds this binary and is
// the documented entry point.

#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>

#include "harness.hpp"
#include "linalg/simd.hpp"
#include "util/json.hpp"

namespace {

using namespace surro::benchmark;

/// A run that has not finished by then is stuck; the alarm ends it. The
/// window is capped so a healthy run always ends well before.
constexpr unsigned kWatchdogSeconds = 175;
constexpr double kMaxSeconds = 120.0;

using WorkloadFn = void (*)(const Options&, Tracer&, RunResult&);
const std::map<std::string, WorkloadFn> kWorkloads = {
    {"offline_table1", run_offline_table1},
    {"serve_mixed", run_serve_mixed},
    {"socket_bulk", run_socket_bulk},
    {"fleet_open", run_fleet_open},
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "surro_bench: %s\nusage: surro_bench --workload "
               "offline_table1|serve_mixed|socket_bulk|fleet_open [--seed N] "
               "[--seconds S] [--trace 0|1] [--smoke] [--out DIR] "
               "[--write-reference]\n",
               why.c_str());
  std::exit(2);
}

double parse_number(const std::string& flag, const char* text) {
  char* end = nullptr;
  const double v = std::strtod(text, &end);
  if (end == text || *end != '\0' || !(v > 0.0)) {
    usage("bad value for " + flag + ": " + text);
  }
  return v;
}

std::uint64_t parse_count(const std::string& flag, const char* text) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0' || errno != 0 || text[0] == '-') {
    usage("bad value for " + flag + ": " + text);
  }
  return v;
}

Options parse_args(int argc, char** argv) {
  Options opts;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage(flag + " needs a value");
      return argv[++i];
    };
    if (flag == "--workload") {
      opts.workload = next();
    } else if (flag == "--seed") {
      opts.seed = parse_count(flag, next());
    } else if (flag == "--seconds") {
      opts.seconds = parse_number(flag, next());
    } else if (flag == "--trace") {
      opts.trace = parse_count(flag, next()) != 0;
    } else if (flag == "--smoke") {
      opts.smoke = true;
    } else if (flag == "--out") {
      opts.out_dir = next();
    } else if (flag == "--write-reference") {
      opts.write_reference = true;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (kWorkloads.count(opts.workload) == 0) {
    usage("unknown workload '" + opts.workload + "'");
  }
  if (opts.seconds == 0.0) opts.seconds = benchmark_spec().run_seconds;
  if (!(opts.seconds > 0.0) || opts.seconds > kMaxSeconds) {
    usage("--seconds must be in (0, 120]");
  }
  if (opts.smoke) opts.seconds /= 20.0;
  if (opts.out_dir.empty()) opts.out_dir = "build-bench/out/" + opts.workload;
  return opts;
}

/// The share.* metric a span name folds into.
std::string share_metric(const std::string& span) {
  if (span == "job") return "share.client";
  if (span.rfind("metrics.", 0) == 0) return "share.metrics";
  if (span.rfind("net.", 0) == 0) return "share.net";
  return "share." + span;
}

void report_trace(const Options& opts, Tracer& tracer, RunResult& out) {
  probe_gemm(tracer, out);
  const auto spans = tracer.spans();
  report_span_metrics(spans, out);
  const auto table = self_time_table(spans, "job");
  std::printf("\nself time within measured jobs (share of summed job "
              "latency, %zu spans):\n",
              spans.size());
  for (const auto& row : table.rows) {
    std::printf("  %-22s %8zu spans %12.3f ms %7.2f%%\n", row.name.c_str(),
                row.spans, row.self_seconds * 1e3, row.share * 100.0);
    out.metrics[share_metric(row.name)] += row.share * 100.0;
  }
  out.metrics["trace.coverage_pct"] = table.median_job_coverage * 100.0;
  std::printf("layer spans cover %.2f%% of the median job's latency\n",
              table.median_job_coverage * 100.0);

  // The recorder's own cost per span, on a scratch tracer: a steadier
  // figure than trace.overhead_pct, which compares two half windows.
  constexpr int kProbeSpans = 100000;
  Tracer probe;
  probe.set_enabled(true);
  const double start = probe.now();
  for (int i = 0; i < kProbeSpans; ++i) probe.end(probe.begin("probe"));
  out.diag("trace.span_cost_ns", (probe.now() - start) / kProbeSpans * 1e9,
           "ns");
  const std::string path = opts.out_dir + "/trace.json";
  write_trace_json(path, opts.workload, spans, table);
  std::printf("wrote %s\n", path.c_str());
}

/// BENCHMARK.json is the one list of metric names: a metric the run
/// produced that it does not list, or an end-to-end metric the run did not
/// produce, is a run error. Returns the per-layer metrics left idle (0).
std::vector<std::string> check_metric_names(const RunResult& out) {
  const BenchmarkSpec& spec = benchmark_spec();
  std::set<std::string> listed;
  for (const auto* defs : {&spec.end_to_end, &spec.per_layer}) {
    for (const auto& def : *defs) listed.insert(def.name);
  }
  for (const auto& [name, value] : out.metrics) {
    if (listed.count(name) == 0) {
      throw std::runtime_error("metric " + name +
                               " is not listed in BENCHMARK.json");
    }
  }
  for (const auto& def : spec.end_to_end) {
    if (out.metrics.count(def.name) == 0) {
      throw std::runtime_error("end-to-end metric " + def.name +
                               " was not measured");
    }
  }
  std::vector<std::string> idle;
  for (const auto& def : spec.per_layer) {
    if (out.metrics.count(def.name) == 0) idle.push_back(def.name);
  }
  return idle;
}

std::string result_json(const Options& opts, const RunResult& out,
                        const std::vector<MetricDef>& defs,
                        const std::vector<std::string>* idle) {
  surro::util::JsonWriter w;
  w.begin_object();
  w.kv("correct", out.violations.empty());
  w.kv("attempted", out.attempted);
  w.kv("failed", out.failed);
  w.key("metrics").begin_object();
  for (const auto& def : defs) {
    const auto it = out.metrics.find(def.name);
    w.key(def.name).begin_object();
    w.kv("value", it == out.metrics.end() ? 0.0 : it->second);
    w.kv("unit", def.unit);
    w.end_object();
  }
  w.end_object();
  if (idle != nullptr) {  // the full record, for result.json
    w.kv("workload", opts.workload);
    w.kv("seed", opts.seed);
    w.kv("seconds", opts.seconds);
    w.kv("trace", opts.trace);
    w.kv("smoke", opts.smoke);
    w.kv("simd_backend", surro::linalg::simd::active_backend_name());
    w.kv("nproc", static_cast<std::uint64_t>(
                      std::thread::hardware_concurrency()));
    w.key("diagnostics").begin_object();
    for (const auto& [key, value] : out.diagnostics) w.kv(key, value);
    w.end_object();
    w.key("violations").begin_array();
    for (const auto& v : out.violations) w.value(v);
    w.end_array();
    if (opts.trace) {
      w.key("idle_metrics").begin_array();
      for (const auto& name : *idle) w.value(name);
      w.end_array();
    }
  }
  w.end_object();
  return w.str();
}

}  // namespace

int main(int argc, char** argv) {
  try {
    (void)benchmark_spec();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "surro_bench: %s\n", e.what());
    return 2;
  }
  const Options opts = parse_args(argc, argv);
  ::alarm(kWatchdogSeconds);
  std::printf("== surro benchmark: %s, seed %llu, %.1fs window, trace %s%s, "
              "simd %s, nproc %u ==\n",
              opts.workload.c_str(),
              static_cast<unsigned long long>(opts.seed), opts.seconds,
              opts.trace ? "on" : "off", opts.smoke ? ", smoke" : "",
              surro::linalg::simd::active_backend_name(),
              std::thread::hardware_concurrency());
  std::fflush(stdout);

  Tracer tracer;
  RunResult out;
  std::vector<std::string> idle;
  try {
    std::filesystem::create_directories(opts.out_dir);
    kWorkloads.at(opts.workload)(opts, tracer, out);
    out.metrics["peak_rss_mb"] = surro::benchmark::peak_rss_mb_self();
    if (opts.trace) report_trace(opts, tracer, out);
    idle = check_metric_names(out);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "surro_bench: %s failed: %s\n",
                 opts.workload.c_str(), e.what());
    return 2;
  }

  const auto& defs =
      opts.trace ? benchmark_spec().per_layer : benchmark_spec().end_to_end;
  std::printf("\n%s metrics:\n", opts.trace ? "per-layer" : "end-to-end");
  for (const auto& def : defs) {
    const auto it = out.metrics.find(def.name);
    std::printf("  %-34s %14.6g %s\n", def.name.c_str(),
                it == out.metrics.end() ? 0.0 : it->second, def.unit.c_str());
  }
  if (opts.trace) {
    std::printf("idle layers (reported as 0): %zu metrics\n", idle.size());
  }
  std::printf("diagnostics (not gated):\n");
  for (const auto& [key, value] : out.diagnostics) {
    std::printf("  %-34s %s\n", key.c_str(), value.c_str());
  }
  std::printf("jobs: %llu attempted, %llu failed\n",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed));
  for (const auto& v : out.violations) {
    std::printf("CORRECTNESS VIOLATION: %s\n", v.c_str());
  }
  if (out.violations.empty()) std::printf("correctness gates: all passed\n");

  const std::string result_path = opts.out_dir + "/result.json";
  std::ofstream(result_path) << result_json(opts, out, defs, &idle) << '\n';
  std::printf("wrote %s\n", result_path.c_str());
  std::printf("%s\n", result_json(opts, out, defs, nullptr).c_str());
  return out.violations.empty() ? 0 : 1;
}
