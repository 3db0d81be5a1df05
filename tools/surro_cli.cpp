// surro_cli — command-line front end for the surro library.
//
// Every command is one entry of kCommands (at the bottom of this file): its
// handler and its usage lines. `surro_cli` with no command prints every
// entry's lines, and a command's lines are also its flag declaration: a
// --flag they do not name is refused (the global --simd excepted). Tables
// are CSV files with the paper's 9-column schema (panda::job_table_schema);
// models are registry keys (`surro_cli models`). docs/CLI.md is the full
// reference.

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <thread>

#include <unistd.h>

#include "core/surro.hpp"
#include "eval/scenario.hpp"
#include "linalg/simd.hpp"
#include "net/client.hpp"
#include "net/rest.hpp"
#include "serve/worker_fleet.hpp"
#include "stream/stream_eval.hpp"
#include "twin/twin.hpp"
#include "util/logging.hpp"
#include "util/stringx.hpp"

namespace {

using namespace surro;

struct Args {
  std::map<std::string, std::string> kv;  // --key value
  std::set<std::string> bare;             // --flag with no value
  [[nodiscard]] bool has(const std::string& key) const {
    return kv.contains(key) || bare.contains(key);
  }
  [[nodiscard]] std::string get(const std::string& key,
                                const std::string& fallback = "") const {
    const auto it = kv.find(key);
    return it == kv.end() ? fallback : it->second;
  }
  [[nodiscard]] double num(const std::string& key, double fallback) const {
    const auto it = kv.find(key);
    if (it == kv.end()) return fallback;
    double v = 0.0;
    if (!util::parse_double(it->second, v)) {
      throw std::invalid_argument("--" + key + ": bad number '" +
                                  it->second + "'");
    }
    return v;
  }
  /// Range-checked count (rows, threads, seeds, ...): a negative double →
  /// size_t cast is UB, so reject bad input instead of wrapping (mirrors
  /// serve's script parser).
  [[nodiscard]] std::size_t count(const std::string& key,
                                  double fallback) const {
    const double v = num(key, fallback);
    if (!(v >= 0.0) || v > 1e12) {
      throw std::invalid_argument("--" + key + " out of range");
    }
    return static_cast<std::size_t>(v);
  }
  /// Bare boolean flag (--verbose) or explicit --verbose true/false.
  [[nodiscard]] bool flag(const std::string& key) const {
    if (bare.contains(key)) return true;
    const auto it = kv.find(key);
    if (it == kv.end()) return false;
    return it->second != "false" && it->second != "0";
  }
};

std::string model_list() {
  std::string out;
  for (const auto& key : models::GeneratorRegistry::instance().keys()) {
    if (!out.empty()) out += "|";
    out += key;
  }
  return out;
}

/// Write one JSON artifact, newline-terminated, and say so.
void write_artifact(const std::string& path, const std::string& json) {
  std::ofstream file(path, std::ios::binary);
  if (!file) throw std::runtime_error("cannot write " + path);
  file << json << '\n';
  std::printf("wrote %s\n", path.c_str());
}

/// Validated registry lookup (keeps error messages uniform).
const models::GeneratorInfo& model_info_or_throw(const std::string& key) {
  auto& registry = models::GeneratorRegistry::instance();
  if (!registry.contains(key)) {
    throw std::invalid_argument("unknown model '" + key + "' (have: " +
                                model_list() + ")");
  }
  return registry.info(key);
}

int cmd_models(const Args& /*args*/) {
  auto& registry = models::GeneratorRegistry::instance();
  std::printf("%-10s %-10s %s\n", "key", "name", "description");
  for (const auto& key : registry.keys()) {
    const auto& info = registry.info(key);
    std::printf("%-10s %-10s %s\n", info.key.c_str(),
                info.display_name.c_str(), info.description.c_str());
  }
  return 0;
}

int cmd_generate(const Args& args) {
  panda::GeneratorConfig cfg;
  cfg.model.days = args.num("days", 30.0);
  cfg.model.base_jobs_per_day = args.num("rate", 240.0);
  cfg.seed = args.count("seed", 42.0);
  panda::RecordGenerator gen(cfg);
  panda::FilterFunnel funnel;
  const auto table = panda::build_job_table(gen.generate(), gen.catalog(),
                                            &funnel);
  for (const auto& line : funnel.describe()) {
    std::printf("%s\n", line.c_str());
  }
  const std::string out = args.get("out", "jobs.csv");
  tabular::write_csv(table, out);
  std::printf("wrote %s (%zu rows)\n", out.c_str(), table.num_rows());
  return 0;
}

int cmd_profile(const Args& args) {
  const auto table = tabular::read_csv(panda::job_table_schema(),
                                       args.get("data", "jobs.csv"));
  for (const auto& line : tabular::profile_lines(table)) {
    std::printf("%s\n", line.c_str());
  }
  return 0;
}

/// Shared by synthesize / save-model: load data, train the chosen model.
std::unique_ptr<models::TabularGenerator> train_from_args(
    const Args& args, tabular::Table* table_out = nullptr) {
  const auto table = tabular::read_csv(panda::job_table_schema(),
                                       args.get("data", "jobs.csv"));
  models::TrainBudget budget;
  budget.epochs = args.count("epochs", 30.0);
  budget.log_every_epochs = args.flag("verbose") ? 1 : 5;
  const std::uint64_t seed = args.count("seed", 7.0);
  const std::string key = args.get("model", "tabddpm");
  (void)model_info_or_throw(key);
  auto model = models::make_generator(key, budget, seed);
  std::printf("training %s on %zu rows...\n", model->name().c_str(),
              table.num_rows());
  model->fit(table);
  if (table_out != nullptr) *table_out = table;
  return model;
}

/// Shared by synthesize / sample-model: chunked parallel synthesis + CSV.
int sample_to_csv(models::TabularGenerator& model, const Args& args,
                  std::size_t default_rows) {
  models::SampleRequest request;
  request.rows = args.count("rows", static_cast<double>(default_rows));
  request.seed = args.count("seed", 7.0) ^ 0xFEEDULL;
  request.threads = args.count("threads", 1.0);
  request.chunk_rows = args.count("chunk-rows", 4096.0);
  if (args.flag("verbose")) {
    request.on_progress = [](std::size_t done, std::size_t total) {
      std::fprintf(stderr, "\r  sampled %zu/%zu rows", done, total);
      if (done == total) std::fprintf(stderr, "\n");
    };
  }
  tabular::Table synth;
  model.sample_into(synth, request);
  const std::string out = args.get("out", "synth.csv");
  tabular::write_csv(synth, out);
  std::printf("wrote %s (%zu rows)\n", out.c_str(), synth.num_rows());
  return 0;
}

int cmd_synthesize(const Args& args) {
  tabular::Table table;
  auto model = train_from_args(args, &table);
  return sample_to_csv(*model, args, table.num_rows());
}

int cmd_save_model(const Args& args) {
  auto model = train_from_args(args);
  const std::string out = args.get("out", "model.bin");
  models::save_model_file(*model, out);
  std::printf("wrote %s (%s, fitted)\n", out.c_str(),
              model->name().c_str());
  return 0;
}

int cmd_sample_model(const Args& args) {
  const std::string path = args.get("model-file", "model.bin");
  auto model = models::load_model_file(path);
  std::printf("loaded %s from %s\n", model->name().c_str(), path.c_str());
  return sample_to_csv(*model, args, 1000);
}

int cmd_evaluate(const Args& args) {
  const auto schema = panda::job_table_schema();
  const auto real = tabular::read_csv(schema, args.get("real", "jobs.csv"));
  const auto synth =
      tabular::read_csv(schema, args.get("synth", "synth.csv"));

  util::Rng rng(99);
  const auto split = tabular::train_test_split(real, 0.8, rng);
  eval::ExperimentConfig cfg;
  cfg.dcr.max_train_rows = 8000;
  cfg.dcr.max_synth_rows = 4000;
  const double train_mlef =
      metrics::mlef_mse(split.train, split.test, cfg.mlef);
  std::printf("%s\n", metrics::render_table1({eval::score_model(
                                                 "synthetic", synth,
                                                 split.train, split.test,
                                                 train_mlef, cfg)})
                          .c_str());
  return 0;
}

/// An --axes grid, ';'-separated axes each "name=v1,v2,...": every axis
/// name with its values.
std::vector<std::pair<std::string, std::vector<std::string>>> parse_grid(
    const std::string& spec) {
  std::vector<std::pair<std::string, std::vector<std::string>>> grid;
  for (const auto& axis : util::split_list(spec, ';')) {
    std::string name;
    std::string values;
    if (!util::split_key_value(axis, name, values)) {
      throw std::invalid_argument("bad axis '" + axis +
                                  "' (want name=v1,v2,...)");
    }
    grid.emplace_back(name, util::split_list(values, ','));
  }
  return grid;
}

/// Matrix axes: days (collection-window size), anomaly (injected
/// fraction), rows (synthetic rows per model), models (registry keys).
eval::ScenarioAxes parse_axes(const std::string& spec) {
  eval::ScenarioAxes axes;
  for (const auto& [name, values] : parse_grid(spec)) {
    for (const auto& value : values) {
      // rows is a count: the CLI's count range keeps its cast defined.
      double num = 0.0;
      if (name != "models" && (!util::parse_double(value, num) || num < 0.0 ||
                               (name == "rows" && num > 1e12))) {
        throw std::invalid_argument("bad value '" + value + "' for axis '" +
                                    name + "'");
      }
      if (name == "days") {
        axes.window_days.push_back(num);
      } else if (name == "anomaly") {
        axes.anomaly_fractions.push_back(num);
      } else if (name == "rows") {
        axes.synth_rows.push_back(static_cast<std::size_t>(num));
      } else if (name == "models") {
        axes.model_keys.push_back(value);
      } else {
        throw std::invalid_argument("unknown axis '" + name +
                                    "' (have: days, anomaly, rows, models)");
      }
    }
  }
  return axes;
}

int cmd_matrix(const Args& args) {
  // Base operating point: the quick experiment profile (the CI smoke
  // config), with the load-bearing knobs overridable from the command line.
  auto cfg = eval::quick_experiment_config();
  cfg.budget.epochs =
      args.count("epochs", static_cast<double>(cfg.budget.epochs));
  cfg.seed = args.count("seed", 42.0);
  const std::size_t threads = args.count("threads", 0.0);
  cfg.sample_threads = threads;
  cfg.metric_threads = threads;
  cfg.verbose = args.flag("verbose");

  const auto axes = parse_axes(args.get("axes"));
  for (const auto& key : axes.model_keys) (void)model_info_or_throw(key);

  eval::ScenarioMatrixOptions opts;
  opts.concurrent_scoring = !args.flag("serial-score");
  opts.verbose = cfg.verbose;

  const auto result = eval::run_scenario_matrix(cfg, axes, opts);
  std::printf("matrix: %zu scenarios x %zu models\n", result.runs.size(),
              result.model_keys.size());
  std::printf("%s", eval::render_matrix(result).c_str());
  std::printf("total wall-clock: %.1fs\n", result.wall_seconds);

  write_artifact(args.get("json-out", "matrix_results.json"),
                 eval::matrix_to_json(cfg, result));
  return 0;
}

/// Stream axes: stride (days between windows), drift (scenario family),
/// refresh (cold|warm), models (registry keys).
stream::StreamAxes parse_stream_axes(const std::string& spec) {
  stream::StreamAxes axes;
  for (const auto& [name, values] : parse_grid(spec)) {
    for (const auto& value : values) {
      if (name == "stride") {
        double num = 0.0;
        if (!util::parse_double(value, num) || !(num > 0.0)) {
          throw std::invalid_argument("bad value '" + value +
                                      "' for axis 'stride'");
        }
        axes.stride_days.push_back(num);
      } else if (name == "drift") {
        axes.drifts.push_back(stream::parse_drift_kind(value));
      } else if (name == "refresh") {
        axes.refresh.push_back(stream::parse_refresh_mode(value));
      } else if (name == "models") {
        axes.model_keys.push_back(value);
      } else {
        throw std::invalid_argument(
            "unknown axis '" + name +
            "' (have: stride, drift, refresh, models)");
      }
    }
  }
  return axes;
}

int cmd_stream(const Args& args) {
  // Base operating point: the quick experiment profile, with the stream's
  // load-bearing knobs overridable from the command line.
  auto cfg = eval::quick_experiment_config();
  cfg.budget.epochs =
      args.count("epochs", static_cast<double>(cfg.budget.epochs));
  cfg.data.model.days = args.num("days", cfg.data.model.days);
  cfg.seed = args.count("seed", 42.0);
  const std::size_t threads = args.count("threads", 0.0);
  cfg.sample_threads = threads;
  cfg.metric_threads = threads;
  cfg.verbose = args.flag("verbose");

  stream::StreamOptions opts;
  opts.window_days = args.num("window", 7.0);
  opts.drift_intensity = args.num("intensity", opts.drift_intensity);
  opts.synth_rows = args.count("rows", 1000.0);
  opts.score_dcr = args.flag("score-dcr");
  opts.concurrent_scoring = !args.flag("serial-score");
  opts.verbose = cfg.verbose;

  const auto axes = parse_stream_axes(args.get("axes"));
  for (const auto& key : axes.model_keys) (void)model_info_or_throw(key);

  const auto result = stream::run_stream_matrix(cfg, axes, opts);
  std::printf("stream: %zu scenarios x %zu models over %zu source rows\n",
              result.runs.size(), result.model_keys.size(),
              result.source_rows);
  std::printf("%s", stream::render_stream(result).c_str());
  std::printf("total wall-clock: %.1fs\n", result.wall_seconds);

  write_artifact(args.get("json-out", "stream_results.json"),
                 stream::stream_to_json(cfg, opts, result));
  return 0;
}

/// Register the serve model pool: --models "key=path;key=path" and/or
/// --models-dir DIR (every *.bin file, keyed by its stem, sorted).
void register_serve_models(serve::ModelHost& host, const Args& args) {
  for (const auto& entry : util::split_list(args.get("models"), ';')) {
    std::string key;
    std::string path;
    if (!util::split_key_value(entry, key, path)) {
      throw std::invalid_argument("bad --models entry '" + entry +
                                  "' (want key=archive.bin)");
    }
    host.register_archive(key, path);
  }
  if (args.has("models-dir")) {
    const std::filesystem::path dir = args.get("models-dir");
    std::vector<std::filesystem::path> archives;
    for (const auto& file : std::filesystem::directory_iterator(dir)) {
      if (file.is_regular_file() && file.path().extension() == ".bin") {
        archives.push_back(file.path());
      }
    }
    std::sort(archives.begin(), archives.end());
    for (const auto& path : archives) {
      host.register_archive(path.stem().string(), path.string());
    }
  }
  if (host.keys().empty()) {
    throw std::invalid_argument(
        "serve: no models registered (use --models or --models-dir)");
  }
}

/// SIGINT/SIGTERM flag for the blocking `serve --listen` mode.
std::atomic<bool> g_serve_stop{false};
void serve_signal_handler(int /*signum*/) { g_serve_stop.store(true); }

/// `serve --listen`: expose the SampleService as the HTTP REST API and run
/// until a signal, --serve-seconds elapse, or (with --self-probe) one
/// in-process round-trip across every endpoint finishes. --self-probe
/// exists so the documented example is executable: it binds an ephemeral
/// port, exercises the API end to end — including a digest comparison
/// against a direct in-process sample of the same job identity — and exits.
int cmd_serve_listen(const Args& args, serve::SampleBackend& service,
                     serve::ModelHost& host, std::size_t shards) {
  net::RestConfig rest_cfg;
  rest_cfg.max_body_bytes = args.count("max-body-bytes", 1 << 20);
  rest_cfg.quota_rps = args.num("quota-rps", 0.0);
  rest_cfg.quota_burst = args.num("quota-burst", 0.0);
  rest_cfg.page_rows =
      std::max<std::size_t>(args.count("page-rows", 1000.0), 1);

  net::ServerConfig server_cfg;
  const std::size_t port_flag = args.count("listen", 0.0);
  if (port_flag > 65535) {
    throw std::invalid_argument("serve: --listen port out of range");
  }
  server_cfg.port = static_cast<std::uint16_t>(port_flag);
  server_cfg.worker_threads = std::max<std::size_t>(
      args.count("http-workers", 8.0), 1);

  net::HttpEndpoint endpoint(service, rest_cfg, server_cfg);
  if (args.has("api-keys-file")) {
    endpoint.api.quotas().load_file(args.get("api-keys-file"));
  }
  endpoint.server.start();
  // Worker discovery: --port-file publishes the bound (possibly ephemeral)
  // port once the accept loop is live. Written before the banner so a
  // supervisor polling the file never beats the server to its own port.
  if (args.has("port-file")) {
    const std::string path = args.get("port-file");
    // Write to a temp file and rename() into place: the supervisor polling
    // the path either sees nothing or the complete "PORT\n", never a
    // partially-written prefix that parses as the wrong port.
    const std::string tmp = path + ".tmp";
    {
      std::ofstream port_file(tmp, std::ios::binary | std::ios::trunc);
      if (!port_file) {
        endpoint.server.stop();
        throw std::runtime_error("serve: cannot write --port-file " + path);
      }
      port_file << endpoint.server.port() << '\n';
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
      endpoint.server.stop();
      throw std::runtime_error("serve: cannot publish --port-file " + path +
                               ": " + std::strerror(errno));
    }
  }
  if (args.flag("worker")) {
    std::printf("serve: worker ready on %s:%u — %zu models, simd %s\n",
                server_cfg.bind_address.c_str(),
                static_cast<unsigned>(endpoint.server.port()),
                host.keys().size(), linalg::simd::active_backend_name());
    std::fflush(stdout);
  }
  std::printf("serve: http on %s:%u — %zu models, %zu shard(s), %zu api "
              "keys%s, quota %.0f rps, %zu workers, simd %s\n",
              server_cfg.bind_address.c_str(),
              static_cast<unsigned>(endpoint.server.port()),
              host.keys().size(), shards,
              endpoint.api.quotas().num_keys(),
              endpoint.api.quotas().open_access() ? " (open access)" : "",
              rest_cfg.quota_rps, server_cfg.worker_threads,
              linalg::simd::active_backend_name());

  if (args.flag("self-probe")) {
    // One loopback client across every endpoint; any failure throws and
    // surfaces as exit 1 via main()'s handler.
    net::ApiClient api("127.0.0.1", endpoint.server.port());
    if (!api.healthy()) throw std::runtime_error("self-probe: /healthz failed");
    const auto keys = api.models();
    if (keys.empty()) throw std::runtime_error("self-probe: no models");
    const serve::SampleJob probe{
        keys.front(), std::max<std::size_t>(args.count("rows", 256.0), 1),
        args.count("seed", 7.0), service.config().chunk_rows};
    const std::uint64_t job = api.submit(probe);
    const net::RemoteResult remote = api.wait_result(job, probe.rows / 3 + 1);
    // The determinism contract over the wire: the paginated pages must
    // reassemble to the exact bytes a direct in-process sample produces —
    // and with --shards, that the placement never changed the bytes.
    const std::uint64_t digest = serve::hash_table(remote.table);
    if (digest != serve::expected_digest(host, probe)) {
      throw std::runtime_error("self-probe: socket digest != local digest");
    }
    (void)api.stats_json();  // and the stats document parses
    std::printf("self-probe: ok — %zu rows over %zu pages, digest %016llx "
                "matches in-process\n",
                remote.table.num_rows(), remote.pages,
                static_cast<unsigned long long>(digest));
    endpoint.server.stop();
    return 0;
  }

  const double serve_seconds = args.num("serve-seconds", 0.0);
  std::signal(SIGINT, serve_signal_handler);
  std::signal(SIGTERM, serve_signal_handler);
  util::Stopwatch up;
  while (!g_serve_stop.load()) {
    if (serve_seconds > 0.0 && up.seconds() >= serve_seconds) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  // Graceful shutdown: stop accepting new work first, then finish
  // everything already admitted — a SIGTERM'd worker never strands an
  // in-flight job, and exit 0 is the caller's proof of a clean drain
  // (WorkerFleet::shutdown asserts exactly that).
  std::printf("serve: shutting down after %.1fs — draining %zu queued "
              "job(s)\n",
              up.seconds(), service.queue_depth());
  endpoint.server.stop();
  service.drain();
  std::printf("serve: drained, exiting cleanly\n");
  return 0;
}

/// Command-line HTTP client for the REST API (the container has no curl;
/// CI and the docs drive the server with this).
int cmd_request(const Args& args) {
  const serve::RemoteShardConfig endpoint =
      serve::parse_remote_endpoint(args.get("connect", "127.0.0.1:8080"));

  std::string body = args.get("body");
  if (args.has("body-file")) {
    std::ifstream file(args.get("body-file"), std::ios::binary);
    if (!file) {
      throw std::runtime_error("cannot read " + args.get("body-file"));
    }
    body.assign(std::istreambuf_iterator<char>(file),
                std::istreambuf_iterator<char>());
  }
  std::map<std::string, std::string> headers;
  if (args.has("key")) headers["x-api-key"] = args.get("key");
  if (!body.empty()) headers["content-type"] = "application/json";

  net::HttpClient http(endpoint.host, endpoint.port,
                       args.num("max-time", 30.0));
  const net::HttpResponse response =
      http.request(args.get("method", body.empty() ? "GET" : "POST"),
                   args.get("path", "/healthz"), body, headers);

  // Status + headers to stderr, body to stdout, so pipelines can consume
  // the JSON directly.
  std::fprintf(stderr, "HTTP %d %s\n", response.status,
               net::status_reason(response.status));
  for (const auto& [name, value] : response.headers) {
    std::fprintf(stderr, "%s: %s\n", name.c_str(), value.c_str());
  }
  std::printf("%s\n", response.body.c_str());

  if (args.has("expect-status")) {
    return response.status ==
                   static_cast<int>(args.count("expect-status", 200.0))
               ? 0
               : 1;
  }
  return response.status >= 200 && response.status < 300 ? 0 : 1;
}

/// The backend flags `serve` and `soak` share, as make_backend's config;
/// `admission` and `chunk_rows` are the subcommand's defaults.
serve::ShardPoolConfig backend_flags(const Args& args, const char* admission,
                                     double chunk_rows) {
  serve::ShardPoolConfig cfg;
  cfg.host.capacity = args.count("capacity", 4.0);
  cfg.host.ttl_ms = args.num("shard-ttl-ms", 0.0);
  cfg.service.sample_threads = args.count("threads", 0.0);
  cfg.service.chunk_rows = args.count("chunk-rows", chunk_rows);
  cfg.service.admission =
      serve::parse_admission_policy(args.get("admission", admission));
  cfg.service.max_queue_depth = args.count("max-queue", 0.0);
  cfg.service.max_queued_rows = args.count("max-queued-rows", 0.0);
  cfg.shards = std::max<std::size_t>(args.count("shards", 1.0), 1);
  cfg.replication = std::max<std::size_t>(args.count("replicas", 1.0), 1);
  for (const auto& entry : util::split_list(args.get("remote-shards"), ',')) {
    cfg.remotes.push_back(serve::parse_remote_endpoint(entry));
  }
  return cfg;
}

int cmd_serve(const Args& args) {
  // --shards N > 1 swaps the single SampleService for a ShardPool (each
  // shard its own ModelHost + SampleService behind the consistent-hash
  // router), and --remote-shards HOST:PORT,... appends worker *processes*
  // as shards of the same pool. The flat `host` stays the registry of
  // record — and, in --listen --self-probe, the unsharded reference the
  // socket digest is checked against, which is exactly the
  // placement-invariance contract (in-process and across processes).
  //
  // --worker pins the topology to one plain in-process shard: a worker is
  // a leaf, placement is its caller's concern.
  serve::ShardPoolConfig backend_cfg = backend_flags(args, "block", 4096.0);
  const bool worker = args.flag("worker");
  if (worker) {
    backend_cfg.shards = 1;
    backend_cfg.remotes.clear();
  }
  serve::ModelHost host({.capacity = backend_cfg.host.capacity});
  register_serve_models(host, args);
  const serve::Backend backend = serve::make_backend(host, backend_cfg);
  serve::SampleBackend& service = *backend.service;

  if (worker || args.has("listen")) {
    return cmd_serve_listen(args, service, host,
                            backend.pool ? backend.pool->shards() : 1);
  }

  serve::ReplayScript script;
  if (args.has("script")) {
    const std::string path = args.get("script");
    std::ifstream file(path);
    if (!file) throw std::runtime_error("cannot read " + path);
    script = serve::parse_script_jsonl(file);
  } else if (args.has("requests")) {
    script = serve::parse_script_inline(args.get("requests"));
  } else {
    throw std::invalid_argument("serve: need --script or --requests");
  }

  serve::ReplayOptions opts;
  opts.clients = args.count("clients", 1.0);
  opts.rounds = args.count("rounds", 1.0);

  const auto result = serve::run_replay(service, script, opts);
  const auto& s = result.stats;
  const auto& n = result.counts;
  std::printf("serve: %llu/%llu jobs completed (%llu rows) from %zu "
              "clients over %zu models, %.2fs wall, simd %s\n",
              static_cast<unsigned long long>(n.completed),
              static_cast<unsigned long long>(n.submitted),
              static_cast<unsigned long long>(n.rows), opts.clients,
              host.keys().size(), result.wall_seconds,
              linalg::simd::active_backend_name());
  std::printf("  throughput      %.0f rows/s  (%.1f jobs/s)\n",
              result.wall_seconds > 0.0
                  ? static_cast<double>(n.rows) / result.wall_seconds
                  : 0.0,
              result.wall_seconds > 0.0
                  ? static_cast<double>(n.completed) / result.wall_seconds
                  : 0.0);
  std::printf("  latency         p50 %.2f ms, p95 %.2f ms, p99 %.2f ms\n",
              s.p50_latency_ms, s.p95_latency_ms, s.p99_latency_ms);
  if (n.rejected > 0 || n.shed > 0 || n.deadline_missed > 0) {
    std::printf("  overload        %llu rejected, %llu shed, %llu "
                "deadline-missed\n",
                static_cast<unsigned long long>(n.rejected),
                static_cast<unsigned long long>(n.shed),
                static_cast<unsigned long long>(n.deadline_missed));
  }
  std::printf("  cache           %.0f%% hit rate, %llu loads, %llu "
              "evictions (capacity %zu)\n",
              s.host.hit_rate() * 100.0,
              static_cast<unsigned long long>(s.host.loads),
              static_cast<unsigned long long>(s.host.evictions),
              s.host.capacity);
  std::printf("  output hash     %016llx\n",
              static_cast<unsigned long long>(result.output_hash));
  if (n.failed > 0) {
    std::fprintf(stderr, "warning: %llu request(s) failed\n",
                 static_cast<unsigned long long>(n.failed));
  }

  write_artifact(args.get("json-out", "serve_stats.json"),
                 serve::serve_stats_to_json(service, opts, result));
  return n.failed == 0 ? 0 : 1;
}

int cmd_soak(const Args& args) {
  serve::SoakConfig soak;
  soak.backend = backend_flags(args, "reject", 1024.0);
  serve::ModelHost host({.capacity = soak.backend.host.capacity});
  register_serve_models(host, args);
  soak.models = host.keys();
  if (args.has("load")) {
    soak.load_multipliers.clear();
    for (const auto& value : util::split_list(args.get("load"), ',')) {
      double m = 0.0;
      if (!util::parse_double(value, m) || !(m > 0.0)) {
        throw std::invalid_argument("soak: bad --load multiplier '" + value +
                                    "'");
      }
      soak.load_multipliers.push_back(m);
    }
  }
  soak.clients = args.count("clients", 4.0);
  soak.rows_per_job = args.count("rows", 1000.0);
  soak.seed_streams = args.count("streams", 4.0);
  soak.seed = args.count("seed", 42.0);
  soak.duration_seconds = args.num("duration", 2.0);
  soak.deadline_ms = args.num("deadline-ms", 0.0);
  soak.verbose = args.flag("verbose");
  soak.over_socket = args.flag("over-socket");
  if (!(soak.duration_seconds > 0.0)) {
    throw std::invalid_argument("soak: --duration must be positive");
  }

  const auto result = serve::run_soak(host, soak);
  std::printf("soak: %zu models, capacity %.1f jobs/s, admission %s "
              "(depth %zu), transport %s\n",
              soak.models.size(), result.capacity_jobs_per_sec,
              serve::admission_policy_name(soak.backend.service.admission),
              soak.effective_queue_depth(),
              soak.over_socket ? "socket" : "in-process");
  std::printf("%s", serve::render_soak(result).c_str());

  write_artifact(args.get("json-out", "serve_soak.json"),
                 serve::soak_to_json(soak, result));
  return result.deterministic ? 0 : 1;
}

/// Absolute path to this binary, for fleet workers to exec (readlink on
/// /proc/self/exe; falls back to the launch name if /proc is odd).
std::string self_exe_path(const char* argv0) {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n > 0) {
    buf[n] = '\0';
    return buf;
  }
  return argv0 != nullptr ? argv0 : "surro_cli";
}

const char* g_argv0 = nullptr;  // set once in main(), read by cmd_fleet

/// `fleet`: spawn N worker processes, build a mixed local+remote ShardPool
/// over them, and machine-check the whole point of the topology — that a
/// job's bytes are identical whether it runs here or in a worker process —
/// before tearing the fleet down gracefully (workers must exit 0).
int cmd_fleet(const Args& args) {
  // The reference registry: same --models/--models-dir the workers get,
  // loaded in-process for the unsharded expected digests.
  serve::HostConfig host_cfg;
  host_cfg.capacity = args.count("capacity", 4.0);
  serve::ModelHost host(host_cfg);
  register_serve_models(host, args);

  serve::WorkerFleetConfig fleet_cfg;
  fleet_cfg.cli_path =
      args.has("cli") ? args.get("cli") : self_exe_path(g_argv0);
  fleet_cfg.workers = std::max<std::size_t>(args.count("workers", 2.0), 1);
  fleet_cfg.ready_timeout_seconds = args.num("ready-timeout", 60.0);
  if (args.has("models")) {
    fleet_cfg.serve_args.push_back("--models");
    fleet_cfg.serve_args.push_back(args.get("models"));
  }
  if (args.has("models-dir")) {
    fleet_cfg.serve_args.push_back("--models-dir");
    fleet_cfg.serve_args.push_back(args.get("models-dir"));
  }
  fleet_cfg.serve_args.push_back("--capacity");
  fleet_cfg.serve_args.push_back(std::to_string(host_cfg.capacity));
  // Orphan protection: if this process dies uncleanly, workers still exit
  // on their own after the deadline instead of lingering forever.
  fleet_cfg.serve_args.push_back("--serve-seconds");
  fleet_cfg.serve_args.push_back(args.get("serve-seconds", "900"));

  serve::WorkerFleet fleet(fleet_cfg);
  fleet.start();
  std::printf("fleet: %zu worker(s) ready on ports", fleet.size());
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    std::printf(" %u", static_cast<unsigned>(fleet.port(i)));
  }
  std::printf(" (logs in %s)\n", fleet.scratch_dir().c_str());

  // Mixed pool: --local-shards in-process shards (0 = remote-only) plus
  // every worker as a remote shard.
  serve::ShardPoolConfig pool_cfg;
  pool_cfg.shards = args.count("local-shards", 1.0);
  pool_cfg.replication = std::max<std::size_t>(args.count("replicas", 2.0), 1);
  pool_cfg.host.capacity = host_cfg.capacity;
  pool_cfg.service.chunk_rows = args.count("chunk-rows", 1024.0);
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    serve::RemoteShardConfig rc;
    rc.port = fleet.port(i);
    pool_cfg.remotes.push_back(rc);
  }
  const serve::Backend backend = serve::make_backend(host, pool_cfg);
  serve::ShardPool& pool = *backend.pool;  // remotes: always a pool

  // The determinism probe: every model sampled through the mixed pool must
  // match a direct in-process sample of the same (rows, seed, chunk_rows)
  // identity bit for bit — placement (local shard, worker process, which
  // replica won the lease) never changes bytes.
  const std::size_t rows = std::max<std::size_t>(args.count("rows", 512.0), 1);
  const std::uint64_t seed = args.count("seed", 1234.0);
  const std::size_t chunk_rows =
      std::max<std::size_t>(args.count("chunk-rows", 1024.0), 1);
  bool all_ok = true;
  for (const auto& key : host.keys()) {
    const serve::SampleJob job{key, rows, seed, chunk_rows};
    const tabular::Table pooled = pool.sample(job);
    const auto pooled_hash = serve::hash_table(pooled);
    const bool ok = pooled_hash == serve::expected_digest(host, job);
    all_ok = all_ok && ok;
    std::printf("fleet: %-10s %zu rows, digest %016llx %s\n", key.c_str(),
                pooled.num_rows(),
                static_cast<unsigned long long>(pooled_hash),
                ok ? "== in-process" : "!= in-process (VIOLATION)");
  }
  const serve::ShardStats stats = pool.shard_stats();
  std::printf("fleet: pool %zu local + %zu remote shard(s), replication "
              "%zu — routed %llu, rerouted %llu (transport %llu)\n",
              pool.local_shards(), fleet.size(), pool_cfg.replication,
              static_cast<unsigned long long>(stats.routed),
              static_cast<unsigned long long>(stats.rerouted),
              static_cast<unsigned long long>(stats.rerouted_transport));

  const int worst = fleet.shutdown(args.num("shutdown-timeout", 20.0));
  if (worst != 0) {
    throw std::runtime_error(
        "fleet: worker exited with status " + std::to_string(worst) +
        " during graceful shutdown (see " + fleet.scratch_dir() + ")");
  }
  std::printf("fleet: %zu worker(s) shut down cleanly (exit 0)\n",
              fleet.size());
  if (!all_ok) throw std::runtime_error("fleet: determinism probe failed");
  return 0;
}

int cmd_simulate(const Args& args) {
  const auto table = tabular::read_csv(panda::job_table_schema(),
                                       args.get("data", "jobs.csv"));
  const auto catalog = panda::SiteCatalog::make_default();
  sched::SimConfig cfg;
  cfg.capacity_scale = args.num("capacity-scale", 0.0002);
  sched::ClusterSimulator sim(catalog, cfg);
  const auto jobs = sched::jobs_from_table(table, catalog, 3);

  const std::string name = args.get("policy", "hybrid");
  sched::RandomPolicy random;
  sched::DataLocalityPolicy locality;
  sched::LeastLoadedPolicy least;
  sched::HybridPolicy hybrid;
  sched::AllocationPolicy* policy = nullptr;
  if (name == "random") policy = &random;
  else if (name == "locality") policy = &locality;
  else if (name == "least") policy = &least;
  else if (name == "hybrid") policy = &hybrid;
  else throw std::invalid_argument("unknown policy '" + name + "'");

  const auto m = sim.run(jobs, *policy, 5);
  std::printf("policy %s over %zu jobs:\n", policy->name().c_str(),
              jobs.size());
  std::printf("  mean wait       %.2f h\n", m.mean_wait_hours);
  std::printf("  p95 wait        %.2f h\n", m.p95_wait_hours);
  std::printf("  utilization     %.3f\n", m.mean_utilization);
  std::printf("  data moved      %s\n",
              util::format_bytes(m.transferred_bytes).c_str());
  std::printf("  makespan        %.1f days\n", m.makespan_days);
  return 0;
}

int cmd_twin(const Args& args) {
  // 1. The real stream: a CSV capture, or the PanDA record generator.
  tabular::Table real;
  if (args.kv.contains("data")) {
    real = tabular::read_csv(panda::job_table_schema(), args.get("data"));
  } else {
    panda::GeneratorConfig gcfg;
    gcfg.model.days = args.num("days", 14.0);
    gcfg.model.base_jobs_per_day = args.num("rate", 120.0);
    gcfg.seed = args.count("seed", 7.0);
    panda::RecordGenerator gen(gcfg);
    real = panda::build_job_table(gen.generate(), gen.catalog(), nullptr);
  }
  if (real.num_rows() == 0) {
    throw std::invalid_argument("twin: real stream is empty");
  }

  // 2. Fit the surrogate on the real stream.
  models::TrainBudget budget;
  budget.epochs = args.count("epochs", 12.0);
  budget.log_every_epochs = args.flag("verbose") ? 1 : 1000;
  const std::uint64_t seed = args.count("seed", 7.0);
  const std::string key = args.get("model", "smote");
  (void)model_info_or_throw(key);
  auto model = models::make_generator(key, budget, seed);
  std::printf("twin: training %s on %zu real rows...\n",
              model->name().c_str(), real.num_rows());
  model->fit(real);

  // 3. The surrogate stream — sampled directly, or through the serving
  // tier's SampleBackend (--via-service). Same bytes either way: the
  // serving determinism contract says a job's output depends only on
  // (model, rows, seed, chunk_rows).
  models::SampleRequest request;
  request.rows = args.count("rows", static_cast<double>(real.num_rows()));
  request.seed = seed ^ 0xFEEDULL;
  request.chunk_rows = args.count("chunk-rows", 4096.0);
  request.threads = args.count("threads", 0.0);
  tabular::Table synth;
  if (args.flag("via-service")) {
    serve::ModelHost host;
    host.register_fitted(key, std::shared_ptr<models::TabularGenerator>(
                                  std::move(model)));
    serve::SampleService service(host);
    synth = twin::sample_via_backend(service, key, request.rows,
                                     request.seed, request.chunk_rows);
  } else {
    model->sample_into(synth, request);
  }
  std::printf("twin: %zu synthetic rows (%s)\n", synth.num_rows(),
              args.flag("via-service") ? "via serving tier" : "direct");

  // 4. The scenario sweep.
  twin::TwinConfig cfg;
  cfg.sim.capacity_scale = args.num("capacity-scale", 0.0002);
  if (args.kv.contains("policies")) {
    cfg.policies = util::split_list(args.get("policies"), ',');
  }
  if (args.kv.contains("scenarios")) {
    cfg.disruptions.clear();
    for (const auto& name : util::split_list(args.get("scenarios"), ',')) {
      cfg.disruptions.push_back(twin::parse_disruption_kind(name));
    }
  }
  if (args.kv.contains("drifts")) {
    cfg.drifts.clear();
    for (const auto& name : util::split_list(args.get("drifts"), ',')) {
      cfg.drifts.push_back(stream::parse_drift_kind(name));
    }
  }
  cfg.disruption.intensity = args.num("intensity", 0.3);
  cfg.disruption.seed = seed;
  cfg.disruption.outage_sites = args.count("outage-sites", 2.0);
  cfg.drift.intensity = args.num("drift-intensity", 0.15);
  cfg.drift.seed = seed;
  cfg.bridge.seed = args.count("bridge-seed", 1.0);
  cfg.sim_seed = args.count("sim-seed", 7.0);
  cfg.threads = args.flag("serial") ? 1 : args.count("threads", 0.0);
  cfg.verbose = args.flag("verbose");

  const auto catalog = panda::SiteCatalog::make_default();
  const twin::ScenarioTwin runner(catalog, cfg);
  const auto result = runner.run(real, synth);

  std::printf("twin matrix: %zu cells (%zu scenarios x %zu drifts), "
              "%zu policies, %.1f s\n",
              result.cells.size(), cfg.disruptions.size(),
              cfg.drifts.size(), cfg.policies.size(), result.wall_seconds);
  std::printf("%s", twin::render_twin(result).c_str());

  write_artifact(args.get("json-out", "twin_matrix.json"),
                 twin::twin_to_json(cfg, result, key, real.num_rows(),
                                    synth.num_rows()));
  return 0;
}

int cmd_version(const Args& /*args*/) {
  namespace simd = linalg::simd;
  std::string available;
  for (const simd::Backend b : simd::available_backends()) {
    if (!available.empty()) available += ",";
    available += simd::backend_name(b);
  }
  std::printf("surro %s\n", kVersionString);
  std::printf("simd backend: %s (available: %s)\n",
              simd::active_backend_name(), available.c_str());
  return 0;
}

/// One command: its handler and its usage lines. The lines are what
/// `surro_cli` prints and the whole set of flags the command accepts.
struct Command {
  const char* name;
  int (*run)(const Args&);
  const char* usage;
};

const Command kCommands[] = {
    {"version", cmd_version, "print version and active SIMD backend"},
    {"models", cmd_models, "list registered surrogate models"},
    {"generate", cmd_generate, "--days D --rate R --seed S --out FILE"},
    {"profile", cmd_profile, "--data FILE"},
    {"synthesize", cmd_synthesize,
     "--data FILE --model KEY\n"
     "--rows N --epochs E --seed S --threads T --chunk-rows C\n"
     "--out FILE [--verbose]"},
    {"save-model", cmd_save_model,
     "--data FILE --model KEY\n"
     "--epochs E --seed S --out FILE [--verbose]"},
    {"sample-model", cmd_sample_model,
     "--model-file FILE --rows N --seed S --threads T\n"
     "--chunk-rows C --out FILE [--verbose]"},
    {"evaluate", cmd_evaluate, "--real FILE --synth FILE"},
    {"simulate", cmd_simulate,
     "--data FILE --policy {random|locality|least|hybrid}\n"
     "--capacity-scale C"},
    {"twin", cmd_twin,
     "--data FILE | --days D --rate R\n"
     "--model KEY --rows N --epochs E --seed S --chunk-rows C\n"
     "--policies \"random,locality,least-loaded,hybrid[:T]\"\n"
     "--scenarios \"none,outage,burst,storm\"\n"
     "--drifts \"none,mean_shift,...\" --intensity I --drift-intensity I\n"
     "--outage-sites K --capacity-scale C --threads T\n"
     "--bridge-seed S --sim-seed S\n"
     "--json-out FILE [--serial] [--via-service] [--verbose]"},
    {"matrix", cmd_matrix,
     "--axes \"days=D1,D2;anomaly=F1,F2;rows=N1,N2;models=K1,K2\"\n"
     "--json-out FILE --threads T --epochs E --seed S\n"
     "[--serial-score] [--verbose]"},
    {"stream", cmd_stream,
     "--axes \"stride=S1,S2;drift=none,mean_shift;refresh=cold,warm;"
     "models=K1,K2\"\n"
     "--window W --days D --rows N --intensity I\n"
     "--json-out FILE --threads T --epochs E --seed S\n"
     "[--score-dcr] [--serial-score] [--verbose]"},
    {"serve", cmd_serve,
     "--models \"K1=FILE;K2=FILE\" | --models-dir DIR\n"
     "--script FILE.jsonl | --requests \"model=K,rows=N,seed=S,repeat=R;...\"\n"
     "--clients C --rounds R --capacity N --threads T\n"
     "--chunk-rows C\n"
     "--admission {block|reject|shed} --max-queue D\n"
     "--max-queued-rows R --json-out FILE [--verbose]\n"
     "[--shards N] [--replicas R] [--shard-ttl-ms MS]\n"
     "[--remote-shards HOST:PORT,...]\n"
     "HTTP mode: --listen PORT (0 = ephemeral) [--port-file FILE]\n"
     "[--api-keys-file FILE] [--quota-rps R] [--quota-burst B]\n"
     "[--max-body-bytes N] [--page-rows N] [--http-workers T]\n"
     "[--serve-seconds S] [--self-probe [--rows N] [--seed S]]\n"
     "Worker mode: --worker [--port-file FILE]\n"
     "(single-shard HTTP leaf on an ephemeral port;\n"
     "SIGTERM drains in-flight jobs and exits 0)"},
    {"request", cmd_request,
     "--connect HOST:PORT --path /v1/... [--method M]\n"
     "[--body JSON | --body-file FILE] [--key APIKEY]\n"
     "[--expect-status CODE] [--max-time S]"},
    {"soak", cmd_soak,
     "--models \"K1=FILE;K2=FILE\" | --models-dir DIR\n"
     "--load \"0.5,1,2,4\" --clients C --rows N\n"
     "--duration SECONDS --streams K --deadline-ms D\n"
     "--admission {block|reject|shed} --max-queue D\n"
     "--max-queued-rows R --capacity N --threads T\n"
     "--chunk-rows C --seed S\n"
     "--json-out FILE [--verbose] [--over-socket]\n"
     "[--shards N] [--replicas R] [--shard-ttl-ms MS]\n"
     "[--remote-shards HOST:PORT,...]"},
    {"fleet", cmd_fleet,
     "--workers N --models \"K1=FILE;...\" | --models-dir DIR\n"
     "[--local-shards N] [--replicas R] [--rows N]\n"
     "[--seed S] [--chunk-rows C] [--capacity N] [--cli PATH]\n"
     "[--ready-timeout S] [--serve-seconds S] [--shutdown-timeout S]\n"
     "(spawn N worker processes, probe mixed-pool\n"
     "determinism vs in-process, tear down gracefully)"},
};

int usage() {
  std::fprintf(stderr,
               "usage: surro_cli <command> [--key value ...] [--flag]\n"
               "global: every command accepts --simd "
               "{auto|scalar|avx2|neon} to pin\n"
               "        the kernel backend (same names as SURRO_SIMD env "
               "var;\n"
               "        see docs/PERFORMANCE.md)\n");
  for (const Command& command : kCommands) {
    std::string_view name = command.name;
    for (const auto line : util::split(command.usage, '\n')) {
      std::fprintf(stderr, "  %-12.*s %.*s\n", static_cast<int>(name.size()),
                   name.data(), static_cast<int>(line.size()), line.data());
      name = "";
    }
  }
  std::fprintf(stderr, "KEY: %s\n", model_list().c_str());
  return 2;
}

/// True when `usage` names `--flag` as a whole token.
bool declares(std::string_view usage, const std::string& flag) {
  const std::string token = "--" + flag;
  for (auto at = usage.find(token); at != std::string_view::npos;
       at = usage.find(token, at + 1)) {
    const std::size_t end = at + token.size();
    if (end == usage.size() ||
        (std::isalnum(static_cast<unsigned char>(usage[end])) == 0 &&
         usage[end] != '-')) {
      return true;
    }
  }
  return false;
}

/// The --flags after the command word, each checked against its usage.
Args parse_args(int argc, char** argv, const Command& command) {
  Args args;
  for (int i = 2; i < argc; ++i) {
    if (std::strncmp(argv[i], "--", 2) != 0) continue;
    const std::string key = argv[i] + 2;
    if (key != "simd" && !declares(command.usage, key)) {
      throw std::invalid_argument(std::string(command.name) +
                                  " takes no --" + key +
                                  " (run surro_cli alone for every "
                                  "command's flags)");
    }
    // A flag is boolean when it is the last token or the next token is
    // itself a --flag; otherwise it consumes the next token as its value.
    // (Values may start with a single '-': negative numbers still work.)
    if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
      args.kv[key] = argv[i + 1];
      ++i;
    } else {
      args.bare.insert(key);
    }
  }
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  g_argv0 = argv[0];
  std::string name = argc < 2 ? "" : argv[1];
  if (name == "--version") name = "version";
  const auto* command = std::find_if(
      std::begin(kCommands), std::end(kCommands),
      [&name](const Command& c) { return name == c.name; });
  if (command == std::end(kCommands)) return usage();
  try {
    const Args args = parse_args(argc, argv, *command);
    // Global backend pin — same names as SURRO_SIMD, applied before any
    // kernel runs. A CLI flag (not an env prefix) so docs examples can
    // exercise it portably.
    if (args.kv.contains("simd")) {
      linalg::simd::force_backend(
          linalg::simd::parse_backend(args.get("simd")));
    }
    return command->run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
