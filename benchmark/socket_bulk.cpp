// socket_bulk — the payload-bound wire path: net::HttpEndpoint over one
// SampleService serving SMOTE only, four closed-loop net::ApiClient users
// each submitting 10,000-row jobs and paging the result back at the
// server's default 1,000 rows per page. Sampling is cheap, so JSON
// encode, parse and pagination take a large share of each job; the NN
// kernels stay idle. A wire-format change should show here and not on
// serve_mixed.

#include <filesystem>
#include <memory>

#include "harness.hpp"
#include "net/client.hpp"
#include "net/rest.hpp"
#include "serve/replay.hpp"
#include "util/json_parse.hpp"

namespace surro::benchmark {

namespace {

struct Scale {
  std::size_t rows;
  std::size_t chunk_rows;
  std::size_t clients;
  std::size_t seeds;
};

Scale scale_for(const Options& opts) {
  return opts.smoke ? Scale{1000, 1024, 4, 4} : Scale{10000, 1024, 4, 16};
}

const std::string kModel = "smote";

/// The serving stack one set-up builds: host, service, HTTP front end and
/// one keep-alive client per load thread (members die in reverse order, so
/// the socket layer stops before the service it calls into).
struct Stack {
  Stack(const std::string& archive, const Scale& scale)
      : service(host, service_config(scale)),
        endpoint(service, net::RestConfig{}, server_config(scale)) {
    host.register_archive(kModel, archive);
    endpoint.server.start();
    for (std::size_t c = 0; c < scale.clients; ++c) {
      clients.push_back(std::make_unique<net::ApiClient>(
          "127.0.0.1", endpoint.server.port()));
      if (!clients.back()->healthy()) {
        throw std::runtime_error("socket_bulk: endpoint not healthy");
      }
    }
  }

  static serve::ServiceConfig service_config(const Scale& scale) {
    serve::ServiceConfig cfg;
    cfg.chunk_rows = scale.chunk_rows;
    return cfg;
  }
  static net::ServerConfig server_config(const Scale& scale) {
    net::ServerConfig cfg;
    cfg.worker_threads = scale.clients + 2;
    return cfg;
  }

  serve::ModelHost host;
  serve::SampleService service;
  net::HttpEndpoint endpoint;
  std::vector<std::unique_ptr<net::ApiClient>> clients;
};

/// Fetch one job's pages with raw HTTP requests, timing the fetch and the
/// JSON parse of each page apart: the encode/decode share of the wire.
void probe_pages(Stack& stack, const Scale& scale, std::uint64_t seed,
                 Tracer& tracer, RunResult& out) {
  const std::uint64_t id =
      stack.clients.front()->submit(kModel, scale.rows, seed, scale.chunk_rows);
  net::HttpClient http("127.0.0.1", stack.endpoint.server.port());
  std::vector<double> bytes, fetch_ms, parse_ms;
  std::uint64_t cursor = 0;
  for (;;) {
    const std::string target = "/v1/jobs/" + std::to_string(id) +
                               "?cursor=" + std::to_string(cursor) +
                               "&wait_ms=5000";
    double t = tracer.now();
    const net::HttpResponse response = http.request("GET", target);
    const double fetched = (tracer.now() - t) * 1e3;
    t = tracer.now();
    const util::JsonValue doc = util::parse_json(response.body);
    const double parsed = (tracer.now() - t) * 1e3;
    if (response.status != 200) {
      throw std::runtime_error("page probe: HTTP " +
                               std::to_string(response.status));
    }
    if (doc.at("status").as_string() == "pending") continue;
    bytes.push_back(static_cast<double>(response.body.size()));
    fetch_ms.push_back(fetched);
    parse_ms.push_back(parsed);
    const auto& next = doc.at("next_cursor");
    if (next.is_null()) break;
    cursor = static_cast<std::uint64_t>(next.as_number());
  }
  out.metrics["net.page_bytes"] = median(bytes);
  out.metrics["net.page_fetch_ms"] = median(fetch_ms);
  out.metrics["net.page_parse_ms"] = median(parse_ms);
}

}  // namespace

void run_socket_bulk(const Options& opts, Tracer& tracer, RunResult& out) {
  const Scale scale = scale_for(opts);
  const eval::ExperimentConfig cfg = data_config(1);
  const std::string dir = opts.out_dir + "/models";
  std::filesystem::create_directories(dir);

  std::unique_ptr<Stack> stack;
  run_setups(
      opts, tracer, out, [&] { stack.reset(); },
      [&](SpanId span) {
        const auto data = generate_data(cfg, tracer, span);
        stack = std::make_unique<Stack>(
            fit_and_save(kModel, cfg, data.train, dir, tracer, span), scale);
        // Warm: loads the archive and touches every layer once.
        auto& api = *stack->clients.front();
        (void)api.wait_result(
            api.submit(kModel, scale.rows, 0, scale.chunk_rows));
      });

  const auto seeds = seed_pool(opts.seed, scale.seeds);
  std::vector<JobRecord> records;
  std::vector<JobRecord> window_records;
  std::uint64_t window_index = 0;
  run_windows(opts, tracer, out, [&](double seconds) {
    window_records.clear();
    const serve::ServiceStats before = stack->service.stats();
    const std::uint64_t requests_before =
        stack->endpoint.server.stats().requests;
    const Window w = closed_loop(
        scale.clients, seconds, opts.seed * 31 + (++window_index), tracer,
        window_records,
        [&](std::size_t client, util::Rng& rng, std::uint64_t job) {
          net::ApiClient& api = *stack->clients[client];
          JobRecord r;
          r.model = kModel;
          r.seed = seeds[rng.uniform_index(seeds.size())];
          const double t0 = tracer.now();
          const SpanId root = tracer.begin("job", kNoSpan, job, r.model);
          const std::uint64_t id =
              traced(tracer, "net.submit", root, job, r.model, [&] {
                return api.submit(kModel, scale.rows, r.seed,
                                  scale.chunk_rows);
              });
          const double t_wait = tracer.now();
          const SpanId wait = tracer.begin("net.wait_result", root, job);
          net::RemoteResult result = api.wait_result(id);
          const double t1 = tracer.now();
          tracer.end(wait);
          // Server-side stages as the job document reports them; what is
          // left of the wait span is wire time (long-poll, pages, JSON).
          const double queued = std::min(t_wait + result.queue_seconds, t1);
          tracer.add("serve.queue", t_wait, queued, wait, job, r.model);
          tracer.add("serve.sample", queued,
                     std::min(queued + result.sample_seconds, t1), wait, job,
                     r.model);
          tracer.end(root);
          r.latency_ms = (t1 - t0) * 1e3;
          r.queue_ms = result.queue_seconds * 1e3;
          r.sample_ms = result.sample_seconds * 1e3;
          r.total_ms = result.total_seconds * 1e3;
          r.pages = result.pages;
          r.digest = serve::hash_table(result.table);  // think time
          return r;
        });
    report_service_stats(before, stack->service.stats(), out);
    const double jobs = static_cast<double>(window_records.size());
    out.metrics["net.requests_per_job"] =
        jobs > 0.0 ? static_cast<double>(
                         stack->endpoint.server.stats().requests -
                         requests_before) /
                         jobs
                   : 0.0;
    records.insert(records.end(), window_records.begin(),
                   window_records.end());
    return w;
  });
  tracer.set_enabled(opts.trace);

  check_digests(records, stack->host, scale.rows, scale.chunk_rows, out);

  if (!opts.trace) return;
  probe_pages(*stack, scale, seeds.front(), tracer, out);
  std::vector<double> wire_ms, queue_ms, sample_ms;
  double pages = 0.0;
  for (const auto& r : window_records) {
    wire_ms.push_back(r.latency_ms - r.total_ms);
    queue_ms.push_back(r.queue_ms);
    sample_ms.push_back(r.sample_ms);
    pages += static_cast<double>(r.pages);
  }
  out.metrics["net.wire_ms"] = median(wire_ms);
  out.metrics["net.pages_per_job"] =
      window_records.empty()
          ? 0.0
          : pages / static_cast<double>(window_records.size());
  out.metrics["serve.queue_wait_ms.p50"] = percentile(queue_ms, 0.50);
  out.metrics["serve.queue_wait_ms.p99"] = percentile(queue_ms, 0.99);
  out.metrics["serve.sample_ms." + kModel] = median(sample_ms);
}

}  // namespace surro::benchmark
