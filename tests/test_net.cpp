// Network front end: the incremental RequestParser (split feeds, pipelining,
// the 400/413/431/501/505 error taxonomy), token-bucket quotas and the key
// registry, the REST API's validation/error bodies/pagination, and the full
// socket path — an HttpEndpoint on an ephemeral loopback port driven by
// HttpClient/ApiClient, including the headline contract: rows reassembled
// from paginated pages over the wire hash identically to a local
// sample_into() of the same (model, rows, seed, chunk_rows) identity — and
// the soak harness's socket mode, which must land on the same digests.

#include <gtest/gtest.h>
#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <future>
#include <limits>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "models/generator.hpp"
#include "net/auth.hpp"
#include "net/client.hpp"
#include "net/http.hpp"
#include "net/rest.hpp"
#include "net/server.hpp"
#include "serve/model_host.hpp"
#include "serve/remote_shard.hpp"
#include "serve/replay.hpp"
#include "serve/sample_service.hpp"
#include "serve/soak.hpp"
#include "util/json.hpp"
#include "util/json_parse.hpp"
#include "util/rng.hpp"

namespace surro::net {
namespace {

// ------------------------------------------------------------- fixtures --

// Tiny mixed table with clear structure (mirrors test_serve.cpp).
tabular::Table cluster_table(std::size_t n, std::uint64_t seed) {
  tabular::Schema schema({{"x", tabular::ColumnKind::kNumerical},
                          {"site", tabular::ColumnKind::kCategorical},
                          {"y", tabular::ColumnKind::kNumerical},
                          {"status", tabular::ColumnKind::kCategorical}});
  tabular::Table t(schema);
  util::Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    const bool cluster_a = rng.bernoulli(0.65);
    auto row = t.make_row();
    if (cluster_a) {
      row.set(0, rng.normal(0.0, 0.4));
      row.set(1, std::string(rng.bernoulli(0.9) ? "BNL" : "CERN"));
      row.set(2, rng.normal(-2.0, 0.3));
      row.set(3, std::string(rng.bernoulli(0.85) ? "finished" : "failed"));
    } else {
      row.set(0, rng.normal(5.0, 0.4));
      row.set(1, std::string(rng.bernoulli(0.8) ? "RAL" : "CERN"));
      row.set(2, rng.normal(3.0, 0.3));
      row.set(3, std::string(rng.bernoulli(0.6) ? "finished" : "failed"));
    }
    t.append_row(row);
  }
  return t;
}

models::TrainBudget tiny_budget() {
  models::TrainBudget b;
  b.epochs = 4;
  b.batch_size = 64;
  b.learning_rate = 1e-3f;
  return b;
}

/// Per-test scratch directory for model archives, removed on destruction.
struct TempDir {
  TempDir() {
    static std::atomic<std::uint64_t> counter{0};
    path = std::filesystem::temp_directory_path() /
           ("surro_net_test_" + std::to_string(++counter) + "_" +
            std::to_string(::getpid()));
    std::filesystem::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  [[nodiscard]] std::string file(const std::string& name) const {
    return (path / name).string();
  }
  std::filesystem::path path;
};

/// One fitted smote archive + host + service + RestApi, ready to route.
struct RestFixture {
  explicit RestFixture(RestConfig cfg = {}) {
    auto model = models::make_generator("smote", tiny_budget(), 7);
    model->fit(cluster_table(300, 21));
    models::save_model_file(*model, dir.file("smote.bin"));
    host.register_archive("smote", dir.file("smote.bin"));
    service.emplace(host);
    api.emplace(*service, cfg);
  }

  TempDir dir;
  serve::ModelHost host{serve::HostConfig{}};
  std::optional<serve::SampleService> service;
  std::optional<RestApi> api;
};

/// Run a raw wire request through the real parser so RestApi tests exercise
/// the same HttpRequest shape the server produces.
HttpRequest parse_request(const std::string& wire) {
  RequestParser parser;
  const auto state = parser.feed(wire);
  EXPECT_EQ(state, RequestParser::State::kComplete)
      << "fixture request failed to parse: " << wire;
  return parser.request();
}

HttpRequest simple_get(const std::string& target,
                       const std::string& api_key = "") {
  std::string wire = "GET " + target + " HTTP/1.1\r\nhost: t\r\n";
  if (!api_key.empty()) wire += "x-api-key: " + api_key + "\r\n";
  wire += "\r\n";
  return parse_request(wire);
}

HttpRequest json_post(const std::string& target, const std::string& body,
                      const std::string& api_key = "") {
  std::string wire = "POST " + target + " HTTP/1.1\r\nhost: t\r\n";
  if (!api_key.empty()) wire += "x-api-key: " + api_key + "\r\n";
  wire += "content-type: application/json\r\ncontent-length: " +
          std::to_string(body.size()) + "\r\n\r\n" + body;
  return parse_request(wire);
}

/// The structured {"error":{"code",...}} code of an error response.
std::string error_code_of(const HttpResponse& response) {
  const auto doc = util::parse_json(response.body);
  return doc.at("error").at("code").as_string();
}

// ------------------------------------------------------- request parser --

TEST(RequestParser, ParsesCompleteRequestWithBodyAndQuery) {
  RequestParser parser;
  const std::string wire =
      "POST /v1/sample?debug=1&name=a%20b+c HTTP/1.1\r\n"
      "Host: example\r\n"
      "X-API-Key: k1\r\n"
      "Content-Length: 4\r\n"
      "\r\n"
      "abcd";
  ASSERT_EQ(parser.feed(wire), RequestParser::State::kComplete);
  const auto& req = parser.request();
  EXPECT_EQ(req.method, "POST");
  EXPECT_EQ(req.path, "/v1/sample");
  EXPECT_EQ(req.target, "/v1/sample?debug=1&name=a%20b+c");
  EXPECT_EQ(req.query_or("debug"), "1");
  EXPECT_EQ(req.query_or("name"), "a b c");  // %20 and '+' both decode
  EXPECT_EQ(req.header("x-api-key"), "k1");  // names lowercased
  EXPECT_EQ(req.body, "abcd");
  EXPECT_TRUE(req.keep_alive);  // HTTP/1.1 default
}

TEST(RequestParser, ByteAtATimeFeedAcrossEveryBoundary) {
  const std::string wire =
      "POST /x HTTP/1.1\r\ncontent-length: 3\r\n\r\nxyz";
  RequestParser parser;
  for (std::size_t i = 0; i < wire.size(); ++i) {
    const auto state = parser.feed(wire.substr(i, 1));
    if (i + 1 < wire.size()) {
      ASSERT_EQ(state, RequestParser::State::kNeedMore) << "at byte " << i;
    } else {
      ASSERT_EQ(state, RequestParser::State::kComplete);
    }
  }
  EXPECT_EQ(parser.request().body, "xyz");
}

TEST(RequestParser, SplitExactlyAtHeaderBoundary) {
  // The blank line arrives in a separate feed from the header block.
  RequestParser parser;
  ASSERT_EQ(parser.feed("GET /healthz HTTP/1.1\r\nhost: a\r\n\r"),
            RequestParser::State::kNeedMore);
  ASSERT_EQ(parser.feed("\n"), RequestParser::State::kComplete);
  EXPECT_EQ(parser.request().path, "/healthz");
  EXPECT_TRUE(parser.request().body.empty());
}

TEST(RequestParser, PipelinedRequestsSurviveReset) {
  RequestParser parser;
  // Two full requests in one TCP segment: the second must be retained
  // through reset() and complete without further feeds.
  const std::string two =
      "GET /a HTTP/1.1\r\n\r\n"
      "POST /b HTTP/1.1\r\ncontent-length: 2\r\n\r\nhi";
  ASSERT_EQ(parser.feed(two), RequestParser::State::kComplete);
  EXPECT_EQ(parser.request().path, "/a");
  parser.reset();
  ASSERT_EQ(parser.state(), RequestParser::State::kComplete);
  EXPECT_EQ(parser.request().path, "/b");
  EXPECT_EQ(parser.request().body, "hi");
  parser.reset();
  EXPECT_EQ(parser.state(), RequestParser::State::kNeedMore);
}

TEST(RequestParser, KeepAliveResolution) {
  EXPECT_TRUE(parse_request("GET / HTTP/1.1\r\n\r\n").keep_alive);
  EXPECT_FALSE(
      parse_request("GET / HTTP/1.1\r\nconnection: close\r\n\r\n")
          .keep_alive);
  EXPECT_FALSE(parse_request("GET / HTTP/1.0\r\n\r\n").keep_alive);
  EXPECT_TRUE(
      parse_request("GET / HTTP/1.0\r\nconnection: keep-alive\r\n\r\n")
          .keep_alive);
}

TEST(RequestParser, ErrorTaxonomy) {
  {  // malformed request line -> 400
    RequestParser p;
    EXPECT_EQ(p.feed("NONSENSE\r\n\r\n"), RequestParser::State::kError);
    EXPECT_EQ(p.error_status(), 400);
  }
  {  // non-origin-form target -> 400
    RequestParser p;
    EXPECT_EQ(p.feed("GET example.com HTTP/1.1\r\n\r\n"),
              RequestParser::State::kError);
    EXPECT_EQ(p.error_status(), 400);
  }
  {  // unsupported version -> 505
    RequestParser p;
    EXPECT_EQ(p.feed("GET / HTTP/2.0\r\n\r\n"),
              RequestParser::State::kError);
    EXPECT_EQ(p.error_status(), 505);
  }
  {  // transfer-encoding framing -> 501
    RequestParser p;
    EXPECT_EQ(
        p.feed("POST / HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n"),
        RequestParser::State::kError);
    EXPECT_EQ(p.error_status(), 501);
  }
  {  // declared body past the cap -> 413, judged before any body arrives
    HttpLimits limits;
    limits.max_body_bytes = 16;
    RequestParser p(limits);
    EXPECT_EQ(p.feed("POST / HTTP/1.1\r\ncontent-length: 17\r\n\r\n"),
              RequestParser::State::kError);
    EXPECT_EQ(p.error_status(), 413);
  }
  {  // header block past the cap -> 431, failed mid-stream
    HttpLimits limits;
    limits.max_header_bytes = 64;
    RequestParser p(limits);
    std::string wire = "GET / HTTP/1.1\r\nx-padding: ";
    wire += std::string(128, 'a');
    EXPECT_EQ(p.feed(wire), RequestParser::State::kError);
    EXPECT_EQ(p.error_status(), 431);
  }
  {  // a terminal error is sticky: further feeds do not resurrect it
    RequestParser p;
    ASSERT_EQ(p.feed("BAD\r\n\r\n"), RequestParser::State::kError);
    EXPECT_EQ(p.feed("GET / HTTP/1.1\r\n\r\n"),
              RequestParser::State::kError);
  }
}

TEST(RequestParser, MalformedContentLengthIs400) {
  RequestParser p;
  EXPECT_EQ(p.feed("POST / HTTP/1.1\r\ncontent-length: ten\r\n\r\n"),
            RequestParser::State::kError);
  EXPECT_EQ(p.error_status(), 400);
}

TEST(RequestParser, RandomizedSplitReadFuzz) {
  // The parser contract: the final parse of a byte stream depends only on
  // the BYTES, never on how the transport chunked them. For every corpus
  // request and response — valid, error-terminal, and edge-shaped — the
  // whole-feed outcome is the reference, and then (a) every two-part split
  // at all 1..len-1 boundaries and (b) a seeded storm of random
  // multi-chunk splits must land on the identical terminal state, message
  // fields, and error status.
  const std::vector<std::string> corpus = {
      // Plain GET, query decoding, keep-alive default.
      "GET /v1/models?cursor=3&k=a%20b HTTP/1.1\r\nhost: t\r\n\r\n",
      // POST with a body (the body-phase boundary is the classic bug site).
      "POST /v1/sample HTTP/1.1\r\nhost: t\r\ncontent-type: application/"
      "json\r\ncontent-length: 26\r\n\r\n{\"model\":\"smote\","
      "\"rows\":9}",
      // Zero-length body, explicit close.
      "POST /v1/sample HTTP/1.1\r\nhost: t\r\nconnection: close\r\n"
      "content-length: 0\r\n\r\n",
      // Header folding hazards: padded values, mixed case names.
      "GET / HTTP/1.1\r\nHost: t\r\nX-API-Key:   spaced-key  \r\n"
      "Accept: */*\r\n\r\n",
      // HTTP/1.0 (keep_alive resolves false).
      "GET /healthz HTTP/1.0\r\nhost: t\r\n\r\n",
      // Error-terminal shapes: bad request line, bad version, framing.
      "NONSENSE\r\n\r\n",
      "GET / HTTP/2.0\r\n\r\n",
      "POST / HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n",
      "POST / HTTP/1.1\r\ncontent-length: ten\r\n\r\n",
  };
  // The client's side of the wire: the same parser reading status lines.
  const std::vector<std::string> responses = {
      "HTTP/1.1 200 OK\r\ncontent-type: application/json\r\n"
      "content-length: 13\r\nconnection: keep-alive\r\n\r\n"
      "{\"which\":\"A\"}",
      "HTTP/1.1 429 Too Many Requests\r\nRetry-After:  2 \r\n"
      "content-length: 2\r\nconnection: close\r\n\r\n{}",
      "HTTP/1.0 204\r\ncontent-length: 0\r\n\r\n",
      "HTTP/1.1 503 \r\ncontent-length: 0\r\n\r\n",
      // Error-terminal shapes.
      "HTTP/1.1 2x0 OK\r\n\r\n",
      "HTTP/2 200 OK\r\n\r\n",
      "HTTP/1.1 200 OK\r\ncontent-length: 2xyz\r\n\r\n{}",
      "HTTP/1.1 200 OK\r\ncontent-length: 18446744073709551615\r\n\r\n",
      "HTTP/1.1 200 OK\r\ntransfer-encoding: chunked\r\n\r\n",
      "HTTP/1.1 200 OK\r\nx-a: 1\r\n folded\r\n\r\n",
  };

  using Direction = RequestParser::Direction;
  struct Outcome {
    RequestParser::State state = RequestParser::State::kNeedMore;
    int error_status = 0;
    bool keep_alive = false;
    HttpRequest request;
    HttpResponse response;
  };
  const auto run = [](Direction direction, const std::string& wire,
                      const std::vector<std::size_t>& cuts) {
    RequestParser parser(HttpLimits{}, direction);
    std::size_t begin = 0;
    for (const std::size_t cut : cuts) {
      (void)parser.feed(std::string_view(wire).substr(begin, cut - begin));
      begin = cut;
    }
    (void)parser.feed(std::string_view(wire).substr(begin));
    Outcome out;
    out.state = parser.state();
    if (out.state == RequestParser::State::kError) {
      out.error_status = parser.error_status();
    } else if (out.state == RequestParser::State::kComplete) {
      out.keep_alive = parser.keep_alive();
      out.request = parser.request();
      out.response = parser.response();
    }
    return out;
  };
  const auto expect_same = [](const Outcome& got, const Outcome& want) {
    ASSERT_EQ(got.state, want.state);
    ASSERT_EQ(got.error_status, want.error_status);
    ASSERT_EQ(got.request.method, want.request.method);
    ASSERT_EQ(got.request.target, want.request.target);
    ASSERT_EQ(got.request.path, want.request.path);
    ASSERT_EQ(got.request.body, want.request.body);
    ASSERT_TRUE(got.request.headers == want.request.headers);
    ASSERT_TRUE(got.request.query == want.request.query);
    ASSERT_EQ(got.request.keep_alive, want.request.keep_alive);
    ASSERT_EQ(got.keep_alive, want.keep_alive);
    ASSERT_EQ(got.response.status, want.response.status);
    ASSERT_TRUE(got.response.headers == want.response.headers);
    ASSERT_EQ(got.response.body, want.response.body);
  };

  util::Rng rng(0xF5A5u);  // seeded: failures reproduce exactly
  std::vector<std::pair<Direction, std::string>> cases;
  for (const auto& wire : corpus) cases.emplace_back(Direction::kRequest, wire);
  for (const auto& wire : responses) {
    cases.emplace_back(Direction::kResponse, wire);
  }
  for (const auto& [direction, wire] : cases) {
    const Outcome want = run(direction, wire, {});
    // Exhaustive two-part splits: every boundary, including mid-CRLF and
    // mid-body.
    for (std::size_t cut = 1; cut < wire.size(); ++cut) {
      SCOPED_TRACE("two-part cut at " + std::to_string(cut) + " of " +
                   wire.substr(0, 24));
      expect_same(run(direction, wire, {cut}), want);
    }
    // Random multi-chunk splits (1-6 cuts, anywhere).
    for (int trial = 0; trial < 200; ++trial) {
      std::vector<std::size_t> cuts;
      const auto n = static_cast<std::size_t>(rng.uniform_int(1, 6));
      for (std::size_t i = 0; i < n; ++i) {
        cuts.push_back(static_cast<std::size_t>(rng.uniform_int(
            1, static_cast<std::int64_t>(wire.size()) - 1)));
      }
      std::sort(cuts.begin(), cuts.end());
      cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
      SCOPED_TRACE("trial " + std::to_string(trial) + " of " +
                   wire.substr(0, 24));
      expect_same(run(direction, wire, cuts), want);
    }
  }
  // The valid responses parse to what their bytes say.
  const Outcome ok = run(Direction::kResponse, responses[0], {});
  ASSERT_EQ(ok.state, RequestParser::State::kComplete);
  EXPECT_EQ(ok.response.status, 200);
  EXPECT_EQ(ok.response.body, "{\"which\":\"A\"}");
  EXPECT_TRUE(ok.keep_alive);
  const Outcome refused = run(Direction::kResponse, responses[1], {});
  ASSERT_EQ(refused.state, RequestParser::State::kComplete);
  EXPECT_EQ(refused.response.status, 429);
  EXPECT_EQ(refused.response.headers.at("retry-after"), "2");
  EXPECT_FALSE(refused.keep_alive);
  EXPECT_FALSE(run(Direction::kResponse, responses[2], {}).keep_alive);
  for (std::size_t i = 4; i < responses.size(); ++i) {
    EXPECT_EQ(run(Direction::kResponse, responses[i], {}).state,
              RequestParser::State::kError)
        << responses[i];
  }
}

// ------------------------------------------------------- server budgets --

TEST(ServerTimeouts, TricklingRequestIsClosedWithinTheBudgetOfItsFirstByte) {
  // One header byte every 0.3 s keeps each recv() inside the 1 s budget;
  // the request as a whole must still end at ~1 s after its first byte.
  ServerConfig cfg;
  cfg.worker_threads = 1;
  cfg.idle_timeout_seconds = 1.0;
  HttpServer server(cfg, [](const HttpRequest&) {
    return HttpResponse::text(200, "ok");
  });
  server.start();
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = ::htonl(INADDR_LOOPBACK);
  addr.sin_port = ::htons(server.port());
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);

  const std::string trickle = "GET / HTTP/1.1\r\nx-pad: " +
                              std::string(64, 'a');
  const auto first_byte = std::chrono::steady_clock::now();
  const auto waited = [&] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         first_byte)
        .count();
  };
  bool closed = false;
  for (std::size_t i = 0; i < trickle.size() && !closed && waited() < 5.0;
       ++i) {
    (void)::send(fd, &trickle[i], 1, MSG_NOSIGNAL);
    pollfd ready{fd, POLLIN, 0};
    if (::poll(&ready, 1, 300) > 0) {
      char c = 0;
      closed = ::recv(fd, &c, 1, 0) <= 0;
    }
  }
  EXPECT_TRUE(closed);
  EXPECT_LT(waited(), 3.0);
  EXPECT_EQ(server.stats().timeouts, 1u);
  ::close(fd);
  server.stop();
}

// ---------------------------------------------------------------- quotas --

TEST(TokenBucket, BurstThenRefill) {
  TokenBucket bucket(/*rps=*/2.0, /*burst=*/0.0);  // burst defaults to 2
  double retry = 0.0;
  EXPECT_TRUE(bucket.try_take(0.0, &retry));
  EXPECT_TRUE(bucket.try_take(0.0, &retry));
  EXPECT_FALSE(bucket.try_take(0.0, &retry));
  EXPECT_GT(retry, 0.0);
  EXPECT_LE(retry, 0.5 + 1e-9);  // one token accrues in 1/rps seconds
  // Replay time forward past the refusal's own advice: a token is back.
  EXPECT_TRUE(bucket.try_take(0.6, &retry));
  EXPECT_FALSE(bucket.try_take(0.6, &retry));
}

TEST(TokenBucket, NonPositiveRateIsUnlimited) {
  TokenBucket bucket(0.0, 0.0);
  double retry = 0.0;
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(bucket.try_take(0.0, &retry));
  }
}

TEST(QuotaLedger, OpenAccessVersusKeyedAccess) {
  QuotaLedger open_ledger(/*default_rps=*/0.0);
  EXPECT_TRUE(open_ledger.open_access());
  EXPECT_TRUE(open_ledger.authorized(""));
  EXPECT_TRUE(open_ledger.authorized("anything"));

  QuotaLedger keyed(/*default_rps=*/0.0);
  keyed.add_key("k1");
  EXPECT_FALSE(keyed.open_access());
  EXPECT_TRUE(keyed.authorized("k1"));
  EXPECT_FALSE(keyed.authorized(""));
  EXPECT_FALSE(keyed.authorized("k2"));
}

TEST(QuotaLedger, PerKeyRateOverridesDefault) {
  QuotaLedger ledger(/*default_rps=*/100.0);
  ledger.add_key("fast");
  ledger.add_key("slow", 1.0);
  double retry = 0.0;
  // "slow" drains after its burst of one...
  EXPECT_TRUE(ledger.charge("slow", 0.0, &retry));
  EXPECT_FALSE(ledger.charge("slow", 0.0, &retry));
  EXPECT_GT(retry, 0.0);
  // ...while "fast" still has default-rate headroom at the same instant.
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(ledger.charge("fast", 0.0, &retry));
  }
}

TEST(QuotaLedger, LoadFileParsesKeysRatesAndComments) {
  TempDir dir;
  const std::string path = dir.file("keys.txt");
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("# comment line\n\nprod-key-1 200\n  ci-key\t\n", f);
    std::fclose(f);
  }
  QuotaLedger ledger(0.0);
  ledger.load_file(path);
  EXPECT_EQ(ledger.num_keys(), 2u);
  EXPECT_TRUE(ledger.authorized("prod-key-1"));
  EXPECT_TRUE(ledger.authorized("ci-key"));
  EXPECT_FALSE(ledger.authorized("# comment line"));

  EXPECT_THROW(ledger.load_file(dir.file("missing.txt")),
               std::runtime_error);
  {
    std::FILE* f = std::fopen(dir.file("bad.txt").c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("key twohundred\n", f);
    std::fclose(f);
  }
  EXPECT_THROW(ledger.load_file(dir.file("bad.txt")), std::runtime_error);
}

// ---------------------------------------------------------- REST routing --

TEST(RestApi, HealthzAndModels) {
  RestFixture fx;
  const auto health = fx.api->handle(simple_get("/healthz"));
  EXPECT_EQ(health.status, 200);

  const auto models = fx.api->handle(simple_get("/v1/models"));
  ASSERT_EQ(models.status, 200);
  const auto doc = util::parse_json(models.body);
  ASSERT_EQ(doc.at("models").array.size(), 1u);
  EXPECT_EQ(doc.at("models").array[0].at("key").as_string(), "smote");
}

TEST(RestApi, RoutingErrors) {
  RestFixture fx;
  const auto missing = fx.api->handle(simple_get("/v1/nope"));
  EXPECT_EQ(missing.status, 404);
  EXPECT_EQ(error_code_of(missing), "unknown_route");

  const auto wrong_method =
      fx.api->handle(parse_request("DELETE /v1/models HTTP/1.1\r\n\r\n"));
  EXPECT_EQ(wrong_method.status, 405);
  EXPECT_EQ(error_code_of(wrong_method), "method_not_allowed");
  EXPECT_FALSE(wrong_method.headers.at("allow").empty());
}

TEST(RestApi, SubmitValidation) {
  RestFixture fx;
  const auto bad_json =
      fx.api->handle(json_post("/v1/sample", "{not json"));
  EXPECT_EQ(bad_json.status, 400);
  EXPECT_EQ(error_code_of(bad_json), "bad_json");

  const auto typo = fx.api->handle(json_post(
      "/v1/sample", R"({"model":"smote","rows":10,"chnk_rows":64})"));
  EXPECT_EQ(typo.status, 400);
  EXPECT_EQ(error_code_of(typo), "unknown_field");

  const auto no_model =
      fx.api->handle(json_post("/v1/sample", R"({"rows":10})"));
  EXPECT_EQ(no_model.status, 400);

  const auto unknown_model = fx.api->handle(
      json_post("/v1/sample", R"({"model":"tabddpm","rows":10})"));
  EXPECT_EQ(unknown_model.status, 404);
  EXPECT_EQ(error_code_of(unknown_model), "unknown_model");

  const auto no_rows =
      fx.api->handle(json_post("/v1/sample", R"({"model":"smote"})"));
  EXPECT_EQ(no_rows.status, 400);
}

// ------------------------------------------------------------ job fields --

/// A backend that records every job it is handed and resolves it at once
/// with an empty table: what a request decodes to, without sampling.
class RecordingBackend : public serve::SampleBackend {
 public:
  [[nodiscard]] serve::Submitted submit_job(serve::SampleJob job) override {
    const std::lock_guard<std::mutex> lock(mutex_);
    jobs_.push_back(std::move(job));
    std::promise<serve::SampleResult> done;
    done.set_value({});
    return {jobs_.size(), done.get_future()};
  }
  bool cancel(std::uint64_t /*job_id*/) override { return false; }
  void drain() override {}
  [[nodiscard]] serve::ServiceStats stats() const override { return {}; }
  [[nodiscard]] std::size_t queue_depth() const override { return 0; }
  [[nodiscard]] const serve::ServiceConfig& config() const noexcept override {
    return cfg_;
  }
  [[nodiscard]] std::vector<std::string> model_keys() const override {
    return {"smote"};
  }
  [[nodiscard]] bool has_model(const std::string& key) const override {
    return key == "smote";
  }
  [[nodiscard]] bool model_resident(const std::string& /*key*/) const override {
    return true;
  }
  [[nodiscard]] serve::SampleJob last() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return jobs_.back();
  }

 private:
  mutable std::mutex mutex_;
  serve::ServiceConfig cfg_;
  std::vector<serve::SampleJob> jobs_;
};

void expect_same_job(const serve::SampleJob& got,
                     const serve::SampleJob& want, const std::string& where) {
  EXPECT_EQ(got.model_key, want.model_key) << where;
  EXPECT_EQ(got.rows, want.rows) << where;
  EXPECT_EQ(got.seed, want.seed) << where;
  EXPECT_EQ(got.chunk_rows, want.chunk_rows) << where;
  EXPECT_EQ(got.threads, want.threads) << where;
  EXPECT_EQ(got.priority, want.priority) << where;
  EXPECT_EQ(got.deadline_ms, want.deadline_ms) << where;
}

TEST(JobFields, PostBodyAndScriptLineAgreeOnEveryEdgeValue) {
  RecordingBackend backend;
  RestConfig cfg;
  cfg.max_rows_per_job = 0;  // only the job reader's own ranges apply
  RestApi api(backend, cfg);
  // Valid, fractional, negative, over the field's range and wrong kind for
  // every field, plus decimal-string seeds. 2^40 = 1099511627776 bounds
  // the counts and 2^53 = 9007199254740992 a numeric seed.
  const std::pair<const char*, bool> cases[] = {
      {R"({"model":"smote","rows":1})", true},
      {R"({"model":"smote","rows":1099511627776})", true},
      {R"({"model":"smote","rows":2.5})", false},
      {R"({"model":"smote","rows":-1})", false},
      {R"({"model":"smote","rows":1099511627777})", false},
      {R"({"model":"smote","rows":"4"})", false},
      {R"({"model":"smote"})", false},
      {R"({"model":7,"rows":4})", false},
      {R"({"rows":4})", false},
      {R"({"model":"smote","rows":4,"seed":9007199254740992})", true},
      {R"({"model":"smote","rows":4,"seed":"7"})", true},
      {R"({"model":"smote","rows":4,"seed":"18446744073709551615"})", true},
      {R"({"model":"smote","rows":4,"seed":7.5})", false},
      {R"({"model":"smote","rows":4,"seed":-7})", false},
      {R"({"model":"smote","rows":4,"seed":9007199254740994})", false},
      {R"({"model":"smote","rows":4,"seed":"18446744073709551616"})", false},
      {R"({"model":"smote","rows":4,"seed":"-7"})", false},
      {R"({"model":"smote","rows":4,"seed":"7x"})", false},
      {R"({"model":"smote","rows":4,"seed":true})", false},
      {R"({"model":"smote","rows":4,"chunk_rows":128})", true},
      {R"({"model":"smote","rows":4,"chunk_rows":1.5})", false},
      {R"({"model":"smote","rows":4,"chunk_rows":-1})", false},
      {R"({"model":"smote","rows":4,"chunk_rows":1099511627777})", false},
      {R"({"model":"smote","rows":4,"chunk_rows":"128"})", false},
      {R"({"model":"smote","rows":4,"threads":2})", true},
      {R"({"model":"smote","rows":4,"threads":2.5})", false},
      {R"({"model":"smote","rows":4,"threads":-2})", false},
      {R"({"model":"smote","rows":4,"threads":1099511627777})", false},
      {R"({"model":"smote","rows":4,"threads":null})", false},
      {R"({"model":"smote","rows":4,"priority":-1000000})", true},
      {R"({"model":"smote","rows":4,"priority":1000000})", true},
      {R"({"model":"smote","rows":4,"priority":1.5})", false},
      {R"({"model":"smote","rows":4,"priority":-1000001})", false},
      {R"({"model":"smote","rows":4,"priority":1000001})", false},
      {R"({"model":"smote","rows":4,"priority":1e300})", false},
      {R"({"model":"smote","rows":4,"priority":"5"})", false},
      {R"({"model":"smote","rows":4,"deadline_ms":0.5})", true},
      {R"({"model":"smote","rows":4,"deadline_ms":1e12})", true},
      {R"({"model":"smote","rows":4,"deadline_ms":-1})", false},
      {R"({"model":"smote","rows":4,"deadline_ms":1.5e12})", false},
      {R"({"model":"smote","rows":4,"deadline_ms":"250"})", false},
      {R"({"model":"smote","rows":4,"chnk_rows":64})", false},
  };
  for (const auto& [body, valid] : cases) {
    const auto response = api.handle(json_post("/v1/sample", body));
    EXPECT_EQ(response.status, valid ? 202 : 400)
        << body << " -> " << response.body;
    std::optional<serve::SampleJob> scripted;
    try {
      std::istringstream line(body);
      scripted = serve::parse_script_jsonl(line).requests.at(0).job;
    } catch (const std::runtime_error&) {
    }
    EXPECT_EQ(scripted.has_value(), valid) << body;
    if (response.status == 202 && scripted) {
      expect_same_job(backend.last(), *scripted, body);
    }
  }
  // A decimal-string seed keeps all 64 bits.
  EXPECT_EQ(serve::read_sample_job(
                util::parse_json(R"({"model":"m","rows":1,)"
                                 R"("seed":"18446744073709551615"})"))
                .seed,
            std::numeric_limits<std::uint64_t>::max());
}

TEST(JobFields, WriterEmitsTheWireFormAndReadsBack) {
  const auto written = [](const serve::SampleJob& job) {
    util::JsonWriter w;
    w.begin_object();
    serve::write_sample_job(w, job);
    w.end_object();
    return w.str();
  };
  serve::SampleJob job;
  job.model_key = "smote";
  job.rows = 500;
  EXPECT_EQ(written(job), R"({"model":"smote","rows":500,"seed":"1234"})");
  job.seed = std::numeric_limits<std::uint64_t>::max();
  job.chunk_rows = 64;
  job.priority = -3;
  job.deadline_ms = 250.5;
  // The body ApiClient sends for a job without a thread cap.
  EXPECT_EQ(written(job),
            R"({"model":"smote","rows":500,"seed":"18446744073709551615",)"
            R"("chunk_rows":64,"priority":-3,"deadline_ms":250.5})");
  job.threads = 3;
  const std::string text = written(job);
  EXPECT_NE(text.find(R"("chunk_rows":64,"threads":3,"priority":-3)"),
            std::string::npos)
      << text;
  expect_same_job(serve::read_sample_job(util::parse_json(text)), job, text);
}

TEST(JobFields, RemoteShardCarriesEveryJobField) {
  RecordingBackend backend;
  HttpEndpoint endpoint(backend);
  endpoint.server.start();
  serve::RemoteShardConfig cfg;
  cfg.port = endpoint.server.port();
  cfg.http = ClientConfig{5.0, 1, 0.0, 0.0};
  cfg.poll_wait_ms = 100.0;
  serve::SampleJob job;
  job.model_key = "smote";
  job.rows = 4;
  job.seed = 987654321098765432ULL;
  job.chunk_rows = 64;
  job.threads = 3;
  job.priority = 2;
  job.deadline_ms = 5000.0;
  {
    serve::RemoteShard shard(cfg);
    EXPECT_EQ(shard.submit_job(job).future.get().table.num_rows(), 0u);
  }
  expect_same_job(backend.last(), job, "over the wire");
  endpoint.server.stop();
}

TEST(RestApi, SubmitPaginateReassembleMatchesLocalDigest) {
  RestFixture fx;
  const std::size_t rows = 257;  // deliberately not a page multiple
  const auto submit = fx.api->handle(json_post(
      "/v1/sample",
      R"({"model":"smote","rows":257,"seed":"987654321098765432",)"
      R"("chunk_rows":64})"));
  ASSERT_EQ(submit.status, 202) << submit.body;
  const auto handle_doc = util::parse_json(submit.body);
  const std::string job_id = handle_doc.at("job_id").as_string();
  EXPECT_EQ(handle_doc.at("seed").as_string(), "987654321098765432");

  // Page the rows back 100 at a time and rebuild the table.
  std::optional<tabular::Table> out;
  std::size_t cursor = 0;
  std::size_t pages = 0;
  for (;;) {
    const auto page = fx.api->handle(
        simple_get("/v1/jobs/" + job_id + "?cursor=" +
                   std::to_string(cursor) + "&limit=100&wait_ms=10000"));
    ASSERT_EQ(page.status, 200) << page.body;
    const auto doc = util::parse_json(page.body);
    ASSERT_EQ(doc.at("status").as_string(), "done");
    if (!out) {
      std::vector<tabular::ColumnSpec> specs;
      for (const auto& col : doc.at("schema").array) {
        specs.push_back({col.at("name").as_string(),
                         col.at("kind").as_string() == "numerical"
                             ? tabular::ColumnKind::kNumerical
                             : tabular::ColumnKind::kCategorical});
      }
      out.emplace(tabular::Schema(specs));
    }
    for (const auto& row : doc.at("data").array) {
      auto builder = out->make_row();
      for (std::size_t c = 0; c < row.array.size(); ++c) {
        const auto& cell = row.array[c];
        if (out->schema().columns()[c].kind ==
            tabular::ColumnKind::kNumerical) {
          builder.set(c, cell.is_null()
                             ? std::numeric_limits<double>::quiet_NaN()
                             : cell.as_number());
        } else {
          builder.set(c, cell.as_string());
        }
      }
      out->append_row(builder);
    }
    ++pages;
    if (doc.at("next_cursor").is_null()) break;
    cursor = static_cast<std::size_t>(doc.at("next_cursor").as_number());
  }
  EXPECT_EQ(pages, 3u);  // 100 + 100 + 57
  ASSERT_EQ(out->num_rows(), rows);

  // The wire bytes must hash identically to a direct local sample.
  tabular::Table local(out->schema());
  models::SampleRequest request;
  request.rows = rows;
  request.seed = 987654321098765432ull;
  request.chunk_rows = 64;
  fx.host.acquire("smote")->sample_into(local, request);
  EXPECT_EQ(serve::hash_table(*out), serve::hash_table(local));

  // Cursor past the end is a typed 400.
  const auto bad = fx.api->handle(
      simple_get("/v1/jobs/" + job_id + "?cursor=9999"));
  EXPECT_EQ(bad.status, 400);
  EXPECT_EQ(error_code_of(bad), "bad_cursor");
}

TEST(RestApi, JobLifecycleUnknownDeleteAndPurge) {
  RestFixture fx;
  const auto missing = fx.api->handle(simple_get("/v1/jobs/424242"));
  EXPECT_EQ(missing.status, 404);
  EXPECT_EQ(error_code_of(missing), "unknown_job");

  const auto submit = fx.api->handle(
      json_post("/v1/sample", R"({"model":"smote","rows":50})"));
  ASSERT_EQ(submit.status, 202);
  const std::string job_id =
      util::parse_json(submit.body).at("job_id").as_string();
  EXPECT_EQ(fx.api->tracked_jobs(), 1u);

  const auto deleted =
      fx.api->handle(parse_request("DELETE /v1/jobs/" + job_id +
                                   " HTTP/1.1\r\n\r\n"));
  EXPECT_EQ(deleted.status, 200);
  EXPECT_EQ(util::parse_json(deleted.body).at("status").as_string(),
            "deleted");
  EXPECT_EQ(fx.api->tracked_jobs(), 0u);

  const auto gone = fx.api->handle(simple_get("/v1/jobs/" + job_id));
  EXPECT_EQ(gone.status, 404);
}

TEST(RestApi, AuthRequiredWhenKeysRegistered) {
  RestFixture fx;
  fx.api->quotas().add_key("secret");

  const auto anonymous = fx.api->handle(simple_get("/v1/models"));
  EXPECT_EQ(anonymous.status, 401);
  EXPECT_EQ(error_code_of(anonymous), "unauthorized");

  const auto wrong = fx.api->handle(simple_get("/v1/models", "guess"));
  EXPECT_EQ(wrong.status, 401);

  const auto keyed = fx.api->handle(simple_get("/v1/models", "secret"));
  EXPECT_EQ(keyed.status, 200);

  // Bearer tokens are an equivalent spelling of the same key.
  const auto bearer = fx.api->handle(parse_request(
      "GET /v1/models HTTP/1.1\r\nauthorization: Bearer secret\r\n\r\n"));
  EXPECT_EQ(bearer.status, 200);

  // /healthz stays key-free for load balancers.
  EXPECT_EQ(fx.api->handle(simple_get("/healthz")).status, 200);
}

TEST(RestApi, QuotaExhaustionAnswers429WithRetryAfter) {
  RestConfig cfg;
  cfg.quota_rps = 1.0;  // burst defaults to 1
  RestFixture fx(cfg);
  EXPECT_EQ(fx.api->handle(simple_get("/v1/models")).status, 200);
  const auto limited = fx.api->handle(simple_get("/v1/models"));
  EXPECT_EQ(limited.status, 429);
  EXPECT_EQ(error_code_of(limited), "quota_exhausted");
  ASSERT_TRUE(limited.headers.contains("retry-after"));
  EXPECT_GE(std::stod(limited.headers.at("retry-after")), 1.0);
  // /healthz is never metered.
  EXPECT_EQ(fx.api->handle(simple_get("/healthz")).status, 200);
}

TEST(RestApi, StatsDocumentShape) {
  RestFixture fx;
  (void)fx.api->handle(simple_get("/v1/models"));
  const auto response = fx.api->handle(simple_get("/v1/stats"));
  ASSERT_EQ(response.status, 200);
  const auto doc = util::parse_json(response.body);
  EXPECT_EQ(doc.at("kind").as_string(), "serve_http_stats");
  EXPECT_EQ(doc.at("schema_version").as_number(), 1.0);
  EXPECT_TRUE(doc.has("service"));
  EXPECT_TRUE(doc.has("admission"));
  EXPECT_TRUE(doc.has("cache"));
  EXPECT_TRUE(doc.has("quota"));
  ASSERT_TRUE(doc.has("http"));
  const auto& routes = doc.at("http").at("routes").array;
  bool saw_models = false;
  for (const auto& route : routes) {
    if (route.at("route").as_string() == "GET /v1/models") {
      saw_models = true;
      EXPECT_GE(route.at("requests").as_number(), 1.0);
    }
  }
  EXPECT_TRUE(saw_models);
}

// ------------------------------------------------------------ socket e2e --

TEST(HttpEndpointSocket, FullProtocolOverLoopback) {
  RestFixture fx;
  RestConfig rest_cfg;
  ServerConfig server_cfg;
  server_cfg.worker_threads = 4;
  HttpEndpoint endpoint(*fx.service, rest_cfg, server_cfg);
  endpoint.server.start();
  ASSERT_NE(endpoint.server.port(), 0);

  ApiClient client("127.0.0.1", endpoint.server.port());
  EXPECT_TRUE(client.healthy());
  EXPECT_EQ(client.models(), std::vector<std::string>{"smote"});

  // Submit, paginate back, digest: the socket path must land on the same
  // bytes as a local sample of the same identity.
  const std::uint64_t seed = 0xDEADBEEFCAFEF00Dull;
  const std::uint64_t job = client.submit("smote", 120, seed, 32);
  const auto remote = client.wait_result(job, /*page_rows=*/50);
  EXPECT_EQ(remote.pages, 3u);
  ASSERT_EQ(remote.table.num_rows(), 120u);

  tabular::Table local(remote.table.schema());
  models::SampleRequest request;
  request.rows = 120;
  request.seed = seed;
  request.chunk_rows = 32;
  fx.host.acquire("smote")->sample_into(local, request);
  EXPECT_EQ(serve::hash_table(remote.table), serve::hash_table(local));

  // Unknown model is refused before submit, as a typed ApiError.
  try {
    (void)client.submit("tabddpm", 10, 1);
    FAIL() << "expected ApiError";
  } catch (const ApiError& e) {
    EXPECT_EQ(e.status(), 404);
    EXPECT_EQ(e.code(), "unknown_model");
  }

  // cancel() on an already-resolved job reports nothing live to cancel.
  const std::uint64_t done_job = client.submit("smote", 10, 1);
  (void)client.wait_result(done_job);
  EXPECT_FALSE(client.cancel(done_job));

  const auto stats = util::parse_json(client.stats_json());
  EXPECT_EQ(stats.at("kind").as_string(), "serve_http_stats");
  ASSERT_TRUE(stats.has("server"));
  EXPECT_GE(stats.at("server").at("requests").as_number(), 1.0);

  endpoint.server.stop();
  EXPECT_FALSE(endpoint.server.running());
}

TEST(HttpEndpointSocket, AuthAndQuotaOverTheWire) {
  RestConfig rest_cfg;
  rest_cfg.quota_rps = 2.0;
  RestFixture fx(rest_cfg);
  // RestFixture built its own api; the endpoint wraps the same service
  // with the quota config and its own key registry.
  HttpEndpoint endpoint(*fx.service, rest_cfg);
  endpoint.api.quotas().add_key("good-key");
  endpoint.server.start();

  ApiClient anonymous("127.0.0.1", endpoint.server.port());
  try {
    (void)anonymous.models();
    FAIL() << "expected 401";
  } catch (const ApiError& e) {
    EXPECT_EQ(e.status(), 401);
    EXPECT_EQ(e.code(), "unauthorized");
  }
  EXPECT_TRUE(anonymous.healthy());  // liveness needs no key

  ApiClient keyed("127.0.0.1", endpoint.server.port(), "good-key");
  EXPECT_EQ(keyed.models(), std::vector<std::string>{"smote"});
  // Drain the bucket (burst = max(1, rps) = 2; one token already spent).
  bool saw_quota_error = false;
  for (int i = 0; i < 4 && !saw_quota_error; ++i) {
    try {
      (void)keyed.models();
    } catch (const ApiError& e) {
      EXPECT_EQ(e.status(), 429);
      EXPECT_EQ(e.code(), "quota_exhausted");
      EXPECT_GE(e.retry_after(), 1.0);
      saw_quota_error = true;
    }
  }
  EXPECT_TRUE(saw_quota_error);
  endpoint.server.stop();
}

TEST(HttpEndpointSocket, KeepAliveServesManyRequestsOnOneConnection) {
  RestFixture fx;
  HttpEndpoint endpoint(*fx.service);
  endpoint.server.start();

  HttpClient client("127.0.0.1", endpoint.server.port());
  for (int i = 0; i < 16; ++i) {
    const auto response = client.request("GET", "/healthz");
    ASSERT_EQ(response.status, 200);
  }
  const auto stats = endpoint.server.stats();
  EXPECT_EQ(stats.connections, 1u);
  EXPECT_EQ(stats.requests, 16u);

  // A parse-error response closes the connection and is tallied.
  const auto bad = client.request("BAD METHOD", "/healthz");
  EXPECT_EQ(bad.status, 400);
  EXPECT_GE(endpoint.server.stats().parse_errors, 1u);
  endpoint.server.stop();
}

// ------------------------------------------------------------------ soak --

// run_soak drives one client loop in every mode; over the socket each
// client submits through its own RemoteShard. The same seed run in-process,
// over the socket, and over the socket into a 2-shard pool must agree on
// the expected digests, and every accepted job must match its digest.
TEST(SoakOverSocket, InProcessSocketAndShardedRunsAgree) {
  RestFixture fx;
  serve::SoakConfig cfg;
  cfg.models = {"smote"};
  cfg.load_multipliers = {0.5, 2.0};
  cfg.clients = 2;
  cfg.rows_per_job = 300;
  cfg.duration_seconds = 0.2;
  cfg.seed = 2024;

  const serve::SoakResult local = serve::run_soak(fx.host, cfg);
  cfg.over_socket = true;
  const serve::SoakResult socket = serve::run_soak(fx.host, cfg);
  cfg.backend.shards = 2;
  const serve::SoakResult sharded = serve::run_soak(fx.host, cfg);

  for (const serve::SoakResult* run : {&local, &socket, &sharded}) {
    EXPECT_EQ(run->expected_hash, local.expected_hash);
    EXPECT_TRUE(run->deterministic);
    ASSERT_EQ(run->points.size(), 2u);
    for (const auto& point : run->points) {
      EXPECT_EQ(point.counts.failed, 0u) << "load " << point.multiplier;
      EXPECT_GT(point.counts.completed, 0u) << "load " << point.multiplier;
      // drive_load's floor: a point never stops short of its minimum.
      EXPECT_GE(point.counts.submitted, cfg.effective_min_jobs())
          << "load " << point.multiplier;
    }
  }
  EXPECT_EQ(local.http_requests, 0u);
  EXPECT_GT(socket.http_requests, 0u);
  EXPECT_GT(sharded.http_requests, 0u);
  EXPECT_GT(sharded.routed, 0u);
}

}  // namespace
}  // namespace surro::net
